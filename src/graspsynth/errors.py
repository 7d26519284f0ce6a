"""Exception types shared across the toolkit, and the input rules.

Every layer refuses a bad count, positive quantity or travel through one of
check_count, check_positive and the travel pair, so the config and the
library entry points apply the same rules with the same messages, and each
raises ValidationError.  The travel pair decides what a travel argument is
and returns it as floats, which code past the entry point computes with
and never checks again: check_non_negative reads one travel and refuses an
array-like, travels reads several.  A value that cannot be compared
or converted (a string, None, a ragged nesting, a complex travel) is
refused by the same rules with the same messages, and so is an array
given for a positive quantity, one element included.  The fourth rule is
the float range: every input check that asks whether a value is finite
asks _finite, which compares the value as given with FLOAT_MAX, before
anything converts it, so an int too large for a float is refused like an
infinity.  It widens a float16 or float32 first: numpy would compare one
at its own precision, in which FLOAT_MAX is inf.  _real adds that the
value is one number that compares with a float.
A refusal prints the value through _shown, which also prints an int too
long for Python's int-to-string conversion.
"""

import numbers
import sys

import numpy as np

FLOAT_MAX = sys.float_info.max

_NARROW = (np.float16, np.float32)


class ValidationError(ValueError):
    """An input violates a documented invariant; the message names it."""


class ConfigError(ValueError):
    """A configuration document is malformed; the message carries the key path."""


class NumericalError(RuntimeError):
    """A numerical procedure failed in a way validation could not catch."""


class SingularityError(NumericalError):
    """A denominator or matrix became numerically singular."""


class ConvergenceError(NumericalError):
    """An iterative solve did not converge.

    Carries ``last_step`` (the last converged equilibrium step, or None)
    and ``path`` (the partial equilibrium path up to the failure).
    """

    def __init__(self, message, last_step=None, path=None):
        super().__init__(message)
        self.last_step = last_step
        self.path = path


def _is_integer(value) -> bool:
    """Whether value is an integer: numpy integers pass, bool does not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether value, a number or every number of an array, lies in the
    float range.  It is compared with FLOAT_MAX as given, so an int or a
    longdouble past the range is not; a float16 or float32 is widened
    first, as numpy would compare it at its own precision, where FLOAT_MAX
    is inf."""
    if type(value) is not float:
        if isinstance(value, np.ndarray):
            if value.dtype.type in _NARROW:
                value = value.astype(np.float64)
            if value.ndim:  # 0-d, object dtype included: compared below
                return bool((np.abs(value) <= FLOAT_MAX).all())
        elif type(value) in _NARROW:
            value = float(value)
    return abs(value) <= FLOAT_MAX


def _real(value) -> bool:
    """Whether value is one number that compares with a float and passes
    _finite: no array, one element included, string, None or complex."""
    if isinstance(value, float):  # numpy's float64 included
        return abs(value) <= FLOAT_MAX
    try:  # numpy orders its complex values: refused by dtype
        array = np.asarray(value)
        return bool(array.ndim == 0 and array.dtype.kind != "c"
                    and (0.0 <= value or value < 0.0) and _finite(value))
    except (TypeError, ValueError):
        return False


def _shown(value, text=str) -> str:
    """text(value), str or repr, as a refusal prints the value.

    An int past Python's int-to-string digit limit makes str and repr raise
    ValueError; it shows in scientific notation instead, and a tuple or
    list holding one shows its items so, in parentheses.
    """
    try:
        return text(value)
    except ValueError:
        if isinstance(value, (tuple, list)):
            return f"({', '.join(_shown(item, repr) for item in value)})"
        from decimal import Decimal  # here, as it adds 1 ms to the import
        return f"{Decimal(value):.6e}"


def check_count(name: str, value, minimum: int, cap=FLOAT_MAX) -> None:
    """Refuse a count that is not an integer of at least minimum, or one
    above cap, by default above the float range.

    bool is refused; numpy integers pass.
    """
    rule = f"{name} must be at least {minimum}"
    if not _is_integer(value):
        raise ValidationError(f"{rule}; {value!r} is not an integer")
    if value < minimum:
        raise ValidationError(f"{rule}, not {_shown(value, repr)}")
    if value > cap:
        raise ValidationError(f"{name} {_shown(value)} exceeds the cap {cap}")


def check_positive(name: str, value) -> None:
    """Refuse a quantity that is not one positive, finite number (_real): a
    string, None, a list or an array, one element included, is refused."""
    if not (_real(value) and 0.0 < value):
        raise ValidationError(
            f"{name} must be positive and finite, not {_shown(value, repr)}")


def travels(name: str, value):
    """The several-travels rule: value's travels as a float for a scalar or
    a new float array of its shape for an array-like, refused if one is
    negative or not finite (NaN included), complex, or not a number numpy
    can compare and convert (a string, None, a ragged nesting)."""
    try:
        values = np.asarray(value)
        if (values.dtype.kind != "c" and (values >= 0.0).all()
                and _finite(values)):
            return (np.array(values, dtype=float) if values.ndim
                    else float(values))
    except (TypeError, ValueError):
        pass
    raise ValidationError(
        f"{name} must be non-negative: a value is negative or not finite")


def check_non_negative(name: str, value) -> float:
    """The one-travel rule: value as a float (travels), refused if it is an
    array-like (a ragged nesting included) or travels refuses it."""
    try:
        several = np.ndim(value)
    except ValueError:
        several = True
    if several:
        raise ValidationError(f"{name} takes one travel, not an array of them")
    return travels(name, value)
