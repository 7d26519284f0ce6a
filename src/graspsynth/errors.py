"""Exception types shared across the toolkit, and the three input rules.

Every layer refuses a bad count, positive quantity or travel through one of
check_count, check_positive and check_non_negative, so the config and the
library entry points apply the same rules with the same messages, and each
raises ValidationError.  FLOAT_MAX is the one bound of the float range:
every input check compares the value as given against it, before anything
converts it, so an int too large for a float is refused like an infinity.
A refusal prints the value through _shown, which also prints an int too
long for Python's int-to-string conversion.
"""

import numbers
import sys

import numpy as np

FLOAT_MAX = sys.float_info.max


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
    """Refuse a quantity that is not positive and finite."""
    if not 0.0 < value <= FLOAT_MAX:
        raise ValidationError(
            f"{name} must be positive and finite, not {_shown(value, repr)}")


def check_non_negative(name: str, value) -> None:
    """Refuse a travel, or an array of travels, with a value that is
    negative or not finite (NaN included)."""
    values = np.asarray(value)
    if not ((values >= 0.0) & (values <= FLOAT_MAX)).all():
        raise ValidationError(
            f"{name} must be non-negative: a value is negative or not finite")
