"""Exception types shared across the toolkit, and the three input rules.

Every layer refuses a bad count, positive quantity or travel through one of
check_count, check_positive and check_non_negative, so the config and the
library entry points apply the same rules with the same messages, and each
raises ValidationError.
"""

import math
import numbers

import numpy as np


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


def check_count(name: str, value, minimum: int, cap=None) -> None:
    """Refuse a count that is not an integer of at least minimum, or one
    above cap when a cap is given.

    bool is refused; numpy integers pass.
    """
    rule = f"{name} must be at least {minimum}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{rule}; {value!r} is not an integer")
    if value < minimum:
        raise ValidationError(f"{rule}, not {value!r}")
    if cap is not None and value > cap:
        raise ValidationError(f"{name} {value} exceeds the cap {cap}")


def check_positive(name: str, value) -> None:
    """Refuse a quantity that is not positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValidationError(
            f"{name} must be positive and finite, not {value!r}")


def check_non_negative(name: str, value) -> None:
    """Refuse a travel, or an array of travels, with a value that is
    negative or not finite (NaN included).

    A Python float or int is compared directly, without the array round
    trip; bool, numpy scalars and arrays take the array path.  An int too
    large for a float is refused like an infinite value.
    """
    try:
        if type(value) in (float, int):
            ok = 0.0 <= float(value) < math.inf
        else:
            values = np.asarray(value, dtype=float)
            ok = ((values >= 0.0) & (values < math.inf)).all()
    except OverflowError:
        ok = False
    if not ok:
        raise ValidationError(
            f"{name} must be non-negative: a value is negative or not finite")
