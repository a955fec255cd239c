"""Exception hierarchy shared across the package.

Three broad failure classes map onto the CLI exit codes: bad input data
(exit 2), numerical failures during estimation (exit 3), and malformed
configuration (exit 4).

Every entry point checks its scalar arguments by the two rules here, both
raising ``InputError`` that names the argument: ``as_integer`` for counts,
indices and seeds (an optional lower bound), ``as_penalty`` for penalty
constants (finite and >= 0). Booleans pass neither rule.
"""

import math
import numbers
import operator


class GroupSfaError(Exception):
    """Base class for all package errors."""


class InputError(GroupSfaError):
    """Invalid data or arguments: unbalanced panel, bad shapes, out-of-range values."""


class ConfigError(GroupSfaError):
    """Malformed configuration: unknown keys, missing fields, bad types."""


class NumericalError(GroupSfaError):
    """Numerical failure during estimation."""


class RankDeficientError(NumericalError):
    """Design matrix numerically rank deficient."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class DegenerateICError(NumericalError):
    """A group attained a zero residual variance; the IC is undefined."""


class HessianError(NumericalError):
    """Numerical Hessian is singular or not negative definite at the optimum."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class ConvergenceError(NumericalError):
    """Optimizer failed to converge within its iteration budget."""

    def __init__(self, message, best_params=None, best_value=None):
        super().__init__(message)
        self.best_params = best_params
        self.best_value = best_value


def as_integer(name, value, low=None):
    """``value`` as an int by ``operator.index``: Python and numpy integers
    pass; bools, floats and strings do not, nor an integer below ``low``
    when it is given."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def as_penalty(name, value):
    """``value`` as a float if it is a finite real number >= 0; bools and
    strings do not pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
        raise InputError(f"{name} must be a finite real number >= 0, got {value!r}")
    return float(value)
