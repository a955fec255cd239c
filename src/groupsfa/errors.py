"""Exception hierarchy shared across the package.

Three broad failure classes map onto the CLI exit codes: bad input data
(exit 2), numerical failures during estimation (exit 3), and malformed
configuration (exit 4). ``as_integer`` is the one integer-argument check
that raises ``InputError``.
"""

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


def as_integer(name, value):
    """``value`` as an int by ``operator.index``: Python and numpy integers
    pass, floats and strings do not. Raises ``InputError`` naming the
    argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
