"""Cosine basis functions and sieve design construction.

The basis is B_0(s) = 1, B_j(s) = sqrt(2) cos(j pi s) for j >= 1, an
orthonormal system on L2[0,1]. Time-varying coefficient curves are
approximated by finite linear combinations of these functions evaluated on
the scaled time grid tau_t = t/T. A design row stacks the time-varying
intercept block (which drops B_0 because the intercept curve is normalized
to integrate to zero) and one full basis block per regressor:

    [intercept? | B_1(tau)..B_{m-1}(tau) | x_1*B_0..B_{m-1} | ... | x_p*B_0..B_{m-1}]
"""

import numpy as np

from .errors import InputError

SQRT2 = np.sqrt(2.0)


def basis_value(j, s):
    """Evaluate the j-th cosine basis function at s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise InputError(f"basis argument must lie in [0, 1], got {s}")
    if j == 0:
        return 1.0
    return SQRT2 * np.cos(j * np.pi * s)


def time_grid(T):
    """Scaled time points tau_t = t/T for t = 1..T."""
    if T < 1:
        raise InputError(f"need T >= 1, got {T}")
    return np.arange(1, T + 1) / T


def basis_matrix(T, m):
    """T x m matrix with entry (t-1, j) equal to B_j(t/T)."""
    tau = time_grid(T)
    cols = [np.ones(T)]
    for j in range(1, m):
        cols.append(SQRT2 * np.cos(j * np.pi * tau))
    return np.column_stack(cols)


def design_row(x_it, t, T, m, with_intercept):
    """Build one design row for regressors x_it observed at time t of T.

    Layout per the module docstring; length is (m-1) + m*p without the
    intercept and 1 + (m-1) + m*p with it.
    """
    if not 1 <= t <= T:
        raise InputError(f"time index t={t} outside 1..{T}")
    if m < 2:
        raise InputError(f"design rows need m >= 2, got {m}")
    x_it = np.asarray(x_it, dtype=float)
    if x_it.ndim != 1:
        raise InputError(f"x_it must be a vector, got shape {x_it.shape}")
    s = t / T
    b = np.array([basis_value(j, s) for j in range(m)])
    parts = []
    if with_intercept:
        parts.append([1.0])
    parts.append(b[1:])
    for xl in x_it:
        parts.append(xl * b)
    return np.concatenate(parts)


def design_matrix(x_firm, m, with_intercept):
    """Stack design rows for one firm's full time series.

    Args:
        x_firm: (T, p) regressor matrix for the firm (p may be 0).
        m: number of sieve terms.
        with_intercept: prepend a constant column.

    Returns:
        (T, cols) design matrix with the row layout of :func:`design_row`.
    """
    x_firm = np.asarray(x_firm, dtype=float)
    if x_firm.ndim != 2:
        raise InputError(f"x_firm must be (T, p), got shape {x_firm.shape}")
    if m < 2:
        raise InputError(f"design matrices need m >= 2, got {m}")
    T, p = x_firm.shape
    B = basis_matrix(T, m)
    blocks = []
    if with_intercept:
        blocks.append(np.ones((T, 1)))
    blocks.append(B[:, 1:])
    for l in range(p):
        blocks.append(x_firm[:, l : l + 1] * B)
    return np.hstack(blocks)


def within_demean(series, axis=0):
    """Subtract the mean along ``axis``; the result sums to zero there."""
    a = np.asarray(series, dtype=float)
    if a.size == 0:
        raise InputError("cannot demean an empty series")
    return a - a.mean(axis=axis, keepdims=True)
