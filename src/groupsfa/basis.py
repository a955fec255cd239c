"""Cosine basis functions and the sieve layout.

The basis is B_0(s) = 1, B_j(s) = sqrt(2) cos(j pi s) for j >= 1, an
orthonormal system on L2[0,1]. Time-varying coefficient curves are
approximated by finite linear combinations of these functions evaluated on
the scaled time grid tau_t = t/T. A design row, built for one firm or for
a stack of firms at once, stacks the time-varying intercept block (which
drops B_0 because the intercept curve is normalized to integrate to zero)
and one full basis block per regressor:

    [B_1(tau)..B_{m-1}(tau) | x_1*B_0..B_{m-1} | ... | x_p*B_0..B_{m-1}]

This module is the one owner of that layout: ``design_matrix`` builds it,
``coefficient_curves`` reads the curves back out of a coefficient vector
laid out the same way, and ``nested_columns`` finds a shorter sieve's
columns among a longer one's.
"""

import numpy as np

from .errors import InputError

SQRT2 = np.sqrt(2.0)


def basis_matrix(s, m):
    """(len(s), m) matrix with entry (i, j) equal to B_j(s[i]), s in [0, 1]."""
    s = np.asarray(s, dtype=float)
    outside = ~((s >= 0.0) & (s <= 1.0))
    if outside.any():
        raise InputError(f"basis argument must lie in [0, 1], got {s[outside][0]}")
    cols = [np.ones(len(s))]
    for j in range(1, m):
        cols.append(SQRT2 * np.cos(j * np.pi * s))
    return np.column_stack(cols)


def design_matrix(x, m):
    """Stack design rows for one firm's time series, or for n firms'.

    Args:
        x: (T, p) regressors of one firm, or (n, T, p) of n firms (p may be 0).
        m: number of sieve terms.

    Returns:
        (T, cols) or (n, T, cols), rows laid out as in the module docstring.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise InputError(f"x must be (T, p) or (n, T, p), got shape {x.shape}")
    if m < 2:
        raise InputError(f"design matrices need m >= 2, got {m}")
    *lead, T, p = x.shape
    B = basis_matrix(np.arange(1, T + 1) / T, m)
    return np.concatenate(
        [np.broadcast_to(B[:, 1:], (*lead, T, m - 1)),
         (x[..., None] * B[:, None, :]).reshape(*lead, T, p * m)],
        axis=-1,
    )


def nested_columns(m_short, m, p):
    """Indices of ``design_matrix(x, m_short)``'s columns among
    ``design_matrix(x, m)``'s, for m_short <= m and p regressors.

    B_j does not depend on m, so the shorter design is this column subset
    of the longer one, bit for bit.
    """
    blocks = [np.arange(m_short - 1)]
    blocks += [(m - 1) + j * m + np.arange(m_short) for j in range(p)]
    return np.concatenate(blocks)


def coefficient_curves(pi, s, m):
    """Evaluate the curves of a no-intercept sieve coefficient vector.

    ``pi`` is laid out as the columns of ``design_matrix(x, m)``:
    (m-1) intercept-curve coefficients, then m per regressor. Returns the
    (len(s), 1 + p) values alpha(s), beta_1(s), ..., beta_p(s), one
    product of the basis with the coefficients arranged one curve per
    column.
    """
    pi = np.asarray(pi, dtype=float)
    p = (len(pi) - (m - 1)) // m
    W = np.zeros((m, 1 + p))
    W[1:, 0] = pi[: m - 1]
    W[:, 1:] = pi[m - 1 :].reshape(p, m).T
    return basis_matrix(s, m) @ W
