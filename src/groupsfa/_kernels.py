"""Likelihood kernels: vectorized numpy over firms.

The inefficiency MLE evaluates the panel log-likelihood thousands of times
per fit; each evaluation is a handful of numpy expressions over the firm
axis.

Per-firm sufficient statistics are the residual sum S_i = sum_t r_it and
square sum Q_i = sum_t r_it^2 of the composite residuals r_it (outcome
minus fitted frontier, level term NOT yet removed). Shifting by a level
value a turns these into the centered sums

    sum_t (r_it - a)   = S_i - T a
    sum_t (r_it - a)^2 = Q_i - 2 a S_i + T a^2

so the optimizer never touches the T-long series.

The per-firm log density of the panel half-normal model is

    log 2 - (T/2) log(2 pi) - ((T-1)/2) log sv2 - (1/2) log(sv2 + T su2)
    + log Phi(z) + z^2 / 2 - sumsq / (2 sv2),

with z = -su * sum / (sv * sqrt(sv2 + T su2)). The constant is written out
in full because model choice later compares likelihood levels across
specifications.

Its derivatives (Pitt & Lee 1981; Battese & Coelli 1988) use the inverse
Mills ratio lambda(z) = phi(z) / Phi(z), computed as
exp(-z^2/2 - log sqrt(2 pi) - log Phi(z)) so that it stays finite in both
tails. With eta = log su2 and si2 = sv2 + T su2,

    d/d alpha0 = (lambda + z) T su / (sv sqrt(si2)) + sum / sv2
    d/d eta    = -T su2 / (2 si2) + (lambda + z) z sv2 / (2 si2).

The two totals, ``loglik_unique_total`` and ``loglik_mixture_total``, take
each parameter as a scalar or a length-R vector (R parameter rows) and
always return an (R,) array of totals, from one (R, N) evaluation: the
optimizer's simplex sends the candidate points of all its starts through
one call, and the standard errors their whole difference stencil. The
parameter-free prefix log 2 - (T/2) log(2 pi) - ((T-1)/2) log sv2 is
computed once per call, and every row is computed by the same expressions
as a one-row call, so it is bit for bit the value that call returns.
"""

import math

import numpy as np
from scipy.special import log_ndtr

LOG2 = math.log(2.0)
LOG2PI = math.log(2.0 * math.pi)
_HALF_LOG2PI = 0.5 * LOG2PI


def _as_stats(S, Q, sv2):
    return (
        np.ascontiguousarray(S, dtype=float),
        np.ascontiguousarray(Q, dtype=float),
        np.ascontiguousarray(sv2, dtype=float),
    )


def _prefix(sv2, T):
    """Per-firm part of the log density that no parameter enters."""
    return LOG2 - 0.5 * T * LOG2PI - 0.5 * (T - 1) * np.log(sv2)


def _unique_parts(S, Q, sv2, T, alpha0, su2, prefix):
    """Per-firm terms with the intermediates their derivatives reuse.

    ``alpha0`` and ``su2`` are scalars, or (R, 1) columns that broadcast
    the terms to (R, N).
    """
    se = S - T * alpha0
    qe = Q - 2.0 * alpha0 * S + T * alpha0 * alpha0
    si2 = sv2 + T * su2
    z = -np.sqrt(su2) * se / (np.sqrt(sv2) * np.sqrt(si2))
    log_cdf = log_ndtr(z)
    terms = prefix - 0.5 * np.log(si2) + log_cdf + 0.5 * z * z - qe / (2.0 * sv2)
    return terms, se, si2, z, log_cdf


def _rows(*params):
    """Parameters (scalars, or vectors of one length R) as (R, 1) float
    columns.

    A single row comes back as plain floats, so a one-row evaluation runs
    on (N,) arrays, without broadcasting; it is the faster case.
    """
    cols = [np.asarray(p, dtype=float).reshape(-1, 1) for p in params]
    if len(cols[0]) == 1:
        return [c.item() for c in cols]
    return cols


def _totals(terms):
    """Row sums of the (R, N) or (N,) terms, as an (R,) array."""
    return np.atleast_1d(terms.sum(axis=-1))


def log_mixture_terms(l1, l2, tau):
    """Per-firm log(tau f_1) and log(tau f_1 + (1 - tau) f_2).

    ``l1`` and ``l2`` are the component log densities; the difference of
    the two outputs is the log responsibility of component 1.
    """
    with np.errstate(divide="ignore"):
        x1 = np.log(tau) + l1
        x2 = np.log1p(-tau) + l2
    return x1, np.logaddexp(x1, x2)


def loglik_unique_terms_grad(S, Q, sv2, T, alpha0, sigma_u2):
    """Per-firm terms and their derivatives in alpha0 and eta = log sigma_u2.

    Returns (terms, d_alpha0, d_eta); the terms are the per-firm
    log-likelihood contributions of the single-law model.
    """
    S, Q, sv2 = _as_stats(S, Q, sv2)
    terms, se, si2, z, log_cdf = _unique_parts(
        S, Q, sv2, T, alpha0, sigma_u2, _prefix(sv2, T)
    )
    mills = np.exp(-0.5 * z * z - _HALF_LOG2PI - log_cdf)
    dz = mills + z  # d/dz of log Phi(z) + z^2 / 2
    d_alpha0 = dz * T * math.sqrt(sigma_u2) / (np.sqrt(sv2) * np.sqrt(si2)) + se / sv2
    d_eta = (-0.5 * T * sigma_u2 + 0.5 * dz * z * sv2) / si2
    return terms, d_alpha0, d_eta


def loglik_unique_total(S, Q, sv2, T, alpha0, sigma_u2):
    """Single-law log-likelihood of each parameter row, as an (R,) array."""
    S, Q, sv2 = _as_stats(S, Q, sv2)
    a, su2 = _rows(alpha0, sigma_u2)
    return _totals(_unique_parts(S, Q, sv2, T, a, su2, _prefix(sv2, T))[0])


def loglik_mixture_total(S, Q, sv2, T, tau, a1, su2_1, a2, su2_2):
    """Mixture log-likelihood of each parameter row, as an (R,) array."""
    S, Q, sv2 = _as_stats(S, Q, sv2)
    tau, a1, su2_1, a2, su2_2 = _rows(tau, a1, su2_1, a2, su2_2)
    prefix = _prefix(sv2, T)
    l1 = _unique_parts(S, Q, sv2, T, a1, su2_1, prefix)[0]
    l2 = _unique_parts(S, Q, sv2, T, a2, su2_2, prefix)[0]
    return _totals(log_mixture_terms(l1, l2, tau)[1])
