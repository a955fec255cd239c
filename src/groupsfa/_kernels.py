"""Likelihood kernels: vectorized numpy over firms.

The inefficiency MLE evaluates the panel log-likelihood thousands of times
per fit; each evaluation is a handful of numpy expressions over the firm
axis.

Per-firm sufficient statistics are the residual sum S_i = sum_t r_it and
square sum Q_i = sum_t r_it^2 of the composite residuals r_it (outcome
minus fitted frontier, level term NOT yet removed). Shifting by a level
value a gives the centered sum se = S_i - T a, and the centered square sum
splits into a part no parameter enters and a part in se alone:

    sum_t (r_it - a)^2 = W_i + se^2 / T,    W_i = Q_i - S_i^2 / T,

so the optimizer never touches the T-long series.

The per-firm log density of the panel half-normal model (Pitt & Lee 1981)
is, with si2 = sv2 + T su2 and z = -sqrt(su2 / (sv2 si2)) se,

    log 2 - (T/2) log(2 pi) - ((T-1)/2) log sv2 - W / (2 sv2)
    - (1/2) log si2 - se^2 / (2 T si2) + log Phi(z).

The first line is the per-firm prefix, computed once per call; the
within-firm square sum W sits there because it carries no parameter. The
constant is written out in full because model choice later compares
likelihood levels across specifications.

Its derivatives (Pitt & Lee 1981; Battese & Coelli 1988) use the inverse
Mills ratio lambda(z) = phi(z) / Phi(z), computed as
exp(-z^2/2 - log sqrt(2 pi) - log Phi(z)) so that it stays finite in both
tails. With eta = log su2,

    d/d alpha0 = (lambda + z) T sqrt(su2 / (sv2 si2)) + se / sv2
    d/d eta    = -T su2 / (2 si2) + (lambda + z) z sv2 / (2 si2).

The two totals, ``loglik_unique_total`` and ``loglik_mixture_total``, take
each parameter as a scalar or a length-R vector (R parameter rows) and
always return an (R,) array of totals, from one evaluation over (R, N):
the optimizer's simplex sends the candidate points of all its starts
through one call, and the standard errors their whole difference stencil.
The mixture stacks its two components as 2R rows of one single-law pass
and combines them by log-sum-exp. Every row is computed by the same
expressions whatever the batch size, so it is bit for bit the value that
a one-row call returns.
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


def _prefix(S, Q, sv2, T):
    """Per-firm part of the log density that no parameter enters,
    including the within-firm square sum W = Q - S (S / T), Q less S times
    the firm mean."""
    within = Q - S * (S / T)
    return LOG2 - 0.5 * T * LOG2PI - 0.5 * (T - 1) * np.log(sv2) - within / (2.0 * sv2)


def _unique_parts(S, Q, sv2, T, alpha0, su2):
    """Per-firm terms with the intermediates their derivatives reuse.

    ``alpha0`` and ``su2`` are scalars, or (R, 1) columns that broadcast
    the terms to (R, N).
    """
    se = S - T * alpha0
    si2 = sv2 + T * su2
    scale = np.sqrt(su2 / (sv2 * si2))
    z = -scale * se
    log_cdf = log_ndtr(z)
    terms = _prefix(S, Q, sv2, T) - 0.5 * np.log(si2) - se * se / (2.0 * T * si2) + log_cdf
    return terms, se, si2, scale, z, log_cdf


def _rows(*params):
    """Parameters (scalars, or vectors of one length R) as (R, 1) float
    columns."""
    return [np.asarray(p, dtype=float).reshape(-1, 1) for p in params]


def _totals(terms):
    """Row sums of the (R, N) terms, as an (R,) array."""
    return terms.sum(axis=1)


def log_mixture_terms(l1, l2, tau):
    """Per-firm log(tau f_1) and log(tau f_1 + (1 - tau) f_2).

    ``l1`` and ``l2`` are the component log densities; the difference of
    the two outputs is the log responsibility of component 1. The sum is
    max + log1p(exp(min - max)) of the two logs, so at tau = 0 or 1 it is
    the other component's log density exactly.
    """
    with np.errstate(divide="ignore"):
        x1 = np.log(tau) + l1
        x2 = np.log1p(-tau) + l2
    hi = np.maximum(x1, x2)
    return x1, hi + np.log1p(np.exp(np.minimum(x1, x2) - hi))


def loglik_unique_terms_grad(S, Q, sv2, T, alpha0, sigma_u2):
    """Per-firm terms and their derivatives in alpha0 and eta = log sigma_u2.

    ``alpha0`` and ``sigma_u2`` are scalars, or (R, 1) columns for (R, N)
    outputs. Returns (terms, d_alpha0, d_eta); the terms are the per-firm
    log-likelihood contributions of the single-law model.
    """
    S, Q, sv2 = _as_stats(S, Q, sv2)
    terms, se, si2, scale, z, log_cdf = _unique_parts(S, Q, sv2, T, alpha0, sigma_u2)
    mills = np.exp(-0.5 * z * z - _HALF_LOG2PI - log_cdf)
    dz = mills + z  # d/dz of log Phi(z) + z^2 / 2
    d_alpha0 = dz * T * scale + se / sv2
    d_eta = (-0.5 * T * sigma_u2 + 0.5 * dz * z * sv2) / si2
    return terms, d_alpha0, d_eta


def loglik_unique_total(S, Q, sv2, T, alpha0, sigma_u2):
    """Single-law log-likelihood of each parameter row, as an (R,) array."""
    S, Q, sv2 = _as_stats(S, Q, sv2)
    a, su2 = _rows(alpha0, sigma_u2)
    return _totals(_unique_parts(S, Q, sv2, T, a, su2)[0])


def loglik_mixture_total(S, Q, sv2, T, tau, a1, su2_1, a2, su2_2):
    """Mixture log-likelihood of each parameter row, as an (R,) array."""
    S, Q, sv2 = _as_stats(S, Q, sv2)
    tau, a1, su2_1, a2, su2_2 = _rows(tau, a1, su2_1, a2, su2_2)
    R = len(tau)
    terms = _unique_parts(
        S, Q, sv2, T, np.concatenate([a1, a2]), np.concatenate([su2_1, su2_2])
    )[0]
    return _totals(log_mixture_terms(terms[:R], terms[R:], tau)[1])
