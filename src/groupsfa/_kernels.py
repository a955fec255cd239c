"""Likelihood kernels: vectorized numpy over firms.

The inefficiency MLE evaluates the panel log-likelihood thousands of times
per fit; each evaluation is a handful of numpy expressions over the firm
axis.

Per-firm sufficient statistics are the residual sum S_i = sum_t r_it and
the within-firm square sum W_i = sum_t (r_it - S_i / T)^2 of the composite
residuals r_it (outcome minus fitted frontier, level term NOT yet
removed), both from Step 3's demeaned fit (``GroupFit``), so no raw square
sum cancels. A level value a gives the centered sum se = S_i - T a, and

    sum_t (r_it - a)^2 = W_i + se^2 / T,

so the optimizer never touches the T-long series.

The per-firm log density of the panel half-normal model (Pitt & Lee 1981)
is, with si2 = sv2 + T su2 and z = -sqrt(su2 / (sv2 si2)) se,

    log 2 - (T/2) log(2 pi) - ((T-1)/2) log sv2 - W / (2 sv2)
    - (1/2) log si2 - se^2 / (2 T si2) + log Phi(z).

The first line is the per-firm prefix; the within-firm square sum W sits
there because it carries no parameter. The constant is written out in full
because model choice later compares likelihood levels across
specifications.

Its derivatives (Pitt & Lee 1981; Battese & Coelli 1988) use the inverse
Mills ratio lambda(z) = phi(z) / Phi(z), computed as
exp(-z^2/2 - log sqrt(2 pi) - log Phi(z)) so that it stays finite in both
tails. With eta = log su2, the optimizer's coordinate,

    d/d alpha0 = (lambda + z) T sqrt(su2 / (sv2 si2)) + se / sv2
    d/d eta    = -T su2 / (2 si2) + (lambda + z) z sv2 / (2 si2).

The standard errors take first and second derivatives in the natural
coordinates (a, v) = (alpha0, su2). With k = sqrt(su2 / (sv2 si2)), so
z = -k se, its derivatives k_v = 1 / (2 k si2^2) and
k_vv = -1 / (4 k^3 si2^4) - T / (k si2^3), and
lambda' = d lambda / dz = -lambda (lambda + z),

    l_a  = se / si2 + lambda T k
    l_v  = -T / (2 si2) + se^2 / (2 si2^2) - lambda se k_v
    l_aa = -T / si2 + lambda' T^2 k^2
    l_av = -T se / si2^2 - lambda' se k_v T k + lambda T k_v
    l_vv = T^2 / (2 si2^2) - T se^2 / si2^3 + lambda' (se k_v)^2
           - lambda se k_vv.

Every kernel takes one data argument, a ``CompositeStats``: read-only
copies of S, W and sv2, bound once per fit, whose prefix is computed at
the first kernel call and kept, so a call does only parameter work. The
parameters come as (R, 1) columns, one row per parameter point, and
broadcast the terms to (R, N); anything that is not a 2-D one-column
array of numbers raises ``InputError``. ``loglik_unique_total`` and
``loglik_mixture_total`` return an (R,) array of totals: the optimizer's
simplex sends the candidate points of all its starts through one call.
The mixture takes its two components stacked as 2R rows, component 1's
first, makes one single-law pass over them and combines the halves by
log-sum-exp. Every row is computed by the same expressions whatever the
batch size, so it is bit for bit the value that a one-row call returns.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import log_ndtr

from .errors import InputError

LOG2 = math.log(2.0)
LOG2PI = math.log(2.0 * math.pi)
_HALF_LOG2PI = 0.5 * LOG2PI


@dataclass(frozen=True)
class CompositeStats:
    """Per-firm sufficient statistics of the composite residuals.

    S and W are the per-firm sum of r_it = y_it - z_it' pi (level term not
    yet removed) and its square sum about the firm's mean; sigma_v2 maps
    each firm to its group's noise variance; T is the number of periods.
    Each array is kept as a read-only, contiguous float64 copy. Raises
    ``InputError`` naming the field when S, W or sigma_v2 is not 1-D of one
    length >= 1, is not finite, or W or sigma_v2 is negative, or when T is
    not a positive integer.

    A zero sigma_v2, a noiseless group's, is valid here (firm intercepts
    read S alone) but not in the likelihood: ``prefix`` raises
    ``InputError`` for it, and the kernels read ``prefix`` first.
    """

    S: np.ndarray
    W: np.ndarray
    sigma_v2: np.ndarray
    T: int

    def __post_init__(self):
        T = self.T
        if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 1:
            raise InputError(f"T must be a positive integer, got {T!r}")
        object.__setattr__(self, "T", int(T))
        for name in ("S", "W", "sigma_v2"):
            try:
                a = np.array(getattr(self, name), dtype=np.float64, order="C")
            except (TypeError, ValueError) as exc:
                raise InputError(f"{name} must be an array of numbers: {exc}") from exc
            if a.ndim != 1 or a.size == 0:
                raise InputError(f"{name} must be 1-D and non-empty, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise InputError(f"{name} must be finite")
            if name != "S" and np.any(a < 0.0):
                raise InputError(f"{name} must not be negative")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not len(self.S) == len(self.W) == len(self.sigma_v2):
            raise InputError(
                "S, W and sigma_v2 must have one length, got "
                f"{len(self.S)}, {len(self.W)} and {len(self.sigma_v2)}"
            )

    def __len__(self):
        return len(self.S)

    @cached_property
    def prefix(self):
        """Each firm's part of the log density that no parameter enters,
        (N,), computed on first use and kept."""
        W, sv2, T = self.W, self.sigma_v2, self.T
        if not np.all(sv2 > 0.0):
            raise InputError(
                "sigma_v2 must be positive for the likelihood; firms "
                f"{np.flatnonzero(sv2 <= 0.0)[:10].tolist()} have 0"
            )
        prefix = LOG2 - 0.5 * T * LOG2PI - 0.5 * (T - 1) * np.log(sv2) - W / (2.0 * sv2)
        prefix.flags.writeable = False
        return prefix


def _column(name, value):
    """``value`` as an (R, 1) float64 column; a float64 array passes
    through uncopied. Raises ``InputError`` naming the argument for
    anything else, so a nested list cannot meet ``T *`` as a sequence."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an (R, 1) array of numbers: {exc}") from exc
    if a.ndim != 2 or a.shape[1] != 1:
        raise InputError(f"{name} must be an (R, 1) column, got shape {a.shape}")
    return a


def _unique_parts(stats, alpha0, su2):
    """Per-firm terms with the intermediates their derivatives reuse.

    ``alpha0`` and ``su2`` are (R, 1) float columns that broadcast the
    terms to (R, N).
    """
    prefix, S, sv2, T = stats.prefix, stats.S, stats.sigma_v2, stats.T
    se = S - T * alpha0
    si2 = sv2 + T * su2
    scale = np.sqrt(su2 / (sv2 * si2))
    z = -scale * se
    log_cdf = log_ndtr(z)
    terms = prefix - 0.5 * np.log(si2) - se * se / (2.0 * T * si2) + log_cdf
    return terms, se, si2, scale, z, log_cdf


def _mills_parts(stats, alpha0, su2):
    """``_unique_parts`` with the inverse Mills ratio lambda(z) in place of
    log Phi(z), for the derivative kernels."""
    terms, se, si2, scale, z, log_cdf = _unique_parts(stats, alpha0, su2)
    return terms, se, si2, scale, z, np.exp(-0.5 * z * z - _HALF_LOG2PI - log_cdf)


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


def loglik_unique_terms_grad(stats, alpha0, sigma_u2):
    """Per-firm terms and their derivatives in alpha0 and eta = log sigma_u2.

    ``alpha0`` and ``sigma_u2`` are (R, 1) columns. Returns (terms,
    d_alpha0, d_eta), each (R, N); the terms are the per-firm
    log-likelihood contributions of the single-law model.
    """
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    terms, se, si2, scale, z, mills = _mills_parts(stats, alpha0, sigma_u2)
    dz = mills + z  # d/dz of log Phi(z) + z^2 / 2
    T, sv2 = stats.T, stats.sigma_v2
    d_alpha0 = dz * T * scale + se / sv2
    d_eta = (-0.5 * T * sigma_u2 + 0.5 * dz * z * sv2) / si2
    return terms, d_alpha0, d_eta


def loglik_unique_terms_hess(stats, alpha0, sigma_u2):
    """Per-firm terms with their gradient and Hessian in (alpha0, sigma_u2).

    ``alpha0`` and ``sigma_u2`` are (R, 1) columns. Returns (terms, grad,
    hess), shaped (R, N), (2, R, N) and (2, 2, R, N); the derivatives are
    the natural-coordinate forms of the module docstring.
    """
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    terms, se, si2, k, z, lam = _mills_parts(stats, alpha0, sigma_u2)
    T = stats.T
    dlam = -lam * (lam + z)
    Tk = T * k
    k_v = 0.5 / (k * si2 * si2)
    k_vv = -k_v * (k_v / k + 2.0 * T / si2)
    se_kv = se * k_v
    l_a = se / si2 + lam * Tk
    l_v = -0.5 * T / si2 + 0.5 * (se / si2) ** 2 - lam * se_kv
    l_aa = -T / si2 + dlam * Tk * Tk
    l_av = -T * se / (si2 * si2) - dlam * se_kv * Tk + lam * T * k_v
    l_vv = 0.5 * (T / si2) ** 2 - T * se * se / si2 ** 3 + dlam * se_kv * se_kv - lam * se * k_vv
    return terms, np.array([l_a, l_v]), np.array([[l_aa, l_av], [l_av, l_vv]])


def loglik_unique_total(stats, alpha0, sigma_u2):
    """Single-law log-likelihood of each (R, 1) parameter row, as an (R,)
    array."""
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    return _unique_parts(stats, alpha0, sigma_u2)[0].sum(axis=1)


def loglik_mixture_total(stats, tau, alpha0, sigma_u2):
    """Mixture log-likelihood of each parameter row, as an (R,) array.

    ``tau`` is an (R, 1) column; ``alpha0`` and ``sigma_u2`` are (2R, 1)
    columns holding component 1's R rows, then component 2's.
    """
    tau = _column("tau", tau)
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    R = len(tau)
    if len(alpha0) != 2 * R:
        raise InputError(f"alpha0 must hold 2R = {2 * R} rows for {R} tau rows, got {len(alpha0)}")
    terms = _unique_parts(stats, alpha0, sigma_u2)[0]
    return log_mixture_terms(terms[:R], terms[R:], tau)[1].sum(axis=1)
