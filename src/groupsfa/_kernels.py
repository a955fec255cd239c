"""Likelihood kernels: the panel log-likelihood that the inefficiency MLE
evaluates thousands of times per fit, as numpy expressions over firms.

Per-firm sufficient statistics are the residual sum S_i = sum_t r_it and
the within-firm square sum W_i = sum_t (r_it - S_i / T)^2 of the composite
residuals r_it (outcome minus fitted frontier, level term NOT yet
removed), both from Step 3's demeaned fit (``GroupFit``), so no raw square
sum cancels. A level value a gives the centered sum se = S_i - T a, and
sum_t (r_it - a)^2 = W_i + se^2 / T: the optimizer never touches the
T-long series. The per-firm log density of the panel half-normal model
(Pitt & Lee 1981) is, with si2 = sv2 + T su2 and
z = -sqrt(su2 / (sv2 si2)) se,

    log 2 - (T/2) log(2 pi) - ((T-1)/2) log sv2 - W / (2 sv2)
    - (1/2) log si2 - se^2 / (2 T si2) + log Phi(z).

The first line, free of parameters, is the per-firm prefix; its constant
is kept because model choice compares likelihood levels across models.

The derivatives (Pitt & Lee 1981; Battese & Coelli 1988) use the scale
k = sqrt(su2 / (sv2 si2)), so z = -k se, and the inverse Mills ratio
lambda = phi(z) / Phi(z), computed as exp(-z^2/2 - log sqrt(2 pi) -
log Phi(z)) so that it stays finite in both tails. In the optimizer's
coordinates alpha0 and eta = log su2 they are

    (lambda + z) T k + se / sv2   and   (-T su2 + (lambda + z) z sv2) / (2 si2).

The standard errors take them in (a, v) = (alpha0, su2), with
k_v = 1 / (2 k si2^2), k_vv = -1 / (4 k^3 si2^4) - T / (k si2^3) and
lambda' = d lambda / dz = -lambda (lambda + z),

    l_a  = se / si2 + lambda T k
    l_v  = -T / (2 si2) + se^2 / (2 si2^2) - lambda se k_v
    l_aa = -T / si2 + lambda' T^2 k^2
    l_av = -T se / si2^2 - lambda' se k_v T k + lambda T k_v
    l_vv = T^2 / (2 si2^2) - T se^2 / si2^3 + lambda' (se k_v)^2
           - lambda se k_vv.

log Phi(z) is 0.0 from z = ``_Z_ONE`` up, the least double where ndtr(z)
rounds to 1.0 (about 8.29236), so those elements are not evaluated: the
skip is bit for bit, as log(1.0) is 0.0. Below it, log Phi(z) is
log(ndtr(z)) from z = -37 up and scipy's ``log_ndtr`` below, where
``ndtr`` nears its subnormal range (z < -37.52); both are within 5.3e-16
relative of 50-digit mpmath for z <= 0, 1.2e-16 absolute above.

Every kernel takes one data argument, a ``CompositeStats`` bound once per
fit that keeps the distinct sv2 values (one per group), each firm's index
into them, the prefix and its sum. The parameters are (R, 1) columns, one
row per point. A call computes si2, k, -(1/2) log si2 and 2 T si2 on
(R, G) and gathers them to the firms at once. The totals, (R,), add the
prefix's sum once to the summed terms. The mixture takes its components
stacked as 2R rows, component 1's first, with log tau and log(1 - tau) in
their level constants, and combines the halves by max + log1p(exp(min -
max)) in place. Each row's value is bit for bit what a one-row call gives.
The optimizer's gradients come with the value from the same pass:
``loglik_unique_total_grad`` and ``loglik_mixture_total_grad`` return
(values (R,), gradient (R, n)), the values bit for bit the value kernels',
the gradient in the optimizer's coordinates (log variances, logit tau)
summed over the firms, the mixture's weighted by the responsibilities.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import InputError, as_integer

LOG2 = math.log(2.0)
LOG2PI = math.log(2.0 * math.pi)
_TAIL = -37.0  # log Phi(z) takes log_ndtr below it


@dataclass(frozen=True)
class CompositeStats:
    """Per-firm S, W and group noise variance sigma_v2, and the periods T.

    Each array is kept as a read-only, contiguous float64 copy. A field that
    is not 1-D of one length >= 1 or not finite, a negative W or sigma_v2,
    or a T that is not a positive integer raises ``InputError`` naming it.
    A zero sigma_v2 (a noiseless group) is valid here but not in the
    likelihood: ``levels``, which every kernel reads first, raises.
    """

    S: np.ndarray
    W: np.ndarray
    sigma_v2: np.ndarray
    T: int

    def __post_init__(self):
        object.__setattr__(self, "T", as_integer("T", self.T, low=1))
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
            lengths = f"{len(self.S)}, {len(self.W)} and {len(self.sigma_v2)}"
            raise InputError(f"S, W and sigma_v2 must have one length, got {lengths}")

    def __len__(self):
        return len(self.S)

    @cached_property
    def levels(self):
        """The distinct sigma_v2 values, (G,), and each firm's index, (N,)."""
        sv2 = self.sigma_v2
        if not np.all(sv2 > 0.0):
            bad = np.flatnonzero(sv2 <= 0.0)[:10].tolist()
            raise InputError(f"sigma_v2 must be positive for the likelihood; firms {bad} have 0")
        values, index = np.unique(sv2, return_inverse=True)
        values.flags.writeable = index.flags.writeable = False
        return values, index

    @cached_property
    def prefix(self):
        """Each firm's part of the log density that no parameter enters, (N,)."""
        (sv2, at), T = self.levels, self.T
        per_level = LOG2 - 0.5 * T * LOG2PI - 0.5 * (T - 1) * np.log(sv2)
        prefix = per_level[at] - self.W / (2.0 * self.sigma_v2)
        prefix.flags.writeable = False
        return prefix

    @cached_property
    def prefix_sum(self):
        return float(np.sum(self.prefix))


def _column(name, value):
    """``value`` as an (R, 1) float64 column, a float64 array uncopied;
    anything else, a nested list too, raises ``InputError`` naming it."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an (R, 1) array of numbers: {exc}") from exc
    if a.ndim != 2 or a.shape[1] != 1:
        raise InputError(f"{name} must be an (R, 1) column, got shape {a.shape}")
    return a


def _least_z_at_one():
    """The least double z with ndtr(z) == 1.0, by bisection over the
    doubles in [8, 9]: positive doubles order as their bit patterns do."""
    lo, hi = np.array([8.0, 9.0]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ndtr(np.int64(mid).view(np.float64)) == 1.0:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


_Z_ONE = _least_z_at_one()  # 8.29236...: log Phi(z) is 0.0 from here up


def _log_cdf(z):
    """log Phi(z): 0.0 from z = ``_Z_ONE`` up, where ndtr(z) is 1.0 and so
    its log is 0.0; log(ndtr(z)) from ``_TAIL`` up, and log_ndtr(z) below.
    Only the elements below ``_Z_ONE``, NaN included, are evaluated."""
    below = z >= _Z_ONE
    np.logical_not(below, out=below)
    (at,) = below.ravel().nonzero()
    out = np.zeros_like(z)
    if not at.size:
        return out
    z = z.take(at)
    if z.min() >= _TAIL:
        value = np.log(ndtr(z))
    else:
        value = np.log(ndtr(np.maximum(z, _TAIL)))
        tail = z < _TAIL
        value[tail] = log_ndtr(z[tail])
    out.put(at, value)
    return out


def _unique_parts(stats, alpha0, su2, log_weight=0.0):
    """(terms less the prefix, se, z, log Phi(z), -scale), each (R, N), and
    si2, (R, G), of (R, 1) columns ``alpha0`` and ``su2``; ``log_weight``,
    (R, 1), joins the level constant -(1/2) log si2."""
    (sv2, at), T = stats.levels, stats.T
    si2 = sv2 + T * su2
    scale = np.sqrt(su2 / (sv2 * si2))
    level = np.empty((3,) + si2.shape)
    np.negative(scale, out=level[0])
    np.multiply(-0.5, np.log(si2), out=level[1])
    level[1] += log_weight
    np.multiply(2.0 * T, si2, out=level[2])
    neg_scale, terms, two_t_si2 = np.take(level, at, axis=2)
    se = stats.S - T * alpha0
    z = neg_scale * se
    log_cdf = _log_cdf(z)
    terms -= se * se / two_t_si2
    terms += log_cdf
    return terms, se, z, log_cdf, neg_scale, si2


def _mills_parts(stats, alpha0, su2, log_weight=0.0):
    """Per-firm terms less the prefix, se, si2, scale, z and lambda(z),
    each (R, N); ``log_weight`` as in ``_unique_parts``."""
    terms, se, z, log_cdf, neg_scale, si2 = _unique_parts(stats, alpha0, su2, log_weight)
    mills = np.exp(-0.5 * z * z - 0.5 * LOG2PI - log_cdf)
    return terms, se, np.take(si2, stats.levels[1], axis=1), -neg_scale, z, mills


def _terms_grad(stats, alpha0, su2, log_weight=0.0):
    """Per-firm terms less the prefix and their derivatives in alpha0 and
    eta = log su2, each (R, N); ``log_weight`` as in ``_unique_parts``."""
    terms, se, si2, scale, z, mills = _mills_parts(stats, alpha0, su2, log_weight)
    T, sv2 = stats.T, stats.sigma_v2
    dz = mills + z  # d/dz of log Phi(z) + z^2 / 2
    d_alpha0 = dz * T * scale + se / sv2
    d_eta = (-0.5 * T * su2 + 0.5 * dz * z * sv2) / si2
    return terms, d_alpha0, d_eta


def _log_add_exp(x1, x2):
    """log(exp(x1) + exp(x2)) as max + log1p(exp(min - max)), written over
    ``x2``; where one input is -inf it is the other exactly."""
    hi = np.maximum(x1, x2)
    np.subtract(np.minimum(x1, x2, out=x2), hi, out=x2)
    np.log1p(np.exp(x2, out=x2), out=x2)
    return np.add(x2, hi, out=x2)


def loglik_unique_terms_hess(stats, alpha0, sigma_u2):
    """Per-firm single-law terms, (R, N), with their gradient (2, R, N) and
    Hessian (2, 2, R, N) in (alpha0, sigma_u2), of (R, 1) columns."""
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    terms, se, si2, k, z, lam = _mills_parts(stats, alpha0, sigma_u2)
    terms += stats.prefix
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


def _mixture_rows(tau, alpha0, sigma_u2):
    """The (R, 1) ``tau`` column, the (2R, 1) ``alpha0`` and ``sigma_u2``
    columns, and the components' log weights, (2R, 1)."""
    tau = _column("tau", tau)
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    if len(alpha0) != 2 * len(tau):
        raise InputError(f"alpha0 must hold 2R = {2 * len(tau)} rows for {len(tau)} tau rows, "
                         f"got {len(alpha0)}")
    with np.errstate(divide="ignore"):
        log_weight = np.concatenate([np.log(tau), np.log1p(-tau)])
    return tau, alpha0, sigma_u2, log_weight


def loglik_unique_total(stats, alpha0, sigma_u2):
    """Single-law log-likelihood of each (R, 1) parameter row, (R,)."""
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    return _unique_parts(stats, alpha0, sigma_u2)[0].sum(axis=1) + stats.prefix_sum


def loglik_unique_total_grad(stats, alpha0, sigma_u2):
    """``loglik_unique_total`` of each (R, 1) row, bit for bit, with its
    gradient, (R, 2), in (alpha0, eta = log sigma_u2), from one pass."""
    alpha0, sigma_u2 = _column("alpha0", alpha0), _column("sigma_u2", sigma_u2)
    terms, d_alpha0, d_eta = _terms_grad(stats, alpha0, sigma_u2)
    grad = np.stack([d_alpha0.sum(axis=1), d_eta.sum(axis=1)], axis=1)
    return terms.sum(axis=1) + stats.prefix_sum, grad


def loglik_mixture_total(stats, tau, alpha0, sigma_u2):
    """Mixture log-likelihood of each (R, 1) ``tau`` row, (R,); ``alpha0``
    and ``sigma_u2`` are (2R, 1), component 1's R rows, then component 2's."""
    tau, alpha0, sigma_u2, log_weight = _mixture_rows(tau, alpha0, sigma_u2)
    terms = _unique_parts(stats, alpha0, sigma_u2, log_weight)[0]
    R = len(tau)
    return _log_add_exp(terms[:R], terms[R:]).sum(axis=1) + stats.prefix_sum


def loglik_mixture_total_grad(stats, tau, alpha0, sigma_u2):
    """``loglik_mixture_total`` of each row, bit for bit, with its gradient,
    (R, 5), in (logit tau, alpha0_1, eta_1, alpha0_2, eta_2), eta_j =
    log sigma_u2_j, from one pass. With the responsibilities w_j of the
    components, d/dlogit tau = sum(w_1 - tau) and d/dtheta_j =
    sum(w_j dl_j/dtheta_j)."""
    tau, alpha0, sigma_u2, log_weight = _mixture_rows(tau, alpha0, sigma_u2)
    terms, d_alpha0, d_eta = _terms_grad(stats, alpha0, sigma_u2, log_weight)
    R = len(tau)
    x1 = terms[:R].copy()
    mixture = _log_add_exp(terms[:R], terms[R:])
    x1 -= mixture  # log w_1
    w1, w2 = np.exp(x1), -np.expm1(x1)
    grad = np.stack([np.sum(w1 - tau, axis=1),
                     np.vecdot(w1, d_alpha0[:R]), np.vecdot(w1, d_eta[:R]),
                     np.vecdot(w2, d_alpha0[R:]), np.vecdot(w2, d_eta[R:])], axis=1)
    return mixture.sum(axis=1) + stats.prefix_sum, grad
