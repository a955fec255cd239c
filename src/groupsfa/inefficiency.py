"""Maximum likelihood for the level/inefficiency parameters (Steps 4, 4', 5).

After the frontiers are estimated, each firm's composite residuals
r_it = y_it - z_it' pi_hat carry the level term and the one-sided
inefficiency draw; their per-firm sums S_i and W_i come with Step 3's
group fits. The single-law model estimates (alpha0, sigma_u2) by
maximizing the panel half-normal likelihood; the mixture model estimates
(tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2). A penalized likelihood
comparison then chooses between them.

Optimization runs on an unconstrained parameterization (log variance,
logit mixing weight). The single law is fitted from one start and the
mixture from five (``_mixture_starts``). Both fits run their starts
through ``_maximize``: a coarse Nelder-Mead pass on the likelihood value
chooses each start's basin, and BFGS with the exact gradient of the
clipped objective polishes the point. The simplex pass runs every start
of a fit in lockstep (``_simplex``): scipy's Nelder-Mead arithmetic per
start, with no evaluation cap, and the points of all running starts
evaluated in one batched kernel call per phase of a step. BFGS then runs
per start through scipy's ``minimize``. ``_maximize`` alone decides which
starts converged; it returns every start's point and log-likelihood as
arrays, -inf for a start that did not converge, and each fit takes the
argmax. Each BFGS evaluation is one kernel pass that gives the value, bit
for bit the simplex's, and the gradient: the mixture's comes from the
component gradients, with the components as two parameter rows, weighted
by the firms' responsibilities. Standard errors come from the exact
Hessian of the log-likelihood in the original parameterization, from the
same kernel pass with second derivatives (``loglik_unique_terms_hess``).
The mixture's follows from the components' by the missing-information
identity (Louis 1982). A boundary optimum gets none: a mixing weight
within ``_TAU_BOUNDARY`` of 0 or 1, or a variance of
``_VARIANCE_BOUNDARY`` or less. Nor does a mixture whose two components
coincide (``_COINCIDE_RTOL``), where tau is not identified. The same
Hessian, taken into the optimizer's coordinates (``_mixture_hessian``),
gives the mixture's BFGS pass its starting inverse Hessian at the simplex's
point wherever it is negative definite; at a clipped, boundary or
coinciding-component point, and always for the single law, BFGS starts
from scipy's default, the identity.

Every likelihood value goes through ``loglik_unique_total`` or
``loglik_mixture_total``, or their one-pass twins with the gradient
(``loglik_unique_total_grad``, ``loglik_mixture_total_grad``), with one
convention: the fit's ``CompositeStats``, bound once, and the parameter
rows as (R, 1) kernel columns in, an (R,) array of totals out.
``_unique_columns`` and ``_mixture_columns`` map
(R, n) unconstrained rows to those columns in one pass, for the
optimizer's objectives and for the reported fits alike.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from ._kernels import (
    CompositeStats,
    log_mixture_terms,
    loglik_mixture_total,
    loglik_mixture_total_grad,
    loglik_unique_terms_hess,
    loglik_unique_total,
    loglik_unique_total_grad,
)
from .errors import ConvergenceError, HessianError, InputError

_ETA_CLIP = 60.0
_XI_CLIP = 30.0  # keeps the mixing weight strictly inside (0, 1) in double
# the clip bounds of the unconstrained coordinates; a clipped coordinate has
# derivative 0
_UNIQUE_BOUNDS = np.array([np.inf, _ETA_CLIP])
_MIXTURE_BOUNDS = np.array([_XI_CLIP, np.inf, _ETA_CLIP, np.inf, _ETA_CLIP])
# a fitted mixing weight this close to 0 or 1 is a degenerate mixture
_TAU_BOUNDARY = 1e-4
# a fitted variance this close to 0 is at the likelihood's boundary
_VARIANCE_BOUNDARY = 1e-5
# mixture components closer than max(_COINCIDE_FLOOR, _COINCIDE_RTOL |theta|)
# in both alpha0 and sigma_u2 coincide
_COINCIDE_FLOOR, _COINCIDE_RTOL = 1e-5, 1e-4
# E|N(0,1)| and Var|N(0,1)| enter the method-of-moments initialization
_HN_MEAN = math.sqrt(2.0 / math.pi)
_HN_VAR = 1.0 - 2.0 / math.pi


class DegenerateMixtureWarning(UserWarning):
    """Fitted mixing weight collapsed to a boundary."""


@dataclass
class UniqueFit:
    """Single-law MLE: level alpha0 and inefficiency variance sigma_u2."""

    alpha0: float
    sigma_u2: float
    loglik: float
    se: np.ndarray = None


@dataclass
class MixtureFit:
    """Two-component MLE, ordered so tau >= 1 - tau.

    se is for (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2).
    """

    tau: float
    alpha0_1: float
    sigma_u2_1: float
    alpha0_2: float
    sigma_u2_2: float
    loglik: float
    se: np.ndarray = None

    @property
    def params(self):
        return np.array(
            [self.tau, self.alpha0_1, self.sigma_u2_1, self.alpha0_2, self.sigma_u2_2]
        )


@dataclass
class Step5Choice:
    """Penalized likelihood comparison of the two inefficiency models."""

    ic_unique: float
    ic_mixture: float
    lambda_tilde: float
    chosen: str


def composite_residual_stats(panel, group_fits):
    """The group fits' per-firm S, W and sigma_v^2 as one ``CompositeStats``.

    The fits' members must partition the firms 0..N-1, and each fit must
    hold one S and one W value per member.
    """
    members = np.concatenate([fit.members for fit in group_fits] or [[]])
    if not np.array_equal(np.sort(members), np.arange(panel.N)):
        raise InputError(
            f"group fit members do not partition the {panel.N} firms: "
            "a firm is missing, repeated or out of range"
        )
    S, W, sv2 = np.empty((3, panel.N))
    for fit in group_fits:
        mem = fit.members
        if not len(fit.S) == len(fit.W) == len(mem):
            raise InputError(f"a group fit of {len(mem)} members has "
                             f"{len(fit.S)} S and {len(fit.W)} W values")
        S[mem], W[mem], sv2[mem] = fit.S, fit.W, fit.sigma_v ** 2
    return CompositeStats(S=S, W=W, sigma_v2=sv2, T=panel.T)


def firm_intercepts(stats):
    """Per-firm time average of the composite residuals.

    Estimates the firm's level term alpha0 - u_i; used for initialization
    and reporting.
    """
    return stats.S / stats.T


# --- optimization ------------------------------------------------------------


# scipy's simplex coefficients (adaptive=False) and initial simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# (xbar, worst) weights of the expansion, outside and inside contraction
# points x = a xbar - b worst; a - (-b) w is exactly a + b w, so the inside
# row gives scipy's (1 - psi) xbar + psi worst
_STEPS = np.array([
    [1 + _RHO * _CHI, _RHO * _CHI],
    [1 + _PSI * _RHO, _PSI * _RHO],
    [1 - _PSI, -_PSI],
])
# the simplex pass's one stop rule: scipy's xatol, fatol and maxiter
_XATOL, _FATOL, _MAX_NM = 1e-4, 1e-6, 2000


def _sort_vertices(sim, fsim):
    """Order each start's vertices by value, with scipy's argsort."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _simplex(f, starts):
    """Nelder-Mead from every start at once, in lockstep.

    ``f`` maps an (R, n) array of points to their R values. Per start,
    this is the arithmetic of scipy 1.17's ``minimize(method="Nelder-Mead")``
    with ``adaptive=False`` and only xatol, fatol and maxiter set, which
    leaves no evaluation cap: each start's x, fun, nit and nfev equal
    scipy's. One call of ``f`` holds the initial simplices of all starts;
    each step then makes at most three, for the reflections, the second
    points, and the n new vertices of every start that shrinks.
    Returns per-start arrays x (R, n), fun, nit and nfev (R,), in start
    order; a start has converged when its nit is below ``_MAX_NM``.
    """
    x0 = np.array(starts, dtype=float)
    R, n = x0.shape
    cols = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, cols + 1, cols] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = f(sim.reshape(-1, n)).reshape(R, n + 1)
    # scipy sorts once after the initial evaluations and once more before
    # its loop; both are kept, so tied values end in scipy's order whether
    # or not argsort returns a sorted row unchanged
    sim, fsim = _sort_vertices(*_sort_vertices(sim, fsim))
    nfev = np.full(R, n + 1)
    nit = 1  # every running start has taken the same number of steps
    x, fun = np.empty((R, n)), np.empty(R)
    final_nit, final_nfev = np.empty(R, dtype=int), np.empty(R, dtype=int)

    start = np.arange(R)  # the start each working row belongs to
    while True:
        # scipy's stop rule. The value half of its convergence test fails
        # far more often, so the point half is computed only where it
        # passed; on sorted rows the largest |f_0 - f_j| is f_n - f_0, NaN
        # and inf included
        flat = fsim[:, -1] - fsim[:, 0] <= _FATOL
        if nit >= _MAX_NM or flat.any():
            stop = flat & (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= _XATOL)
            stop |= nit >= _MAX_NM
            done = start[stop]
            x[done], fun[done] = sim[stop, 0], np.min(fsim[stop], axis=1)
            final_nit[done], final_nfev[done] = nit, nfev[stop]
            keep = ~stop
            start, sim, fsim, nfev = start[keep], sim[keep], fsim[keep], nfev[keep]
            if not start.size:
                break
        xbar = np.add.reduce(sim[:, :-1], axis=1) / n
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = f(xr)
        # scipy's branches, one start at a time on Python floats: the
        # second point a start tries (a row of _STEPS), or None where it
        # takes the reflection
        fr, fs = fxr.tolist(), fsim.tolist()
        kind = [
            0 if v < row[0] else None if v < row[-2] else 1 if v < row[-1] else 2
            for v, row in zip(fr, fs)
        ]
        second = [i for i, k in enumerate(kind) if k is not None]
        evals = [1 if k is None else 2 for k in kind]
        # the point that replaces each start's worst vertex, written over
        # the reflections; a start that shrinks keeps its worst vertex
        new_x, new_f = xr, list(fr)
        shrink = []
        if second:
            w = _STEPS[[kind[i] for i in second]]
            x2 = w[:, :1] * xbar[second] - w[:, 1:] * worst[second]
            for i, point, v in zip(second, x2, f(x2).tolist()):
                k = kind[i]
                # scipy's acceptance test of each kind of second point
                if (v < fr[i], v <= fr[i], v < fs[i][-1])[k]:
                    new_x[i], new_f[i] = point, v
                elif k:  # a failed contraction
                    new_x[i] = worst[i]
                    shrink.append(i)
                    evals[i] += n
        sim[:, -1], fsim[:, -1] = new_x, new_f
        if shrink:
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + _SIGMA * (sim[shrink, 1:] - best)
            fsim[shrink, 1:] = f(sim[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        nfev += evals
        nit += 1
        sim, fsim = _sort_vertices(sim, fsim)

    return x, fun, final_nit, final_nfev


# per-start iteration cap of the BFGS polish
_MAX_BFGS = 200


def _inverse_hessian(H):
    """BFGS's starting inverse Hessian for minimizing -f, given the Hessian
    ``H`` of f: the symmetrized inverse of -H. None where ``H`` is None or
    not finite, or Cholesky fails on -H or on that inverse."""
    if H is None or not np.all(np.isfinite(H)):
        return None
    try:
        np.linalg.cholesky(-H)
        inverse = np.linalg.inv(-H)
        inverse = 0.5 * (inverse + inverse.T)
        np.linalg.cholesky(inverse)
    except np.linalg.LinAlgError:
        return None
    return inverse


def _maximize(objective, value_and_grad, starts, hessian=None):
    """Simplex search for each start's basin, polished by exact-gradient BFGS.

    ``objective`` maps an (R, n) array of points to their R
    log-likelihoods, and ``value_and_grad`` returns one point's value, the
    one ``objective`` gives bit for bit, with its gradient, from one kernel
    pass. The Nelder-Mead pass runs all starts in lockstep (``_simplex``)
    and stops at a coarse tolerance (``_XATOL``, ``_FATOL``): its job is
    to pick each start's local optimum, which a gradient method started at
    the start does not always reach on multimodal or boundary panels. BFGS
    then converges on the exact gradient, one start at a time. ``hessian``,
    where given, maps the simplex's point to the log-likelihood's Hessian
    there, or None; BFGS starts from ``_inverse_hessian`` of it where that
    is not None, and from scipy's default, the identity, elsewhere.

    This is the one place that decides convergence. A start has converged
    when its simplex pass stopped below the cap, its BFGS pass succeeded,
    or BFGS ended with a gradient that is flat relative to the value.
    Returns each start's better point of the two passes, as an (R, n)
    array, and its log-likelihood, an (R,) array that is -inf where the
    start did not converge or its value is not finite. Raises
    ``ConvergenceError`` when no start converged, carrying the best
    failed point and its value.
    """

    def neg_value_and_grad(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    x, fun, nit, _ = _simplex(lambda X: -objective(X), starts)
    converged = nit < _MAX_NM
    for r in range(len(x)):
        options = dict(maxiter=_MAX_BFGS)
        start = _inverse_hessian(hessian(x[r])) if hessian is not None else None
        if start is not None:
            options["hess_inv0"] = start
        bfgs = minimize(neg_value_and_grad, x[r], jac=True, method="BFGS", options=options)
        if bfgs.fun <= fun[r]:
            x[r], fun[r] = bfgs.x, bfgs.fun
        converged[r] |= bfgs.success or np.max(np.abs(bfgs.jac)) < 1e-5 * (1.0 + abs(bfgs.fun))
    loglik = -fun
    converged &= np.isfinite(loglik)
    if not converged.any():
        best = int(np.argmax(np.where(np.isnan(loglik), -np.inf, loglik)))
        raise ConvergenceError(
            f"likelihood maximization did not converge: 0 of {len(x)} starts converged",
            best_params=x[best], best_value=float(loglik[best]),
        )
    return x, np.where(converged, loglik, -np.inf)


def _components(X, j):
    """Columns j and j + 2 of the (R, 5) mixture rows, stacked as one
    (2R, 1) kernel column: component 1's R rows, then component 2's."""
    return X[:, j::2].T.reshape(-1, 1)


def _unique_columns(X):
    """Kernel columns (alpha0, sigma_u2), each (R, 1), of (R, 2) rows
    (alpha0, log sigma_u2); the log variance is clipped at +-_ETA_CLIP."""
    X = np.minimum(np.maximum(X, -_UNIQUE_BOUNDS), _UNIQUE_BOUNDS)
    return X[:, :1], np.exp(X[:, 1:])


def _mixture_columns(X):
    """Kernel columns (tau (R, 1), alpha0 (2R, 1), sigma_u2 (2R, 1)) of
    (R, 5) rows (logit tau, alpha0_1, log sigma_u2_1, alpha0_2,
    log sigma_u2_2); the logit is clipped at +-_XI_CLIP and the log
    variances at +-_ETA_CLIP."""
    X = np.minimum(np.maximum(X, -_MIXTURE_BOUNDS), _MIXTURE_BOUNDS)
    return expit(X[:, :1]), _components(X, 1), np.exp(_components(X, 2))


def _unique_objectives(stats):
    """Single-law log-likelihood in x = (alpha0, log sigma_u2), clipped.

    Returns (objective, value_and_grad) for ``_maximize``; ``objective``
    takes an (R, 2) array of points and returns their R values.
    """

    def objective(X):
        return loglik_unique_total(stats, *_unique_columns(X))

    def value_and_grad(x):
        (value,), d_alpha0, d_eta = loglik_unique_total_grad(stats, *_unique_columns(x[None]))
        grad = np.concatenate([d_alpha0, d_eta])
        return float(value), grad * (np.abs(x) <= _UNIQUE_BOUNDS)

    return objective, value_and_grad


def _mixture_objectives(stats):
    """Mixture log-likelihood in x = (logit tau, alpha0_1, log sigma_u2_1,
    alpha0_2, log sigma_u2_2), clipped.

    Returns (objective, value_and_grad) for ``_maximize``; ``objective``
    takes an (R, 5) array of points and returns their R values. A clipped
    coordinate has derivative 0.
    """

    def objective(X):
        return loglik_mixture_total(stats, *_mixture_columns(X))

    def value_and_grad(x):
        (value,), (grad,) = loglik_mixture_total_grad(stats, *_mixture_columns(x[None]))
        return float(value), grad * (np.abs(x) <= _MIXTURE_BOUNDS)

    return objective, value_and_grad


def _intercept_spread(stats):
    """Firm intercepts and their sample standard deviation (0 for one firm)."""
    a = firm_intercepts(stats)
    return a, float(np.std(a, ddof=1)) if len(a) > 1 else 0.0


def fit_unique(stats):
    """MLE of (alpha0, sigma_u2) under a single half-normal law."""
    a, sd_a = _intercept_spread(stats)
    su_init = max(sd_a / math.sqrt(_HN_VAR), 1e-3)
    x0 = np.array([float(np.mean(a)) + su_init * _HN_MEAN, 2.0 * math.log(su_init)])

    x, loglik = _maximize(*_unique_objectives(stats), [x0])
    alpha0, sigma_u2 = (float(v[0, 0]) for v in _unique_columns(x[:1]))
    if sigma_u2 < 1e-8:
        warnings.warn(
            "inefficiency variance collapsed toward zero", RuntimeWarning
        )
    return UniqueFit(alpha0=alpha0, sigma_u2=sigma_u2, loglik=float(loglik[0]))


def unique_standard_errors(stats, fit):
    """Exact-Hessian standard errors of (alpha0, sigma_u2).

    Returns None at a boundary variance (``_near_variance_boundary``).
    """
    if _near_variance_boundary(fit.sigma_u2):
        return None
    hess = loglik_unique_terms_hess(stats, np.array([[fit.alpha0]]), np.array([[fit.sigma_u2]]))[2]
    return _standard_errors(hess[:, :, 0].sum(axis=-1))


def _mixture_starts(unique, sd_a, seed):
    """The five starts of ``fit_mixture``, as (logit tau0, alpha0_1,
    log sigma_u2_1, alpha0_2, log sigma_u2_2) rows.

    The single-law solution ``unique`` split by plus and minus one
    standard deviation ``sd_a`` of the firm intercepts, with mixing weights
    0.3/0.5/0.7; the minimally split solution; and one random draw seeded
    by ``seed``. The other ordering of each split, (tau0, a - sd, a + sd),
    is left out as the mirror image of the kept (1 - tau0, a + sd, a - sd)
    under the label swap tau -> 1 - tau, which leaves the likelihood
    unchanged: for tau0 = 0.3 and 0.7 it would only reach the mirror image
    of the kept start's optimum. For tau0 = 0.5 the pair is only
    near-mirrored: its logit coordinate is 0, and ``_simplex`` steps a
    zero coordinate by +_ZDELT in both orderings rather than by opposite
    signs. That twin was dropped because a sweep over 112 panels found the
    same chosen model on every panel without it, not because its path is
    the mirrored one.
    """
    center_a, base_eta = unique.alpha0, math.log(unique.sigma_u2)
    sd = max(sd_a, 1e-2)
    starts = [
        [_logit(tau0), center_a + sd, base_eta, center_a - sd, base_eta]
        for tau0 in (0.3, 0.5, 0.7)
    ]
    # the unique solution itself, minimally split to break the symmetry
    starts.append(
        [_logit(0.5), center_a + 0.1 * sd, base_eta, center_a - 0.1 * sd, base_eta]
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(77,)))
    starts.append(
        [_logit(rng.uniform(0.2, 0.8)),
         center_a + sd * rng.standard_normal(), base_eta + 0.5 * rng.standard_normal(),
         center_a + sd * rng.standard_normal(), base_eta + 0.5 * rng.standard_normal()]
    )
    return [np.array(s) for s in starts]


def _logit(t):
    return math.log(t / (1.0 - t))


def fit_mixture(stats, unique_fit, seed=0):
    """MLE of the two-component mixture by multi-start optimization.

    The five starts of ``_mixture_starts`` around ``unique_fit`` go through
    ``_maximize`` together. The converged start with the highest
    log-likelihood wins, the first one on an exact tie; components are
    reported with tau >= 0.5 (ascending level on an exact tie). Raises
    ``ConvergenceError`` when no start converged.
    """
    _, sd_a = _intercept_spread(stats)

    x, loglik = _maximize(
        *_mixture_objectives(stats), _mixture_starts(unique_fit, sd_a, seed),
        lambda x: _mixture_hessian(stats, x),
    )
    best = int(np.argmax(loglik))  # the first start on an exact tie
    (tau,), (a1, a2), (su2_1, su2_2) = (
        v[:, 0].tolist() for v in _mixture_columns(x[best:best + 1])
    )
    if tau < 0.5 or (tau == 0.5 and a1 > a2):
        tau, a1, su2_1, a2, su2_2 = 1.0 - tau, a2, su2_2, a1, su2_1
    degenerate = not _TAU_BOUNDARY <= tau <= 1.0 - _TAU_BOUNDARY
    if degenerate:
        warnings.warn(
            f"mixture weight collapsed to a boundary (tau = {tau:.2e})",
            DegenerateMixtureWarning,
        )
    return MixtureFit(
        tau=tau, alpha0_1=a1, sigma_u2_1=su2_1, alpha0_2=a2, sigma_u2_2=su2_2,
        loglik=float(loglik[best]),
    )


def mixture_standard_errors(stats, fit):
    """Exact-Hessian standard errors of the five mixture parameters.

    Returns None where ``_mixture_degenerate``: a boundary optimum, or
    coinciding components.
    """
    if _mixture_degenerate(fit.params):
        return None
    return _standard_errors(_mixture_score_hessian(stats, fit.params)[1])


def _mixture_degenerate(params):
    """Whether the mixture Hessian at ``params`` = (tau, alpha0_1,
    sigma_u2_1, alpha0_2, sigma_u2_2) is off the optimum's curvature by
    construction. That holds at a mixing weight within ``_TAU_BOUNDARY`` of
    0 or 1, where the information matrix is singular, at a boundary
    variance (``_near_variance_boundary``), and for coinciding components,
    whose alpha0 and sigma_u2 each differ by no more than
    max(``_COINCIDE_FLOOR``, ``_COINCIDE_RTOL`` |theta|): tau is not
    identified there, and the Hessian is singular.
    """
    tau, one, two = params[0], params[1:3], params[3:5]
    tol = np.maximum(_COINCIDE_FLOOR, _COINCIDE_RTOL * np.maximum(np.abs(one), np.abs(two)))
    return bool(not _TAU_BOUNDARY <= tau <= 1.0 - _TAU_BOUNDARY
                or _near_variance_boundary(one[1], two[1])
                or np.all(np.abs(one - two) <= tol))


def _mixture_score_hessian(stats, params):
    """The mixture log-likelihood's exact score, (5,), and Hessian, (5, 5),
    in ``params`` = (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2).

    Per firm, with responsibilities w_j and each component's complete-data
    score G_j and Hessian H_j of log(tau_j f_j), where tau_1 = tau and
    tau_2 = 1 - tau, the score is s = sum_j w_j G_j and the Hessian is
    sum_j w_j (H_j + G_j G_j') - s s' (Louis 1982); both are summed over
    the firms.
    """
    X, tau = params[None], params[0]
    # both components in one pass, as (2, 1) parameter columns
    terms, grad, hess = loglik_unique_terms_hess(stats, _components(X, 1), _components(X, 2))
    x1, lm = log_mixture_terms(terms[0], terms[1], tau)
    w = np.array([np.exp(x1 - lm), -np.expm1(x1 - lm)])
    G = np.zeros((2, 5, len(stats)))
    G[0, 0], G[1, 0] = 1.0 / tau, -1.0 / (1.0 - tau)
    G[0, 1:3], G[1, 3:5] = grad[:, 0], grad[:, 1]
    s = np.einsum("jn,jpn->pn", w, G)
    H = np.einsum("jn,jpn,jqn->pq", w, G, G) - s @ s.T
    H[0, 0] -= w[0].sum() / tau ** 2 + w[1].sum() / (1.0 - tau) ** 2
    H[1:3, 1:3] += hess[:, :, 0] @ w[0]
    H[3:5, 3:5] += hess[:, :, 1] @ w[1]
    return s.sum(axis=1), H


def _mixture_hessian(stats, x):
    """The mixture log-likelihood's exact Hessian, (5, 5), at the
    optimizer's point x = (logit tau, alpha0_1, log sigma_u2_1, alpha0_2,
    log sigma_u2_2), in those coordinates; None where a coordinate of x is
    clipped or the point is ``_mixture_degenerate``.

    By the chain rule through tau = expit(xi) and sigma_u2 = exp(eta), it
    is D H D + diag(c s) with the score s and Hessian H in (tau, alpha0_1,
    sigma_u2_1, alpha0_2, sigma_u2_2), the first derivatives
    D = diag(tau (1 - tau), 1, sigma_u2_1, 1, sigma_u2_2) of those in x,
    and their second derivatives c = (tau (1 - tau) (1 - 2 tau), 0,
    sigma_u2_1, 0, sigma_u2_2).
    """
    if np.any(np.abs(x) > _MIXTURE_BOUNDS):
        return None
    (tau,), (a1, a2), (v1, v2) = (c[:, 0] for c in _mixture_columns(x[None]))
    params = np.array([tau, a1, v1, a2, v2])
    if _mixture_degenerate(params):
        return None
    score, H = _mixture_score_hessian(stats, params)
    dtau = tau * (1.0 - tau)
    first = np.array([dtau, 1.0, v1, 1.0, v2])
    second = np.array([dtau * (1.0 - 2.0 * tau), 0.0, v1, 0.0, v2])
    return first[:, None] * H * first + np.diag(second * score)


# --- model choice and inference ----------------------------------------------


def default_lambda_tilde(N, c_tilde=1.0):
    """Mixture penalty c * sqrt(N) log(N) / 8."""
    return c_tilde * np.sqrt(N) * np.log(N) / 8.0


def step5_select(unique, mixture, lambda_tilde):
    """Choose the mixture only when its penalized criterion strictly wins."""
    ic1 = -unique.loglik
    ic2 = -mixture.loglik + lambda_tilde
    return Step5Choice(
        ic_unique=float(ic1),
        ic_mixture=float(ic2),
        lambda_tilde=float(lambda_tilde),
        chosen="mixture" if ic2 < ic1 else "unique",
    )


def _near_variance_boundary(*variances):
    """Whether a variance is ``_VARIANCE_BOUNDARY`` or less.

    The likelihood's boundary is sigma_u2 = 0. An optimum that close to it
    is not a root of the score, so the curvature there does not measure
    its sampling spread, and it gets no standard errors.
    """
    return bool(np.any(np.array(variances) <= _VARIANCE_BOUNDARY))


def _standard_errors(H):
    """Square roots of the diagonal of (-H)^-1 for the log-likelihood
    Hessian ``H`` at the optimum.

    ``H`` must be finite and negative definite; otherwise a HessianError,
    carrying its eigenvalues when they exist, is raised.
    """
    if not np.all(np.isfinite(H)):
        raise HessianError(
            "Hessian has non-finite entries; the objective is not smooth "
            "in a neighborhood of the optimum", eigenvalues=None,
        )
    eig = np.linalg.eigvalsh(H)
    if eig[-1] >= 0.0:
        raise HessianError(
            f"Hessian not negative definite at the optimum (eigenvalues {eig})",
            eigenvalues=eig,
        )
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError as exc:
        raise HessianError(f"Hessian singular: {exc}", eigenvalues=eig) from exc
    return np.sqrt(np.diag(cov))
