"""Maximum likelihood for the level/inefficiency parameters (Steps 4, 4', 5).

After the frontiers are estimated, each firm's composite residuals
r_it = y_it - z_it' pi_hat carry the level term and the one-sided
inefficiency draw. The single-law model estimates (alpha0, sigma_u2) by
maximizing the panel half-normal likelihood; the mixture model estimates
(tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2). A penalized likelihood
comparison then chooses between them.

Optimization runs on an unconstrained parameterization (log variance,
logit mixing weight). A coarse Nelder-Mead pass on the likelihood value
chooses the basin, and BFGS with the exact gradient of the clipped
objective polishes the point. The mixture gradient comes from the
component gradients weighted by the firms' responsibilities. Standard
errors come from a central-difference Hessian of the log-likelihood in
the original parameterization.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._kernels import (
    log_mixture_terms,
    loglik_mixture_total,
    loglik_unique_terms,
    loglik_unique_terms_grad,
    loglik_unique_total,
)
from .basis import design_matrix
from .errors import ConvergenceError, HessianError, InputError

_ETA_CLIP = 60.0
_XI_CLIP = 30.0  # keeps the mixing weight strictly inside (0, 1) in double
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


@dataclass
class CompositeStats:
    """Per-firm sufficient statistics of the composite residuals.

    S and Q are the per-firm sum and square sum of r_it = y_it - z_it' pi
    (level term not yet removed); sigma_v2 maps each firm to its group's
    noise variance.
    """

    S: np.ndarray
    Q: np.ndarray
    sigma_v2: np.ndarray
    T: int


def composite_residual_stats(panel, assignment, group_fits):
    """Compute per-firm residual statistics under the fitted frontiers."""
    if assignment.N != panel.N:
        raise InputError("assignment does not match panel size")
    S = np.full(panel.N, np.nan)
    Q = np.full(panel.N, np.nan)
    sv2 = np.full(panel.N, np.nan)
    for k, fit in enumerate(group_fits, start=1):
        if not np.array_equal(fit.members, assignment.members(k)):
            raise InputError(f"group fit {k} does not match the assignment")
        for i in fit.members:
            Zi = design_matrix(panel.x[i], fit.m_under, with_intercept=False)
            r = panel.y[i] - Zi @ fit.pi
            S[i] = r.sum()
            Q[i] = r @ r
            sv2[i] = fit.sigma_v ** 2
    if np.isnan(S).any():
        raise InputError("group fits do not cover every firm")
    return CompositeStats(S=S, Q=Q, sigma_v2=sv2, T=panel.T)


def firm_intercepts(stats):
    """Per-firm time average of the composite residuals.

    Estimates the firm's level term alpha0 - u_i; used for initialization
    and reporting.
    """
    return stats.S / stats.T


# --- likelihood evaluation --------------------------------------------------


def loglik_unique_firm(resid_sum, resid_sumsq, T, sigma_v2, sigma_u2):
    """Log density of one firm's level-adjusted residual series.

    ``resid_sum`` and ``resid_sumsq`` are the sum and square sum of the
    residuals with the level term already removed.
    """
    if sigma_v2 <= 0.0 or sigma_u2 <= 0.0:
        raise InputError("variances must be positive")
    terms = loglik_unique_terms(
        np.array([resid_sum]), np.array([resid_sumsq]), np.array([sigma_v2]),
        T, 0.0, sigma_u2,
    )
    return float(terms[0])


def loglik_mixture_firm(
    resid_sum, resid_sumsq, T, sigma_v2,
    alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2, tau,
):
    """Log density under the two-component mixture of level laws.

    Here ``resid_sum``/``resid_sumsq`` are sums of the raw composite
    residuals; each component removes its own level alpha0_j. Computed in
    log space so boundary weights (tau of 0 or 1) degrade gracefully.
    """
    if sigma_v2 <= 0.0 or sigma_u2_1 <= 0.0 or sigma_u2_2 <= 0.0:
        raise InputError("variances must be positive")
    if not 0.0 <= tau <= 1.0:
        raise InputError(f"tau must lie in [0, 1], got {tau}")
    return loglik_mixture_total(
        np.array([resid_sum]), np.array([resid_sumsq]), np.array([sigma_v2]),
        T, tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2,
    )


# --- optimization ------------------------------------------------------------


def _maximize(objective, value_and_grad, x0, max_nm=2000, max_bfgs=200):
    """Simplex search for the basin, polished by exact-gradient BFGS.

    ``objective`` returns the log-likelihood and ``value_and_grad`` the
    same value with its gradient. The Nelder-Mead pass stops at a coarse
    tolerance (xatol 1e-4, fatol 1e-6): its job is to pick the local
    optimum, which a gradient method started at ``x0`` does not always
    reach on multimodal or boundary panels. BFGS then converges on the
    exact gradient. Returns the better of the two points.
    """

    def neg(x):
        return -objective(x)

    def neg_value_and_grad(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    nm = minimize(
        neg, x0, method="Nelder-Mead",
        options=dict(xatol=1e-4, fatol=1e-6, maxiter=max_nm, maxfev=4 * max_nm),
    )
    bfgs = minimize(
        neg_value_and_grad, nm.x, jac=True, method="BFGS",
        options=dict(maxiter=max_bfgs),
    )
    cand = bfgs if bfgs.fun <= nm.fun else nm
    grad_ok = (
        getattr(bfgs, "jac", None) is not None
        and np.max(np.abs(bfgs.jac)) < 1e-5 * (1.0 + abs(bfgs.fun))
    )
    if not (nm.success or bfgs.success or grad_ok):
        raise ConvergenceError(
            f"likelihood maximization did not converge: {nm.message}; {bfgs.message}",
            best_params=cand.x, best_value=-cand.fun,
        )
    return cand.x, -float(cand.fun)


def _clip_eta(eta):
    """Clipped log variance and the derivative of the clip (0 or 1)."""
    return min(max(eta, -_ETA_CLIP), _ETA_CLIP), float(abs(eta) <= _ETA_CLIP)


def _unique_objectives(stats):
    """Single-law log-likelihood in x = (alpha0, log sigma_u2), clipped.

    Returns (objective, value_and_grad) for ``_maximize``.
    """
    S, Q, sv2, T = stats.S, stats.Q, stats.sigma_v2, stats.T

    def objective(x):
        eta = _clip_eta(x[1])[0]
        return loglik_unique_total(S, Q, sv2, T, x[0], math.exp(eta))

    def value_and_grad(x):
        eta, d_clip = _clip_eta(x[1])
        terms, d_alpha0, d_eta = loglik_unique_terms_grad(
            S, Q, sv2, T, x[0], math.exp(eta)
        )
        grad = np.array([np.sum(d_alpha0), d_clip * np.sum(d_eta)])
        return float(np.sum(terms)), grad

    return objective, value_and_grad


def _mixture_objectives(stats):
    """Mixture log-likelihood in x = (logit tau, alpha0_1, log sigma_u2_1,
    alpha0_2, log sigma_u2_2), clipped.

    Returns (objective, value_and_grad) for ``_maximize``. With
    responsibilities w_j, d/dxi = sum(w_1 - tau) and d/dtheta_j =
    sum(w_j dl_j/dtheta_j); a clipped coordinate has derivative 0.
    """
    S, Q, sv2, T = stats.S, stats.Q, stats.sigma_v2, stats.T

    def objective(x):
        tau = _expit(x[0])
        e1, e2 = _clip_eta(x[2])[0], _clip_eta(x[4])[0]
        return loglik_mixture_total(
            S, Q, sv2, T, tau, x[1], math.exp(e1), x[3], math.exp(e2)
        )

    def value_and_grad(x):
        tau = _expit(x[0])
        e1, d_clip1 = _clip_eta(x[2])
        e2, d_clip2 = _clip_eta(x[4])
        l1, da1, de1 = loglik_unique_terms_grad(S, Q, sv2, T, x[1], math.exp(e1))
        l2, da2, de2 = loglik_unique_terms_grad(S, Q, sv2, T, x[3], math.exp(e2))
        x1, lm = log_mixture_terms(l1, l2, tau)
        w1 = np.exp(x1 - lm)
        w2 = -np.expm1(x1 - lm)
        grad = np.array([
            float(abs(x[0]) <= _XI_CLIP) * np.sum(w1 - tau),
            w1 @ da1,
            d_clip1 * (w1 @ de1),
            w2 @ da2,
            d_clip2 * (w2 @ de2),
        ])
        return float(np.sum(lm)), grad

    return objective, value_and_grad


def fit_unique(stats):
    """MLE of (alpha0, sigma_u2) under a single half-normal law."""
    a = firm_intercepts(stats)
    sd_a = float(np.std(a, ddof=1)) if len(a) > 1 else 0.0
    su_init = max(sd_a / math.sqrt(_HN_VAR), 1e-3)
    x0 = np.array([float(np.mean(a)) + su_init * _HN_MEAN, 2.0 * math.log(su_init)])

    x, loglik = _maximize(*_unique_objectives(stats), x0)
    eta_hat = float(np.clip(x[1], -_ETA_CLIP, _ETA_CLIP))
    if eta_hat < math.log(1e-8):
        warnings.warn(
            "inefficiency variance collapsed toward zero", RuntimeWarning
        )
    return UniqueFit(alpha0=float(x[0]), sigma_u2=math.exp(eta_hat), loglik=loglik)


def unique_standard_errors(stats, fit):
    """Numerical-Hessian standard errors of (alpha0, sigma_u2)."""
    S, Q, sv2, T = stats.S, stats.Q, stats.sigma_v2, stats.T

    def ll_orig(theta):
        return loglik_unique_total(S, Q, sv2, T, theta[0], max(theta[1], 1e-12))

    return mle_standard_errors(ll_orig, np.array([fit.alpha0, fit.sigma_u2]))


def _mixture_starts(unique, sd_a, seed):
    center_a, base_eta = unique.alpha0, math.log(unique.sigma_u2)
    sd = max(sd_a, 1e-2)
    starts = []
    for tau0 in (0.3, 0.5, 0.7):
        for sign in (1.0, -1.0):
            starts.append(
                [_logit(tau0), center_a + sign * sd, base_eta,
                 center_a - sign * sd, base_eta]
            )
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


def _expit(x):
    x = min(max(x, -_XI_CLIP), _XI_CLIP)
    return 1.0 / (1.0 + math.exp(-x))


def fit_mixture(stats, unique_fit, seed=0):
    """MLE of the two-component mixture by multi-start optimization.

    Eight starts: the single-law solution ``unique_fit`` split by
    plus/minus one standard deviation of the firm intercepts in both
    orderings, crossed with mixing weights 0.3/0.5/0.7, the unperturbed
    solution, and one seeded random draw. The best local optimum wins;
    components are reported with tau >= 0.5 (ascending level on an exact
    tie).
    """
    a = firm_intercepts(stats)
    sd_a = float(np.std(a, ddof=1)) if len(a) > 1 else 0.0

    objectives = _mixture_objectives(stats)
    best_x, best_ll = None, -np.inf
    failures = []
    for x0 in _mixture_starts(unique_fit, sd_a, seed):
        try:
            x, ll = _maximize(*objectives, x0)
        except ConvergenceError as exc:
            failures.append(exc)
            continue
        if ll > best_ll:
            best_x, best_ll = x, ll
    if best_x is None:
        raise ConvergenceError(
            f"all {len(failures)} mixture starts failed to converge",
            best_params=failures[-1].best_params if failures else None,
        )

    tau = _expit(best_x[0])
    comp1 = (float(best_x[1]), math.exp(float(np.clip(best_x[2], -_ETA_CLIP, _ETA_CLIP))))
    comp2 = (float(best_x[3]), math.exp(float(np.clip(best_x[4], -_ETA_CLIP, _ETA_CLIP))))
    if tau < 0.5 or (tau == 0.5 and comp1[0] > comp2[0]):
        tau, comp1, comp2 = 1.0 - tau, comp2, comp1
    degenerate = not 1e-4 <= tau <= 1.0 - 1e-4
    if degenerate:
        warnings.warn(
            f"mixture weight collapsed to a boundary (tau = {tau:.2e})",
            DegenerateMixtureWarning,
        )
    return MixtureFit(
        tau=float(tau), alpha0_1=comp1[0], sigma_u2_1=comp1[1],
        alpha0_2=comp2[0], sigma_u2_2=comp2[1], loglik=best_ll,
    )


def mixture_standard_errors(stats, fit):
    """Numerical-Hessian standard errors of the five mixture parameters.

    Returns None for boundary optima, where the information matrix is
    singular by construction.
    """
    if not 1e-4 <= fit.tau <= 1.0 - 1e-4:
        return None
    S, Q, sv2, T = stats.S, stats.Q, stats.sigma_v2, stats.T

    def ll_orig(theta):
        return loglik_mixture_total(
            S, Q, sv2, T, min(max(theta[0], 0.0), 1.0), theta[1],
            max(theta[2], 1e-12), theta[3], max(theta[4], 1e-12),
        )

    return mle_standard_errors(ll_orig, fit.params)


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


def mle_standard_errors(objective, at):
    """Standard errors from a central-difference Hessian at the optimum.

    Per-coordinate steps are max(1e-5, 1e-4 |theta_j|). The Hessian must
    be negative definite; otherwise a HessianError carrying its
    eigenvalues is raised.
    """
    theta = np.asarray(at, dtype=float)
    n = len(theta)
    h = np.maximum(1e-5, 1e-4 * np.abs(theta))
    H = np.empty((n, n))
    f0 = objective(theta)

    def at_offset(i, si, j=None, sj=0.0):
        x = theta.copy()
        x[i] += si * h[i]
        if j is not None:
            x[j] += sj * h[j]
        return objective(x)

    for i in range(n):
        H[i, i] = (at_offset(i, 1.0) + at_offset(i, -1.0) - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (
                at_offset(i, 1.0, j, 1.0)
                + at_offset(i, -1.0, j, -1.0)
                - at_offset(i, 1.0, j, -1.0)
                - at_offset(i, -1.0, j, 1.0)
            ) / (4.0 * h[i] * h[j])

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
