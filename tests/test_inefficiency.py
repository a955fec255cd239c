import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from groupsfa import inefficiency
from groupsfa._kernels import (
    loglik_mixture_total,
    loglik_unique_terms_grad,
    loglik_unique_total,
)
from groupsfa.dgp import generate
from groupsfa.errors import ConvergenceError, HessianError, InputError
from groupsfa.estimation import default_m, fit_all, fit_group, within_factors
from groupsfa.inefficiency import (
    CompositeStats,
    _mixture_objectives,
    _unique_objectives,
    DegenerateMixtureWarning,
    MixtureFit,
    UniqueFit,
    _mixture_starts,
    composite_residual_stats,
    default_lambda_tilde,
    firm_intercepts,
    fit_mixture,
    fit_unique,
    mixture_standard_errors,
    step5_select,
    unique_standard_errors,
)
from groupsfa.panel import PanelData
from groupsfa.pipeline import estimate_panel, fit_levels
from groupsfa.postestimation import select_K

from oracles import (
    composite_stats_loop,
    halfnormal_marginal_density,
    mixture_hessian_mpmath,
    mixture_loglik_mpmath,
    mixture_starts_eight,
    sample_half_normal,
    square_sum_mp,
    unique_loglik_mpmath,
)

HN_MEAN = math.sqrt(2.0 / math.pi)


# --- likelihood values -------------------------------------------------------

# One firm's log density comes from the panel totals with one-firm stats:
# (S, W, sigma_v2) of the firm and the level parameters as one-row kernel
# columns. A single-law call at alpha0 = 0 takes the level-adjusted sum S;
# the level leaves W unchanged.


def _unique_ll(S, W, sv2, T, alpha0, sigma_u2):
    """One-row single-law total on the stats (S, W, sv2, T)."""
    (ll,) = loglik_unique_total(CompositeStats(S, W, sv2, T),
                                np.array([[alpha0]]), np.array([[sigma_u2]]))
    return ll


def _mixture_ll(S, W, sv2, T, tau, a1, su2_1, a2, su2_2):
    """One-row mixture total on the stats (S, W, sv2, T)."""
    (ll,) = loglik_mixture_total(CompositeStats(S, W, sv2, T), np.array([[tau]]),
                                 np.array([[a1], [a2]]), np.array([[su2_1], [su2_2]]))
    return ll


def _sums(r):
    """One series' sum and its square sum about its mean, as one-firm
    stats arrays."""
    d = r - r.mean()
    return [r.sum()], [d @ d]


def test_single_period_degenerate_u_limit():
    # with u pinned near zero and a zero residual the density collapses to
    # a standard normal at the origin
    val = _unique_ll([0.0], [0.0], [1.0], 1, 0.0, 1e-18)
    assert val == pytest.approx(-0.9189385332046727, abs=1e-6)


def test_quadrature_oracle_specific_case():
    eps = np.array([-1.0, -1.0, -1.0])
    ll = _unique_ll(*_sums(eps), [1.0], 3, 0.0, 1.0)
    ref = halfnormal_marginal_density(eps, 1.0, 1.0)
    assert math.exp(ll) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("trial", range(20))
def test_quadrature_oracle_random_instances(trial):
    rng = np.random.default_rng(1000 + trial)
    T = int(rng.integers(1, 7))
    sigma_v = float(rng.uniform(0.4, 2.0))
    sigma_u = float(rng.uniform(0.3, 2.0))
    eps = rng.normal(0, sigma_v, size=T) - sample_half_normal(sigma_u, rng)
    ll = _unique_ll(*_sums(eps), [sigma_v ** 2], T, 0.0, sigma_u ** 2)
    ref = halfnormal_marginal_density(eps, sigma_v, sigma_u)
    assert math.exp(ll) == pytest.approx(ref, rel=1e-8)


def test_closed_form_matches_mpmath():
    rng = np.random.default_rng(7)
    for _ in range(10):
        T = int(rng.integers(2, 200))
        se = float(rng.normal(0, 10))
        w = float(rng.uniform(0.5, 50))
        sv2 = float(rng.uniform(0.2, 4))
        su2 = float(rng.uniform(0.1, 4))
        mine = _unique_ll([se], [w], [sv2], T, 0.0, su2)
        ref = unique_loglik_mpmath(se, square_sum_mp(se, w, T), T, sv2, su2)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_mixture_degenerate_tau_equals_unique():
    se, w, T, sv2 = 4.2, 27.472, 5, 1.3
    a1, su1 = 0.8, 0.6
    mix = _mixture_ll([se], [w], [sv2], T, 1.0, a1, su1, -3.0, 2.0)
    uni = _unique_ll([se - T * a1], [w], [sv2], T, 0.0, su1)
    assert mix == uni


def test_mixture_identical_components_collapse():
    se, w, T, sv2 = -2.0, 17.0, 4, 0.9
    mix = _mixture_ll([se], [w], [sv2], T, 0.5, 0.5, 1.1, 0.5, 1.1)
    uni = _unique_ll([se - T * 0.5], [w], [sv2], T, 0.0, 1.1)
    assert mix == pytest.approx(uni, rel=1e-14)


def test_mixture_matches_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(10):
        T = int(rng.integers(2, 60))
        se = float(rng.normal(0, 5))
        w = float(rng.uniform(1, 40))
        mine = _mixture_ll([se], [w], [1.2], T, 0.3, 0.9, 0.5, -1.0, 1.6)
        ref = mixture_loglik_mpmath(se, square_sum_mp(se, w, T), T,
                                    1.2, 0.9, 0.5, -1.0, 1.6, 0.3)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_stable_for_huge_residual_sums():
    for se in (1e6, -1e6):
        val = _unique_ll([se], [5.0], [1.0], 10_000, 0.0, 1.0)
        assert np.isfinite(val)


# --- gradient hygiene --------------------------------------------------------


def test_finite_difference_gradients_cross_check():
    rng = np.random.default_rng(9)
    n, T = 40, 25
    S = rng.normal(-10, 8, size=n)
    W = rng.uniform(5, 60, size=n)
    sv2 = rng.uniform(0.5, 2.0, size=n)
    theta = np.array([0.3, 0.8])

    def f(x):
        return _unique_ll(S, W, sv2, T, *x)

    for j in range(2):
        h1 = 1e-5 * max(1.0, abs(theta[j]))
        h2 = h1 / 2
        e = np.zeros(2)
        e[j] = 1.0
        g1 = (f(theta + h1 * e) - f(theta - h1 * e)) / (2 * h1)
        g2 = (f(theta + h2 * e) - f(theta - h2 * e)) / (2 * h2)
        assert g1 == pytest.approx(g2, rel=1e-5)

    # the analytic per-firm derivatives in alpha0 and eta = log sigma_u2
    # against central differences of the value kernel; the six large
    # residual sums put z below -37 (log_ndtr's asymptotic branch) and
    # above 8. Roundoff of a difference quotient grows with |term| / h.
    se = np.concatenate([rng.normal(0, 8, size=n),
                         [-3000.0, -400.0, -60.0, 60.0, 400.0, 3000.0]])
    sv2 = rng.uniform(0.5, 2.0, size=len(se))
    h = 1e-5
    for alpha0, eta in ((0.3, -0.2), (-2.0, 1.5), (1.0, -6.0)):
        S = se + T * alpha0
        W = rng.uniform(5, 60, size=len(se))
        su2 = math.exp(eta)
        z = -math.sqrt(su2) * se / (np.sqrt(sv2) * np.sqrt(sv2 + T * su2))
        assert z.min() < -37 and z.max() > 8
        stats = CompositeStats(S, W, sv2, T)
        (terms,), (d_alpha0,), (d_eta,) = loglik_unique_terms_grad(
            stats, np.array([[alpha0]]), np.array([[su2]])
        )

        def ell(a, e):
            return loglik_unique_terms_grad(stats, np.array([[a]]),
                                            np.array([[math.exp(e)]]))[0][0]

        fd_alpha0 = (ell(alpha0 + h, eta) - ell(alpha0 - h, eta)) / (2 * h)
        fd_eta = (ell(alpha0, eta + h) - ell(alpha0, eta - h)) / (2 * h)
        for grad, fd in ((d_alpha0, fd_alpha0), (d_eta, fd_eta)):
            scale = 1.0 + np.abs(grad) + 1e-16 / h * np.abs(terms)
            assert np.all(np.abs(grad - fd) <= 1e-5 * scale)

    # the optimizers' clipped objectives: the value from value_and_grad is
    # the value-only objective's (which takes a batch of points), and the
    # gradient matches central differences; a clipped coordinate
    # (|eta| > 60, |xi| > 30) has 0
    stats = CompositeStats(S=S, W=W, sigma_v2=sv2, T=T)
    cases = [
        (_unique_objectives(stats), [
            ([0.3, -0.2], []), ([1.0, 70.0], [1]), ([0.5, -70.0], [1]),
        ]),
        (_mixture_objectives(stats), [
            ([0.4, 0.8, -0.5, -1.0, 0.7], []),
            ([35.0, 0.8, -0.5, -1.0, 0.7], [0]),
            ([-32.0, 1.5, 0.2, 0.6, -2.0], [0]),
            ([-0.4, 0.8, 70.0, -1.0, -65.0], [2, 4]),
        ]),
    ]
    for (objective, value_and_grad), points in cases:
        for x, clipped in points:
            x = np.array(x)
            value, grad = value_and_grad(x)
            assert value == objective(x[None])[0]
            for j in range(len(x)):
                e = np.zeros(len(x))
                e[j] = 1e-6 * max(1.0, abs(x[j]))
                f_hi, f_lo = objective(np.array([x + e, x - e]))
                fd = (f_hi - f_lo) / (2 * e[j])
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)
                assert (grad[j] == 0.0) == (j in clipped)


# --- standard errors ---------------------------------------------------------


# _standard_errors takes a log-likelihood Hessian at the optimum and
# returns the square roots of the diagonal of its negative inverse


def test_se_quadratic_objective_recovers_scales():
    # the Hessian of a Gaussian log density with covariance C is -C^-1
    scales = np.array([0.5, 2.0, 7.0])
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]])
    C = corr * np.outer(scales, scales)
    se = inefficiency._standard_errors(-np.linalg.inv(C))
    np.testing.assert_allclose(se, scales, rtol=1e-12)


def test_se_one_dimensional():
    se = inefficiency._standard_errors(np.array([[-4.0]]))
    assert se[0] == 0.5


def test_se_rejects_indefinite_hessian():
    with pytest.raises(HessianError, match="not negative definite") as err:
        inefficiency._standard_errors(np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(err.value.eigenvalues, [-1.0, 1.0])


def test_se_rejects_a_non_finite_hessian():
    with pytest.raises(HessianError, match="non-finite") as err:
        inefficiency._standard_errors(np.array([[-1.0, np.nan], [np.nan, -1.0]]))
    assert err.value.eigenvalues is None


@pytest.mark.slow
def test_mixture_se_matches_the_mpmath_hessian():
    # a runner-up mixture on a unique-law panel, where the central-difference
    # stencil the SEs once came from was 5.7e-3 relative off
    panel, _ = generate("dgp1u", 250, 100, seed=0, rep=3)
    result = estimate_panel(panel, k_max=4, seed=3)
    stats = composite_residual_stats(panel, result.group_fits)
    fit = result.mixture_fit
    H = mixture_hessian_mpmath(stats.S, stats.W, stats.T, stats.sigma_v2, fit.params)
    np.testing.assert_allclose(fit.se, np.sqrt(np.diag(np.linalg.inv(-H))), rtol=1e-8)


def _tail_stats(T=6, sigma_v2=0.8):
    """Five firms whose sums put z near -30, -3, 0, 3 and 30 at
    (alpha0, sigma_u2) = (0.1, 0.4) and (-0.3, 1.5)."""
    scale = math.sqrt(0.4 / (sigma_v2 * (sigma_v2 + T * 0.4)))
    S = T * 0.1 - np.array([-30.0, -3.0, 0.0, 3.0, 30.0]) / scale
    return CompositeStats(S=S, W=np.linspace(1.0, 5.0, 5), sigma_v2=np.full(5, sigma_v2), T=T)


@pytest.mark.parametrize("tau", [0.7, 0.5, 0.02])
def test_mixture_hessian_matches_mpmath(monkeypatch, tau):
    # the Louis-identity Hessian that mixture_standard_errors inverts,
    # against mpmath.diff of the mixture log-likelihood, with firms in both
    # far tails of z; within 1e-8 of the Hessian's largest entry
    stats = _tail_stats()
    fit = MixtureFit(tau=tau, alpha0_1=0.1, sigma_u2_1=0.4, alpha0_2=-0.3,
                     sigma_u2_2=1.5, loglik=0.0)
    seen = []
    monkeypatch.setattr(inefficiency, "_standard_errors", lambda H: seen.append(H) or H)
    mixture_standard_errors(stats, fit)
    ref = mixture_hessian_mpmath(stats.S, stats.W, stats.T, stats.sigma_v2, fit.params)
    np.testing.assert_allclose(seen[0], ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())


def test_no_mixture_se_at_a_boundary_variance():
    # the chosen mixture has sigma_u2_2 at the log-variance clip exp(-60);
    # the difference stencil the SEs once came from reported its step size
    # as the SE there (3.17e-4, 1.00e-4 and 3.16e-5 for step floors 1e-5,
    # 1e-6 and 1e-7 when the variance was 8.6e-14)
    panel, _ = generate("dgp2m", 50, 30, seed=3, rep=0)
    fits = select_K(fit_all(panel, default_m(30)), 4, 1.0).selected.fits
    stats, _, mixture, choice = fit_levels(panel, fits, 1.0, 0)
    if choice.chosen != "mixture" or not mixture.sigma_u2_2 < 1e-12:
        pytest.fail("the panel no longer picks a mixture with a boundary variance")
    assert mixture_standard_errors(stats, mixture) is None


def test_no_se_within_one_stencil_step_of_a_zero_variance():
    # a variance of 1e-5 or less gets no SE: the threshold is the smallest
    # step of the difference stencil the SEs once came from, kept so that
    # no SE turned null or stopped being null when it went
    assert inefficiency._near_variance_boundary(1e-5)
    assert not inefficiency._near_variance_boundary(np.nextafter(1e-5, 1.0))
    assert inefficiency._near_variance_boundary(0.3, 1e-5)
    rng = np.random.default_rng(23)
    stats = _stats_from_levels(0.4 - sample_half_normal(0.5, rng, size=50), 1.0, 20, rng)
    assert unique_standard_errors(stats, UniqueFit(alpha0=0.4, sigma_u2=5e-6, loglik=0.0)) is None
    mixture = MixtureFit(tau=0.6, alpha0_1=0.5, sigma_u2_1=0.3, alpha0_2=-0.2,
                         sigma_u2_2=5e-6, loglik=0.0)
    assert mixture_standard_errors(stats, mixture) is None


@pytest.mark.parametrize("design, rep, tau_may_sit_at_a_bound", [
    pytest.param("dgp2u", 3, False, id="dgp2u-3"),
    # on the unique law's flat ridge the optimizer's end point follows last
    # bits: with Step 3 solved by QR this fit ends at tau = 1 - 1.1e-10,
    # component 1 at the unique law, where it used to end at coinciding
    # components; either way tau is not identified
    pytest.param("dgp3u", 5, True, id="dgp3u-5"),
])
def test_no_mixture_se_when_the_components_coincide(design, rep, tau_may_sit_at_a_bound):
    # runner-up mixtures whose two components agree to within 1e-5 in alpha0
    # and sigma_u2: tau is not identified, and the SEs they reported
    # (se(tau) 37.2 and 52.4) followed last-bit changes of the arithmetic
    panel, _ = generate(design, 100, 50, seed=0, rep=rep)
    fits = select_K(fit_all(panel, default_m(50)), 4, 1.0).selected.fits
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats, _, mixture, _ = fit_levels(panel, fits, 1.0, rep)
    coincide = (abs(mixture.alpha0_1 - mixture.alpha0_2) < 1e-5
                and abs(mixture.sigma_u2_1 - mixture.sigma_u2_2) < 1e-5)
    at_bound = not inefficiency._TAU_BOUNDARY <= mixture.tau <= 1 - inefficiency._TAU_BOUNDARY
    assert coincide or (tau_may_sit_at_a_bound and at_bound)
    # the fit warns exactly when tau sits at its bound, and of nothing else
    assert [w.category for w in caught] == [DegenerateMixtureWarning] * at_bound
    assert mixture_standard_errors(stats, mixture) is None


@pytest.mark.parametrize("alpha0_2, sigma_u2_2, coincide", [
    (1e-5, 0.3, True),  # alpha0 apart by the 1e-5 floor
    (np.nextafter(1e-5, 1.0), 0.3, False),
    (0.0, 0.3 + 3e-5, True),  # sigma_u2 apart by 1e-4 * 0.3
    (0.0, 0.3 + 3.1e-5, False),
])
def test_coinciding_components_rule(monkeypatch, alpha0_2, sigma_u2_2, coincide):
    monkeypatch.setattr(inefficiency, "_standard_errors", lambda H: np.ones(5))
    mixture = MixtureFit(tau=0.6, alpha0_1=0.0, sigma_u2_1=0.3, alpha0_2=alpha0_2,
                         sigma_u2_2=sigma_u2_2, loglik=0.0)
    stats = CompositeStats(S=np.zeros(3), W=np.ones(3), sigma_v2=np.ones(3), T=10)
    assert (mixture_standard_errors(stats, mixture) is None) == coincide


@pytest.mark.parametrize("kernel, se_fn, n", [
    ("loglik_unique_total", unique_standard_errors, 2),
    ("loglik_mixture_total", mixture_standard_errors, 5),
])
def test_se_makes_one_kernel_call(monkeypatch, kernel, se_fn, n):
    # n SEs from one Hessian-kernel call with one row per component, and
    # no call of the fit's likelihood-total kernel
    rng = np.random.default_rng(22)
    comp = rng.uniform(size=200) < 0.6
    levels = np.where(comp, 0.8, -0.7) - sample_half_normal(0.8, rng, size=200)
    stats = _stats_from_levels(levels, 1.0, 40, rng)
    unique = fit_unique(stats)
    fit = unique if n == 2 else fit_mixture(stats, unique, seed=0)
    rows = []
    hess = inefficiency.loglik_unique_terms_hess

    def counted(stats, alpha0, sigma_u2):
        rows.append(len(alpha0))
        return hess(stats, alpha0, sigma_u2)

    def forbidden(*args):
        raise AssertionError(f"{kernel} called")

    monkeypatch.setattr(inefficiency, "loglik_unique_terms_hess", counted)
    monkeypatch.setattr(inefficiency, kernel, forbidden)
    se = se_fn(stats, fit)
    assert se is not None and len(se) == n
    assert rows == [1 if n == 2 else 2]


@pytest.mark.parametrize("sigma_v2", [0.0, np.nan])
def test_fits_reject_a_noise_variance_the_likelihood_cannot_use(sigma_v2):
    # both once ended as "ConvergenceError: 0 of 1 starts converged"
    S = np.array([1.0, -2.0, 0.5])
    with pytest.raises(InputError, match="sigma_v2"):
        fit_unique(CompositeStats(S=S, W=np.full(3, 4.0),
                                  sigma_v2=np.array([1.0, sigma_v2, 1.0]), T=10))


def test_stats_with_a_short_W_are_rejected_before_any_fit():
    # once failed inside the optimizer with numpy's broadcast ValueError
    with pytest.raises(InputError, match="one length"):
        CompositeStats(S=np.zeros(3), W=np.ones(2), sigma_v2=np.ones(3), T=10)


# --- fitting on synthetic residual statistics --------------------------------


def _stats_from_levels(levels, sigma_v, T, rng):
    """Per-firm residual stats for r_it = level_i + noise."""
    n = len(levels)
    S = np.empty(n)
    W = np.empty(n)
    for i in range(n):
        r = levels[i] + rng.normal(0, sigma_v, size=T)
        (S[i],), (W[i],) = _sums(r)
    return CompositeStats(S=S, W=W, sigma_v2=np.full(n, sigma_v ** 2), T=T)


def test_fit_unique_recovers_truth_within_mc_error():
    rng = np.random.default_rng(10)
    N, T = 200, 50
    alpha0, sigma_u, sigma_v = 0.5, 1.0, 1.0
    levels = alpha0 - sample_half_normal(sigma_u, rng, size=N)
    stats = _stats_from_levels(levels, sigma_v, T, rng)
    fit = fit_unique(stats)
    # 3 monte-carlo standard errors of the estimator at this sample size
    assert fit.alpha0 == pytest.approx(alpha0, abs=3 * 0.11)
    assert math.sqrt(fit.sigma_u2) == pytest.approx(sigma_u, abs=3 * 0.12)
    se = unique_standard_errors(stats, fit)
    assert se is not None and np.all(se > 0)


def test_fit_unique_envelope_direction():
    # huge inefficiency spread, almost no noise: the level estimate sits
    # near the top of the firm intercepts
    rng = np.random.default_rng(11)
    N, T = 150, 40
    levels = 2.0 - sample_half_normal(3.0, rng, size=N)
    stats = _stats_from_levels(levels, 0.05, T, rng)
    fit = fit_unique(stats)
    a = stats.S / stats.T
    assert fit.alpha0 > a.max() - 0.05
    assert fit.alpha0 == pytest.approx(2.0, abs=0.3)


def test_fit_mixture_recovers_two_component_truth():
    rng = np.random.default_rng(12)
    N, T = 400, 60
    comp = rng.uniform(size=N) < 0.5
    levels = np.where(comp, 1.0 - sample_half_normal(0.75, rng, size=N),
                      -1.0 - sample_half_normal(1.25, rng, size=N))
    stats = _stats_from_levels(levels, 1.0, T, rng)
    fit = fit_mixture(stats, fit_unique(stats), seed=3)
    # canonical order has tau >= 0.5; align to truth by level distance
    cands = [
        (fit.tau, fit.alpha0_1, fit.sigma_u2_1, fit.alpha0_2, fit.sigma_u2_2),
        (1 - fit.tau, fit.alpha0_2, fit.sigma_u2_2, fit.alpha0_1, fit.sigma_u2_1),
    ]
    tau, a1, su1, a2, su2 = min(cands, key=lambda c: abs(c[1] - 1.0))
    assert tau == pytest.approx(0.5, abs=0.12)
    assert a1 == pytest.approx(1.0, abs=0.25)
    assert a2 == pytest.approx(-1.0, abs=0.3)
    assert math.sqrt(su1) == pytest.approx(0.75, abs=0.3)
    assert math.sqrt(su2) == pytest.approx(1.25, abs=0.3)


def test_fit_mixture_canonical_order_and_loglik_dominates_unique():
    rng = np.random.default_rng(13)
    N, T = 120, 30
    levels = 0.5 - sample_half_normal(1.0, rng, size=N)
    stats = _stats_from_levels(levels, 1.0, T, rng)
    uni = fit_unique(stats)
    mix = fit_mixture(stats, uni, seed=0)
    assert mix.tau >= 0.5
    assert mix.loglik >= uni.loglik - 1e-6
    # single-component truth: the extra parameters buy only a small gain
    assert mix.loglik - uni.loglik < 10.0


# --- label swapping ----------------------------------------------------------

# x = (xi, a1, eta1, a2, eta2) -> (-xi, a2, eta2, a1, eta1) swaps the two
# components with tau -> 1 - tau: the same mixture
_SWAP = [0, 3, 4, 1, 2]
_SWAP_SIGN = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])


def _swap(x):
    return _SWAP_SIGN * np.asarray(x)[..., _SWAP]


def test_mixture_objective_invariant_under_label_swap():
    rng = np.random.default_rng(21)
    N, T = 150, 40
    comp = rng.uniform(size=N) < 0.35
    levels = np.where(comp, 0.8, -0.6) - sample_half_normal(0.9, rng, size=N)
    stats = _stats_from_levels(levels, 1.0, T, rng)
    objective, value_and_grad = _mixture_objectives(stats)
    X = np.column_stack([
        rng.uniform(-3, 3, 12), rng.normal(0, 1, 12), rng.uniform(-4, 2, 12),
        rng.normal(0, 1, 12), rng.uniform(-4, 2, 12),
    ])
    X = np.vstack([X, [0.0, 0.8, -0.5, -0.7, 0.1]])
    np.testing.assert_allclose(objective(_swap(X)), objective(X), rtol=1e-12, atol=0)
    for x in X:
        value, grad = value_and_grad(x)
        value_s, grad_s = value_and_grad(_swap(x))
        assert value_s == pytest.approx(value, rel=1e-12, abs=0)
        # the gradient at the image is the permuted gradient, d/dxi negated
        np.testing.assert_allclose(grad_s, _swap(grad), rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(grad)))


def _two_level_stats(seed=21, N=150, T=40):
    rng = np.random.default_rng(seed)
    comp = rng.uniform(size=N) < 0.35
    levels = np.where(comp, 0.8, -0.6) - sample_half_normal(0.9, rng, size=N)
    return _stats_from_levels(levels, 1.0, T, rng)


# interior points of the mixture's optimizer coordinates (logit tau,
# alpha0_1, log sigma_u2_1, alpha0_2, log sigma_u2_2)
_INTERIOR = [[0.4, 0.8, -0.5, -1.0, 0.7], [-1.2, 0.3, 0.2, -0.5, -1.5],
             [2.5, -0.2, -2.0, 0.9, 0.1]]


def test_mixture_hessian_matches_differences_of_the_exact_gradient():
    # the Louis-identity Hessian taken through logit tau and the log
    # variances by the chain rule, against central differences of the
    # optimizer's gradient
    stats = _two_level_stats()
    _, value_and_grad = _mixture_objectives(stats)
    unique = fit_unique(stats)
    starts = _mixture_starts(unique, inefficiency._intercept_spread(stats)[1], 0)
    x_best, lls = inefficiency._maximize(*_mixture_objectives(stats), starts)
    for x in [np.array(p) for p in _INTERIOR] + [x_best[np.argmax(lls)]]:
        H = inefficiency._mixture_hessian(stats, x)
        fd = np.empty((5, 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = 1e-5 * max(1.0, abs(x[j]))
            fd[:, j] = (value_and_grad(x + e)[1] - value_and_grad(x - e)[1]) / (2 * e[j])
        np.testing.assert_allclose(H, fd, rtol=1e-6, atol=1e-6 * np.abs(H).max())


@pytest.mark.parametrize("x", [
    [30.5, 0.8, -0.5, -1.0, 0.7],  # logit tau beyond its clip
    [-31.0, 0.8, -0.5, -1.0, 0.7],
    [0.4, 0.8, 60.5, -1.0, 0.7],  # a log variance beyond its clip
    [0.4, 0.8, -0.5, -1.0, -65.0],
    [9.3, 0.8, -0.5, -1.0, 0.7],  # tau within 1e-4 of 1
    [-9.3, 0.8, -0.5, -1.0, 0.7],
    [0.4, 0.8, -11.6, -1.0, 0.7],  # a variance below 1e-5
    [0.4, 0.8, -0.5, 0.8, -0.5],  # coinciding components
])
def test_mixture_hessian_is_none_where_the_optimum_has_no_curvature(x):
    stats = _two_level_stats()
    assert inefficiency._mixture_hessian(stats, np.array(_INTERIOR[0])) is not None
    assert inefficiency._mixture_hessian(stats, np.array(x)) is None


def _mirror(a, b):
    return np.allclose(_swap(a), b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 5])
def test_mixture_starts_one_per_orbit(seed):
    unique = UniqueFit(alpha0=0.4, sigma_u2=0.3, loglik=0.0)
    starts = _mixture_starts(unique, 0.7, seed)
    assert len(starts) == 5
    for i, a in enumerate(starts):
        for b in starts[i:]:
            assert not _mirror(a, b)
    # five of the reference set's eight starts are the ones kept; the
    # other three are mirror images of kept ones
    eight = mixture_starts_eight(unique, 0.7, seed)
    kept = [s for s in eight if any(np.array_equal(s, k) for k in starts)]
    mirrored = [s for s in eight if any(_mirror(k, s) for k in starts)]
    assert len(kept) == 5 and len(mirrored) == 3


# The (50, 30) panels of test_pipeline's recorded log-likelihoods (seed 3)
# and dgp2m (100, 50) replications 0-2 (seed 0): (design, N, T, seed, rep)
_ORBIT_PANELS = [
    ("dgp2m", 50, 30, 3, 0), ("dgp1u", 50, 30, 3, 2), ("dgp3m", 50, 30, 3, 1),
    ("dgp2m", 100, 50, 0, 0), ("dgp2m", 100, 50, 0, 1), ("dgp2m", 100, 50, 0, 2),
]


@pytest.mark.parametrize("design, N, T, seed, rep", _ORBIT_PANELS)
def test_one_start_per_orbit_matches_the_eight_starts(monkeypatch, design, N, T,
                                                      seed, rep):
    panel, _ = generate(design, N, T, seed=seed, rep=rep)
    fits = select_K(fit_all(panel, default_m(T)), 4, 1.0).selected.fits
    _, unique, fit, choice = fit_levels(panel, fits, 1.0, rep)
    monkeypatch.setattr(inefficiency, "_mixture_starts", mixture_starts_eight)
    _, unique_ref, ref, choice_ref = fit_levels(panel, fits, 1.0, rep)
    assert unique == unique_ref
    assert choice.chosen == choice_ref.chosen
    # both start sets reach the same optimum. BFGS stops at an absolute step
    # in log sigma_u2, which is a relative step in sigma_u2, so the points
    # agree to a relative tolerance; the absolute part covers variances at
    # the boundary, where log sigma_u2 can differ by 1.9 and sigma_u2 by 8e-7
    assert abs(fit.loglik - ref.loglik) <= 1e-12 * abs(ref.loglik)
    np.testing.assert_allclose(fit.params, ref.params, rtol=1e-6, atol=1e-6)


def test_step5_penalty_breaks_ties():
    from groupsfa.inefficiency import MixtureFit, UniqueFit

    uni = UniqueFit(alpha0=0.0, sigma_u2=1.0, loglik=-100.0)
    mix = MixtureFit(tau=0.6, alpha0_1=0, sigma_u2_1=1, alpha0_2=0,
                     sigma_u2_2=1, loglik=-100.0)
    choice = step5_select(uni, mix, lambda_tilde=1.0)
    assert choice.chosen == "unique"

    mix_exact = MixtureFit(tau=0.6, alpha0_1=0, sigma_u2_1=1, alpha0_2=0,
                           sigma_u2_2=1, loglik=-99.0)
    assert step5_select(uni, mix_exact, lambda_tilde=1.0).chosen == "unique"

    mix_better = MixtureFit(tau=0.6, alpha0_1=0, sigma_u2_1=1, alpha0_2=0,
                            sigma_u2_2=1, loglik=-98.9)
    assert step5_select(uni, mix_better, lambda_tilde=1.0).chosen == "mixture"


def test_default_lambda_tilde_values():
    assert default_lambda_tilde(100) == pytest.approx(10 * math.log(100) / 8)
    assert default_lambda_tilde(100, 0.0) == 0.0
    assert default_lambda_tilde(466) == pytest.approx(
        math.sqrt(466) * math.log(466) / 8, rel=1e-12
    )
    assert default_lambda_tilde(466) == pytest.approx(16.58, abs=0.01)
    assert default_lambda_tilde(50, 2.0) == pytest.approx(
        2 * default_lambda_tilde(50), rel=1e-12
    )


# --- composite residuals and intercepts --------------------------------------


@pytest.mark.parametrize("design", ["dgp2m", "dgp3m"])
def test_composite_stats_equal_per_firm_loop(design):
    # S and W against the loop's correctly rounded two-pass sums, on y and
    # on y + 100, every select_K record; W formed as Q - S^2 / T from raw
    # square sums was 1.7e-11 relative off at y + 100
    panel, _ = generate(design, 100, 50, seed=3)
    T = panel.T
    for level in (0.0, 100.0):
        shifted = PanelData(y=panel.y + level, x=panel.x)
        report = select_K(fit_all(shifted, default_m(T)), 4, 1.0)
        for record in report.records:
            stats = composite_residual_stats(shifted, record.fits)
            S, W, sv2 = composite_stats_loop(shifted, record.fits)
            err_S = np.max(np.abs(stats.S - S) / (np.abs(S) + T))
            err_W = np.max(np.abs(stats.W - W) / W)
            assert err_S <= 1e-13 and err_W <= 1e-13, (level, record.K, err_S, err_W)
            np.testing.assert_array_equal(stats.sigma_v2, sv2)


@pytest.mark.parametrize("groups", [
    [[0, 1], [3, 4, 5]],  # firm 2 missing
    [[0, 1, 2], [2, 3, 4, 5]],  # firm 2 in both groups
])
def test_composite_stats_reject_fits_that_do_not_partition(groups):
    panel, _ = generate("dgp2u", 6, 30, seed=3)
    factors = within_factors(panel, 2)
    fits = [fit_group(factors, members, m_under=2) for members in groups]
    with pytest.raises(InputError, match="do not partition the 6 firms"):
        composite_residual_stats(panel, fits)


def test_composite_stats_reject_fits_whose_sums_do_not_match_their_members():
    # once numpy's bare ValueError from the scatter into the panel arrays
    panel, _ = generate("dgp2u", 6, 30, seed=3)
    fit = fit_group(within_factors(panel, 2), range(6), m_under=2)
    for name, counts in (("S", "5 S and 6 W"), ("W", "6 S and 5 W")):
        short = dataclasses.replace(fit, **{name: getattr(fit, name)[:-1]})
        with pytest.raises(InputError, match=f"6 members has {counts} values"):
            composite_residual_stats(panel, [short])


def _noiseless_panel(N, T, level):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(N, T, 1))
    y = np.full((N, T), level) + 0.0 * x[:, :, 0]
    return PanelData(y=y, x=x)


def test_firm_intercepts_noiseless_level():
    panel = _noiseless_panel(4, 30, 2.0)
    fits = [fit_group(within_factors(panel, 2), np.arange(4), m_under=2)]
    vals = firm_intercepts(composite_residual_stats(panel, fits))
    np.testing.assert_allclose(vals, 2.0, atol=1e-8)


def test_firm_intercepts_shift_locality():
    rng = np.random.default_rng(15)
    panel, _ = _make_small_dgp_panel(rng)
    fits = [fit_group(within_factors(panel, 2), np.arange(panel.N), m_under=2)]
    base = firm_intercepts(composite_residual_stats(panel, fits))

    y2 = panel.y.copy()
    y2[2] += 1.7
    shifted = PanelData(y=y2, x=panel.x)
    fits2 = [fit_group(within_factors(shifted, 2), np.arange(panel.N), m_under=2)]
    moved = firm_intercepts(composite_residual_stats(shifted, fits2))
    # the pooled frontier shifts a little, but firm 2 moves by ~1.7 net
    assert moved[2] - base[2] == pytest.approx(1.7, abs=0.05)


def _make_small_dgp_panel(rng):
    return generate("dgp2u", 10, 60, seed=int(rng.integers(1 << 30)))


def test_firm_intercept_clt_bound():
    panel, truth = generate("dgp2u", 60, 100, seed=21)
    rep = select_K(fit_all(panel, default_m(panel.T)), 2, 1.0)
    vals = firm_intercepts(composite_residual_stats(panel, rep.records[1].fits))
    target = truth.law.alpha0 - truth.u
    sigma_firm = truth.sigma_v[truth.membership - 1]
    bound = 5 * sigma_firm / math.sqrt(panel.T)
    frac_ok = np.mean(np.abs(vals - target) < bound)
    assert frac_ok >= 0.9


def test_half_normal_moment_identities():
    rng = np.random.default_rng(16)
    draws = sample_half_normal(1.0, rng, size=1_000_000)
    assert draws.mean() == pytest.approx(HN_MEAN, abs=0.003)
    draws2 = sample_half_normal(2.0, rng, size=1_000_000)
    assert draws2.var() == pytest.approx(4 * (1 - 2 / math.pi), abs=0.01)


@pytest.mark.slow
def test_se_calibrated_against_monte_carlo_dispersion():
    # the numerical-Hessian standard error of alpha0 should track the
    # across-replication dispersion of the estimator
    N, T = 150, 50
    estimates = []
    se_alpha = None
    for rep in range(24):
        rng = np.random.default_rng(3000 + rep)
        levels = 0.5 - sample_half_normal(1.0, rng, size=N)
        stats = _stats_from_levels(levels, 1.0, T, rng)
        fit = fit_unique(stats)
        estimates.append(fit.alpha0)
        if rep == 0:
            se_alpha = unique_standard_errors(stats, fit)[0]
    mc_sd = float(np.std(estimates, ddof=1))
    assert se_alpha == pytest.approx(mc_sd, rel=0.25)


def test_mixture_boundary_collapse_warns():
    rng = np.random.default_rng(17)
    N, T = 60, 30
    levels = 0.5 - sample_half_normal(1.0, rng, size=N)
    stats = _stats_from_levels(levels, 1.0, T, rng)
    from groupsfa.inefficiency import MixtureFit
    import warnings as _warnings

    # force a degenerate optimum by feeding a start already at a boundary:
    # single-law data often drives tau toward 1; assert the warning fires
    # when it does, and is absent otherwise
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        fit = fit_mixture(stats, fit_unique(stats), seed=11)
    degenerate = not (1e-4 <= fit.tau <= 1 - 1e-4)
    warned = any(issubclass(w.category, DegenerateMixtureWarning)
                 for w in caught)
    assert warned == degenerate


# --- convergence failures ----------------------------------------------------


def _failed_bfgs(fun, x0, **kwargs):
    # an infinite value and gradient: never the better point, never flat
    n = len(x0)
    return OptimizeResult(x=np.asarray(x0, dtype=float), fun=np.inf,
                          jac=np.full(n, np.inf), success=False,
                          message="forced BFGS failure")


def _simplex_failing(starts_to_fail):
    """The real lockstep simplex, with the given starts marked unconverged
    by an iteration count at the cap."""
    real = inefficiency._simplex

    def simplex(f, starts):
        x, fun, nit, nfev = real(f, starts)
        nit[list(starts_to_fail(len(x)))] = inefficiency._MAX_NM
        return x, fun, nit, nfev

    return simplex


def _simplex_stopped(fun, nit):
    """A simplex pass that stops every start where it began, after ``nit``
    iterations, with the given per-start values."""

    def simplex(f, starts):
        R = len(starts)
        return (np.array(starts, dtype=float), np.array(fun, dtype=float),
                np.full(R, nit), np.ones(R, dtype=int))

    return simplex


def _bfgs_failing(calls_to_fail):
    """scipy's minimize, failing on the given (0-based) call numbers."""
    real, calls = inefficiency.minimize, []

    def bfgs(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 in calls_to_fail:
            return _failed_bfgs(*args, **kwargs)
        return real(*args, **kwargs)

    return bfgs


def _unique_data_stats(seed=17, N=60, T=30):
    rng = np.random.default_rng(seed)
    levels = 0.5 - sample_half_normal(1.0, rng, size=N)
    return _stats_from_levels(levels, 1.0, T, rng)


BOWL = (lambda X: -np.sum(X ** 2, axis=1), lambda x: (-float(x @ x), -2.0 * x))


def test_maximize_raises_convergence_error_where_both_passes_fail(monkeypatch):
    # the error carries the best failed start, here the second
    stalled = _simplex_stopped([2.5, 1.5, np.nan], inefficiency._MAX_NM)
    monkeypatch.setattr(inefficiency, "_simplex", stalled)
    monkeypatch.setattr(inefficiency, "minimize", _failed_bfgs)
    starts = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    with pytest.raises(ConvergenceError) as info:
        inefficiency._maximize(*BOWL, starts)
    assert str(info.value) == ("likelihood maximization did not converge: "
                               "0 of 3 starts converged")
    np.testing.assert_array_equal(info.value.best_params, [3.0, 4.0])
    assert info.value.best_value == -1.5


def test_maximize_counts_a_non_finite_value_as_unconverged(monkeypatch):
    # the simplex stops both starts below the cap and BFGS fails on both,
    # so every start converged but only a finite value counts
    starts = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    monkeypatch.setattr(inefficiency, "minimize", _failed_bfgs)
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_stopped([np.nan, 1.5], 1))
    x, loglik = inefficiency._maximize(*BOWL, starts)
    np.testing.assert_array_equal(x, starts)
    np.testing.assert_array_equal(loglik, [-np.inf, -1.5])
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_stopped([np.nan, np.inf], 1))
    with pytest.raises(ConvergenceError, match="0 of 2 starts converged"):
        inefficiency._maximize(*BOWL, starts)


def _recording_minimize(options):
    """scipy's minimize, appending each call's options to ``options``."""
    real = inefficiency.minimize

    def recorded(*args, **kwargs):
        options.append(kwargs["options"])
        return real(*args, **kwargs)

    return recorded


def test_maximize_starts_bfgs_from_the_inverse_of_a_negative_definite_hessian(monkeypatch):
    # a Hessian that is None, indefinite, singular or not finite leaves
    # BFGS at scipy's default start; every start still reaches the optimum
    hessians = {
        1.0: -2.0 * np.eye(2), 2.0: None, 3.0: np.diag([-2.0, 1.0]),
        4.0: np.zeros((2, 2)), 5.0: np.full((2, 2), np.nan),
    }
    starts = [np.array([key, 1.0]) for key in hessians]
    options = []
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_stopped([2.0] * 5, 1))
    monkeypatch.setattr(inefficiency, "minimize", _recording_minimize(options))
    x, loglik = inefficiency._maximize(*BOWL, starts, lambda x: hessians[x[0]])
    np.testing.assert_array_equal(options[0]["hess_inv0"], 0.5 * np.eye(2))
    assert ["hess_inv0" in o for o in options] == [True] + [False] * 4
    np.testing.assert_allclose(x, 0.0, atol=1e-6)
    assert np.all(loglik > -1e-12)


def test_fit_mixture_starts_bfgs_by_default_from_clipped_or_boundary_points(monkeypatch):
    # the simplex is made to stop at the optimum, at points with a clipped
    # or boundary coordinate, and at coinciding components; only the
    # optimum's BFGS pass starts from the exact inverse Hessian
    stats = _two_level_stats()
    unique = fit_unique(stats)
    fit = fit_mixture(stats, unique, seed=0)
    optimum = [inefficiency._logit(fit.tau), fit.alpha0_1, math.log(fit.sigma_u2_1),
               fit.alpha0_2, math.log(fit.sigma_u2_2)]
    points = [optimum, [35.0, *optimum[1:]], [*optimum[:2], -70.0, *optimum[3:]],
              [9.5, *optimum[1:]], [*optimum[:3], *optimum[1:3]]]
    hessian = inefficiency._mixture_hessian(stats, np.array(optimum))
    assert inefficiency._inverse_hessian(hessian) is not None

    def stopped(f, starts):
        return np.array(points), -f(np.array(points)), np.ones(5, dtype=int), np.ones(5, dtype=int)

    options = []
    monkeypatch.setattr(inefficiency, "_simplex", stopped)
    monkeypatch.setattr(inefficiency, "minimize", _recording_minimize(options))
    again = fit_mixture(stats, unique, seed=0)
    assert ["hess_inv0" in o for o in options] == [True] + [False] * 4
    assert again.loglik >= fit.loglik - 1e-9 * abs(fit.loglik)


def test_fit_unique_raises_convergence_error(monkeypatch):
    stats = _unique_data_stats()
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_failing(range))
    monkeypatch.setattr(inefficiency, "minimize", _failed_bfgs)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        fit_unique(stats)
    assert np.all(np.isfinite(info.value.best_params))


def test_fit_mixture_skips_a_failed_start(monkeypatch):
    # the start that reaches the best optimum fails, so the fit falls back
    # on the best of the other four
    stats = _unique_data_stats()
    unique = fit_unique(stats)
    starts = _mixture_starts(unique, inefficiency._intercept_spread(stats)[1], 4)
    _, lls = inefficiency._maximize(*_mixture_objectives(stats), starts)
    best = int(np.argmax(lls))
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_failing(lambda n: [best]))
    monkeypatch.setattr(inefficiency, "minimize", _bfgs_failing({best}))
    fit = fit_mixture(stats, unique, seed=4)
    assert fit.loglik == np.delete(lls, best).max() < lls[best]


def test_fit_mixture_raises_when_every_start_fails(monkeypatch):
    stats = _unique_data_stats()
    unique = fit_unique(stats)
    starts = _mixture_starts(unique, inefficiency._intercept_spread(stats)[1], 4)
    x, fun, _, _ = inefficiency._simplex(
        lambda X: -_mixture_objectives(stats)[0](X), starts)
    monkeypatch.setattr(inefficiency, "_simplex", _simplex_failing(range))
    monkeypatch.setattr(inefficiency, "minimize", _failed_bfgs)
    with pytest.raises(ConvergenceError, match="0 of 5 starts converged") as info:
        fit_mixture(stats, unique, seed=4)
    # the error carries the failed start with the highest value
    best = int(np.argmin(fun))
    np.testing.assert_array_equal(info.value.best_params, x[best])
    assert info.value.best_value == -fun[best]
