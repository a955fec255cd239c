import math

import numpy as np
import pytest

from groupsfa._kernels import (
    loglik_unique_terms,
    loglik_unique_terms_grad,
    loglik_unique_total,
)
from groupsfa.dgp import sample_half_normal
from groupsfa.errors import HessianError, InputError
from groupsfa.grouping import GroupAssignment
from groupsfa.inefficiency import (
    CompositeStats,
    _mixture_objectives,
    _unique_objectives,
    DegenerateMixtureWarning,
    composite_residual_stats,
    default_lambda_tilde,
    firm_intercepts,
    fit_mixture,
    fit_unique,
    loglik_mixture_firm,
    loglik_unique_firm,
    mle_standard_errors,
    step5_select,
    unique_standard_errors,
)
from groupsfa.panel import PanelData
from groupsfa.postestimation import fit_group

from oracles import (
    halfnormal_marginal_density,
    mixture_loglik_mpmath,
    unique_loglik_mpmath,
)

HN_MEAN = math.sqrt(2.0 / math.pi)


# --- likelihood values -------------------------------------------------------


def test_single_period_degenerate_u_limit():
    # with u pinned near zero and a zero residual the density collapses to
    # a standard normal at the origin
    val = loglik_unique_firm(0.0, 0.0, T=1, sigma_v2=1.0, sigma_u2=1e-18)
    assert val == pytest.approx(-0.9189385332046727, abs=1e-6)


def test_quadrature_oracle_specific_case():
    eps = np.array([-1.0, -1.0, -1.0])
    ll = loglik_unique_firm(eps.sum(), float(eps @ eps), T=3,
                            sigma_v2=1.0, sigma_u2=1.0)
    ref = halfnormal_marginal_density(eps, 1.0, 1.0)
    assert math.exp(ll) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("trial", range(20))
def test_quadrature_oracle_random_instances(trial):
    rng = np.random.default_rng(1000 + trial)
    T = int(rng.integers(1, 7))
    sigma_v = float(rng.uniform(0.4, 2.0))
    sigma_u = float(rng.uniform(0.3, 2.0))
    eps = rng.normal(0, sigma_v, size=T) - sample_half_normal(sigma_u, rng)
    ll = loglik_unique_firm(eps.sum(), float(eps @ eps), T,
                            sigma_v ** 2, sigma_u ** 2)
    ref = halfnormal_marginal_density(eps, sigma_v, sigma_u)
    assert math.exp(ll) == pytest.approx(ref, rel=1e-8)


def test_closed_form_matches_mpmath():
    rng = np.random.default_rng(7)
    for _ in range(10):
        T = int(rng.integers(2, 200))
        se = float(rng.normal(0, 10))
        qe = se ** 2 / T + float(rng.uniform(0.5, 50))
        sv2 = float(rng.uniform(0.2, 4))
        su2 = float(rng.uniform(0.1, 4))
        mine = loglik_unique_firm(se, qe, T, sv2, su2)
        ref = unique_loglik_mpmath(se, qe, T, sv2, su2)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_mixture_degenerate_tau_equals_unique():
    se, qe, T, sv2 = 4.2, 31.0, 5, 1.3
    a1, su1 = 0.8, 0.6
    mix = loglik_mixture_firm(se, qe, T, sv2, a1, su1, -3.0, 2.0, tau=1.0)
    uni = loglik_unique_firm(se - T * a1, qe - 2 * a1 * se + T * a1 ** 2,
                             T, sv2, su1)
    assert mix == uni


def test_mixture_identical_components_collapse():
    se, qe, T, sv2 = -2.0, 18.0, 4, 0.9
    mix = loglik_mixture_firm(se, qe, T, sv2, 0.5, 1.1, 0.5, 1.1, tau=0.5)
    uni = loglik_unique_firm(se - T * 0.5, qe - se + T * 0.25, T, sv2, 1.1)
    assert mix == pytest.approx(uni, rel=1e-14)


def test_mixture_matches_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(10):
        T = int(rng.integers(2, 60))
        se = float(rng.normal(0, 5))
        qe = se ** 2 / T + float(rng.uniform(1, 40))
        mine = loglik_mixture_firm(se, qe, T, 1.2, 0.9, 0.5, -1.0, 1.6, tau=0.3)
        ref = mixture_loglik_mpmath(se, qe, T, 1.2, 0.9, 0.5, -1.0, 1.6, 0.3)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_stable_for_huge_residual_sums():
    for se in (1e6, -1e6):
        val = loglik_unique_firm(se, se ** 2 / 10 + 5.0, T=10_000,
                                 sigma_v2=1.0, sigma_u2=1.0)
        assert np.isfinite(val)


def test_variance_validation():
    with pytest.raises(InputError):
        loglik_unique_firm(0.0, 1.0, 3, -1.0, 1.0)
    with pytest.raises(InputError):
        loglik_mixture_firm(0.0, 1.0, 3, 1.0, 0.0, 1.0, 0.0, 1.0, tau=1.5)


# --- gradient hygiene --------------------------------------------------------


def _total_loglik(theta, S, Q, sv2, T):
    return loglik_unique_total(S, Q, sv2, T, theta[0], theta[1])


def test_finite_difference_gradients_cross_check():
    rng = np.random.default_rng(9)
    n, T = 40, 25
    S = rng.normal(-10, 8, size=n)
    Q = S ** 2 / T + rng.uniform(5, 60, size=n)
    sv2 = rng.uniform(0.5, 2.0, size=n)
    theta = np.array([0.3, 0.8])

    def f(x):
        return _total_loglik(x, S, Q, sv2, T)

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
        Q = S ** 2 / T + rng.uniform(5, 60, size=len(se))
        su2 = math.exp(eta)
        z = -math.sqrt(su2) * se / (np.sqrt(sv2) * np.sqrt(sv2 + T * su2))
        assert z.min() < -37 and z.max() > 8
        terms, d_alpha0, d_eta = loglik_unique_terms_grad(S, Q, sv2, T, alpha0, su2)
        assert np.array_equal(terms, loglik_unique_terms(S, Q, sv2, T, alpha0, su2))

        def ell(a, e):
            return loglik_unique_terms(S, Q, sv2, T, a, math.exp(e))

        fd_alpha0 = (ell(alpha0 + h, eta) - ell(alpha0 - h, eta)) / (2 * h)
        fd_eta = (ell(alpha0, eta + h) - ell(alpha0, eta - h)) / (2 * h)
        for grad, fd in ((d_alpha0, fd_alpha0), (d_eta, fd_eta)):
            scale = 1.0 + np.abs(grad) + 1e-16 / h * np.abs(terms)
            assert np.all(np.abs(grad - fd) <= 1e-5 * scale)

    # the optimizers' clipped objectives: the value from value_and_grad is
    # the value-only objective's, and the gradient matches central
    # differences; a clipped coordinate (|eta| > 60, |xi| > 30) has 0
    stats = CompositeStats(S=S, Q=Q, sigma_v2=sv2, T=T)
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
            assert value == objective(x)
            for j in range(len(x)):
                e = np.zeros(len(x))
                e[j] = 1e-6 * max(1.0, abs(x[j]))
                fd = (objective(x + e) - objective(x - e)) / (2 * e[j])
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)
                assert (grad[j] == 0.0) == (j in clipped)


# --- standard errors ---------------------------------------------------------


def test_se_quadratic_objective_recovers_scales():
    scales = np.array([0.5, 2.0, 7.0])

    def obj(theta):
        return -0.5 * float(np.sum((theta / scales) ** 2))

    se = mle_standard_errors(obj, np.zeros(3))
    np.testing.assert_allclose(se, scales, rtol=1e-6)


def test_se_one_dimensional():
    se = mle_standard_errors(lambda t: -0.5 * (t[0] - 3.0) ** 2, np.array([3.0]))
    assert se[0] == pytest.approx(1.0, rel=1e-6)


def test_se_rejects_indefinite_hessian():
    with pytest.raises(HessianError) as err:
        mle_standard_errors(lambda t: 0.5 * (t[0] ** 2 - t[1] ** 2),
                            np.array([0.0, 0.0]))
    assert err.value.eigenvalues is not None


# --- fitting on synthetic residual statistics --------------------------------


def _stats_from_levels(levels, sigma_v, T, rng):
    """Per-firm residual stats for r_it = level_i + noise."""
    n = len(levels)
    S = np.empty(n)
    Q = np.empty(n)
    for i in range(n):
        r = levels[i] + rng.normal(0, sigma_v, size=T)
        S[i] = r.sum()
        Q[i] = r @ r
    return CompositeStats(S=S, Q=Q, sigma_v2=np.full(n, sigma_v ** 2), T=T)


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


def _noiseless_panel(N, T, level):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(N, T, 1))
    y = np.full((N, T), level) + 0.0 * x[:, :, 0]
    return PanelData(y=y, x=x)


def test_firm_intercepts_noiseless_level():
    panel = _noiseless_panel(4, 30, 2.0)
    assignment = GroupAssignment(K=1, membership=np.ones(4, dtype=int))
    fits = [fit_group(panel, np.arange(4), m_under=2)]
    vals = firm_intercepts(composite_residual_stats(panel, assignment, fits))
    np.testing.assert_allclose(vals, 2.0, atol=1e-8)


def test_firm_intercepts_shift_locality():
    rng = np.random.default_rng(15)
    panel, _ = _make_small_dgp_panel(rng)
    assignment = GroupAssignment(K=1, membership=np.ones(panel.N, dtype=int))
    fits = [fit_group(panel, np.arange(panel.N), m_under=2)]
    base = firm_intercepts(composite_residual_stats(panel, assignment, fits))

    y2 = panel.y.copy()
    y2[2] += 1.7
    shifted = PanelData(y=y2, x=panel.x)
    fits2 = [fit_group(shifted, np.arange(panel.N), m_under=2)]
    moved = firm_intercepts(composite_residual_stats(shifted, assignment, fits2))
    # the pooled frontier shifts a little, but firm 2 moves by ~1.7 net
    assert moved[2] - base[2] == pytest.approx(1.7, abs=0.05)


def _make_small_dgp_panel(rng):
    from groupsfa.dgp import generate

    return generate("dgp2u", 10, 60, seed=int(rng.integers(1 << 30)))


def test_firm_intercept_clt_bound():
    from groupsfa.dgp import generate
    from groupsfa.estimation import default_m, fit_all
    from groupsfa.postestimation import default_m_under, select_K, default_lambda

    panel, truth = generate("dgp2u", 60, 100, seed=21)
    fits_ind = fit_all(panel, default_m(panel.T))
    th = np.vstack([f.theta for f in fits_ind])
    rep = select_K(panel, th, 2, default_lambda(panel.N, panel.T))
    rec = rep.records[1]
    vals = firm_intercepts(composite_residual_stats(panel, rec.assignment, rec.fits))
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
