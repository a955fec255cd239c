import tracemalloc

import numpy as np
import pytest

from groupsfa import postestimation
from groupsfa.basis import coefficient_curves, design_matrix
from groupsfa.dgp import generate
from groupsfa.errors import DegenerateICError, InputError, RankDeficientError
from groupsfa import estimation
from groupsfa.estimation import (
    _RANK_DEFICIENT,
    RCOND_MIN,
    GroupFit,
    default_m,
    default_m_under,
    fit_all,
    fit_group,
    within_factors,
)
from groupsfa.grouping import GroupAssignment, best_label_permutation, hac_cluster
from groupsfa.panel import PanelData
from groupsfa.postestimation import default_lambda, ic_value, select_K

from oracles import fit_group_loop, normal_equations_solve


def test_default_m_under_values():
    assert default_m_under(250, 100) == 8
    assert default_m_under(1, 32) == 2
    prev = 0
    for nk_t in (10, 100, 1000, 10_000, 100_000):
        cur = default_m_under(nk_t, 1)
        assert cur >= prev
        prev = cur


def test_default_lambda_values():
    assert default_lambda(100, 100) == pytest.approx(50 * np.log(10_000))
    assert default_lambda(100, 100) == pytest.approx(460.517, abs=0.001)
    assert default_lambda(7, 9, c_lambda=0.0) == 0.0
    assert default_lambda(30, 50, 2.0) == pytest.approx(
        2 * default_lambda(30, 50), rel=1e-12
    )


def test_fit_group_single_member_noiseless():
    rng = np.random.default_rng(0)
    T, m_under = 40, 3
    x = rng.normal(size=(1, T, 1))
    Z = design_matrix(x[0], m_under)
    pi = rng.normal(size=Z.shape[1])
    y = (Z @ pi + 5.0)[None, :]  # level drops out under demeaning
    fit = fit_group(within_factors(PanelData(y=y, x=x), m_under), [0], m_under)
    np.testing.assert_allclose(fit.pi, pi, atol=1e-8)
    assert fit.sigma_v == pytest.approx(0.0, abs=1e-8)


def test_fit_group_duplicated_firm_unchanged():
    rng = np.random.default_rng(1)
    T = 50
    x1 = rng.normal(size=(T, 1))
    y1 = rng.normal(size=T)
    panel = PanelData(y=np.vstack([y1, y1]), x=np.stack([x1, x1]))
    single = fit_group(within_factors(PanelData(y=y1[None], x=x1[None]), 3), [0], 3)
    double = fit_group(within_factors(panel, 3), [0, 1], 3)
    np.testing.assert_allclose(double.pi, single.pi, atol=1e-10)
    assert double.sigma_v == pytest.approx(single.sigma_v, rel=1e-10)


def test_fit_group_matches_extended_precision_oracle():
    rng = np.random.default_rng(2)
    Nk, T, m_under = 3, 60, 3
    x = rng.normal(size=(Nk, T, 1))
    y = rng.normal(size=(Nk, T))
    panel = PanelData(y=y, x=x)
    fit = fit_group(within_factors(panel, m_under), range(Nk), m_under)
    rows, ys = [], []
    for i in range(Nk):
        Zi = design_matrix(x[i], m_under)
        rows.append(Zi - Zi.mean(axis=0))
        ys.append(y[i] - y[i].mean())
    ref = normal_equations_solve(np.vstack(rows), np.concatenate(ys))
    np.testing.assert_allclose(fit.pi, ref, atol=1e-8)


def test_fit_group_empty_rejected():
    panel, _ = generate("dgp1u", 4, 30, seed=3)
    with pytest.raises(InputError):
        fit_group(within_factors(panel, 2), [], 2)


@pytest.mark.parametrize("members", [[0, 0, 1], [-1, 0], [0, 30], [0.5, 1.7]])
def test_fit_group_rejects_members_that_are_not_distinct_firms(members):
    # a repeated firm was fitted twice, -1 fitted firm N - 1, 30 raised a
    # bare IndexError, and 0.5 and 1.7 fitted firms 0 and 1
    panel, _ = generate("dgp1u", 30, 30, seed=3)
    with pytest.raises(InputError, match=r"distinct firm indices in 0\.\.29"):
        fit_group(within_factors(panel, 2), members, 2)


def test_fit_group_rejects_a_sieve_longer_than_its_factors():
    panel, _ = generate("dgp1u", 30, 30, seed=3)
    with pytest.raises(InputError, match=r"m_under must be in 2\.\.3, got 4"):
        fit_group(within_factors(panel, 3), range(30), 4)


def test_within_factors_in_chunks_equal_one_chunk(monkeypatch):
    panel, _ = generate("dgp3m", 30, 40, seed=11)
    whole = within_factors(panel, 4)
    monkeypatch.setattr(estimation, "_CHUNK", 7)
    chunked = within_factors(panel, 4)
    for name in ("R", "zbar", "ybar"):
        np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
    assert (chunked.m, chunked.p, chunked.N, chunked.T) == (4, panel.p, 30, 40)


@pytest.mark.parametrize("T", [8, 40])
def test_within_factors_reproduce_each_firms_demeaned_gram(T):
    # with m = 4 and p = 2 a factor has 12 columns, more than T = 8 rows
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, T, 2))
    y = rng.normal(size=(3, T))
    factors = within_factors(PanelData(y=y, x=x), 4)
    assert factors.R.shape == (3, min(T, 12), 12)
    for i in range(3):
        A = np.column_stack([design_matrix(x[i], 4), y[i]])
        mean = A.mean(axis=0)
        np.testing.assert_allclose(factors.zbar[i], mean[:-1], rtol=1e-13, atol=1e-15)
        assert factors.ybar[i] == pytest.approx(mean[-1], rel=1e-13, abs=1e-15)
        A -= mean
        gram = factors.R[i].T @ factors.R[i]
        assert np.max(np.abs(gram - A.T @ A)) <= 1e-13 * np.max(np.abs(A.T @ A))


def _assert_fits_close(got, want, T, rel):
    """pi relative to its largest entry, S relative to |S| + T, the rest
    relative to themselves."""
    np.testing.assert_array_equal(got.members, want.members)
    assert got.m_under == want.m_under
    assert np.max(np.abs(got.pi - want.pi)) <= rel * np.max(np.abs(want.pi))
    assert abs(got.sigma_v - want.sigma_v) <= rel * want.sigma_v
    assert np.max(np.abs(got.S - want.S) / (np.abs(want.S) + T)) <= rel
    assert np.max(np.abs(got.W - want.W) / want.W) <= rel


def test_fit_group_in_chunks_matches_one_chunk(monkeypatch):
    # 30 firms fold in chunks of 7, 7, 7, 7 and 2
    panel, _ = generate("dgp3m", 30, 40, seed=11)
    factors = within_factors(panel, 4)
    whole = fit_group(factors, range(30), 4)
    monkeypatch.setattr(estimation, "_CHUNK", 7)
    _assert_fits_close(fit_group(factors, range(30), 4), whole, panel.T, 1e-13)


@pytest.mark.parametrize("members", [range(0, 600, 3), range(100, 400), range(600)],
                         ids=["every-third", "100-399", "all"])
def test_fit_group_folded_over_chunks_equals_per_firm_loop(members):
    # 200, 300 and 600 members: one, two and three chunks of 256
    panel, _ = generate("dgp3m", 600, 30, seed=5)
    factors = within_factors(panel, default_m_under(panel.N, panel.T))
    m_under = default_m_under(len(members), panel.T)
    fit = fit_group(factors, members, m_under)
    _assert_fits_close(fit, fit_group_loop(panel, members, m_under), panel.T, 1e-13)


def test_all_firm_fit_holds_no_copy_of_the_factor_stack():
    # stacking every member's factor at once traced 2.0x the stack
    panel, _ = generate("dgp1m", 2000, 50, seed=0)
    factors = within_factors(panel, default_m_under(panel.N, panel.T))
    tracemalloc.start()
    try:
        fit_group(factors, range(panel.N), factors.m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < factors.R.nbytes / 2


def test_group_with_fewer_stacked_rows_than_columns_is_rank_deficient():
    # one firm's T = 8 rows against k + 1 = 12 columns
    rng = np.random.default_rng(12)
    panel = PanelData(y=rng.normal(size=(1, 8)), x=rng.normal(size=(1, 8, 2)))
    factors = within_factors(panel, 4)
    assert factors.R.shape == (1, 8, 12)
    with pytest.raises(RankDeficientError) as info:
        fit_group(factors, [0], 4)
    assert info.value.rcond == 0.0
    assert str(info.value) == _RANK_DEFICIENT.format(0.0)


def test_rank_deficient_pooled_design_raises_with_lstsq_rcond():
    # the second regressor is the first plus 1e-10 noise
    rng = np.random.default_rng(13)
    N, T = 5, 30
    x1 = rng.normal(size=(N, T, 1))
    x = np.concatenate([x1, x1 + 1e-10 * rng.normal(size=(N, T, 1))], axis=-1)
    panel = PanelData(y=rng.normal(size=(N, T)), x=x)
    with pytest.raises(RankDeficientError) as info:
        fit_group(within_factors(panel, 3), range(N), 3)
    rows = [design_matrix(x[i], 3) for i in range(N)]
    sv = np.linalg.svd(np.vstack([Z - Z.mean(axis=0) for Z in rows]), compute_uv=False)
    assert info.value.rcond < RCOND_MIN
    assert info.value.rcond == pytest.approx(sv[-1] / sv[0], rel=1e-4)
    assert str(info.value) == _RANK_DEFICIENT.format(info.value.rcond)


def test_rank_deficient_when_a_regressor_is_constant_over_time():
    # its demeaned x * B_0 column is 0, so R11's rank is below its columns
    # and the rcond reads 0 rather than rounding noise
    rng = np.random.default_rng(14)
    x = np.repeat(rng.normal(size=(4, 1, 1)), 30, axis=1)
    panel = PanelData(y=rng.normal(size=(4, 30)), x=x)
    with pytest.raises(RankDeficientError, match="numerically rank deficient") as info:
        fit_group(within_factors(panel, 3), range(4), 3)
    assert info.value.rcond == 0.0


def test_select_K_rejects_a_non_integer_K_max():
    panel, _ = generate("dgp1u", 30, 30, seed=3)
    with pytest.raises(InputError, match="K_max must be an integer, got 2.5"):
        select_K(fit_all(panel, 2), 2.5, 1.0)


@pytest.mark.parametrize("design", ["dgp2m", "dgp3m"])
def test_fit_group_equals_per_firm_loop(design):
    panel, _ = generate(design, 100, 50, seed=3)
    report = select_K(fit_all(panel, default_m(panel.T)), 4, 1.0)
    fits = {id(f): f for r in report.records for f in r.fits}.values()
    assert len(fits) == 7
    for fit in fits:
        want = fit_group_loop(panel, fit.members, fit.m_under)
        np.testing.assert_array_equal(fit.members, want.members)
        # a QR solve against lstsq's SVD: pi relative to its largest entry
        assert np.max(np.abs(fit.pi - want.pi)) <= 1e-12 * np.max(np.abs(want.pi))
        assert abs(fit.sigma_v - want.sigma_v) <= 1e-12 * want.sigma_v
        assert fit.m_under == want.m_under
        # the residual sums against the loop's math.fsum sums
        T = panel.T
        assert np.max(np.abs(fit.S - want.S) / (np.abs(want.S) + T)) <= 1e-13
        assert np.max(np.abs(fit.W - want.W) / want.W) <= 1e-13


def _fit(n, sigma_v):
    """A GroupFit of firms 0..n-1 with the given noise level."""
    return GroupFit(members=np.arange(n), pi=np.zeros(3), sigma_v=sigma_v, m_under=2,
                    S=np.zeros(n), W=np.ones(n))


def test_ic_value_log_one_gives_dof_term():
    fits = [_fit(10, 1.0)]
    assert ic_value(fits, lam=0.0, T=50) == pytest.approx(10 * 49)
    assert ic_value(fits, lam=100.0, T=50) == pytest.approx(590.0)


def test_ic_value_doubling_sigma():
    fits = [_fit(5, 1.0)]
    base = ic_value(fits, 0.0, T=50)
    fits2 = [_fit(5, 2.0)]
    assert ic_value(fits2, 0.0, T=50) - base == pytest.approx(5 * 50 * np.log(2))


def test_ic_value_degenerate_sigma():
    fits = [_fit(5, 0.0)]
    with pytest.raises(DegenerateICError):
        ic_value(fits, 0.0, T=50)


def test_ic_residual_identity():
    # the residual quadratic term equals Nk (T-1) by construction
    panel, _ = generate("dgp3u", 12, 50, seed=4)
    fit = fit_group(within_factors(panel, 4), range(12), 4)
    rss = 0.0
    for i in range(12):
        Zi = design_matrix(panel.x[i], 4)
        r = panel.y[i] - Zi @ fit.pi
        r -= r.mean()
        rss += float(r @ r)
    assert rss / fit.sigma_v ** 2 == pytest.approx(12 * 49, rel=1e-8)
    # the fit's within-firm square sums are the same residuals'
    assert fit.W.sum() == pytest.approx(rss, rel=1e-12)


def test_select_k_monotone_in_lambda():
    # the penalty is c_lambda times sqrt(NT) log(NT) / 2 = 141.6 here
    panel, _ = generate("dgp1u", 30, 50, seed=5)
    fits = fit_all(panel, default_m(panel.T))
    selected = [
        select_K(fits, 4, c_lambda).selected_K
        for c_lambda in (0.0, 0.1, 10.0, 1e4)
    ]
    assert all(a >= b for a, b in zip(selected, selected[1:]))
    assert selected[-1] == 1


def test_select_k_ties_toward_smaller():
    # lambda=0 with a loss-free tie cannot happen on continuous data, so
    # check the tie rule directly on the record list ordering
    panel, _ = generate("dgp1u", 8, 40, seed=6)
    report = select_K(fit_all(panel, 2), 3, c_lambda=0.0)
    best = min(report.records, key=lambda r: (r.ic, r.K))
    assert report.selected_K == best.K


def test_select_k_fits_each_member_set_once(monkeypatch):
    panel, _ = generate("dgp3u", 40, 40, seed=10)
    firm_fits = fit_all(panel, default_m(panel.T))
    th = firm_fits.features
    K_max, lam = 4, default_lambda(panel.N, panel.T)

    # the records without reuse: every group of every cut fit afresh
    factors = within_factors(panel, default_m_under(panel.N, panel.T))
    expected = []
    for K in range(1, K_max + 1):
        assignment = hac_cluster(th).cut(K)
        fits = [
            fit_group(factors, assignment.members(k),
                      default_m_under(len(assignment.members(k)), panel.T))
            for k in range(1, K + 1)
        ]
        expected.append((assignment, fits, ic_value(fits, lam, panel.T)))

    calls = []

    def counting_fit_group(factors_, members, m_under):
        calls.append(tuple(int(i) for i in members))
        return fit_group(factors_, members, m_under)

    monkeypatch.setattr(postestimation, "fit_group", counting_fit_group)
    report = select_K(firm_fits, K_max, 1.0)

    assert report.lam == lam
    distinct = {tuple(int(i) for i in f.members) for _, fits, _ in expected for f in fits}
    assert sorted(calls) == sorted(distinct)
    assert len(calls) == 2 * K_max - 1
    assert [r.K for r in report.records] == list(range(1, K_max + 1))
    for record, (assignment, fits, ic) in zip(report.records, expected):
        np.testing.assert_array_equal(
            record.assignment.membership, assignment.membership
        )
        assert record.ic == ic
        assert len(record.fits) == len(fits)
        for got, want in zip(record.fits, fits):
            np.testing.assert_array_equal(got.members, want.members)
            np.testing.assert_array_equal(got.pi, want.pi)
            assert got.sigma_v == want.sigma_v
            assert got.m_under == want.m_under


def test_frontier_eval_zero_and_constant_blocks():
    np.testing.assert_allclose(
        coefficient_curves(np.zeros(2 + 3 * 2), [0.3], 3)[0], np.zeros(3)
    )
    pi = np.zeros(2 + 3 * 2)
    pi[2] = 1.0  # B0 slot of the first regressor block
    for out in coefficient_curves(pi, [0.0, 0.25, 0.8], 3):
        assert out[1] == pytest.approx(1.0)
        assert out[0] == 0.0 and out[2] == 0.0


def test_frontier_eval_recovers_noiseless_alpha():
    rng = np.random.default_rng(7)
    N, T, m_under = 3, 60, 3
    x = rng.normal(size=(N, T, 1))
    tau = np.arange(1, T + 1) / T
    alpha = np.sqrt(2) * np.cos(np.pi * tau)  # exactly B1
    y = alpha[None, :] + 0.0 * x[:, :, 0]
    fit = fit_group(within_factors(PanelData(y=y, x=x), m_under), range(N), m_under)
    assert coefficient_curves(fit.pi, [0.25], m_under)[0, 0] == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(InputError):
        coefficient_curves(fit.pi, [1.2], m_under)


def test_noiseless_group_recovery_exact():
    rng = np.random.default_rng(8)
    N, T, m_under = 4, 80, 4
    x = rng.normal(size=(N, T, 2))
    pi = rng.normal(size=(m_under - 1) + m_under * 2)
    y = np.empty((N, T))
    for i in range(N):
        Zi = design_matrix(x[i], m_under)
        y[i] = Zi @ pi + rng.normal()  # firm level, removed by demeaning
    fit = fit_group(within_factors(PanelData(y=y, x=x), m_under), range(N), m_under)
    np.testing.assert_allclose(fit.pi, pi, atol=1e-8)


def _frontier_rmse(panel, truth, assignment, fits):
    perm, _ = best_label_permutation(
        assignment, GroupAssignment(K=truth.K, membership=truth.membership)
    )
    grid = np.linspace(0.05, 0.95, 19)
    errs = []
    for k, fit in enumerate(fits, start=1):
        j = perm[k - 1]
        est = coefficient_curves(fit.pi, grid, fit.m_under)
        for s, row in zip(grid, est):
            true_vals = [truth.alpha_funcs[j](s)] + [
                f(s) for f in truth.beta_funcs[j]
            ]
            errs.append(row - np.asarray(true_vals))
    return float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))


@pytest.mark.slow
def test_frontier_rmse_shrinks_with_t():
    rmses = []
    for T in (50, 100):
        panel, truth = generate("dgp3m", 500, T, seed=9)
        report = select_K(fit_all(panel, default_m(T)), 4, 1.0)
        rec = report.records[truth.K - 1]
        rmses.append(_frontier_rmse(panel, truth, rec.assignment, rec.fits))
    assert rmses[1] < rmses[0]
