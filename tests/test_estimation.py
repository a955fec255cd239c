import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsfa.basis import design_matrix
from groupsfa.dgp import generate
from groupsfa.errors import InputError, RankDeficientError
from groupsfa import estimation
from groupsfa.estimation import default_m, default_m_under, fit_all, min_periods
from groupsfa.montecarlo import McConfig, run_replication
from groupsfa.panel import PanelData
from groupsfa.pipeline import estimate_panel

from oracles import fit_all_loop, normal_equations_solve


def _panel_from_arrays(y, x):
    return PanelData(y=np.asarray(y, float), x=np.asarray(x, float))


def _with_intercept(x, m):
    """One firm's Step-1 design: a column of ones, then its sieve design."""
    return np.column_stack([np.ones(len(x)), design_matrix(x, m)])


def test_default_m_paper_rule():
    assert default_m(50) == 2
    assert default_m(100) == 2
    assert default_m(32) == 2
    assert default_m(500) == 3
    assert default_m(3) == 2  # floored


def test_constant_outcome_gives_exact_intercept():
    rng = np.random.default_rng(0)
    T = 30
    y = np.full((1, T), 4.25)
    x = rng.normal(size=(1, T, 1))
    fits = fit_all(_panel_from_arrays(y, x), m=2)
    assert fits.coef[0, 0] == pytest.approx(4.25, abs=1e-10)
    np.testing.assert_allclose(fits.coef[0, 1:], 0.0, atol=1e-10)
    assert np.sqrt(fits.sigma_v2[0]) == pytest.approx(0.0, abs=1e-10)


def test_noiseless_coefficients_recovered():
    rng = np.random.default_rng(1)
    T, p, m = 40, 2, 3
    x = rng.normal(size=(1, T, p))
    Z = _with_intercept(x[0], m)
    pi_true = rng.normal(size=Z.shape[1])
    y = (Z @ pi_true)[None, :]
    fits = fit_all(_panel_from_arrays(y, x), m=m)
    assert fits.coef[0, 0] == pytest.approx(pi_true[0], abs=1e-8)
    np.testing.assert_allclose(fits.coef[0, 1:], pi_true[1:], atol=1e-8)
    assert np.sqrt(fits.sigma_v2[0]) == pytest.approx(0.0, abs=1e-8)


def test_matches_extended_precision_normal_equations():
    rng = np.random.default_rng(2)
    T, p, m = 40, 1, 3
    x = rng.normal(1.0, 1.0, size=(1, T, p))
    y = rng.normal(size=(1, T))
    panel = _panel_from_arrays(y, x)
    coef = fit_all(panel, m=m).coef[0]
    Z = _with_intercept(x[0], m)
    ref = normal_equations_solve(Z, y[0])
    assert coef[0] == pytest.approx(ref[0], abs=1e-8)
    np.testing.assert_allclose(coef[1:], ref[1:], atol=1e-8)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(3)
    T, m = 60, 3
    x = rng.normal(size=(1, T, 2))
    y = rng.normal(size=(1, T))
    panel = _panel_from_arrays(y, x)
    coef = fit_all(panel, m=m).coef[0]
    Z = _with_intercept(x[0], m)
    resid = y[0] - Z @ coef
    colnorm = np.linalg.norm(Z, axis=0)
    assert np.max(np.abs(Z.T @ resid) / (panel.T * colnorm)) < 1e-8


def test_sigma_v_is_rss_over_t_minus_one():
    rng = np.random.default_rng(4)
    T = 35
    x = rng.normal(size=(1, T, 1))
    y = rng.normal(size=(1, T))
    panel = _panel_from_arrays(y, x)
    fits = fit_all(panel, m=2)
    Z = _with_intercept(x[0], 2)
    rss = float(np.sum((y[0] - Z @ fits.coef[0]) ** 2))
    assert fits.sigma_v2[0] == pytest.approx(rss / (T - 1), rel=1e-12)


def test_shift_in_outcome_moves_only_intercept():
    rng = np.random.default_rng(5)
    T = 40
    x = rng.normal(size=(1, T, 1))
    y = rng.normal(size=(1, T))
    f0 = fit_all(_panel_from_arrays(y, x), m=2)
    f1 = fit_all(_panel_from_arrays(y + 2.5, x), m=2)
    assert f1.coef[0, 0] - f0.coef[0, 0] == pytest.approx(2.5, abs=1e-9)
    np.testing.assert_allclose(f1.coef[0, 1:], f0.coef[0, 1:], atol=1e-9)
    assert np.sqrt(f1.sigma_v2[0]) == pytest.approx(np.sqrt(f0.sigma_v2[0]), abs=1e-9)


def test_fit_all_order_equivariant():
    panel, _ = generate("dgp1u", 6, 40, seed=9)
    fits = fit_all(panel, 2)
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = PanelData(y=panel.y[perm], x=panel.x[perm])
    fits_perm = fit_all(shuffled, 2)
    np.testing.assert_allclose(fits_perm.features, fits.features[perm])


def test_fit_all_two_noiseless_firms():
    rng = np.random.default_rng(6)
    T, m = 30, 2
    x = rng.normal(size=(2, T, 1))
    y = np.empty((2, T))
    pis = []
    for i in range(2):
        Z = _with_intercept(x[i], m)
        pi = rng.normal(size=Z.shape[1])
        pis.append(pi)
        y[i] = Z @ pi
    fits = fit_all(_panel_from_arrays(y, x), m)
    np.testing.assert_allclose(fits.coef[:, 1:], np.array(pis)[:, 1:], atol=1e-8)
    np.testing.assert_allclose(np.sqrt(fits.sigma_v2), 0.0, atol=1e-8)


@pytest.mark.parametrize("design", ["dgp2m", "dgp3m"])
def test_fit_all_equals_per_firm_loop(design):
    # a QR solve against the loop's SVD: they agree to rounding, not bit for bit
    panel, _ = generate(design, 100, 50, seed=3)
    for m in (2, 3):
        got = fit_all(panel, m)
        coef, sigma_v2 = fit_all_loop(panel, m)
        assert got.coef.shape == coef.shape and got.sigma_v2.shape == (panel.N,)
        assert np.all(np.abs(got.coef - coef) <= 1e-12 * (1 + np.abs(coef)))
        assert np.all(np.abs(got.sigma_v2 - sigma_v2) <= 1e-12 * (1 + sigma_v2))


def test_fit_all_in_chunks_equals_one_chunk(monkeypatch):
    # the factors are per firm, so 15 chunks of at most 7 firms give one chunk's bytes
    panel, _ = generate("dgp3m", 100, 50, seed=3)
    whole = fit_all(panel, 3)
    monkeypatch.setattr(estimation, "_CHUNK", 7)
    chunked = fit_all(panel, 3)
    np.testing.assert_array_equal(chunked.coef, whole.coef)
    np.testing.assert_array_equal(chunked.sigma_v2, whole.sigma_v2)


def _lstsq_features(panel, m):
    """Per-firm np.linalg.lstsq with a column of ones: slopes, then RSS / (T - 1)."""
    rows = []
    for i in range(panel.N):
        Z = _with_intercept(panel.x[i], m)
        coef = np.linalg.lstsq(Z, panel.y[i], rcond=None)[0]
        resid = panel.y[i] - Z @ coef
        rows.append(np.append(coef[1:], resid @ resid / (panel.T - 1)))
    return np.array(rows)


def test_features_match_per_firm_lstsq():
    # the factor solve against np.linalg.lstsq one firm at a time; the two
    # differ by about 2e-14 relative
    for design in ("dgp1m", "dgp2u", "dgp3m"):
        panel, _ = generate(design, 60, 40, seed=4)
        for m in (2, 3):
            want = _lstsq_features(panel, m)
            assert np.all(np.abs(fit_all(panel, m).features - want) <= 1e-12 * (1 + np.abs(want)))


def _drawn_panel(N, T, p, seed):
    rng = np.random.default_rng(seed)
    return PanelData(y=rng.normal(size=(N, T)), x=rng.normal(size=(N, T, p)))


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 12), p=st.integers(0, 3), m=st.integers(2, 7),
       extra=st.one_of(st.just(0), st.integers(0, 40)), seed=st.integers(0, 2**32 - 1))
@example(N=3, p=2, m=5, extra=0, seed=0)  # m above default_m_under(3, 17) = 2, T at its minimum
def test_drawn_panels_match_per_firm_lstsq(N, p, m, extra, seed):
    T = min_periods(m, p) + extra
    panel = _drawn_panel(N, T, p, seed)
    fits = fit_all(panel, m)
    assert fits.factors.m == max(m, default_m_under(N, T))
    want = _lstsq_features(panel, m)
    assert np.all(np.abs(fits.features - want) <= 1e-12 * (1 + np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 30), p=st.integers(1, 3), m=st.integers(2, 5),
       extra=st.one_of(st.just(0), st.integers(0, 30)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_drawn_rank_deficient_firms_are_named(N, p, m, extra, seed, data):
    # a zero or constant regressor: its x*B0 column is zero once demeaned
    T = min_periods(m, p) + extra
    panel = _drawn_panel(N, T, p, seed)
    bad = sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=1), label="bad"))
    for i in bad:
        j = data.draw(st.integers(0, p - 1), label="regressor")
        panel.x[i, :, j] = data.draw(st.sampled_from([0.0, 1.0, -2.5, 0.1]), label="value")
    with pytest.raises(RankDeficientError) as info:
        fit_all(panel, m)
    message = str(info.value)
    named = re.findall(r"firm (\S+): design matrix", message)
    assert named == [panel.firm_ids[i] for i in bad[:10]]
    assert message.endswith(f" and {len(bad) - 10} more") == (len(bad) > 10)
    assert info.value.rcond < estimation.RCOND_MIN


def _count_design_builds(monkeypatch):
    """Count ``design_matrix`` calls made through any groupsfa module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return design_matrix(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("groupsfa.") and hasattr(module, "design_matrix"):
            monkeypatch.setattr(module, "design_matrix", counted)
    return calls


def test_each_panel_builds_its_sieve_design_once(monkeypatch):
    # 100 firms in chunks of 40: three design builds per panel, one per chunk
    monkeypatch.setattr(estimation, "_CHUNK", 40)
    calls = _count_design_builds(monkeypatch)
    panel, _ = generate("dgp2u", 100, 30, seed=1)
    estimate_panel(panel, k_max=2)
    assert calls == [40, 40, 20]
    calls.clear()
    config = McConfig(design="dgp2u", sizes=[[100, 30]], replications=1,
                      stages="classification")
    assert not run_replication(config, (100, 30), 0).failed
    assert calls == [40, 40, 20]


def test_fit_all_names_each_rank_deficient_firm():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 30, 1))
    x[[1, 3]] = 0.0  # x*B0 column identically zero for firms b and d
    y = rng.normal(size=(4, 30))
    panel = PanelData(y=y, x=x, firm_ids=["a", "b", "c", "d"])
    with pytest.raises(RankDeficientError) as info:
        fit_all(panel, 2)
    message = str(info.value)
    assert "firm b: " in message and "firm d: " in message
    assert "firm a" not in message and "firm c" not in message


def test_fit_all_names_ten_rank_deficient_firms_and_counts_the_rest():
    # a constant regressor makes x*B0 constant, which demeaning zeroes, for
    # every firm; each fit's rank is below its columns, so its rcond reads 0
    # in the panel and alone
    panel, _ = generate("dgp1m", 40, 30, seed=0)
    panel.x[:, :, 0] = 1.0
    with pytest.raises(RankDeficientError) as info:
        fit_all(panel, 2)
    message = str(info.value)
    assert all(f"firm {i}: " in message for i in range(1, 11))
    assert "firm 11" not in message and message.endswith(" and 30 more")
    each = []
    for i in range(panel.N):
        one = PanelData(y=panel.y[i:i + 1], x=panel.x[i:i + 1], firm_ids=[i + 1])
        with pytest.raises(RankDeficientError) as single:
            fit_all(one, 2)
        each.append(single.value.rcond)
    assert info.value.rcond == min(each)


def test_fit_all_names_rank_deficient_firms_across_chunks(monkeypatch):
    # firms 11-40 fail; in chunks of 7 they start in the second chunk, the
    # ten named span two chunks, all 30 span five, and the smallest rcond
    # may sit in any of them
    monkeypatch.setattr(estimation, "_CHUNK", 7)
    panel, _ = generate("dgp1m", 40, 30, seed=0)
    panel.x[10:, :, 0] = 1.0
    with pytest.raises(RankDeficientError) as info:
        fit_all(panel, 2)
    message = str(info.value)
    assert all(f"firm {i}: " in message for i in range(11, 21))
    assert "firm 10:" not in message and "firm 21" not in message
    assert message.endswith(" and 20 more")
    each = []
    for i in range(10, panel.N):
        one = PanelData(y=panel.y[i:i + 1], x=panel.x[i:i + 1], firm_ids=[i + 1])
        with pytest.raises(RankDeficientError) as single:
            fit_all(one, 2)
        each.append(single.value.rcond)
    assert info.value.rcond == min(each)


def test_dgp2u_group_sigma_recovered_with_adequate_sieve():
    # the noise-level group means need a sieve long enough to flatten the
    # frontier approximation error out of the residuals
    panel, truth = generate("dgp2u", 20, 200, seed=7)
    sig = np.sqrt(fit_all(panel, m=8).sigma_v2)
    low = sig[truth.membership == 1]
    assert low.mean() == pytest.approx(0.5, abs=0.05)


def test_rank_deficiency_reported():
    T = 30
    x = np.zeros((1, T, 1))  # x*B0 column identically zero
    y = np.random.default_rng(8).normal(size=(1, T))
    with pytest.raises(RankDeficientError):
        fit_all(_panel_from_arrays(y, x), m=2)


def test_too_small_t_rejected():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 5, 1))
    y = rng.normal(size=(1, 5))
    with pytest.raises(InputError):
        fit_all(_panel_from_arrays(y, x), m=2)
