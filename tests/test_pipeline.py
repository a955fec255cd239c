import json
import math
from pathlib import Path

import numpy as np
import pytest

from groupsfa.dgp import generate
from groupsfa.errors import InputError
from groupsfa.estimation import default_m, fit_all
from groupsfa.panel import PanelData
from groupsfa.pipeline import estimate_panel, fit_levels
from groupsfa.postestimation import select_K

from oracles import mixture_optimum_dense, sample_half_normal

# K, the chosen model and both log-likelihoods of 36 panels: six designs
# x {(50, 30), (100, 50), (250, 100)} x replications 0-1 at seed 0
_RECORDED_OPTIMA = json.loads(
    (Path(__file__).parent / "data" / "recorded_optima.json").read_text()
)["panels"]


def test_estimate_panel_deterministic():
    panel, _ = generate("dgp2u", 40, 50, seed=8)
    r1 = estimate_panel(panel, seed=0)
    r2 = estimate_panel(panel, seed=0)
    assert r1.to_dict() == r2.to_dict()


def test_estimate_panel_requires_two_firms():
    panel, _ = generate("dgp1u", 2, 30, seed=9)
    one = PanelData(y=panel.y[:1], x=panel.x[:1])
    with pytest.raises(InputError):
        estimate_panel(one)


def test_estimate_panel_rejects_kmax_above_firm_count():
    panel, _ = generate("dgp1u", 3, 30, seed=9)
    with pytest.raises(InputError, match="K_max=4 exceeds the number of firms N=3"):
        estimate_panel(panel, k_max=4)


@pytest.mark.parametrize("name, value", [("seed", 1.5), ("k_max", 2.5), ("m", 2.5)])
def test_estimate_panel_rejects_non_integer_arguments(name, value):
    # each once ended in a bare TypeError from deep inside a stage
    panel, _ = generate("dgp2u", 20, 30, seed=9)
    with pytest.raises(InputError, match=f"{name} must be an integer, got {value}"):
        estimate_panel(panel, **{name: value})


@pytest.mark.parametrize("kw", [dict(c_lambda=-1.0), dict(c_tilde=-0.5)])
def test_estimate_panel_rejects_negative_penalty_constants(kw):
    # a negative constant would reward more groups and the larger model
    panel, _ = generate("dgp2u", 20, 30, seed=9)
    (name, value), = kw.items()
    with pytest.raises(InputError, match=f"^{name} must be a finite real number >= 0, got {value}$"):
        estimate_panel(panel, k_max=2, **kw)


def test_estimate_panel_result_structure():
    panel, _ = generate("dgp1u", 30, 50, seed=10)
    res = estimate_panel(panel, seed=0)
    d = res.to_dict()
    assert set(d) == {
        "meta", "group_selection", "groups", "membership", "inefficiency",
        "firm_intercepts",
    }
    assert d["meta"]["m"] == 2
    assert len(d["membership"]) == 30
    assert len(d["groups"]) == res.selected_K
    assert set(d["group_selection"]["ic_by_k"]) == {"1", "2", "3", "4"}
    curves = res.curves(21)
    assert len(curves) == res.selected_K
    assert curves[0].shape == (21, 1 + 1 + panel.p)
    assert "sigma_v(1)" in res.summary_text()


@pytest.mark.parametrize("law,columns", [
    ("unique", {"alpha0": "alpha0", "sigma_u": "sigma_u2"}),
    ("mixture", {"tau": "tau", "alpha0(1)": "alpha0_1", "sigma_u(1)": "sigma_u2_1",
                 "alpha0(2)": "alpha0_2", "sigma_u(2)": "sigma_u2_2"}),
])
def test_summary_prints_delta_method_se_under_sigma_u(law, columns):
    panel, _ = generate("dgp1m", 50, 30, seed=0)
    res = estimate_panel(panel, k_max=2)
    res.choice.chosen = law
    fit = res.unique_fit if law == "unique" else res.mixture_fit
    fit.se = np.linspace(0.1, 0.5, len(columns))
    lines = res.summary_text().splitlines()
    at = lines.index(f"Level/inefficiency model: {law}")
    header, est, se = (line.split() for line in lines[at + 1:at + 4])
    for (column, field), field_se in zip(columns.items(), fit.se):
        value = getattr(fit, field)
        if column.startswith("sigma_u"):
            # sigma_u = sqrt(sigma_u2): delta-method se(sigma_u2) / (2 sigma_u)
            value = math.sqrt(value)
            field_se = field_se / (2.0 * value)
        j = header.index(column)
        assert (est[j], se[j]) == (f"{value:.4f}", f"({field_se:.4f})"), column
    assert "se(sigma_u2) / (2 sigma_u)" in lines[-1]


def _banking_shaped_panel(N=466, T=80, seed=17):
    """Two frontier groups with the application's fitted noise levels and a
    dominant/secondary mixture in the levels."""
    rng = np.random.default_rng(seed)
    sizes = (113, 353)
    sigma_v = (0.0862, 0.0855)
    tau, a1, su1, a2, su2 = 0.8748, 0.0157, 0.4426, 0.6161, 0.7756
    p = 5
    t = np.arange(1, T + 1) / T
    base = np.array([0.3, -0.2, 0.25, 0.45, 0.15])
    tilt = np.array([0.25, 0.3, -0.2, 0.25, -0.3])
    x = rng.normal(0.0, 1.0, size=(N, T, p))
    y = np.empty((N, T))
    group = np.repeat([1, 2], sizes)
    comp = np.where(rng.uniform(size=N) < tau, 1, 2)
    u = np.where(
        comp == 1,
        sample_half_normal(su1, rng, size=N),
        sample_half_normal(su2, rng, size=N),
    )
    level = np.where(comp == 1, a1, a2) - u
    b1 = np.sqrt(2) * np.cos(np.pi * t)
    for i in range(N):
        g = group[i] - 1
        beta = base + (1 if g == 0 else -1) * tilt
        alpha = (0.15 if g == 0 else -0.1) * b1
        y[i] = (
            level[i] + alpha + x[i] @ beta + 0.1 * (x[i] @ tilt) * b1
            + rng.normal(0, sigma_v[g], size=T)
        )
    truth = dict(group=group, tau=tau, sigma_v=sigma_v)
    return PanelData(y=y, x=x), truth


@pytest.mark.slow
@pytest.mark.parametrize("rec", _RECORDED_OPTIMA,
                         ids=lambda r: f"{r['design']}-{r['N']}x{r['T']}-{r['rep']}")
def test_recorded_optima_are_kept(rec):
    # a change to the likelihood or its optimizer must keep K and the
    # chosen model, and may raise an optimum but not lower it
    panel, _ = generate(rec["design"], rec["N"], rec["T"], seed=0, rep=rec["rep"])
    report = select_K(fit_all(panel, default_m(panel.T)), 4, 1.0)
    _, unique, mixture, choice = fit_levels(panel, report.selected.fits, 1.0, rec["rep"])
    assert (report.selected_K, choice.chosen) == (rec["K"], rec["chosen"])
    for fit, recorded in ((unique, rec["loglik_unique"]), (mixture, rec["loglik_mixture"])):
        assert fit.loglik >= recorded - 1e-12 * abs(recorded)


# panels where exact-gradient BFGS from denser starts finds a higher
# mixture optimum than fit_mixture, by 4.0e-4, 2.9e-4 and 2.5e-4 relative
@pytest.mark.xfail(strict=True, reason="the five-start multistart misses the "
                   "mixture's global optimum on this panel")
@pytest.mark.parametrize("design, N, T, rep", [
    ("dgp1u", 50, 30, 5), ("dgp3m", 50, 30, 2), ("dgp3u", 100, 50, 8),
])
def test_mixture_reaches_the_dense_start_optimum(design, N, T, rep):
    panel, _ = generate(design, N, T, seed=0, rep=rep)
    report = select_K(fit_all(panel, default_m(panel.T)), 4, 1.0)
    stats, unique, mixture, _ = fit_levels(panel, report.selected.fits, 1.0, rep)
    oracle = mixture_optimum_dense(stats, unique, rep)
    assert mixture.loglik >= oracle - 1e-9 * abs(oracle)


def _partition(result):
    """The selected groups as a set of firm-id sets."""
    ids = result.firm_ids
    return {frozenset(ids[i] for i in fit.members) for fit in result.group_fits}


def _assert_same_estimate(got, want):
    """Same K, groups by firm id and chosen model; both log-likelihoods
    within 1e-9 relative."""
    assert got.selected_K == want.selected_K
    assert _partition(got) == _partition(want)
    assert got.choice.chosen == want.choice.chosen
    for g, w in ((got.unique_fit, want.unique_fit), (got.mixture_fit, want.mixture_fit)):
        assert g.loglik == pytest.approx(w.loglik, rel=1e-9, abs=0)


# the four panels where y + 100 flips Step 5's choice: (design, N, T, rep)
_SHIFT_PANELS = [
    ("dgp1m", 50, 30, 2), ("dgp2m", 50, 30, 3), ("dgp2m", 100, 50, 1),
    ("dgp3m", 100, 50, 0),
]


@pytest.mark.parametrize("design, N, T, rep", _SHIFT_PANELS)
def test_estimate_is_invariant_to_the_firm_order(design, N, T, rep):
    panel, _ = generate(design, N, T, seed=0, rep=rep)
    order = np.random.default_rng(rep).permutation(N)
    permuted = PanelData(y=panel.y[order], x=panel.x[order],
                         firm_ids=[panel.firm_ids[i] for i in order])
    _assert_same_estimate(estimate_panel(permuted, k_max=4, seed=rep),
                          estimate_panel(panel, k_max=4, seed=rep))


# y -> y + 100 maps an exact MLE's alpha0 to alpha0 + 100 and keeps every
# log-likelihood; the partition is kept, but the mixture optimum falls by
# 1.05e-3 to 3.5e-3 relative because the optimizer is not unit-free, and
# the choice flips from mixture to unique
@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the mixture fit depends "
                   "on the units of y")
@pytest.mark.parametrize("design, N, T, rep", _SHIFT_PANELS)
def test_estimate_is_equivariant_to_a_shift_of_y(design, N, T, rep):
    panel, _ = generate(design, N, T, seed=0, rep=rep)
    shifted = PanelData(y=panel.y + 100.0, x=panel.x)
    _assert_same_estimate(estimate_panel(shifted, k_max=4, seed=rep),
                          estimate_panel(panel, k_max=4, seed=rep))


@pytest.mark.slow
def test_application_shaped_recovery(tmp_path):
    # exercised through the CLI so the CSV ingestion and report files are
    # part of the check
    import json

    from groupsfa.cli import main
    from groupsfa.panel import write_panel_csv

    panel, truth = _banking_shaped_panel()
    data = tmp_path / "banking.csv"
    write_panel_csv(panel, data)
    outdir = tmp_path / "res"
    assert main(["estimate", "--input", str(data),
                 "--out-dir", str(outdir)]) == 0
    result = json.loads((outdir / "result.json").read_text())
    assert result["group_selection"]["selected_k"] == 2
    for grp in result["groups"]:
        assert grp["sigma_v"] == pytest.approx(0.086, abs=0.01)
    ineff = result["inefficiency"]
    assert ineff["choice"] == "mixture"
    mix = ineff["mixture"]
    se_tau = mix["se"][0]
    assert abs(mix["tau"] - truth["tau"]) < 3 * max(se_tau, 0.01)
    assert math.sqrt(mix["sigma_u2_1"]) == pytest.approx(0.4426, abs=0.15)
    sizes = sorted(grp["size"] for grp in result["groups"])
    assert sizes == [113, 353]


def test_metadata_round_trips_tuning():
    panel, _ = generate("dgp3u", 30, 50, seed=11)
    res = estimate_panel(panel, m=3, k_max=3, c_lambda=1.5, c_tilde=0.75,
                         seed=4)
    meta = res.to_dict()["meta"]
    assert meta["m"] == 3
    assert meta["k_max"] == 3
    assert meta["c_lambda"] == 1.5
    assert meta["c_tilde"] == 0.75
    assert meta["seed"] == 4


# Unique and mixture log-likelihoods on (50, 30) panels, recorded with the
# earlier optimizer (Nelder-Mead to xatol 1e-8, then finite-difference
# BFGS). Gradient steps from the eight starts alone end lower on each of
# these mixtures (by 2.8e-4 to 9.4e-4 relative), so they guard the simplex
# pass that chooses the basin.
_RECORDED_LOGLIKS = {
    ("dgp2m", 0): (-2233.0814606093536, -2226.4561504915073),
    ("dgp1u", 2): (-2290.9263964283678, -2287.605824674938),
    ("dgp3m", 1): (-2640.9985129722822, -2638.706991094169),
}


@pytest.mark.parametrize("design, rep", sorted(_RECORDED_LOGLIKS))
def test_mle_optima_no_worse_than_recorded(design, rep):
    panel, _ = generate(design, 50, 30, seed=3, rep=rep)
    res = estimate_panel(panel, k_max=4, seed=rep)
    fits = (res.unique_fit, res.mixture_fit)
    for fit, recorded in zip(fits, _RECORDED_LOGLIKS[design, rep]):
        assert fit.loglik >= recorded - 1e-9 * abs(recorded)
