import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from groupsfa import cli, pipeline
from groupsfa.cli import main
from groupsfa.errors import HessianError
from groupsfa.panel import read_panel_csv, write_panel_csv


def _run(args):
    return main(args)


def test_simulate_row_count_and_columns(tmp_path):
    out = tmp_path / "panel.csv"
    assert _run(["simulate", "--design", "dgp1u", "--n", "4", "--t", "5",
                 "--seed", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["firm_id", "t", "y", "x1"]
    assert len(rows) == 1 + 20
    truth = tmp_path / "panel.truth.csv"
    with open(truth) as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["firm_id", "group", "u", "component"]
    assert len(trows) == 1 + 4


def test_simulate_round_trip_bit_exact(tmp_path):
    from groupsfa.dgp import generate

    panel, _ = generate("dgp3m", 9, 12, seed=3)
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path)
    np.testing.assert_array_equal(back.y, panel.y)
    np.testing.assert_array_equal(back.x, panel.x)
    assert back.firm_ids == panel.firm_ids


def test_simulate_seeds_differ(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(["simulate", "--design", "dgp2u", "--n", "3", "--t", "10",
          "--seed", "1", "--out", str(a)])
    _run(["simulate", "--design", "dgp2u", "--n", "3", "--t", "10",
          "--seed", "2", "--out", str(b)])
    ya = [r[2] for r in csv.reader(open(a))][1:]
    yb = [r[2] for r in csv.reader(open(b))][1:]
    assert ya != yb
    assert len(ya) == len(yb)


def test_estimate_on_simulated_dgp2u(tmp_path):
    data = tmp_path / "panel.csv"
    _run(["simulate", "--design", "dgp2u", "--n", "100", "--t", "50",
          "--seed", "1", "--out", str(data)])
    outdir = tmp_path / "res"
    code = _run(["estimate", "--input", str(data), "--out-dir", str(outdir),
                 "--emit-curves", "--grid", "11"])
    assert code == 0
    result = json.loads((outdir / "result.json").read_text())
    assert result["group_selection"]["selected_k"] == 2
    assert result["inefficiency"]["choice"] == "unique"
    assert len(result["membership"]) == 100
    assert all(se >= 0 for se in result["inefficiency"]["unique"]["se"])
    summary = (outdir / "summary.txt").read_text()
    assert "Selected number of groups: 2" in summary
    for k in (1, 2):
        with open(outdir / f"curves_group{k}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "alpha", "beta1"]
        assert len(rows) == 1 + 11


def test_estimate_single_firm_is_input_error(tmp_path):
    data = tmp_path / "one.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "2", "--t", "30",
          "--seed", "5", "--out", str(data)])
    # strip to one firm
    with open(data) as fh:
        rows = list(csv.reader(fh))
    keep = [rows[0]] + [r for r in rows[1:] if r[0] == rows[1][0]]
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(keep)
    assert _run(["estimate", "--input", str(data),
                 "--out-dir", str(tmp_path / "r")]) == 2


def test_estimate_unbalanced_is_input_error(tmp_path):
    data = tmp_path / "bad.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "3", "--t", "12",
          "--seed", "6", "--out", str(data)])
    with open(data) as fh:
        rows = list(csv.reader(fh))
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:-1])  # drop one cell
    assert _run(["estimate", "--input", str(data),
                 "--out-dir", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("header,x_cols,col", [
    ("firm_id,t,y,x1,x1", None, "x1"),
    ("firm_id,t,y,x1", "x1,x1", "x1"),
    ("firm_id,t,y,x1", "y", "y"),
])
def test_estimate_column_role_error_exits_2_before_fitting(tmp_path, capsys, monkeypatch,
                                                          header, x_cols, col):
    def no_fit(*args, **kwargs):
        raise AssertionError("estimation ran")

    monkeypatch.setattr(cli, "estimate_panel", no_fit)
    data = tmp_path / "p.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "3", "--t", "12",
          "--seed", "6", "--out", str(data)])
    with open(data) as fh:
        rows = [r + r[3:] * (header.count(",") - 3) for r in csv.reader(fh)]
    rows[0] = header.split(",")
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    args = ["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r")]
    assert _run(args + (["--x-cols", x_cols] if x_cols else [])) == 2
    assert f"input error: {data}: column '{col}'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_estimate_kmax_above_firm_count_is_input_error(tmp_path, capsys):
    data = tmp_path / "three.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "3", "--t", "30",
          "--seed", "6", "--out", str(data)])
    assert _run(["estimate", "--input", str(data), "--kmax", "4",
                 "--out-dir", str(tmp_path / "r")]) == 2
    assert "K_max=4 exceeds the number of firms N=3" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--rep", "-2")])
def test_simulate_negative_seed_or_rep_is_input_error(tmp_path, capsys, flag, value):
    out = tmp_path / "panel.csv"
    assert _run(["simulate", "--design", "dgp1u", "--n", "4", "--t", "10",
                 flag, value, "--out", str(out)]) == 2
    assert f"{flag[2:]} must be >= 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _assert_estimate_input_error(tmp_path, capsys, extra):
    data = tmp_path / "panel.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "6", "--t", "20",
          "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    assert _run(["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r"),
                 "--kmax", "2", *extra]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err
    assert not (tmp_path / "r").exists()
    return err


@pytest.mark.parametrize("extra", [["--seed", "-1"], ["--emit-curves", "--grid", "-1"],
                                   ["--grid", "0"]])
def test_estimate_bad_seed_or_grid_is_input_error(tmp_path, capsys, extra):
    _assert_estimate_input_error(tmp_path, capsys, extra)


def _penalty_message(extra):
    """The error an ``estimate`` penalty flag with a bad value raises."""
    flag, value = extra if len(extra) == 2 else extra[0].split("=")
    return f"{flag[2:].replace('-', '_')} must be a finite real number >= 0, got {float(value)!r}"


@pytest.mark.parametrize("extra", [["--c-lambda", "nan"], ["--c-tilde", "inf"],
                                   ["--c-lambda=-inf"]])
def test_estimate_non_finite_penalty_is_input_error(tmp_path, capsys, extra):
    err = _assert_estimate_input_error(tmp_path, capsys, extra)
    assert _penalty_message(extra) in err


@pytest.mark.parametrize("extra", [["--c-lambda=-1"], ["--c-tilde=-1"]])
def test_estimate_negative_penalty_is_input_error(tmp_path, capsys, extra):
    err = _assert_estimate_input_error(tmp_path, capsys, extra)
    assert _penalty_message(extra) in err


def test_estimate_missing_file_is_input_error(tmp_path):
    assert _run(["estimate", "--input", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path / "r")]) == 2


def test_estimate_rank_deficient_is_numerical_error(tmp_path):
    data = tmp_path / "degenerate.csv"
    rows = [["firm_id", "t", "y", "x1"]]
    rng = np.random.default_rng(13)
    for fid in ("a", "b", "c"):
        for t in range(1, 31):
            rows.append([fid, t, repr(rng.normal()), "0.0"])  # x*B0 column dies
    import csv as _csv

    with open(data, "w", newline="") as fh:
        _csv.writer(fh).writerows(rows)
    assert _run(["estimate", "--input", str(data),
                 "--out-dir", str(tmp_path / "r")]) == 3


def _simulated_csv(path, n, t):
    assert _run(["simulate", "--design", "dgp1u", "--n", str(n), "--t", str(t),
                 "--seed", "1", "--out", str(path)]) == 0
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("t, code", [(6, 0), (5, 2)])
def test_estimate_at_the_fewest_periods(tmp_path, capsys, t, code):
    # min_periods(2, 1) = 6: the shortest panel a default fit accepts
    data = tmp_path / "panel.csv"
    _simulated_csv(data, 10, t)
    capsys.readouterr()
    assert _run(["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r")]) == code
    if code:
        assert "need T >= 6" in capsys.readouterr().err


@pytest.mark.parametrize("regressors", ["constant", "collinear"])
def test_estimate_degenerate_regressors_name_the_firms(tmp_path, capsys, regressors):
    data = tmp_path / "panel.csv"
    rows = _simulated_csv(data, 10, 30)
    if regressors == "constant":  # x*B0 repeats the intercept column
        rows = [rows[0]] + [r[:3] + ["1.0"] for r in rows[1:]]
    else:  # x2 = 2 x1
        rows = [rows[0] + ["x2"]] + [r + [repr(2 * float(r[3]))] for r in rows[1:]]
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert _run(["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r")]) == 3
    assert ("per-firm estimation failed for: firm 1: design matrix numerically "
            "rank deficient") in capsys.readouterr().err


def test_estimate_two_firms_needs_kmax_at_most_two(tmp_path, capsys):
    data = tmp_path / "panel.csv"
    _simulated_csv(data, 2, 30)
    args = ["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r")]
    assert _run(args) == 2
    assert "K_max=4 exceeds the number of firms N=2" in capsys.readouterr().err
    assert _run(args + ["--kmax", "2"]) == 0


def _estimate_panel_csv(tmp_path, panel):
    data = tmp_path / "panel.csv"
    write_panel_csv(panel, data)
    out = tmp_path / "r"
    code = _run(["estimate", "--input", str(data), "--out-dir", str(out)])
    return code, json.loads((out / "result.json").read_text()) if code == 0 else None


def test_estimate_without_inefficiency_reports_a_collapsed_variance(tmp_path):
    # y with the inefficiency draws added back: the variance goes to the
    # boundary, and neither fit gets standard errors
    from groupsfa.dgp import generate
    from groupsfa.panel import PanelData

    panel, truth = generate("dgp1u", 60, 30, seed=0, rep=0)
    panel = PanelData(y=panel.y + truth.u[:, None], x=panel.x)
    with pytest.warns(RuntimeWarning, match="inefficiency variance collapsed toward zero"):
        code, result = _estimate_panel_csv(tmp_path, panel)
    assert code == 0
    assert result["group_selection"]["selected_k"] == 2
    ineff = result["inefficiency"]
    assert ineff["choice"] == "unique"
    assert 0 < ineff["unique"]["sigma_u2"] < 1e-8
    assert ineff["unique"]["se"] is None and ineff["mixture"]["se"] is None


def test_estimate_with_a_one_firm_group(tmp_path):
    # one firm's output shifted by large noise forms a group of its own
    from groupsfa.dgp import generate
    from groupsfa.panel import PanelData

    panel, _ = generate("dgp2u", 40, 30, seed=0, rep=0)
    y = panel.y.copy()
    y[0] += np.random.default_rng(1).normal(0, 20, 30)
    code, result = _estimate_panel_csv(tmp_path, PanelData(y=y, x=panel.x))
    assert code == 0
    assert result["group_selection"]["selected_k"] == 3
    assert [g["size"] for g in result["groups"]] == [1, 19, 20]
    assert result["groups"][0]["firms"] == ["1"]
    assert result["inefficiency"]["choice"] == "unique"


def _singular_hessian(stats, fit):
    raise HessianError("Hessian not negative definite", eigenvalues=[1.0])


def _estimate_dgp2u(tmp_path):
    """Estimate a dgp2u panel whose chosen model is the unique law."""
    data = tmp_path / "panel.csv"
    _run(["simulate", "--design", "dgp2u", "--n", "100", "--t", "50",
          "--seed", "1", "--out", str(data)])
    return _run(["estimate", "--input", str(data), "--out-dir", str(tmp_path / "r")])


def test_chosen_model_hessian_error_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "unique_standard_errors", _singular_hessian)
    assert _estimate_dgp2u(tmp_path) == 3
    assert "numerical failure: Hessian not negative definite" in capsys.readouterr().err
    assert not (tmp_path / "r" / "result.json").exists()


def test_runner_up_hessian_error_gives_null_se(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "mixture_standard_errors", _singular_hessian)
    assert _estimate_dgp2u(tmp_path) == 0
    result = json.loads((tmp_path / "r" / "result.json").read_text())
    assert result["inefficiency"]["choice"] == "unique"
    assert result["inefficiency"]["mixture"]["se"] is None
    assert len(result["inefficiency"]["unique"]["se"]) == 2


def test_convergence_failure_exits_3(tmp_path, capsys, monkeypatch):
    from scipy.optimize import OptimizeResult

    from groupsfa import inefficiency

    def stalled(f, starts):
        R = len(starts)
        return (np.array(starts, dtype=float), np.full(R, np.inf),
                np.full(R, inefficiency._MAX_NM), np.ones(R, dtype=int))

    def failed_bfgs(fun, x0, **kwargs):
        return OptimizeResult(x=x0, fun=np.inf, jac=np.full(len(x0), np.inf),
                              success=False, message="BFGS failed")

    monkeypatch.setattr(inefficiency, "_simplex", stalled)
    monkeypatch.setattr(inefficiency, "minimize", failed_bfgs)
    assert _estimate_dgp2u(tmp_path) == 3
    assert ("numerical failure: likelihood maximization did not converge: "
            "0 of 1 starts converged") in capsys.readouterr().err
    assert not (tmp_path / "r" / "result.json").exists()


def test_montecarlo_config_unknown_key_is_config_error(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"design": "dgp2u", "sizes": [[20, 50]],
                               "replications": 1, "c_lamda": 1.0}))
    assert _run(["montecarlo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 4


def test_montecarlo_negative_seed_is_config_error(tmp_path, monkeypatch):
    from groupsfa import montecarlo

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "run_replication", no_replication)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"design": "dgp2u", "sizes": [[20, 50]],
                               "replications": 2, "seed": -1}))
    assert _run(["montecarlo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("design", 5),
    ("replications", 1.5),
    ("workers", 1.5),
    ("seed", 1.5),
    ("k_max", 2.5),
    ("replications", True),
    ("sizes", [[20.7, 20]]),
    ("sizes", [[20, True]]),
    ("c_lambda", True),
    ("c_tilde", [1.0, False]),
])
def test_montecarlo_mistyped_value_is_config_error(tmp_path, capsys, monkeypatch,
                                                   key, value):
    _assert_config_error_before_any_run(tmp_path, capsys, monkeypatch, key, value)


@pytest.mark.parametrize("key,value", [
    ("c_lambda", float("nan")),
    ("c_lambda", [1.0, float("nan")]),
    ("c_tilde", float("inf")),
    ("sizes", [[1, 50]]),
    ("sizes", [[20, 5]]),
    ("c_lambda", -1.0),
    ("c_tilde", [1.0, -0.5]),
])
def test_montecarlo_unrunnable_value_is_config_error(tmp_path, capsys, monkeypatch,
                                                     key, value):
    _assert_config_error_before_any_run(tmp_path, capsys, monkeypatch, key, value)


def _assert_config_error_before_any_run(tmp_path, capsys, monkeypatch, key, value):
    from groupsfa import montecarlo

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "run_replication", no_replication)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"design": "dgp2u", "sizes": [[20, 50]],
                               "replications": 2, key: value}))
    assert _run(["montecarlo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 4
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_montecarlo_bad_json_is_config_error(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text("{not json")
    assert _run(["montecarlo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 4


def test_montecarlo_smoke_and_byte_identical_rerun(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "design": "dgp2u", "sizes": [[20, 50]], "replications": 2,
        "seed": 0, "stages": "classification",
    }))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(["montecarlo", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert _run(["montecarlo", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    freqs = report["cells"][0]["k_freq"]
    assert sum(freqs.values()) == pytest.approx(1.0)


def test_montecarlo_c_value_sweep(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "design": "dgp2u", "sizes": [[20, 50]], "replications": 1,
        "seed": 0, "stages": "classification",
        "c_lambda": [0.75, 1.0, 1.5],
    }))
    out = tmp_path / "o"
    assert _run(["montecarlo", "--config", str(cfg), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["sweep"]) == 3
    assert [e["c_lambda"] for e in report["sweep"]] == [0.75, 1.0, 1.5]


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "groupsfa.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "simulate" in out.stdout
