import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from groupsfa.cli import main
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


def test_estimate_kmax_above_firm_count_is_input_error(tmp_path, capsys):
    data = tmp_path / "three.csv"
    _run(["simulate", "--design", "dgp1u", "--n", "3", "--t", "30",
          "--seed", "6", "--out", str(data)])
    assert _run(["estimate", "--input", str(data), "--kmax", "4",
                 "--out-dir", str(tmp_path / "r")]) == 2
    assert "K_max=4 exceeds the number of firms N=3" in capsys.readouterr().err


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


def test_montecarlo_config_unknown_key_is_config_error(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"design": "dgp2u", "sizes": [[20, 50]],
                               "replications": 1, "c_lamda": 1.0}))
    assert _run(["montecarlo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 4


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
