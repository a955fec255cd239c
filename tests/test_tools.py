"""Smoke runs of the gate tools that pytest does not collect:
``scale_stages.py``, ``output_digest.py`` and ``optima_sweep.py``. Each
reads the package through module attributes and public calls, so a change
under ``src/`` can break one of them without failing any other test."""

import copy
import importlib
import json
import re

import optima_sweep
import output_digest


def test_scale_stages_times_every_stage(monkeypatch, capsys):
    # the script sets one BLAS thread on import; keep that to this test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    scale_stages = importlib.import_module("scale_stages")
    scale_stages.main(["200", "--repeats", "1"])
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["N"], record["T"], record["repeats"]) == (200, 50, 1)
    # every wrapped attribute was called, so each stage took some time
    assert set(record["seconds"]) == {stage for stage, *_ in scale_stages.STAGES} | {
        "estimate_panel"}
    assert all(seconds > 0.0 for seconds in record["seconds"].values())
    assert record["mixture_kernel"]["rows"] >= record["mixture_kernel"]["calls"] > 0
    # one BFGS polish per start: one single-law start, five mixture starts
    polish = record["polish"]
    assert (polish["unique"]["calls"], polish["mixture"]["calls"]) == (1, 5)
    assert polish["unique"]["hess_start"] == 0


def test_output_digest_prints_a_set(capsys):
    output_digest.main(["dgp"])
    lines = capsys.readouterr().out.splitlines()
    # 6 designs x 3 sizes x 2 seeds x 2 reps, four arrays each
    assert len(lines) == 6 * 3 * 2 * 2 * 4 + 1
    assert all(re.fullmatch(r"[0-9a-f]{16}  dgp \S+ \(\d+,\d+\) seed \d+ rep \d \w+", line)
               for line in lines[:-1])
    assert re.fullmatch(r"[0-9a-f]{16}  set dgp \(288 outputs\)", lines[-1])


def test_optima_sweep_compares_two_records(tmp_path, capsys):
    label = "dgp2m (50,30) rep 0"
    record = optima_sweep.panel_record("dgp2m", 50, 30, 0)
    assert "error" not in record
    old, same, lower = (tmp_path / f"{name}.json" for name in ("old", "same", "lower"))
    old.write_text(json.dumps({label: record}))
    same.write_text(json.dumps({label: optima_sweep.panel_record("dgp2m", 50, 30, 0)}))
    assert optima_sweep.compare(str(old), str(same))
    out = capsys.readouterr().out
    assert "bit-identical log-likelihoods: 2 of 2 fits" in out and "gate: pass" in out
    # a mixture optimum 1e-9 lower fails the gate
    moved = copy.deepcopy(record)
    moved["mixture"]["loglik"] -= 1e-9 * abs(moved["mixture"]["loglik"])
    lower.write_text(json.dumps({label: moved}))
    assert not optima_sweep.compare(str(old), str(lower))
    assert "gate: FAIL (1 log-likelihood falls" in capsys.readouterr().out


def test_optima_sweep_counts_warning_flips_without_gating(tmp_path, capsys):
    label = "dgp2m (50,30) rep 0"
    record = optima_sweep.panel_record("dgp2m", 50, 30, 0)
    assert record["unique"]["warned"] is False and record["mixture"]["warned"] is False
    old, flipped, older = (tmp_path / f"{name}.json" for name in ("old", "flipped", "older"))
    old.write_text(json.dumps({label: record}))
    moved = copy.deepcopy(record)
    moved["mixture"]["warned"] = True
    flipped.write_text(json.dumps({label: moved}))
    assert optima_sweep.compare(str(old), str(flipped))
    out = capsys.readouterr().out
    assert "warning flips (not gated): 1 of 2 fits" in out and "gate: pass" in out
    # a record written before warnings were recorded compares on the rest
    for fit in optima_sweep.FITS:
        del moved[fit]["warned"]
    older.write_text(json.dumps({label: moved}))
    assert optima_sweep.compare(str(older), str(old))
    out = capsys.readouterr().out
    assert "warning flips (not gated): 0 of 0 fits" in out and "gate: pass" in out
