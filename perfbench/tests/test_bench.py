"""Tests of the benchmark itself: reference checks, tracer guards, smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refcheck  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("est_mixture", "est_wide", "mc_classify")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _smoke_refs():
    with open(refcheck.PATH) as fh:
        return json.load(fh)["smoke"]


def _run(root, workload, trace, seconds="0.5", seed="0"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


# --- reference checks ---------------------------------------------------------


def test_recorded_estimate_matches_itself():
    ref = next(iter(_smoke_refs()["est_mixture"]["items"].values()))
    assert refcheck.mismatches("est", dict(ref), ref) == []


@pytest.mark.parametrize("field,value", [
    ("selected_k", lambda v: v + 1),
    ("chosen", lambda v: "unique" if v == "mixture" else "mixture"),
    ("membership", lambda v: ("2" if v[0] == "1" else "1") + v[1:]),
    ("loglik_mixture", lambda v: v + 2e-6 * abs(v)),
    ("loglik_unique", lambda v: v + 1.0),
])
def test_perturbed_estimate_reference_is_flagged(field, value):
    ref = next(iter(_smoke_refs()["est_wide"]["items"].values()))
    perturbed = dict(ref, **{field: value(ref[field])})
    problems = refcheck.mismatches("est", ref, perturbed)
    assert len(problems) == 1 and problems[0].startswith(field)


def test_loglik_check_is_one_sided():
    ref = next(iter(_smoke_refs()["est_mixture"]["items"].values()))
    better = dict(ref, loglik_mixture=ref["loglik_mixture"] + 5.0)
    within = dict(ref, loglik_unique=ref["loglik_unique"] - 0.5e-6 * abs(ref["loglik_unique"]))
    assert refcheck.mismatches("est", better, ref) == []
    assert refcheck.mismatches("est", within, ref) == []


@pytest.mark.parametrize("field,value", [
    ("k_hat", 3), ("cls_error", 0.5), ("failed", True),
])
def test_perturbed_replication_reference_is_flagged(field, value):
    ref = next(iter(_smoke_refs()["mc_classify"]["items"].values()))
    assert ref[field] != value
    assert refcheck.mismatches("mc", ref, dict(ref, **{field: value})) != []
    assert refcheck.mismatches("mc", ref, ref) == []


def test_missing_reference_is_flagged():
    assert refcheck.mismatches("mc", {"k_hat": 2}, None) != []


def test_stale_reference_inputs_are_refused():
    import workloads

    size = workloads.SIZES["smoke"]["mc_classify"]
    with pytest.raises(refcheck.StaleReferenceError):
        refcheck.load("smoke", "mc_classify", workloads.Size(size.design, size.N + 1,
                                                              size.T, size.pool, size.batch))


def test_perturbed_reference_counts_as_failed_item(tmp_path):
    """End to end: one perturbed recorded replication fails its item."""
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src", "groupsfa"), checkout / "src" / "groupsfa",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    with open(refcheck.PATH) as fh:
        refs = json.load(fh)
    perturbed = copy.deepcopy(refs)
    for item in perturbed["smoke"]["mc_classify"]["items"].values():
        item["k_hat"] += 1
    (checkout / "perfbench" / "references.json").write_text(json.dumps(perturbed))

    proc = _run(str(checkout), "mc_classify", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "k_hat" in proc.stderr


# --- tracer guards --------------------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_site")
    mod.work = lambda n: n * 2
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_missing_rebinding_target_fails_loudly(fake_module):
    tr = tracing.Tracer(bindings=(
        (fake_module.__name__, "work", tracing.SPAN, "fake.work", None),
        (fake_module.__name__, "moved_away", tracing.SPAN, "fake.moved", None),
    ))
    with pytest.raises(tracing.TraceTargetError, match="moved_away"):
        tr.install()
    assert not tr._saved


def test_binding_that_never_fires_fails_loudly(fake_module):
    original = fake_module.work
    tr = tracing.Tracer(bindings=(
        (fake_module.__name__, "work", tracing.SPAN, "fake.work", None),
    ))
    with tr:
        assert fake_module.work is not original
    assert fake_module.work is original
    with pytest.raises(tracing.TraceTargetError, match="never fired"):
        tr.require_fired([f"{fake_module.__name__}.work"])


def test_self_time_excludes_children_and_kernels(fake_module):
    fake_module.kernel = lambda arr: sum(arr)
    fake_module.inner = lambda: fake_module.kernel([1.0, 2.0])
    fake_module.outer = lambda: fake_module.inner()
    tr = tracing.Tracer(bindings=(
        (fake_module.__name__, "outer", tracing.SPAN, "fake.outer", None),
        (fake_module.__name__, "inner", tracing.SPAN, "fake.inner", None),
        (fake_module.__name__, "kernel", tracing.KERNEL, "kernels", None),
    ))
    with tr:
        fake_module.outer()
    outer, inner = tr.spans
    assert inner.parent == 0 and inner.kernel_calls == 1
    assert tr.kernels.calls == 1 and tr.kernels.firm_terms == 2
    own = tr.self_times()
    assert own[0] == pytest.approx(outer.end - outer.start - (inner.end - inner.start))
    assert own[1] == pytest.approx(inner.end - inner.start - inner.kernel_s)


def test_starts_split_where_a_pass_does_not_continue_the_previous_one():
    import numpy as np

    def call(x0, x, fun):
        return {"x0": np.array(x0), "x": np.array(x), "fun": fun, "nit": 1,
                "success": True}

    calls = [call([0.0], [1.0], 5.0), call([1.0], [1.1], 4.0),
             call([9.0], [2.0], 6.0), call([2.0], [2.0], 6.0)]
    assert [len(s) for s in tracing._starts(calls)] == [2, 2]


# --- smoke runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "est_mixture", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- host-speed scaling ---------------------------------------------------------


def test_every_pool_key_counts_once():
    import run

    samples = [("a", 1.0), ("a", 3.0), ("a", 5.0), ("b", 10.0)]
    assert run.key_medians(samples) == {"a": 3.0, "b": 10.0}


def test_scale_uses_the_probes_inside_a_span_or_the_nearest():
    import run

    speed = run.HostSpeed()
    speed.times = [float(t) for t in range(10)]
    speed.probes = [run.PROBE_REF_S] * 5 + [2 * run.PROBE_REF_S] * 5
    assert speed.scale(5.0, 9.0) == pytest.approx(0.5)
    assert speed.scale(0.0, 9.0) == pytest.approx(1 / 1.5)
    # fewer than MIN_SAMPLES inside: the five nearest are at 2..6
    assert speed.scale(4.4, 4.6) == pytest.approx(1 / 1.4)
