#!/usr/bin/env python3
"""groupsfa pipeline benchmark.

Runs one workload against the groupsfa sources under ``src/`` of the
checkout this file sits in, checks every output against the recorded
references, and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload est_mixture --seed 0 --seconds 30 --trace 0

Workloads: ``est_mixture``, ``est_wide``, ``mc_classify`` (see
``workloads.py``). Each workload's inputs form a fixed pool of batches;
the seed permutes the order in which a run visits them. A run imports the
package, makes a warm-up item, then runs batches until it has visited
every batch of the pool and its ``--seconds`` are used up.

Times are scaled to host speed. The host this was tuned on (2 shared
vCPUs) switches between two speeds about 1.6x apart every 10-100 ms, and
the share of slow time drifts from minute to minute, so raw run times
spread by 0.2-0.5 between runs. ``HostSpeed`` times a small fixed probe,
code outside the package, ten times a second while the run goes on, and
each timed span is reported as ``raw seconds * PROBE_REF_S / mean probe
time during the span``: the seconds it would take on a host where the
probe takes ``PROBE_REF_S``. A change to the program moves the scaled time
as it moves the raw time; a change in host speed moves the span and the
probes together and mostly cancels. Raw medians are printed alongside.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
one clock read per item and no tracing:

* ``setup_s``: package import + median input preparation per item
  (generation, CSV writing) + one warm-up item, a smoke-size input sent
  through the same entry point so that lazy set-up in the package is paid
  before timing starts;
* ``wall_s``: the mean over the pool's batches of each batch's median time
  (a batch is 2 panels for est_mixture, one CSV estimate for est_wide and
  one 20-replication cell for mc_classify);
* ``item_s``: the mean over the pool's items of each item's median time
  (an item is a panel estimated, or one replication). Every input counts
  once, whichever order the seed gives;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: share of attempted items (warm-up included) that ran and
  matched their reference; the failed count is in ``failed``.

With ``--trace 1`` the run first measures untraced, then traced (see
``tracer.py``), each for half of ``--seconds`` and at least one visit of
every batch, and reports the per-layer metrics as means per item, plus
``trace.overhead_s``, the traced minus the untraced ``wall_s``. Spans are
written to ``.perfbench_work/traces/``.

``--smoke`` runs the same code at tiny sizes, for the benchmark's tests.
"""

import argparse
import bisect
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter

import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}
MAX_REPORTED_FAILURES = 5
PROBE_LOOPS = 10_000
PROBE_FLOATS = 20_000
SAMPLE_EVERY_S = 0.1
MIN_SAMPLES = 5
# Scaled times are seconds on a host where one probe takes this long. The
# 2-vCPU host the benchmark was tuned on takes 0.45-0.8 ms.
PROBE_REF_S = 0.0005


class HostSpeed:
    """Host speed, sampled every ``SAMPLE_EVERY_S`` seconds by timing a
    probe in a SIGALRM handler, so the samples fall inside the spans they
    scale (a handler due during a long C call runs when the call returns).

    The probe is a fixed pure-Python loop plus one numpy expression, code
    outside the package: a change to the program does not move it, a
    change in host speed does."""

    def __init__(self):
        import numpy as np

        self._x = np.linspace(-3.0, 3.0, PROBE_FLOATS)
        self._np = np
        self.times = []
        self.probes = []
        self._busy = False

    def probe(self):
        t0 = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        self._np.exp(-self._x * self._x).sum()
        return perf_counter() - t0

    def _sample(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.probes.append(self.probe())
            self.times.append(perf_counter())
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """``PROBE_REF_S`` over the mean probe time during [t0, t1]; a span
        with fewer than ``MIN_SAMPLES`` samples uses the ones nearest to it."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(range(len(self.times)),
                             key=lambda i: abs(self.times[i] - mid))[:MIN_SAMPLES]
            window = [self.probes[i] for i in nearest]
        else:
            window = self.probes[lo:hi]
        return PROBE_REF_S / statistics.fmean(window)


def key_medians(samples):
    """Each key's median; ``samples`` is [(key, value)]."""
    by_key = {}
    for key, value in samples:
        by_key.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in by_key.items()}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if "bytes" in name:
        return "bytes"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("est_mixture", "est_wide", "mc_classify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return p.parse_args(argv)


class Tally:
    """Counts attempted and failed items and keeps the first failure messages."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, items, refs):
        for item in items:
            self.attempted += 1
            problems = [item.error] if item.error else None
            if problems is None:
                try:
                    observed = self.workload.observe(item.output)
                except (OSError, KeyError, ValueError) as exc:
                    problems = [f"unreadable output: {exc}"]
                else:
                    problems = refcheck.mismatches(
                        self.workload.kind, observed, refs.get(item.key))
            if problems:
                self.failed += 1
                if len(self.messages) < MAX_REPORTED_FAILURES:
                    self.messages.append(f"item {item.key}: " + "; ".join(problems))


@dataclasses.dataclass
class Span:
    key: str
    start: float
    seconds: float


class Runner:
    def __init__(self, workload, seed, refs, tally):
        import numpy as np

        self.workload = workload
        # inputs per batch: a cell is one input however many replications it has
        self.per_batch = workload.size.batch if workload.kind == "est" else 1
        n_batches = workload.size.pool // self.per_batch
        self.order = [int(k) for k in np.random.default_rng(seed).permutation(n_batches)]
        self.refs = refs
        self.tally = tally
        self.preps = []  # one Span per batch
        self._next = 0

    def batch_inputs(self):
        """Prepare the next batch of the seed's order; return its key and inputs."""
        index = self.order[self._next % len(self.order)]
        self._next += 1
        t0 = perf_counter()
        inputs = [self.workload.prepare(key) for key in
                  range(index * self.per_batch, (index + 1) * self.per_batch)]
        self.preps.append(Span(str(index), t0, perf_counter() - t0))
        return str(index), inputs

    def warmup(self, size, refs):
        """One small item through the same entry point, checked against the
        smoke references; returns its Span, preparation included."""
        t0 = perf_counter()
        items = self.workload.run_batch([self.workload.prepare(0, size)],
                                        self.workload.entry())
        span = Span("warmup", t0, perf_counter() - t0)
        self.tally.check(items, refs)
        return span

    def phase(self, seconds, call):
        """Batches until every batch of the pool has run once and the next
        batch would, at the median batch time, end after ``seconds``.
        Returns the batch spans and (item key, seconds, batch span) triples."""
        wl = self.workload
        batches, items = [], []
        first = self._next
        deadline = perf_counter() + seconds
        while True:
            key, inputs = self.batch_inputs()
            t0 = perf_counter()
            got = wl.run_batch(inputs, call)
            batches.append(Span(key, t0, perf_counter() - t0))
            items.extend((it.key, it.seconds, batches[-1]) for it in got if it.timed)
            self.tally.check(got, self.refs)
            if (self._next - first >= len(self.order)
                    and perf_counter() + statistics.median(b.seconds for b in batches)
                    > deadline):
                return batches, items


def run(args, import_span, speed):
    import tracer as tracing
    import workloads

    mode = "smoke" if args.smoke else "full"
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(args.workload, mode, workdir)
    try:
        refs = refcheck.load(mode, args.workload, wl.size)
        warm_size = dataclasses.replace(workloads.SIZES["smoke"][args.workload], batch=1)
        warm_refs = refcheck.load("smoke", args.workload,
                                  workloads.SIZES["smoke"][args.workload])
        tally = Tally(wl)
        runner = Runner(wl, args.seed, refs, tally)
        warmup = runner.warmup(warm_size, warm_refs)
        seconds = args.seconds / 2 if args.trace else args.seconds
        batches, items = runner.phase(seconds, wl.entry())
        report = {}
        if args.trace:
            tr = tracing.Tracer()
            with tr:
                traced, _ = runner.phase(seconds, tr.entry(wl.entry_name, wl.entry()))
            tr.require_fired(wl.required_bindings)
            report = tracing.layer_metrics(tr)
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tr.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    def scaled(span, seconds=None):
        """``seconds`` (default: the span's) measured within ``span``,
        scaled to host speed."""
        seconds = span.seconds if seconds is None else seconds
        return seconds * speed.scale(span.start, span.start + span.seconds)

    import_s, warmup_s = scaled(import_span), scaled(warmup)
    prep_s = statistics.median(scaled(p) for p in runner.preps) / runner.per_batch
    batch_medians = key_medians((b.key, scaled(b)) for b in batches)
    item_medians = key_medians((key, scaled(b, sec)) for key, sec, b in items)
    end_to_end = {
        "setup_s": import_s + prep_s + warmup_s,
        "wall_s": statistics.fmean(batch_medians.values()),
        "item_s": statistics.fmean(item_medians.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    if args.trace:
        report["trace.overhead_s"] = statistics.fmean(
            key_medians((b.key, scaled(b)) for b in traced).values()) - end_to_end["wall_s"]

    print(f"workload {args.workload} ({mode}) seed {args.seed} trace {args.trace}: "
          f"{len(items)} items in {len(batches)} untraced batches, "
          f"{tally.attempted} attempted with warm-up, {tally.failed} failed "
          f"(failed_frac {tally.failed / tally.attempted:.4f})")
    print(f"  times are scaled to a host where the probe takes {PROBE_REF_S} s; "
          f"{len(speed.probes)} probes, median {statistics.median(speed.probes):.6f} s")
    print(f"  setup_s     {end_to_end['setup_s']:.4f} s = import {import_s:.4f} + "
          f"median prep {prep_s:.4f} (n={len(runner.preps)}) + warm-up item {warmup_s:.4f}")
    print(f"  wall_s      {end_to_end['wall_s']:.4f} s   mean of per-batch medians, "
          f"{len(batch_medians)} batches x {len(batches) / len(batch_medians):.1f} visits "
          f"(raw median {statistics.median(b.seconds for b in batches):.4f} s)")
    print("  per-batch medians: " + ", ".join(
        f"{k}: {v:.4f} s" for k, v in sorted(batch_medians.items())))
    print(f"  item_s      {end_to_end['item_s']:.4f} s   mean of per-item medians, "
          f"{len(item_medians)} items x {len(items) / len(item_medians):.1f} visits "
          f"(raw median {statistics.median(sec for _, sec, _ in items):.4f} s)")
    print(f"  peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MiB")
    print(f"  ok_frac     {end_to_end['ok_frac']:.4f}   of n={tally.attempted} items")
    for msg in tally.messages:
        print(f"  FAILED {msg}", file=sys.stderr)

    if args.trace:
        print_layers(report)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in report.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def print_layers(report):
    times = {k: v for k, v in report.items() if k.endswith("_s") and k != "trace.overhead_s"}
    total = sum(times.values()) or 1.0
    print(f"  traced items n={int(report['trace.items'])}; self time per item by layer (raw):")
    for k, v in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"    {k:40s} {v:10.5f} s  {100.0 * v / total:5.1f}%")
    for k, v in report.items():
        if k not in times:
            print(f"    {k:40s} {v:14.4f} {layer_unit(k)}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupsfa", "__init__.py")):
        print(f"perfbench: no groupsfa sources under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    with HostSpeed() as speed:
        import groupsfa.cli  # noqa: F401  (the timed import: pulls in every module)

        import_span = Span("import", t0, perf_counter() - t0)
        if not os.path.abspath(groupsfa.cli.__file__).startswith(SRC + os.sep):
            print(f"perfbench: imported groupsfa from {groupsfa.cli.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        result = run(args, import_span, speed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
