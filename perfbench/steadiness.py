#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
runs, as a share of their median (``statistics.quantiles(values, n=4)``).
Compare it with the metric's bound in ``BENCHMARK.json``:

    python3 perfbench/steadiness.py --seeds $(seq 0 9) --out perfbench/baseline.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``.

With ``--trace`` the runs are traced and every per-layer metric is
summarized instead (they have no bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    p.add_argument("--trace", action="store_true", help="summarize per-layer metrics")
    p.add_argument("--out", help="write the summary as JSON to this path")
    args = p.parse_args(argv)

    if args.trace:
        bounds = {m["name"]: None for m in spec["per_layer"]}
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], int(args.trace))
                for seed in args.seeds]
        bad = [s for s, r in zip(args.seeds, runs) if not r["correct"]]
        if bad:
            raise RuntimeError(f"{workload}: incorrect output on seeds {bad}")
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values) if len(values) > 1 else {"values": values}
            summary[workload][name] = stats
            if bound is not None:
                flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
                print(f"{workload:12s} {name:12s} median {stats['median']:10.4f}  "
                      f"spread {stats['spread']:.4f}  bound {bound}  {flag}", flush=True)
            else:
                print(f"{workload:12s} {name:40s} {values}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                       "trace": args.trace, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
