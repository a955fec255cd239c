#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Runs every input of every workload pool once, untimed, on the groupsfa
sources under ``src/`` and writes ``perfbench/references.json``. Run it
only when the workload inputs change, never to absorb a changed result:

    python3 perfbench/record_refs.py
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refcheck  # noqa: E402
import workloads  # noqa: E402


def record(name, mode, workdir):
    wl = workloads.make(name, mode, workdir)
    items = {}
    try:
        for key in range(wl.size.pool):
            for item in wl.run_batch([wl.prepare(key)], wl.entry()):
                if item.error:
                    raise RuntimeError(f"{mode}/{name} item {item.key}: {item.error}")
                items[item.key] = wl.observe(item.output)
    finally:
        wl.close()
    return {"inputs": wl.size.stamp(), "items": items}


def main():
    refs = {}
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for mode in ("full", "smoke"):
            for name in workloads.WORKLOADS:
                refs.setdefault(mode, {})[name] = record(name, mode, workdir)
                print(f"recorded {mode}/{name}: {len(refs[mode][name]['items'])} items")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(refcheck.PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
