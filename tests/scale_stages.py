"""Time each stage of ``estimate_panel`` on large dgp1m panels, one BLAS thread.

Not a test (pytest does not collect it): run it on two checkouts and
compare what it prints, e.g.

    PYTHONPATH=src python tests/scale_stages.py
    PYTHONPATH=/path/to/other/src python tests/scale_stages.py 2000 5000

For each N (default 2,000, 5,000 and 10,000) it runs
``estimate_panel(generate("dgp1m", N, 50, seed=0, rep=0)[0])`` ``--repeats``
times (default 3) and prints one JSON line: N, T, and per stage the least
seconds over the runs. A stage is timed by wrapping the function at the
module attribute that ``estimate_panel`` calls it through: ``fit_all``
(Step 1), ``hac_cluster`` (Step 2), ``fit_group`` (the Step-3 group fits
of every K), ``composite_residual_stats``, ``fit_unique``, ``fit_mixture``
and the two standard-error functions (``se``), and the mixture kernel
``inefficiency.loglik_mixture_total`` (``mixture_kernel``).
``estimate_panel`` is the whole call. A second ``mixture_kernel`` entry
gives the kernel's calls, the parameter rows they evaluated and its
seconds per row, which compare across checkouts whatever their batch
sizes. A ``polish`` entry counts, per law, the BFGS polish's calls of
``inefficiency.minimize`` (``calls``), their objective evaluations
(``nfev``) and the calls started from an exact inverse Hessian
(``hess_start``, those passed a ``hess_inv0`` option). Only these module
attributes are used, so the script runs on older checkouts that have them
too.
"""

import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

from groupsfa import inefficiency, pipeline, postestimation  # noqa: E402
from groupsfa.dgp import generate  # noqa: E402

T = 50

# (stage, module, attribute) at the sites estimate_panel calls them through
STAGES = [
    ("fit_all", pipeline, "fit_all"),
    ("hac_cluster", postestimation, "hac_cluster"),
    ("group_fits", postestimation, "fit_group"),
    ("composite_stats", pipeline, "composite_residual_stats"),
    ("fit_unique", pipeline, "fit_unique"),
    ("fit_mixture", pipeline, "fit_mixture"),
    ("se", pipeline, "unique_standard_errors"),
    ("se", pipeline, "mixture_standard_errors"),
    ("mixture_kernel", inefficiency, "loglik_mixture_total"),
]


def _timed(fn, stage, seconds):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - t0
    return wrapper


def _counted(fn, rows):
    """``fn``, the mixture kernel, adding its calls and their parameter
    rows (the length of ``tau``, its second argument) to ``rows``."""
    def wrapper(stats, tau, *args):
        rows["calls"] += 1
        rows["rows"] += len(tau)
        return fn(stats, tau, *args)
    return wrapper


def _polished(fn, polish):
    """``fn``, scipy's ``minimize``, adding each call, its evaluations and
    whether it was given a starting inverse Hessian to ``polish``, keyed by
    the law: "unique" for 2 coordinates, "mixture" for 5."""
    def wrapper(fun, x0, *args, **kwargs):
        res = fn(fun, x0, *args, **kwargs)
        law = polish["unique" if len(x0) == 2 else "mixture"]
        law["calls"] += 1
        law["nfev"] += int(res.nfev)
        law["hess_start"] += "hess_inv0" in (kwargs.get("options") or {})
        return res
    return wrapper


def time_stages(panel):
    """Seconds per stage, and in all, of one ``estimate_panel(panel)`` call,
    with the mixture kernel's seconds, its calls and rows, and the BFGS
    polish's counts."""
    seconds = dict.fromkeys([stage for stage, *_ in STAGES] + ["estimate_panel"], 0.0)
    rows = {"calls": 0, "rows": 0}
    polish = {law: {"calls": 0, "nfev": 0, "hess_start": 0} for law in ("unique", "mixture")}
    originals = [(module, name, getattr(module, name)) for _, module, name in STAGES]
    originals.append((inefficiency, "minimize", inefficiency.minimize))
    try:
        inefficiency.minimize = _polished(inefficiency.minimize, polish)
        inefficiency.loglik_mixture_total = _counted(inefficiency.loglik_mixture_total, rows)
        for stage, module, name in STAGES:
            setattr(module, name, _timed(getattr(module, name), stage, seconds))
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline.estimate_panel(panel)
        seconds["estimate_panel"] = time.perf_counter() - t0
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    return seconds, rows, polish


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[2000, 5000, 10000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for N in args.sizes:
        panel, _ = generate("dgp1m", N, T, seed=0, rep=0)
        runs = [time_stages(panel) for _ in range(args.repeats)]
        best = {stage: round(min(run[stage] for run, *_ in runs), 4) for stage in runs[0][0]}
        _, rows, polish = runs[0]  # the same in every run
        per_row = min(run["mixture_kernel"] for run, *_ in runs) / max(rows["rows"], 1)
        kernel = {**rows, "s_per_row": float(f"{per_row:.3g}")}
        print(json.dumps({"N": N, "T": T, "repeats": args.repeats, "seconds": best,
                          "mixture_kernel": kernel, "polish": polish}), flush=True)


if __name__ == "__main__":
    main()
