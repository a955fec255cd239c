"""The benchmark's three workloads: their inputs, batches and outputs.

Every workload draws its inputs from a fixed pool whose outputs are
recorded in ``references.json``; the benchmark seed only chooses the
order in which a run visits the pool, so every item of every seed has a
reference to be checked against.

* ``est_mixture``: ``pipeline.estimate_panel`` on in-memory dgp2m panels,
  N=250, T=100. Mixture multistart dominates, and dgp2m has several
  distinct local optima, so an optimizer change that lands on a worse one
  shows up in the reference check.
* ``est_wide``: the CLI ``estimate`` command, run in-process, on dgp1m
  CSVs with N=2000, T=50. Ward clustering (O(N^3) time, O(N^2 d) memory)
  dominates; CSV parsing, ``result.json`` writing and the kernels on
  2000-firm arrays ride along.
* ``mc_classify``: ``run_monte_carlo`` with ``stages="classification"``
  on dgp2u at (100, 50), one process. Many small replications: panel
  generation and the pooled group fits dominate and the MLE never runs.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

from groupsfa import cli, montecarlo, pipeline
from groupsfa.dgp import generate
from groupsfa.panel import write_panel_csv

# est_* pools are replications 0..pool-1 of this generation seed; the
# mc_classify pool is Monte Carlo seeds 0..pool-1.
GEN_SEED = 0
K_MAX = 4


@dataclass(frozen=True)
class Size:
    design: str
    N: int
    T: int
    pool: int   # inputs with recorded references
    batch: int  # items per batch; replications per cell for mc_classify

    def stamp(self):
        """What a recorded output depends on (replications per cell, for
        Monte Carlo cells)."""
        return {"design": self.design, "N": self.N, "T": self.T,
                "gen_seed": GEN_SEED, "batch": self.batch}


SIZES = {
    "full": {
        "est_mixture": Size("dgp2m", 250, 100, pool=8, batch=2),
        "est_wide": Size("dgp1m", 2000, 50, pool=2, batch=1),
        "mc_classify": Size("dgp2u", 100, 50, pool=8, batch=20),
    },
    "smoke": {
        "est_mixture": Size("dgp2m", 40, 30, pool=2, batch=2),
        "est_wide": Size("dgp1m", 60, 20, pool=2, batch=1),
        "mc_classify": Size("dgp2u", 30, 20, pool=2, batch=3),
    },
}


@dataclass
class Item:
    key: str
    seconds: float
    output: object = None
    error: str = None
    timed: bool = True


class EstMixture:
    """One item is one ``estimate_panel`` call on an in-memory panel."""

    kind = "est"
    entry_name = "pipeline.estimate_panel"
    required_bindings = (
        "groupsfa.pipeline.fit_all", "groupsfa.pipeline.select_K",
        "groupsfa.pipeline.composite_residual_stats", "groupsfa.pipeline.fit_unique",
        "groupsfa.pipeline.fit_mixture", "groupsfa.postestimation.hac_cluster",
        "groupsfa.postestimation.fit_group", "groupsfa.inefficiency.minimize",
        "groupsfa.inefficiency.loglik_mixture_total",
        "groupsfa.inefficiency.loglik_unique_total",
    )

    def __init__(self, size, workdir):
        self.size = size
        self.workdir = workdir

    def entry(self):
        return pipeline.estimate_panel

    def prepare(self, key, size=None):
        s = size or self.size
        panel, _ = generate(s.design, s.N, s.T, seed=GEN_SEED, rep=key)
        return str(key), panel

    def run_batch(self, inputs, call):
        items = []
        t = perf_counter()
        for key, panel in inputs:
            out = err = None
            try:
                out = call(panel, k_max=K_MAX, seed=int(key))
            except Exception as exc:  # a failed item is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            now = perf_counter()
            items.append(Item(key, now - t, out, err))
            t = now
        return items

    def observe(self, result):
        return {
            "selected_k": int(result.selected_K),
            "membership": "".join(str(int(k)) for k in result.assignment.membership),
            "chosen": result.choice.chosen,
            "loglik_unique": float(result.unique_fit.loglik),
            "loglik_mixture": float(result.mixture_fit.loglik),
        }

    def close(self):
        pass


class EstWide(EstMixture):
    """One item is one in-process ``groupsfa estimate`` on a CSV file."""

    entry_name = "cli.main"
    required_bindings = EstMixture.required_bindings + (
        "groupsfa.cli.read_panel_csv", "groupsfa.cli.estimate_panel",
    )

    def entry(self):
        return cli.main

    def prepare(self, key, size=None):
        s = size or self.size
        panel, _ = generate(s.design, s.N, s.T, seed=GEN_SEED, rep=key)
        path = os.path.join(self.workdir, f"wide_{key}.csv")
        write_panel_csv(panel, path)
        return str(key), path

    def run_batch(self, inputs, call):
        items = []
        t = perf_counter()
        for key, path in inputs:
            out_dir = os.path.join(self.workdir, f"out_{key}")
            argv = ["estimate", "--input", path, "--out-dir", out_dir,
                    "--kmax", str(K_MAX), "--seed", key]
            err = None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = call(argv)
                if code != 0:
                    err = f"exit code {code}"
            except Exception as exc:  # a failed item is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            now = perf_counter()
            items.append(Item(key, now - t, out_dir, err))
            t = now
        return items

    def observe(self, out_dir):
        with open(os.path.join(out_dir, "result.json")) as fh:
            res = json.load(fh)
        ids = sorted(res["membership"], key=int)
        ineff = res["inefficiency"]
        return {
            "selected_k": int(res["group_selection"]["selected_k"]),
            "membership": "".join(str(res["membership"][i]) for i in ids),
            "chosen": ineff["choice"],
            "loglik_unique": float(ineff["unique"]["loglik"]),
            "loglik_mixture": float(ineff["mixture"]["loglik"]),
        }


class McClassify:
    """One batch is one Monte Carlo cell; one item is one replication.

    Replications are timed by rebinding ``montecarlo.run_replication``
    with a clock, which also keeps each replication's record for the
    reference check (the cell report only keeps aggregates).
    """

    kind = "mc"
    entry_name = "montecarlo.run_monte_carlo"
    required_bindings = (
        "groupsfa.montecarlo.run_replication", "groupsfa.montecarlo.generate",
        "groupsfa.montecarlo.fit_all", "groupsfa.montecarlo.select_K",
        "groupsfa.montecarlo.aggregate", "groupsfa.postestimation.hac_cluster",
        "groupsfa.postestimation.fit_group",
    )

    def __init__(self, size, workdir):
        self.size = size
        self._records = []
        self._original = montecarlo.run_replication
        records = self._records
        original = self._original

        def run_replication(config, size_nt, rep):
            t0 = perf_counter()
            rec = original(config, size_nt, rep)
            records.append(Item(f"{config.seed}:{rep}", perf_counter() - t0, rec))
            return rec

        montecarlo.run_replication = run_replication

    def entry(self):
        return montecarlo.run_monte_carlo

    def prepare(self, key, size=None):
        s = size or self.size
        return str(key), montecarlo.McConfig(
            design=s.design, sizes=[(s.N, s.T)], replications=s.batch,
            k_max=K_MAX, seed=key, workers=1, stages="classification",
        )

    def run_batch(self, inputs, call):
        items = []
        for key, config in inputs:
            del self._records[:]
            err = None
            try:
                call(config)
            except Exception as exc:  # a failed cell is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            items.extend(self._records)
            if err is not None or len(self._records) != config.replications:
                missing = config.replications - len(self._records)
                items.extend(Item(f"{key}:?", 0.0, None, err or "replication not run",
                                  timed=False)
                             for _ in range(max(missing, 1)))
        return items

    def observe(self, rec):
        return {"k_hat": rec.k_hat, "cls_error": rec.cls_error, "failed": bool(rec.failed)}

    def close(self):
        montecarlo.run_replication = self._original


WORKLOADS = {"est_mixture": EstMixture, "est_wide": EstWide, "mc_classify": McClassify}


def make(name, mode, workdir):
    return WORKLOADS[name](SIZES[mode][name], workdir)
