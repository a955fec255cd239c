"""Replication harness for the simulation designs.

Each replication generates a panel, runs the classification stages
(individual fits, then clustering and the choice of K), then Steps 4-5
through ``pipeline.fit_levels`` at the selected K, and records the
selected group count, the classification error at the design's true group
count, the chosen level/inefficiency model, and parameter errors aligned
to the generating truth. The parameter errors come from the fit at the
true K, refit when the selected K differs (the unique law alone for a
unique-law design). Group labels are aligned by the permutation that
minimizes the classification error; mixture components by the smaller
total parameter distance of the two orderings.

Replications are independent tasks. They run over a process pool of
min(workers, tasks, CPUs) processes, or in this process when that is 1.
All randomness derives from (seed, replication), so the aggregated report
is a pure function of the configuration regardless of worker count.
Aggregation runs in replication order to keep floating-point sums
reproducible.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .dgp import DESIGNS, design_shape, generate
from .errors import ConfigError, InputError, as_integer, as_penalty
from .estimation import default_m, fit_all, min_periods
from .grouping import GroupAssignment, best_label_permutation
from .inefficiency import composite_residual_stats, fit_unique
from .pipeline import fit_levels
from .postestimation import select_K


@dataclass
class McConfig:
    """Configuration of one Monte Carlo run."""

    design: str
    sizes: list
    replications: int
    c_lambda: float = 1.0
    c_tilde: float = 1.0
    k_max: int = 4
    seed: int = 0
    workers: int = 1
    stages: str = "full"  # "classification" skips the inefficiency MLE

    def __post_init__(self):
        if not isinstance(self.design, str):
            raise ConfigError(f"design must be a string, got {self.design!r}")
        try:  # the scalars are checked and kept as given
            for name, low in (("replications", 1), ("k_max", None), ("seed", 0), ("workers", 1)):
                as_integer(name, getattr(self, name), low)
            for name in ("c_lambda", "c_tilde"):
                as_penalty(name, getattr(self, name))
            self.sizes = [(as_integer("sizes: N", n), as_integer("sizes: T", t, low=2))
                          for n, t in self.sizes]
        except InputError as exc:
            raise ConfigError(str(exc)) from None
        self.design = self.design.lower()
        if self.design not in DESIGNS:
            raise ConfigError(
                f"unknown design {self.design!r}; expected one of {DESIGNS}"
            )
        if not self.sizes:
            raise ConfigError("sizes must be a nonempty list of (N, T) pairs")
        true_K, p = design_shape(self.design)
        if self.k_max < true_K:
            raise ConfigError(
                f"k_max={self.k_max} below the design's group count {true_K}"
            )
        for n, t in self.sizes:
            if n < self.k_max:
                raise ConfigError(f"sizes: N={n} is below k_max={self.k_max}")
            if t < min_periods(default_m(t), p):
                raise ConfigError(
                    f"sizes: T={t} is too short for a per-firm fit on {self.design} (p={p})"
                )
        if self.stages not in ("full", "classification"):
            raise ConfigError("stages must be 'full' or 'classification'")

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    def to_dict(self):
        return {**asdict(self), "sizes": [list(s) for s in self.sizes]}


@dataclass
class RepRecord:
    """Outcome of a single replication."""

    rep: int
    N: int
    T: int
    k_hat: int = None
    cls_error: float = None
    choice: str = None
    errors: dict = field(default_factory=dict)
    failed: bool = False
    stage: str = None
    message: str = None


def _law_errors(fit, law):
    """Estimation errors of a fit in its generating law's parameters.

    Keys are the law's fields; a law's sigma_u* is scored against the
    square root of the fit's sigma_u2*. Mixture components are aligned
    by the smaller total distance of the two orderings.
    """
    true = asdict(law)
    est = [
        math.sqrt(getattr(fit, n.replace("sigma_u", "sigma_u2")))
        if n.startswith("sigma_u") else getattr(fit, n)
        for n in true
    ]
    if law.kind == "mixture":
        tau, a1, s1, a2, s2 = est
        swapped = [1.0 - tau, a2, s2, a1, s1]
        dist = lambda cand: sum(abs(c - t) for c, t in zip(cand, true.values()))
        est = est if dist(est) <= dist(swapped) else swapped
    return {n: c - t for (n, t), c in zip(true.items(), est)}


def run_replication(config, size, rep):
    """Run one replication at panel size (N, T); never raises.

    Failures at any stage mark the record failed with the stage tag and
    message instead of propagating.
    """
    N, T = size
    rec = RepRecord(rep=rep, N=N, T=T)
    stage = "generate"
    try:
        panel, truth = generate(config.design, N, T, seed=config.seed, rep=rep)
        truth_assign = GroupAssignment(K=truth.K, membership=truth.membership)

        stage = "individual"
        firm_fits = fit_all(panel, default_m(T))

        stage = "selection"
        report = select_K(firm_fits, config.k_max, config.c_lambda)
        del firm_fits  # its per-firm factors are not needed past Step 3
        rec.k_hat = report.selected_K

        stage = "classification"
        rec_true = report.records[truth.K - 1]
        perm, wrong = best_label_permutation(rec_true.assignment, truth_assign)
        rec.cls_error = wrong / N
        if config.stages == "classification":
            return rec

        stage = "mle"
        mix_seed = int(
            np.random.SeedSequence(config.seed, spawn_key=(999, rep)).generate_state(1)[0]
        )
        _, unique, mixture, choice = fit_levels(
            panel, report.selected.fits, config.c_tilde, mix_seed
        )
        rec.choice = choice.chosen

        stage = "scoring"
        # noise levels from the fit at the true K, groups aligned to truth
        for k, fit in enumerate(rec_true.fits, start=1):
            j = perm[k - 1] + 1
            if j <= truth.K:
                rec.errors[f"sigma_v_{j}"] = fit.sigma_v - truth.sigma_v[j - 1]
        # level/inefficiency parameters of the design's own law, refit at
        # the true K when the selected K differs; a unique-law refit needs
        # only the unique fit
        refit = truth.K != report.selected_K
        if truth.law.kind == "unique":
            fit = (fit_unique(composite_residual_stats(panel, rec_true.fits))
                   if refit else unique)
        else:
            fit = (fit_levels(panel, rec_true.fits, config.c_tilde, mix_seed)[2]
                   if refit else mixture)
        rec.errors.update(_law_errors(fit, truth.law))
    except Exception as exc:  # record, never propagate
        rec.failed = True
        rec.stage = stage
        rec.message = f"{type(exc).__name__}: {exc}"
    return rec


@dataclass
class CellReport:
    """Aggregated statistics for one (N, T) size."""

    N: int
    T: int
    replications: int
    n_failed: int
    k_freq: dict
    mean_cls_error: float
    freq_unique: float
    freq_mixture: float
    bias: dict
    rmse: dict

    def to_dict(self):
        return {**asdict(self), "k_freq": {str(k): v for k, v in self.k_freq.items()}}


def aggregate(records, k_max):
    """Collapse one size's records into frequencies and error summaries.

    Bias is the absolute mean error, RMSE the root mean squared error,
    both over successful replications; frequencies are over replications
    that reached the corresponding stage. Failed replications are counted
    separately, never silently dropped.
    """
    records = sorted(records, key=lambda r: r.rep)
    if not records:
        raise InputError("no records to aggregate")
    ok = [r for r in records if not r.failed]
    if not ok:
        raise InputError(
            f"all {len(records)} replications failed; first failure at stage "
            f"{records[0].stage}: {records[0].message}"
        )
    with_k = [r for r in records if r.k_hat is not None]
    k_freq = {
        k: sum(1 for r in with_k if r.k_hat == k) / len(with_k)
        for k in range(1, k_max + 1)
    }
    cls = [r.cls_error for r in records if r.cls_error is not None]
    with_choice = [r for r in records if r.choice is not None]
    freq_u = (
        sum(1 for r in with_choice if r.choice == "unique") / len(with_choice)
        if with_choice else None
    )
    names = sorted({n for r in ok for n in r.errors})
    bias, rmse = {}, {}
    for n in names:
        errs = np.array([r.errors[n] for r in ok if n in r.errors])
        bias[n] = float(abs(errs.mean()))
        rmse[n] = float(np.sqrt((errs ** 2).mean()))
    return CellReport(
        N=records[0].N, T=records[0].T, replications=len(records),
        n_failed=len(records) - len(ok), k_freq=k_freq,
        mean_cls_error=float(np.mean(cls)) if cls else None,
        freq_unique=freq_u,
        freq_mixture=1.0 - freq_u if with_choice else None,
        bias=bias, rmse=rmse,
    )


@dataclass
class MonteCarloReport:
    config: McConfig
    cells: list

    def to_dict(self):
        # workers is an execution detail: the statistics are identical for
        # any worker count, so it is not part of the reported configuration
        cfg = self.config.to_dict()
        cfg.pop("workers")
        return {
            "config": cfg,
            "cells": [c.to_dict() for c in self.cells],
        }


def _replication_task(args):
    config_dict, size, rep = args
    return run_replication(McConfig.from_dict(config_dict), size, rep)


def run_monte_carlo(config):
    """Run every (N, T) size for the configured replication count."""
    tasks = [
        (config.to_dict(), size, rep)
        for size in config.sizes
        for rep in range(config.replications)
    ]
    # the executor forks all its workers at the first submit
    workers = min(config.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, tasks, chunksize=1))
    else:
        results = [run_replication(config, size, rep) for _, size, rep in tasks]
    cells = []
    R = config.replications
    for i, _size in enumerate(config.sizes):
        cells.append(aggregate(results[i * R : (i + 1) * R], config.k_max))
    return MonteCarloReport(config=config, cells=cells)


def sensitivity_sweep(config, c_lambda_values, c_tilde_values):
    """Rerun the harness over a grid of penalty constants.

    Per-replication seeds depend only on (seed, replication), so results
    across grid points differ only through the constants. Every grid
    point's configuration is checked before the first run.
    """
    configs = [
        McConfig.from_dict(
            {**config.to_dict(), "c_lambda": float(cl), "c_tilde": float(ct)}
        )
        for cl in c_lambda_values
        for ct in c_tilde_values
    ]
    return [(cfg.c_lambda, cfg.c_tilde, run_monte_carlo(cfg)) for cfg in configs]


def format_report_text(report):
    """Aligned text tables: selection frequencies, then bias and RMSE."""
    cfg = report.config
    lines = []
    title = (
        f"Performance of ICs for {cfg.design.upper()} "
        f"(R={cfg.replications}, c_lambda={cfg.c_lambda:g}, c_tilde={cfg.c_tilde:g})"
    )
    lines.append(title)
    ks = list(range(1, cfg.k_max + 1))
    header = ["(N,T)"] + [f"K={k}" for k in ks] + ["PrF", "unique", "mixture", "failed"]
    fmt = lambda v: "-" if v is None else f"{v:.3f}"
    rows = []
    for c in report.cells:
        row = [f"({c.N},{c.T})"]
        row += [f"{c.k_freq.get(k, 0.0):.3f}" for k in ks]
        row.append(fmt(c.mean_cls_error))
        row.append(fmt(c.freq_unique))
        row.append(fmt(c.freq_mixture))
        row.append(str(c.n_failed))
        rows.append(row)
    lines += _align([header] + rows)

    names = sorted({n for c in report.cells for n in c.bias})
    if names:
        lines.append("")
        lines.append(f"BIAS and RMSE over {cfg.replications} replications")
        header = ["(N,T)"]
        for n in names:
            header += [f"{n}:BIAS", f"{n}:RMSE"]
        rows = []
        for c in report.cells:
            row = [f"({c.N},{c.T})"]
            for n in names:
                row.append(f"{c.bias.get(n, float('nan')):.3f}")
                row.append(f"{c.rmse.get(n, float('nan')):.3f}")
            rows.append(row)
        lines += _align([header] + rows)
    return "\n".join(lines) + "\n"


def _align(rows):
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows]
