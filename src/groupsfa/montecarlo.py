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

Replications are independent tasks; with workers > 1 they are distributed
over a process pool. All randomness derives from (seed, replication), so
the aggregated report is a pure function of the configuration regardless
of worker count. Aggregation runs in replication order to keep
floating-point sums reproducible.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .dgp import DESIGNS, generate, _parse_design, _design_curves
from .errors import ConfigError, InputError
from .estimation import default_m, fit_all
from .grouping import GroupAssignment, best_label_permutation
from .inefficiency import composite_residual_stats, fit_unique
from .pipeline import fit_levels
from .postestimation import default_lambda, select_K


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
        self.design = self.design.lower()
        if self.design not in DESIGNS:
            raise ConfigError(
                f"unknown design {self.design!r}; expected one of {DESIGNS}"
            )
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        self.sizes = [(int(n), int(t)) for n, t in self.sizes]
        if not self.sizes:
            raise ConfigError("sizes must be a nonempty list of (N, T) pairs")
        if self.k_max < self.true_K:
            raise ConfigError(
                f"k_max={self.k_max} below the design's group count {self.true_K}"
            )
        if self.stages not in ("full", "classification"):
            raise ConfigError("stages must be 'full' or 'classification'")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    @cached_property
    def true_K(self):
        base, _ = _parse_design(self.design)
        return len(_design_curves(base)[0])

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"design", "sizes", "replications"} - set(d)
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


def _mixture_errors(fit, law):
    """Component-aligned estimation errors for a mixture fit."""
    est = (fit.tau, fit.alpha0_1, math.sqrt(fit.sigma_u2_1),
           fit.alpha0_2, math.sqrt(fit.sigma_u2_2))
    swapped = (1.0 - est[0], est[3], est[4], est[1], est[2])
    true = (law.tau, law.alpha0_1, law.sigma_u_1, law.alpha0_2, law.sigma_u_2)
    names = ("tau", "alpha0_1", "sigma_u_1", "alpha0_2", "sigma_u_2")
    dist = lambda cand: sum(abs(c - t) for c, t in zip(cand, true))
    chosen = est if dist(est) <= dist(swapped) else swapped
    return {n: c - t for n, c, t in zip(names, chosen, true)}


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
        thetas = np.vstack([f.theta for f in fit_all(panel, default_m(T))])

        stage = "selection"
        lam = default_lambda(N, T, config.c_lambda)
        report = select_K(panel, thetas, config.k_max, lam)
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
            panel, report.selected, config.c_tilde, mix_seed
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
            if refit:
                unique = fit_unique(composite_residual_stats(
                    panel, rec_true.assignment, rec_true.fits
                ))
            rec.errors["alpha0"] = unique.alpha0 - truth.law.alpha0
            rec.errors["sigma_u"] = math.sqrt(unique.sigma_u2) - truth.law.sigma_u
        else:
            if refit:
                _, _, mixture, _ = fit_levels(
                    panel, rec_true, config.c_tilde, mix_seed
                )
            rec.errors.update(_mixture_errors(mixture, truth.law))
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
        return {
            "N": self.N,
            "T": self.T,
            "replications": self.replications,
            "n_failed": self.n_failed,
            "k_freq": {str(k): v for k, v in self.k_freq.items()},
            "mean_cls_error": self.mean_cls_error,
            "freq_unique": self.freq_unique,
            "freq_mixture": self.freq_mixture,
            "bias": self.bias,
            "rmse": self.rmse,
        }


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
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    across grid points differ only through the constants.
    """
    out = []
    for cl in c_lambda_values:
        for ct in c_tilde_values:
            cfg = McConfig.from_dict(
                {**config.to_dict(), "c_lambda": float(cl), "c_tilde": float(ct)}
            )
            out.append((float(cl), float(ct), run_monte_carlo(cfg)))
    return out


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
