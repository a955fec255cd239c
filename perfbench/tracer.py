"""Span tracer for groupsfa, installed from outside the package.

The tracer rebinds groupsfa's public functions at the module that imports
them (``pipeline.select_K``, ``postestimation.hac_cluster``,
``cli.read_panel_csv`` ...), so every call that crosses a module boundary
records one span: name, start, end, parent span and item id. Spans are
named after the module that defines the function, which is the layer the
per-layer metrics are reported for.

The likelihood kernels are called thousands of times per panel, so they
get counters (calls, firm terms, time) instead of spans. scipy's
``minimize`` as bound in ``inefficiency`` gets a marker per call that
records its start point, end point, value, iterations and success, from
which multistart outcomes are derived.

A missing rebinding target raises ``TraceTargetError`` when the tracer is
installed, and a binding that a workload relies on but that never fired
raises it after the run, so a refactor that moves a call cannot silently
drop a layer from the trace.
"""

import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class TraceTargetError(RuntimeError):
    """A rebinding target is missing, or a required binding never fired."""


SPAN, KERNEL, OPTIMIZER = "span", "kernel", "optimizer"


def _firms(args, kwargs, out):
    return {"firms": args[0].N}


def _cost_shape(args, kwargs, out):
    n, d = np.shape(args[0])
    return {"n": n, "d": d}


def _members(args, kwargs, out):
    members = tuple(int(i) for i in sorted(args[1]))
    return {"members": members, "rows": len(members) * args[0].T}


def _rows(args, kwargs, out):
    return {"rows": out.N * out.T}


def _loglik(args, kwargs, out):
    return {"loglik": float(out.loglik)}


# (site module, attribute, kind, span name, info extractor)
BINDINGS = (
    ("groupsfa.pipeline", "fit_all", SPAN, "estimation.fit_all", _firms),
    ("groupsfa.pipeline", "select_K", SPAN, "postestimation.select_K", None),
    ("groupsfa.pipeline", "composite_residual_stats", SPAN,
     "inefficiency.composite_residual_stats", None),
    ("groupsfa.pipeline", "fit_unique", SPAN, "inefficiency.fit_unique", None),
    ("groupsfa.pipeline", "fit_mixture", SPAN, "inefficiency.fit_mixture", _loglik),
    ("groupsfa.pipeline", "unique_standard_errors", SPAN,
     "inefficiency.unique_standard_errors", None),
    ("groupsfa.pipeline", "mixture_standard_errors", SPAN,
     "inefficiency.mixture_standard_errors", None),
    ("groupsfa.postestimation", "hac_cluster", SPAN, "grouping.hac_cluster", _cost_shape),
    ("groupsfa.postestimation", "fit_group", SPAN, "postestimation.fit_group", _members),
    ("groupsfa.montecarlo", "run_replication", SPAN, "montecarlo.run_replication", None),
    ("groupsfa.montecarlo", "generate", SPAN, "dgp.generate", None),
    ("groupsfa.montecarlo", "fit_all", SPAN, "estimation.fit_all", _firms),
    ("groupsfa.montecarlo", "select_K", SPAN, "postestimation.select_K", None),
    ("groupsfa.montecarlo", "aggregate", SPAN, "montecarlo.aggregate", None),
    ("groupsfa.cli", "read_panel_csv", SPAN, "panel.read_panel_csv", _rows),
    ("groupsfa.cli", "estimate_panel", SPAN, "pipeline.estimate_panel", None),
    ("groupsfa.inefficiency", "minimize", OPTIMIZER, "scipy.minimize", None),
    ("groupsfa.inefficiency", "loglik_mixture_total", KERNEL, "kernels", None),
    ("groupsfa.inefficiency", "loglik_unique_total", KERNEL, "kernels", None),
)

# A span with one of these names opens a new item unless an item is open.
ITEM_SPANS = frozenset(
    {"pipeline.estimate_panel", "cli.main", "montecarlo.run_replication"}
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    item: int
    end: float = 0.0
    kernel_s: float = 0.0  # kernel time spent directly inside this span
    kernel_calls: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class KernelCounters:
    calls: int = 0
    firm_terms: int = 0
    seconds: float = 0.0


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans = []
        self.kernels = KernelCounters()
        self.fired = {}
        self._stack = []
        self._items = 0
        self._saved = []

    # --- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        resolved, missing = [], []
        for site, attr, kind, name, info in self.bindings:
            module = importlib.import_module(site)
            target = getattr(module, attr, None)
            if not callable(target):
                missing.append(f"{site}.{attr}")
            resolved.append((module, attr, target, kind, name, info))
        if missing:
            raise TraceTargetError(
                "rebinding targets no longer exist: " + ", ".join(missing)
                + "; update perfbench/tracer.py BINDINGS to the new call sites"
            )
        for module, attr, target, kind, name, info in resolved:
            key = f"{module.__name__}.{attr}"
            self.fired[key] = 0
            if kind == SPAN:
                wrapper = self._span(name, target, info, key)
            elif kind == KERNEL:
                wrapper = self._kernel(target, key)
            else:
                wrapper = self._optimizer(target, key)
            self._saved.append((module, attr, target))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, target = self._saved.pop()
            setattr(module, attr, target)

    def require_fired(self, keys):
        """Raise unless every named binding was called at least once."""
        silent = [k for k in keys if not self.fired.get(k)]
        if silent:
            raise TraceTargetError(
                "bindings never fired, so their layers are missing from the "
                "trace: " + ", ".join(silent)
            )

    # --- wrappers -----------------------------------------------------------

    def entry(self, name, fn):
        """Wrap the benchmark's own call into the package as a span."""
        return self._span(name, fn, None, None)

    def _span(self, name, fn, info, key):
        def traced(*args, **kwargs):
            if key is not None:
                self.fired[key] += 1
            parent = self._stack[-1] if self._stack else -1
            item = self.spans[parent].item if parent >= 0 else -1
            if name in ITEM_SPANS and not self._in_item():
                item = self._items
                self._items += 1
            span = Span(name=name, start=perf_counter(), parent=parent, item=item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if info is not None:
                span.info.update(info(args, kwargs, out))
            return out

        return traced

    def _in_item(self):
        return any(self.spans[i].name in ITEM_SPANS for i in self._stack)

    def _kernel(self, fn, key):
        counters = self.kernels

        def counted(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self.fired[key] += 1
            counters.calls += 1
            counters.firm_terms += len(args[0])
            counters.seconds += dt
            if self._stack:
                span = self.spans[self._stack[-1]]
                span.kernel_s += dt
                span.kernel_calls += 1
            return out

        return counted

    def _optimizer(self, fn, key):
        def marked(fun, x0, *args, **kwargs):
            self.fired[key] += 1
            x_start = np.array(x0, dtype=float)
            res = fn(fun, x0, *args, **kwargs)
            if self._stack:
                self.spans[self._stack[-1]].info.setdefault("opt", []).append({
                    "x0": x_start,
                    "x": np.array(res.x, dtype=float),
                    "fun": float(res.fun),
                    "nit": int(getattr(res, "nit", 0)),
                    "success": bool(res.success),
                })
            return res

        return marked

    # --- output -------------------------------------------------------------

    @property
    def items(self):
        return self._items

    def self_times(self):
        """Each span's duration minus its child spans and its kernel time."""
        own = [s.end - s.start - s.kernel_s for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item, "kernel_s": s.kernel_s,
                    "kernel_calls": s.kernel_calls,
                }) + "\n")


# --- per-layer metrics --------------------------------------------------------

# span name -> metric that receives the span's self time
SELF_TIME_METRIC = {
    "dgp.generate": "dgp.generate_s",
    "estimation.fit_all": "estimation.fit_all_s",
    "grouping.hac_cluster": "grouping.hac_cluster_s",
    "postestimation.fit_group": "postestimation.fit_group_s",
    "postestimation.select_K": "postestimation.select_K_self_s",
    "inefficiency.composite_residual_stats": "inefficiency.composite_stats_s",
    "inefficiency.fit_unique": "inefficiency.fit_unique_s",
    "inefficiency.fit_mixture": "inefficiency.fit_mixture_s",
    "inefficiency.unique_standard_errors": "inefficiency.se_s",
    "inefficiency.mixture_standard_errors": "inefficiency.se_s",
    "panel.read_panel_csv": "panel.read_csv_s",
    "cli.main": "cli.self_s",
    "pipeline.estimate_panel": "pipeline.self_s",
    "montecarlo.run_monte_carlo": "montecarlo.self_s",
    "montecarlo.run_replication": "montecarlo.self_s",
    "montecarlo.aggregate": "montecarlo.aggregate_s",
}

# A multistart start has reached the best optimum when its value is within
# this relative distance of the reported maximum; distinct local optima of
# the reference designs are several log-likelihood units apart.
AT_BEST_RTOL = 1e-6

KERNEL_INPUT_ARRAYS = 3  # S, Q and sigma_v2, float64, read once per call


def _starts(opt_calls):
    """Group optimizer calls into starts: a pass that begins where the
    previous pass ended polishes the same start."""
    starts, prev = [], None
    for call in opt_calls:
        if prev is None or not np.array_equal(call["x0"], prev):
            starts.append([])
        starts[-1].append(call)
        prev = call["x"]
    return starts


def layer_metrics(tracer):
    """Per-item means of every per-layer metric, plus a few per-cell counts."""
    n_items = max(tracer.items, 1)
    totals = {m: 0.0 for m in set(SELF_TIME_METRIC.values())}
    counts = {
        "dgp.calls": 0, "estimation.firms_fit": 0, "grouping.cost_bytes": 0,
        "postestimation.fit_group_calls": 0, "postestimation.fit_group_distinct": 0,
        "postestimation.rows_stacked": 0, "inefficiency.mixture_evals": 0,
        "inefficiency.unique_evals": 0, "inefficiency.se_evals": 0,
        "inefficiency.optimizer_iters": 0, "inefficiency.starts": 0,
        "inefficiency.starts_at_best": 0, "inefficiency.start_failures": 0,
        "panel.rows_read": 0,
    }
    mixture_iters = 0
    cells = replications = 0
    member_sets = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        metric = SELF_TIME_METRIC.get(span.name)
        if metric is not None:
            totals[metric] += own
        info = span.info
        for call in info.get("opt", ()):
            counts["inefficiency.optimizer_iters"] += call["nit"]
        if span.name == "dgp.generate":
            counts["dgp.calls"] += 1
        elif span.name == "estimation.fit_all":
            counts["estimation.firms_fit"] += info["firms"]
        elif span.name == "grouping.hac_cluster":
            n, d = info["n"], info["d"]
            # N x N cost matrix plus the N x N x d difference tensor, float64
            counts["grouping.cost_bytes"] += 8 * n * n * (1 + d)
        elif span.name == "postestimation.fit_group":
            counts["postestimation.fit_group_calls"] += 1
            counts["postestimation.rows_stacked"] += info["rows"]
            member_sets.setdefault(span.parent, set()).add(info["members"])
        elif span.name == "inefficiency.fit_unique":
            counts["inefficiency.unique_evals"] += span.kernel_calls
        elif span.name == "inefficiency.fit_mixture":
            counts["inefficiency.mixture_evals"] += span.kernel_calls
            best = info.get("loglik")
            for start in _starts(info.get("opt", ())):
                counts["inefficiency.starts"] += 1
                mixture_iters += sum(c["nit"] for c in start)
                value = -min(c["fun"] for c in start)
                if best is not None and value >= best - AT_BEST_RTOL * abs(best):
                    counts["inefficiency.starts_at_best"] += 1
                if not any(c["success"] for c in start):
                    counts["inefficiency.start_failures"] += 1
        elif span.name.endswith("_standard_errors"):
            counts["inefficiency.se_evals"] += span.kernel_calls
        elif span.name == "panel.read_panel_csv":
            counts["panel.rows_read"] += info["rows"]
        elif span.name == "montecarlo.run_monte_carlo":
            cells += 1
        elif span.name == "montecarlo.run_replication":
            replications += 1
    counts["postestimation.fit_group_distinct"] = sum(len(s) for s in member_sets.values())

    out = {m: v / n_items for m, v in totals.items()}
    out.update({m: v / n_items for m, v in counts.items()})
    k = tracer.kernels
    out["kernels.eval_s"] = k.seconds / n_items
    out["kernels.calls"] = k.calls / n_items
    out["kernels.firm_terms"] = k.firm_terms / n_items
    out["kernels.bytes_computed"] = 8 * KERNEL_INPUT_ARRAYS * k.firm_terms / n_items
    out["postestimation.fit_group_distinct_frac"] = _ratio(
        counts["postestimation.fit_group_distinct"], counts["postestimation.fit_group_calls"])
    starts = counts["inefficiency.starts"]
    out["inefficiency.starts_at_best_frac"] = _ratio(counts["inefficiency.starts_at_best"], starts)
    out["inefficiency.evals_per_start"] = _ratio(counts["inefficiency.mixture_evals"], starts)
    out["inefficiency.iters_per_start"] = _ratio(mixture_iters, starts)
    out["montecarlo.replications"] = _ratio(replications, cells)
    out["trace.items"] = tracer.items
    return out


def _ratio(num, den):
    """num / den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0
