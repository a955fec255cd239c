"""End-to-end estimation: individual fits, grouping, selection, MLE.

Runs the five estimation stages on a balanced panel with the recommended
defaults: m = floor(T^(1/5)) sieve terms for the per-firm stage,
m = floor((Nk T)^(1/4.8)) for the pooled stage, penalty
sqrt(NT) log(NT) / 2 for the group count and sqrt(N) log(N) / 8 for the
mixture comparison, all scalable by constants.

``fit_levels`` runs Steps 4, 4' and 5 (the two level/inefficiency MLEs and
the penalized choice) on one partition; ``estimate_panel`` and the Monte
Carlo harness both call it. Standard errors are computed only by
``estimate_panel``, for the chosen model and, when its curvature allows,
the runner-up.
"""

import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .basis import coefficient_curves
from .errors import HessianError, InputError, as_integer, as_penalty
from .estimation import default_m, fit_all
from .inefficiency import (
    composite_residual_stats,
    default_lambda_tilde,
    firm_intercepts,
    fit_mixture,
    fit_unique,
    mixture_standard_errors,
    step5_select,
    unique_standard_errors,
)
from .postestimation import select_K


@dataclass
class EstimateResult:
    """Full output of one estimation run."""

    ic_report: object
    unique_fit: object
    mixture_fit: object
    choice: object
    intercepts: np.ndarray
    firm_ids: list
    metadata: dict = field(default_factory=dict)

    @property
    def selected_K(self):
        return self.ic_report.selected_K

    @property
    def assignment(self):
        return self.ic_report.selected.assignment

    @property
    def group_fits(self):
        return self.ic_report.selected.fits

    @property
    def sigma_v(self):
        return np.array([f.sigma_v for f in self.group_fits])

    @property
    def sigma_v_se(self):
        """Standard errors of sigma_v under normal noise."""
        T = self.metadata["n_periods"]
        return np.array(
            [f.sigma_v / np.sqrt(2.0 * f.size * (T - 1)) for f in self.group_fits]
        )

    def curves(self, grid_size=101):
        """Sample the fitted frontier curves on a uniform grid.

        Returns a list with one (grid_size, p + 2) array per group whose
        columns are s, alpha(s), beta_1(s), ..., beta_p(s).
        """
        grid = np.linspace(0.0, 1.0, grid_size)
        return [
            np.column_stack([grid, coefficient_curves(fit.pi, grid, fit.m_under)])
            for fit in self.group_fits
        ]

    def to_dict(self):
        mem = {
            fid: int(k)
            for fid, k in zip(self.firm_ids, self.assignment.membership)
        }
        groups = []
        for k, fit in enumerate(self.group_fits, start=1):
            groups.append(
                {
                    "label": k,
                    "size": int(fit.size),
                    "m_under": int(fit.m_under),
                    "sigma_v": float(fit.sigma_v),
                    "sigma_v_se": float(self.sigma_v_se[k - 1]),
                    "pi": [float(v) for v in fit.pi],
                    "firms": [self.firm_ids[i] for i in fit.members],
                }
            )
        return {
            "meta": self.metadata,
            "group_selection": {
                "k_max": self.metadata["k_max"],
                "lambda": float(self.ic_report.lam),
                "ic_by_k": {str(r.K): float(r.ic) for r in self.ic_report.records},
                "selected_k": int(self.selected_K),
            },
            "groups": groups,
            "membership": mem,
            "inefficiency": {
                "lambda_tilde": float(self.choice.lambda_tilde),
                "ic_unique": float(self.choice.ic_unique),
                "ic_mixture": float(self.choice.ic_mixture),
                "choice": self.choice.chosen,
                "unique": _fit_dict(self.unique_fit),
                "mixture": _fit_dict(self.mixture_fit),
            },
            "firm_intercepts": {
                fid: float(v) for fid, v in zip(self.firm_ids, self.intercepts)
            },
        }

    def summary_text(self):
        """Aligned text summary of the fitted model."""
        lines = []
        lines.append(f"Selected number of groups: {self.selected_K}")
        sizes = ", ".join(
            f"N{k}={f.size}" for k, f in enumerate(self.group_fits, start=1)
        )
        lines.append(f"Group sizes: {sizes}")
        lines.append("")
        header = [f"sigma_v({k})" for k in range(1, len(self.group_fits) + 1)]
        est, se_row = list(self.sigma_v), list(self.sigma_v_se)
        fit = self.mixture_fit if self.choice.chosen == "mixture" else self.unique_fit
        names = [f.name for f in fields(fit) if f.name not in ("loglik", "se")]
        se = fit.se if fit.se is not None else [np.nan] * len(names)
        for name, err in zip(names, se):
            value = getattr(fit, name)
            if name.startswith("sigma_u2"):
                # sigma_u = sqrt(sigma_u2), with its delta-method standard error
                value = np.sqrt(value)
                err = err / (2.0 * value)
                name = name.replace("sigma_u2", "sigma_u")
            header.append(re.sub(r"_(\d)$", r"(\1)", name))  # alpha0_1 -> alpha0(1)
            est.append(value)
            se_row.append(err)
        w = max(len(h) for h in header) + 2
        lines.append(f"Level/inefficiency model: {self.choice.chosen}")
        lines.append("".join(h.rjust(w) for h in header))
        lines.append("".join(f"{v:.4f}".rjust(w) for v in est))
        lines.append("".join(f"({v:.4f})".rjust(w) for v in se_row))
        lines.append("")
        lines.append("Note: standard errors in parentheses; a sigma_u = sqrt(sigma_u2)")
        lines.append("has the delta-method standard error se(sigma_u2) / (2 sigma_u).")
        return "\n".join(lines)


def _fit_dict(fit):
    """A level/inefficiency fit's fields as plain JSON values: numbers as
    floats, ``se`` as a list or None."""
    return {name: np.asarray(v).tolist() for name, v in asdict(fit).items()}


def fit_levels(panel, group_fits, c_tilde, seed):
    """Steps 4, 4' and 5 on one candidate partition.

    Fits the single half-normal law and the two-component mixture to the
    composite residuals under ``group_fits`` (one ``GroupFit`` per group)
    and chooses between them by penalized likelihood. Returns ``(stats,
    unique, mixture, choice)``; the fits carry no standard errors.
    """
    stats = composite_residual_stats(panel, group_fits)
    unique = fit_unique(stats)
    mixture = fit_mixture(stats, unique, seed=seed)
    choice = step5_select(unique, mixture,
                          default_lambda_tilde(panel.N, c_tilde))
    return stats, unique, mixture, choice


def estimate_panel(panel, m=None, k_max=4, c_lambda=1.0, c_tilde=1.0, seed=0):
    """Run the full estimation pipeline on a balanced panel.

    ``m`` (>= 1 when given), ``k_max`` and ``seed`` (>= 0) must be integers, and
    ``c_lambda`` and ``c_tilde`` finite real numbers >= 0; anything else
    raises ``InputError`` naming the argument.
    """
    k_max, seed = as_integer("k_max", k_max), as_integer("seed", seed, low=0)
    c_lambda, c_tilde = as_penalty("c_lambda", c_lambda), as_penalty("c_tilde", c_tilde)
    if m is not None:
        m = as_integer("m", m, low=1)
    if panel.N < 2:
        raise InputError("estimation requires at least 2 firms")
    if m is None:
        m = default_m(panel.T)
    report = select_K(fit_all(panel, m), k_max, c_lambda)
    group_fits = report.selected.fits
    stats, unique, mixture, choice = fit_levels(panel, group_fits, c_tilde, seed)
    # the chosen model must deliver standard errors; the runner-up is
    # best effort (its curvature can be degenerate when it collapses)
    for fit, se_fn in ((unique, unique_standard_errors),
                       (mixture, mixture_standard_errors)):
        chosen = (fit is unique) == (choice.chosen == "unique")
        try:
            fit.se = se_fn(stats, fit)
        except HessianError:
            if chosen:
                raise
            fit.se = None
    intercepts = firm_intercepts(stats)

    metadata = {
        "n_firms": panel.N,
        "n_periods": panel.T,
        "n_regressors": panel.p,
        "m": int(m),
        "m_under_by_group": [int(f.m_under) for f in group_fits],
        "k_max": int(k_max),
        "c_lambda": c_lambda,
        "c_tilde": c_tilde,
        "lambda": report.lam,
        "lambda_tilde": choice.lambda_tilde,
        "seed": int(seed),
    }
    return EstimateResult(
        ic_report=report, unique_fit=unique,
        mixture_fit=mixture, choice=choice, intercepts=intercepts,
        firm_ids=list(panel.firm_ids), metadata=metadata,
    )
