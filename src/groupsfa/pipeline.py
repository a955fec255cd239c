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

from dataclasses import dataclass, field

import numpy as np

from .errors import HessianError, InputError
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
from .postestimation import default_lambda, frontier_eval, select_K


@dataclass
class EstimateResult:
    """Full output of one estimation run."""

    m: int
    k_max: int
    lam: float
    lam_tilde: float
    ic_report: object
    assignment: object
    group_fits: list
    sigma_v_se: np.ndarray
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
    def sigma_v(self):
        return np.array([f.sigma_v for f in self.group_fits])

    def curves(self, grid_size=101):
        """Sample the fitted frontier curves on a uniform grid.

        Returns a list with one (grid_size, p + 2) array per group whose
        columns are s, alpha(s), beta_1(s), ..., beta_p(s).
        """
        grid = np.linspace(0.0, 1.0, grid_size)
        out = []
        for fit in self.group_fits:
            rows = np.column_stack(
                [grid, np.array([frontier_eval(fit, s) for s in grid])]
            )
            out.append(rows)
        return out

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
        u = self.unique_fit
        m = self.mixture_fit
        return {
            "meta": self.metadata,
            "group_selection": {
                "k_max": self.k_max,
                "lambda": float(self.lam),
                "ic_by_k": {str(r.K): float(r.ic) for r in self.ic_report.records},
                "selected_k": int(self.selected_K),
            },
            "groups": groups,
            "membership": mem,
            "inefficiency": {
                "lambda_tilde": float(self.lam_tilde),
                "ic_unique": float(self.choice.ic_unique),
                "ic_mixture": float(self.choice.ic_mixture),
                "choice": self.choice.chosen,
                "unique": {
                    "alpha0": float(u.alpha0),
                    "sigma_u2": float(u.sigma_u2),
                    "loglik": float(u.loglik),
                    "se": [float(v) for v in u.se] if u.se is not None else None,
                },
                "mixture": {
                    "tau": float(m.tau),
                    "alpha0_1": float(m.alpha0_1),
                    "sigma_u2_1": float(m.sigma_u2_1),
                    "alpha0_2": float(m.alpha0_2),
                    "sigma_u2_2": float(m.sigma_u2_2),
                    "loglik": float(m.loglik),
                    "se": [float(v) for v in m.se] if m.se is not None else None,
                },
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
        if self.choice.chosen == "mixture":
            mf = self.mixture_fit
            header += ["tau", "alpha0(1)", "sigma_u(1)", "alpha0(2)", "sigma_u(2)"]
            est = list(self.sigma_v) + [
                mf.tau, mf.alpha0_1, np.sqrt(mf.sigma_u2_1),
                mf.alpha0_2, np.sqrt(mf.sigma_u2_2),
            ]
            se_row = list(self.sigma_v_se) + (
                [float(v) for v in mf.se] if mf.se is not None else [np.nan] * 5
            )
        else:
            uf = self.unique_fit
            header += ["alpha0", "sigma_u"]
            est = list(self.sigma_v) + [uf.alpha0, np.sqrt(uf.sigma_u2)]
            se_row = list(self.sigma_v_se) + (
                [float(v) for v in uf.se] if uf.se is not None else [np.nan] * 2
            )
        w = max(len(h) for h in header) + 2
        lines.append(f"Level/inefficiency model: {self.choice.chosen}")
        lines.append("".join(h.rjust(w) for h in header))
        lines.append("".join(f"{v:.4f}".rjust(w) for v in est))
        lines.append("".join(f"({v:.4f})".rjust(w) for v in se_row))
        lines.append("")
        lines.append("Note: standard errors in parentheses; mixture standard")
        lines.append("errors are for (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2).")
        return "\n".join(lines)


def fit_levels(panel, record, c_tilde, seed):
    """Steps 4, 4' and 5 on one candidate partition.

    Fits the single half-normal law and the two-component mixture to the
    composite residuals of ``record`` (a ``KRecord``) and chooses between
    them by penalized likelihood. Returns ``(stats, unique, mixture,
    choice)``; the fits carry no standard errors.
    """
    stats = composite_residual_stats(panel, record.assignment, record.fits)
    unique = fit_unique(stats)
    mixture = fit_mixture(stats, unique, seed=seed)
    choice = step5_select(unique, mixture,
                          default_lambda_tilde(panel.N, c_tilde))
    return stats, unique, mixture, choice


def estimate_panel(panel, m=None, k_max=4, c_lambda=1.0, c_tilde=1.0, seed=0):
    """Run the full estimation pipeline on a balanced panel."""
    if panel.N < 2:
        raise InputError("estimation requires at least 2 firms")
    if m is None:
        m = default_m(panel.T)
    firm_fits = fit_all(panel, m)
    thetas = np.vstack([f.theta for f in firm_fits])

    lam = default_lambda(panel.N, panel.T, c_lambda)
    report = select_K(panel, thetas, k_max, lam)
    record = report.selected
    assignment, group_fits = record.assignment, record.fits

    # residual-variance standard error under normal noise
    sigma_v_se = np.array(
        [f.sigma_v / np.sqrt(2.0 * f.size * (panel.T - 1)) for f in group_fits]
    )

    stats, unique, mixture, choice = fit_levels(panel, record, c_tilde, seed)
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
        "c_lambda": float(c_lambda),
        "c_tilde": float(c_tilde),
        "lambda": float(lam),
        "lambda_tilde": choice.lambda_tilde,
        "seed": int(seed),
    }
    return EstimateResult(
        m=m, k_max=k_max, lam=float(lam), lam_tilde=choice.lambda_tilde,
        ic_report=report, assignment=assignment, group_fits=group_fits,
        sigma_v_se=sigma_v_se, unique_fit=unique, mixture_fit=mixture,
        choice=choice, intercepts=intercepts, firm_ids=list(panel.firm_ids),
        metadata=metadata,
    )
