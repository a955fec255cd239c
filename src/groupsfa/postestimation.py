"""Selection of the group count (Step 3).

Each candidate partition's groups are fit by pooled within-group OLS
(``estimation.fit_group``), the pooled sieve length growing with the
group's sample size. An information criterion

    IC(K) = sum_k { N_k T log(sigma_v_k) + N_k (T-1) } + lambda K

is evaluated for K = 1..K_max and minimized; the quadratic residual term
collapses to N_k (T-1) identically because sigma_v_k^2 is the within-group
mean squared residual with that normalization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateICError, InputError, as_integer, as_penalty
from .estimation import default_m_under, fit_group
from .grouping import hac_cluster


@dataclass
class KRecord:
    """One candidate partition with its fits and criterion value."""

    K: int
    assignment: object
    fits: list
    ic: float


@dataclass
class ICReport:
    lam: float
    records: list
    selected_K: int

    @property
    def selected(self):
        return self.records[self.selected_K - 1]


def default_lambda(N, T, c_lambda=1.0):
    """Group-count penalty c * sqrt(NT) log(NT) / 2."""
    return c_lambda * np.sqrt(N * T) * np.log(N * T) / 2.0


def ic_value(group_fits, lam, T):
    """Information criterion for one candidate K given its group fits."""
    total = 0.0
    for fit in group_fits:
        if fit.sigma_v <= 0.0:
            raise DegenerateICError(
                f"group with members {fit.members.tolist()} has zero residual "
                "variance; the criterion is undefined"
            )
        Nk = fit.size
        total += Nk * T * np.log(fit.sigma_v) + Nk * (T - 1)
    return float(total + lam * len(group_fits))


def select_K(firm_fits, K_max, c_lambda):
    """Cluster, fit, and score every K = 1..K_max; pick the minimizer.

    The features are ``firm_fits.features``, from ``fit_all``, and the
    penalty is ``default_lambda(N, T, c_lambda)`` for the N firms and T
    periods of ``firm_fits.factors``. Ties are broken toward the smaller K.
    The merge history is computed once and cut at each K, and the groups
    are fit from ``firm_fits.factors``. Cuts are nested, so a group recurs
    across K; each distinct member set is fit once (2 K_max - 1 fits at
    most) and its GroupFit shared by every record that holds it.
    ``K_max`` must be an integer in 1..N and ``c_lambda`` a finite real
    number >= 0.
    """
    factors = firm_fits.factors
    N, T = factors.N, factors.T
    K_max = as_integer("K_max", K_max, low=1)
    if K_max > N:
        raise InputError(f"K_max={K_max} exceeds the number of firms N={N}")
    lam = default_lambda(N, T, as_penalty("c_lambda", c_lambda))
    history = hac_cluster(firm_fits.features)
    group_fits = {}
    records = []
    for K in range(1, K_max + 1):
        assignment = history.cut(K)
        fits = []
        for k in range(1, K + 1):
            members = assignment.members(k)
            key = members.tobytes()
            if key not in group_fits:
                group_fits[key] = fit_group(
                    factors, members, default_m_under(len(members), T)
                )
            fits.append(group_fits[key])
        records.append(KRecord(K=K, assignment=assignment, fits=fits, ic=ic_value(fits, lam, T)))
    best = min(records, key=lambda r: (r.ic, r.K))
    return ICReport(lam=float(lam), records=records, selected_K=best.K)
