"""Pooled within-group estimation and selection of the group count (Step 3).

Within each candidate group the outcome and a longer sieve design are
demeaned firm by firm over time, pooled, and fit by OLS. The pooled sieve
length grows with the group's sample size. An information criterion

    IC(K) = sum_k { N_k T log(sigma_v_k) + N_k (T-1) } + lambda K

is evaluated for K = 1..K_max and minimized; the quadratic residual term
collapses to N_k (T-1) identically because sigma_v_k^2 is the within-group
mean squared residual with that normalization.
"""

from dataclasses import dataclass

import numpy as np

from .basis import basis_value, design_matrix, within_demean
from .errors import DegenerateICError, InputError
from .estimation import _solve_ls
from .grouping import hac_cluster


@dataclass
class GroupFit:
    """Pooled sieve coefficients and noise level for one group."""

    members: np.ndarray
    pi: np.ndarray
    sigma_v: float
    m_under: int

    @property
    def size(self):
        return len(self.members)


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


def default_m_under(Nk, T):
    """Pooled sieve length floor((Nk*T)^(1/4.8)), floored at 2."""
    if Nk * T < 2:
        raise InputError(f"pooled sample too small: Nk*T = {Nk * T}")
    return max(2, int(np.floor((Nk * T) ** (1.0 / 4.8))))


def default_lambda(N, T, c_lambda=1.0):
    """Group-count penalty c * sqrt(NT) log(NT) / 2."""
    return c_lambda * np.sqrt(N * T) * np.log(N * T) / 2.0


def fit_group(panel, members, m_under):
    """Pooled OLS on within-demeaned data for one set of firms.

    sigma_v^2 is the pooled residual sum of squares over N_k (T-1).
    """
    members = np.asarray(sorted(members), dtype=int)
    if members.size == 0:
        raise InputError("cannot fit an empty group")
    T = panel.T
    rows = []
    ys = []
    for i in members:
        Zi = design_matrix(panel.x[i], m_under, with_intercept=False)
        rows.append(within_demean(Zi, axis=0))
        ys.append(within_demean(panel.y[i]))
    Z = np.vstack(rows)
    yv = np.concatenate(ys)
    coef, resid = _solve_ls(Z, yv)
    sigma_v2 = float(resid @ resid) / (members.size * (T - 1))
    return GroupFit(
        members=members,
        pi=coef,
        sigma_v=float(np.sqrt(sigma_v2)),
        m_under=m_under,
    )


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


def select_K(panel, thetas, K_max, lam):
    """Cluster, fit, and score every K = 1..K_max; pick the minimizer.

    Ties are broken toward the smaller K. The merge history is computed
    once and cut at each K. Cuts are nested, so a group recurs across K;
    each distinct member set is fit once (2 K_max - 1 fits at most) and
    its GroupFit shared by every record that holds it.
    """
    if K_max < 1:
        raise InputError(f"K_max must be >= 1, got {K_max}")
    if K_max > panel.N:
        raise InputError(
            f"K_max={K_max} exceeds the number of firms N={panel.N}"
        )
    _, history = hac_cluster(np.asarray(thetas, dtype=float), 1)
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
                    panel, members, default_m_under(len(members), panel.T)
                )
            fits.append(group_fits[key])
        records.append(KRecord(K=K, assignment=assignment, fits=fits, ic=ic_value(fits, lam, panel.T)))
    best = min(records, key=lambda r: (r.ic, r.K))
    return ICReport(lam=float(lam), records=records, selected_K=best.K)


def frontier_eval(fit, s):
    """Evaluate the fitted frontier curves at s in [0, 1].

    Returns (alpha(s), beta_1(s), ..., beta_p(s)) from the coefficient
    blocks: the intercept curve uses the zero-mean basis, each slope curve
    the full basis.
    """
    if not 0.0 <= s <= 1.0:
        raise InputError(f"frontier argument must lie in [0, 1], got {s}")
    m = fit.m_under
    p = (len(fit.pi) - (m - 1)) // m
    b = np.array([basis_value(j, s) for j in range(m)])
    out = np.empty(p + 1)
    out[0] = fit.pi[: m - 1] @ b[1:]
    for l in range(p):
        start = (m - 1) + l * m
        out[l + 1] = fit.pi[start : start + m] @ b
    return out
