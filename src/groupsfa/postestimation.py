"""Pooled within-group estimation and selection of the group count (Step 3).

Within each candidate group the outcome and a longer sieve design are
demeaned firm by firm over time, pooled, and fit by OLS; the design is
built once per group as an (N_k, T, cols) array. The pooled sieve
length grows with the group's sample size; each fit keeps its members'
residual sums for Step 4. An information criterion

    IC(K) = sum_k { N_k T log(sigma_v_k) + N_k (T-1) } + lambda K

is evaluated for K = 1..K_max and minimized; the quadratic residual term
collapses to N_k (T-1) identically because sigma_v_k^2 is the within-group
mean squared residual with that normalization.
"""

from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import DegenerateICError, InputError, as_integer
from .estimation import _solve_ls
from .grouping import hac_cluster


@dataclass
class GroupFit:
    """Pooled sieve coefficients and noise level for one group, and its
    members' residual sums S and W (``fit_group``), aligned with members."""

    members: np.ndarray
    pi: np.ndarray
    sigma_v: float
    m_under: int
    S: np.ndarray
    W: np.ndarray

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

    sigma_v^2 is the pooled residual sum of squares over N_k (T-1). Member
    i's S_i = T (ybar_i - zbar_i' pi), W_i its demeaned residuals' square sum.
    ``members`` must be distinct firm indices in 0..N-1.
    """
    members = np.asarray(sorted(members))
    if members.size == 0:
        raise InputError("cannot fit an empty group")
    if (members.dtype.kind not in "iu" or members[0] < 0 or members[-1] >= panel.N
            or np.any(members[1:] == members[:-1])):
        raise InputError(
            f"group members must be distinct firm indices in 0..{panel.N - 1}, "
            f"got {members.tolist()[:10]}"
        )
    members = members.astype(int)
    Z = design_matrix(panel.x[members], m_under, False)
    zbar = Z.mean(axis=1)
    Z -= zbar[:, None, :]
    y = panel.y[members]
    ybar = y.mean(axis=1, keepdims=True)
    coef, resid = _solve_ls(Z.reshape(-1, Z.shape[-1]), (y - ybar).ravel())
    sigma_v2 = float(resid @ resid) / (members.size * (panel.T - 1))
    e = resid.reshape(members.size, panel.T)
    return GroupFit(
        members=members,
        pi=coef,
        sigma_v=float(np.sqrt(sigma_v2)),
        m_under=m_under,
        S=panel.T * (ybar[:, 0] - zbar @ coef),
        W=np.vecdot(e, e),
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


def select_K(panel, firm_fits, K_max, c_lambda):
    """Cluster, fit, and score every K = 1..K_max; pick the minimizer.

    The features are ``firm_fits.features``, from ``fit_all``, and the
    penalty is ``default_lambda(N, T, c_lambda)``. Ties are broken toward
    the smaller K. The merge history is computed once and cut at each K.
    Cuts are nested, so a group recurs across K; each distinct member set
    is fit once (2 K_max - 1 fits at most) and its GroupFit shared by
    every record that holds it. ``K_max`` must be an integer.
    """
    K_max = as_integer("K_max", K_max)
    if K_max < 1:
        raise InputError(f"K_max must be >= 1, got {K_max}")
    if K_max > panel.N:
        raise InputError(
            f"K_max={K_max} exceeds the number of firms N={panel.N}"
        )
    history = hac_cluster(firm_fits.features)
    lam = default_lambda(panel.N, panel.T, c_lambda)
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
