"""Pooled within-group estimation and selection of the group count (Step 3).

Within each candidate group the outcome and a longer sieve design are
demeaned firm by firm over time, pooled, and fit by OLS; the pooled sieve
length grows with the group's sample size. A group is fit from its
members' R factors, which Step 1 took (``FirmFits.factors``): one QR of
the factors restricted to its columns, folded ``_CHUNK`` firms at a time
(TSQR: Demmel, Grigori, Hoemmen & Langou 2012). Each fit keeps its
members' residual sums for Step 4. An information criterion

    IC(K) = sum_k { N_k T log(sigma_v_k) + N_k (T-1) } + lambda K

is evaluated for K = 1..K_max and minimized; the quadratic residual term
collapses to N_k (T-1) identically because sigma_v_k^2 is the within-group
mean squared residual with that normalization.
"""

from dataclasses import dataclass

import numpy as np

from .basis import nested_columns
from .errors import DegenerateICError, InputError, RankDeficientError, as_integer
from .estimation import _CHUNK, _RANK_DEFICIENT, _solve_triangles, default_m_under
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


def default_lambda(N, T, c_lambda=1.0):
    """Group-count penalty c * sqrt(NT) log(NT) / 2."""
    return c_lambda * np.sqrt(N * T) * np.log(N * T) / 2.0


def fit_group(factors, members, m_under):
    """Pooled OLS on within-demeaned data for one set of firms.

    ``factors`` is ``within_factors(panel, m)`` with m >= m_under. The
    members' R factors, restricted to Z(m_under)'s columns and y's, are
    stacked ``_CHUNK`` firms at a time and folded into one running
    triangle, R = qr([R; chunk]), which ``_solve_triangles`` solves for pi
    under lstsq's rule for the (N_k T, k) stacked design; r22^2 is the
    pooled residual sum of squares, so sigma_v^2 = r22^2 / (N_k (T-1)).
    Member i's S_i = T (ybar_i - zbar_i' pi) and W_i = |R_i (-pi, 1)|^2,
    its demeaned residuals' square sum, are formed chunk by chunk.
    ``members`` must be distinct firm indices in 0..N-1.
    """
    members = np.asarray(sorted(members))
    if members.size == 0:
        raise InputError("cannot fit an empty group")
    if (members.dtype.kind not in "iu" or members[0] < 0 or members[-1] >= factors.N
            or np.any(members[1:] == members[:-1])):
        raise InputError(
            f"group members must be distinct firm indices in 0..{factors.N - 1}, "
            f"got {members.tolist()[:10]}"
        )
    if not 2 <= m_under <= factors.m:
        raise InputError(f"m_under must be in 2..{factors.m}, got {m_under}")
    members = members.astype(int)
    cols = np.append(nested_columns(m_under, factors.m, factors.p), -1)  # y's column is last
    k = cols.size - 1

    def block(lo):  # the factors of members lo..lo + _CHUNK - 1 in the group's columns
        return factors.R[members[lo:lo + _CHUNK]][..., cols]

    R = np.linalg.qr(block(0).reshape(-1, k + 1), mode="r")
    for lo in range(_CHUNK, members.size, _CHUNK):
        R = np.linalg.qr(np.concatenate([R, block(lo).reshape(-1, k + 1)]), mode="r")
    if R.shape[0] <= k:  # fewer stacked rows than columns: R's missing rows are zero
        R = np.pad(R, ((0, k + 1 - R.shape[0]), (0, 0)))
    pi, rcond, failed = _solve_triangles(R[None], members.size * factors.T)
    if failed.size:
        raise RankDeficientError(_RANK_DEFICIENT.format(rcond[0]), rcond=float(rcond[0]))
    pi = pi[0]
    W = np.empty(members.size)
    for lo in range(0, members.size, _CHUNK):
        e = block(lo) @ np.append(-pi, 1.0)
        W[lo:lo + _CHUNK] = np.vecdot(e, e)
    sigma_v2 = float(R[k, k] ** 2) / (members.size * (factors.T - 1))
    return GroupFit(
        members=members,
        pi=pi,
        sigma_v=float(np.sqrt(sigma_v2)),
        m_under=m_under,
        S=factors.T * (factors.ybar[members] - factors.zbar[np.ix_(members, cols[:-1])] @ pi),
        W=W,
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
    the smaller K. The merge history is computed once and cut at each K,
    and the groups are fit from ``firm_fits.factors``. Cuts are nested, so
    a group recurs across K; each distinct member set is fit once
    (2 K_max - 1 fits at most) and its GroupFit shared by every record that
    holds it. ``K_max`` must be an integer, and ``firm_fits`` must hold the
    panel's N firms and T periods.
    """
    K_max = as_integer("K_max", K_max)
    factors = firm_fits.factors
    if factors.N != panel.N:
        raise InputError(
            f"firm_fits hold {factors.N} firms but the panel has N={panel.N}"
        )
    if factors.T != panel.T:
        raise InputError(
            f"firm_fits hold T={factors.T} periods but the panel has T={panel.T}"
        )
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
                    factors, members, default_m_under(len(members), panel.T)
                )
            fits.append(group_fits[key])
        records.append(KRecord(K=K, assignment=assignment, fits=fits, ic=ic_value(fits, lam, panel.T)))
    best = min(records, key=lambda r: (r.ic, r.K))
    return ICReport(lam=float(lam), records=records, selected_K=best.K)
