"""Per-firm sieve regressions (Step 1), their per-firm factors, and the
pooled group fits (Step 3) made from those factors.

Each firm's outcome series is regressed on its sieve design with intercept.
The slope block together with the residual variance forms the feature
vector used later for classification (``FirmFits.features``); the
intercept estimates the firm's level term and is excluded from
classification. Each firm's demeaned [Z | y] is factored once per panel
(``within_factors``). By Frisch-Waugh the slopes and residual sum of
squares are those of the demeaned regression, read from the factor's
Z(m) columns (Golub & Van Loan 6.5), and the intercept is ybar - zbar' b.

Step 3 fits a group from its members' factors (``fit_group``): one QR of
the factors restricted to its columns, folded ``_CHUNK`` firms at a time
(TSQR: Demmel, Grigori, Hoemmen & Langou 2012), whose triangle gives the
pooled within-group OLS fit. Each fit keeps its members' residual sums
for Step 4.
"""

from dataclasses import dataclass

import numpy as np

from .basis import design_matrix, nested_columns
from .errors import InputError, RankDeficientError

RCOND_MIN = 1e-10
# firms per design build and factorization, per firm and per group
_CHUNK = 256
_RANK_DEFICIENT = "design matrix numerically rank deficient (reciprocal condition number {:.2e})"


@dataclass(frozen=True)
class WithinFactors:
    """Each firm's within-demeaned [Z(m) | y] reduced to its R factor.

    Z(m) has c = (m - 1) + m p columns in the ``design_matrix`` layout,
    without intercept. R is (N, min(T, c + 1), c + 1): firm i's R_i
    satisfies R_i' R_i = A_i' A_i for its demeaned A_i = [Z_i | y_i], with
    no zero rows added when T < c + 1. zbar (N, c) and ybar (N,) are the
    firm means that the demeaning removed.
    """

    R: np.ndarray
    zbar: np.ndarray
    ybar: np.ndarray
    m: int
    p: int
    N: int
    T: int


@dataclass
class FirmFits:
    """OLS results of every firm at sieve length m.

    coef is (N, cols): each firm's level term, then its (m-1) + m*p slope
    coefficients. sigma_v2 is (N,): each firm's residual variance, the sum
    of squared residuals over T-1. factors, the panel's ``WithinFactors``,
    are what Step 3 fits its groups from.
    """

    coef: np.ndarray
    sigma_v2: np.ndarray
    factors: WithinFactors

    @property
    def features(self):
        """(N, d) classification features: slopes, then residual variance.

        The variance form separates noise-level groups far more sharply
        than the standard deviation would.
        """
        return np.column_stack([self.coef[:, 1:], self.sigma_v2])


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


def default_m(T):
    """Default sieve length floor(T^(1/5)), floored at 2.

    The floor keeps the time-varying intercept block nonempty; with m = 1
    the intercept curve would have no free coefficient.
    """
    if T < 2:
        raise InputError(f"need T >= 2, got {T}")
    return max(2, int(np.floor(T ** 0.2)))


def default_m_under(Nk, T):
    """Pooled sieve length floor((Nk*T)^(1/4.8)), floored at 2."""
    if Nk * T < 2:
        raise InputError(f"pooled sample too small: Nk*T = {Nk * T}")
    return max(2, int(np.floor((Nk * T) ** (1.0 / 4.8))))


def min_periods(m, p):
    """Fewest periods a per-firm fit with sieve length m and p regressors needs."""
    return m * (p + 1) + 2


def within_factors(panel, m):
    """Factor every firm's within-demeaned [Z(m) | y], ``_CHUNK`` firms per
    batched QR."""
    N, T, p = panel.N, panel.T, panel.p
    c = (m - 1) + m * p
    R = np.empty((N, min(T, c + 1), c + 1))
    means = np.empty((N, c + 1))
    for lo in range(0, N, _CHUNK):
        A = np.concatenate(
            [design_matrix(panel.x[lo:lo + _CHUNK], m), panel.y[lo:lo + _CHUNK, :, None]],
            axis=-1,
        )
        mean = np.ones(T) @ A / T  # one BLAS pass; A.mean(axis=1) is several times slower
        A -= mean[:, None, :]
        means[lo:lo + _CHUNK] = mean
        R[lo:lo + _CHUNK] = np.linalg.qr(A, mode="r")
    return WithinFactors(R=R, zbar=means[:, :c], ybar=means[:, c], m=m, p=p, N=N, T=T)


def _solve_triangles(R, n_rows):
    """Solve fits of y on k columns from their (n, k + 1, k + 1) R factors
    [[R11, r12], [0, r22]]: coef (n, k) by back substitution of
    R11 coef = r12, with residual sum of squares r22^2. A fit is rank
    deficient, as for lstsq on ``n_rows`` rows, when R11's singular values
    give a rank below k (its rcond then reads 0) or an rcond below
    ``RCOND_MIN``. Returns (coef, rcond, indices of the rank-deficient
    fits); coef is None if any are.
    """
    k = R.shape[-1] - 1
    sv = np.linalg.svd(R[:, :k, :k], compute_uv=False)
    # lstsq's default cutoff for an (n_rows, k) design; below full rank the
    # singular-value ratio is rounding noise of the factorization, so rcond is 0
    rank = np.sum(sv > sv[:, :1] * np.finfo(float).eps * max(n_rows, k), axis=1)
    rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=rank == k)
    failed = np.flatnonzero(~(rcond >= RCOND_MIN))
    if failed.size:
        return None, rcond, failed
    coef = np.empty((R.shape[0], k))
    for j in range(k - 1, -1, -1):
        coef[:, j] = (R[:, j, k] - np.vecdot(R[:, j, j + 1:k], coef[:, j + 1:])) / R[:, j, j]
    return coef, rcond, failed


def fit_all(panel, m):
    """Fit every firm; rank failures are aggregated with their firm labels.

    Firms are factored by ``within_factors`` at max(m, ``default_m_under(N,
    T)``), and one batched QR of the factors' Z(m) and y columns gives each
    firm's triangle for ``_solve_triangles``. The error names the first 10
    failed firms, counts the rest, and carries their smallest rcond.
    """
    need = min_periods(m, panel.p)
    if panel.T < need:
        raise InputError(
            f"T={panel.T} too small for m={m} with p={panel.p}: need T >= {need}"
        )
    T = panel.T
    factors = within_factors(panel, max(m, default_m_under(panel.N, T)))
    cols = nested_columns(m, factors.m, panel.p)
    R = np.linalg.qr(factors.R[..., np.append(cols, -1)], mode="r")  # y's column is last
    slopes, rcond, failed = _solve_triangles(R, T)
    if failed.size:
        shown = "; ".join(
            f"firm {panel.firm_ids[i]}: {_RANK_DEFICIENT.format(rcond[i])}" for i in failed[:10]
        )
        more = "" if failed.size <= 10 else f" and {failed.size - 10} more"
        raise RankDeficientError(
            f"per-firm estimation failed for: {shown}{more}",
            rcond=float(rcond[failed].min()),
        )
    coef = np.column_stack([factors.ybar - np.vecdot(factors.zbar[:, cols], slopes), slopes])
    return FirmFits(coef=coef, sigma_v2=R[:, -1, -1] ** 2 / (T - 1), factors=factors)


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
