"""Per-firm sieve regressions (Step 1).

Each firm's outcome series is regressed on its sieve design with intercept.
The slope block together with the residual variance forms the feature
vector used later for classification (``FirmFits.features``); the
intercept estimates the firm's level term and is excluded from
classification. Firms are designed and solved ``_CHUNK`` at a time, so no
(N, T, cols) design is held whole: one stacked SVD per chunk gives
coef = V ((U' y) / s) for each of its firms.
"""

from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import InputError, RankDeficientError

RCOND_MIN = 1e-10
# firms per stacked design and factorization, here and in Step 3
_CHUNK = 256
_RANK_DEFICIENT = "design matrix numerically rank deficient (reciprocal condition number {:.2e})"


@dataclass
class FirmFits:
    """OLS results of every firm at sieve length m.

    coef is (N, cols): each firm's level term, then its (m-1) + m*p slope
    coefficients. sigma_v2 is (N,): each firm's residual variance, the sum
    of squared residuals over T-1.
    """

    coef: np.ndarray
    sigma_v2: np.ndarray

    @property
    def features(self):
        """(N, d) classification features: slopes, then residual variance.

        The variance form separates noise-level groups far more sharply
        than the standard deviation would.
        """
        return np.column_stack([self.coef[:, 1:], self.sigma_v2])


def default_m(T):
    """Default sieve length floor(T^(1/5)), floored at 2.

    The floor keeps the time-varying intercept block nonempty; with m = 1
    the intercept curve would have no free coefficient.
    """
    if T < 2:
        raise InputError(f"need T >= 2, got {T}")
    return max(2, int(np.floor(T ** 0.2)))


def min_periods(m, p):
    """Fewest periods a per-firm fit with sieve length m and p regressors needs."""
    return m * (p + 1) + 2


def fit_all(panel, m):
    """Fit every firm; rank failures are aggregated with their firm labels.

    A firm fails when the ratio of its design's smallest to largest
    singular value is below RCOND_MIN. The error names the first 10 failed
    firms and counts the rest; its rcond is the smallest of the failed
    firms' values.
    """
    need = min_periods(m, panel.p)
    if panel.T < need:
        raise InputError(
            f"T={panel.T} too small for m={m} with p={panel.p}: need T >= {need}"
        )
    N = panel.N
    cols = m * (panel.p + 1)
    rcond, coef, rss = np.empty(N), np.empty((N, cols)), np.empty(N)
    for lo in range(0, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        Z = design_matrix(panel.x[lo:hi], m, with_intercept=True)
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        rcond[lo:hi] = s[:, -1] / s[:, 0]
        if not np.all(rcond[:hi] >= RCOND_MIN):
            continue  # the fit fails; later chunks only add their rcond
        y = panel.y[lo:hi]
        coef[lo:hi] = ((y[:, None, :] @ U) / s[:, None, :] @ Vt)[:, 0]
        resid = y - (Z @ coef[lo:hi, :, None])[..., 0]
        rss[lo:hi] = np.vecdot(resid, resid)
    failed = np.flatnonzero(~(rcond >= RCOND_MIN))
    if failed.size:
        shown = "; ".join(
            f"firm {panel.firm_ids[i]}: {_RANK_DEFICIENT.format(rcond[i])}" for i in failed[:10]
        )
        more = "" if failed.size <= 10 else f" and {failed.size - 10} more"
        raise RankDeficientError(
            f"per-firm estimation failed for: {shown}{more}",
            rcond=float(rcond[failed].min()),
        )
    return FirmFits(coef=coef, sigma_v2=rss / (panel.T - 1))
