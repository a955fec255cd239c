"""Per-firm sieve regressions (Step 1).

Each firm's outcome series is regressed on its sieve design with intercept.
The slope block together with the residual standard deviation forms the
feature vector used later for classification; the intercept estimates the
firm's level term and is excluded from classification. One (N, T, cols)
design serves all firms; each firm is solved on its own slice.
"""

from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import InputError, RankDeficientError

RCOND_MIN = 1e-10


@dataclass
class FirmEstimate:
    """OLS results for one firm at sieve length m.

    intercept_hat estimates the firm's level term, pi_hat the
    (m-1) + m*p slope coefficients, sigma_v_hat the residual standard
    deviation (sum of squared residuals over T-1).
    """

    intercept_hat: float
    pi_hat: np.ndarray
    sigma_v_hat: float

    @property
    def theta(self):
        """Classification features: slopes plus residual variance.

        The variance form separates noise-level groups far more sharply
        than the standard deviation would.
        """
        return np.append(self.pi_hat, self.sigma_v_hat ** 2)


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


def _solve_ls(Z, y):
    """Least squares via SVD with a rank check; returns (coef, residuals)."""
    coef, _, rank, sv = np.linalg.lstsq(Z, y, rcond=None)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rank < Z.shape[1] or rcond < RCOND_MIN:
        raise RankDeficientError(
            f"design matrix numerically rank deficient "
            f"(reciprocal condition number {rcond:.2e})",
            rcond=rcond,
        )
    return coef, y - Z @ coef


def fit_all(panel, m):
    """Fit every firm; rank failures are aggregated with their firm labels.

    The error names the first 10 failed firms and counts the rest; its
    rcond is the smallest of the failed firms' values.
    """
    need = min_periods(m, panel.p)
    if panel.T < need:
        raise InputError(
            f"T={panel.T} too small for m={m} with p={panel.p}: need T >= {need}"
        )
    Z = design_matrix(panel.x, m, with_intercept=True)
    fits = []
    failures = []
    for i in range(panel.N):
        try:
            coef, resid = _solve_ls(Z[i], panel.y[i])
        except RankDeficientError as exc:
            failures.append((panel.firm_ids[i], exc))
            continue
        fits.append(FirmEstimate(
            intercept_hat=float(coef[0]),
            pi_hat=coef[1:].copy(),
            sigma_v_hat=float(np.sqrt(float(resid @ resid) / (panel.T - 1))),
        ))
    if failures:
        shown = "; ".join(f"firm {firm}: {exc}" for firm, exc in failures[:10])
        more = "" if len(failures) <= 10 else f" and {len(failures) - 10} more"
        raise RankDeficientError(
            f"per-firm estimation failed for: {shown}{more}",
            rcond=min(exc.rcond for _, exc in failures),
        )
    return fits
