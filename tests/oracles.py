"""Independent reference implementations used to check the estimators.

Everything here is deliberately slow and simple: normal equations solved
in 50-digit arithmetic, likelihoods by adaptive quadrature or mpmath,
their derivatives by ``mpmath.diff``, and agglomeration that recomputes
every pairwise cost from raw points at each step. None of it shares code
with the library paths it checks.

The exceptions are the reference paths at the end, which judge only that
a faster library path returns the same values bit for bit:

* the sieve evaluated one point at a time: one basis function at one
  point, one design row, and the frontier curves at one point, one dot
  product per curve, as the library did before it evaluated the basis on
  arrays of points;
* the per-firm loops build each firm's design on its own, Step 1's with
  its own column of ones, and solve it by SVD (or stack the blocks for
  lstsq), where the library factors each firm once and solves Steps 1
  and 3 from the factors; they share the one-firm design with the
  library and agree with it to rounding, and the 50-digit oracle above
  judges accuracy (the per-firm residual sums are ``math.fsum``
  references that judge the library's sums to a tolerance);
* scipy's Nelder-Mead, run one start at a time on the objective the
  library's lockstep simplex minimizes;
* the single-law per-firm terms and derivatives written out as one
  expression per quantity, with the kernels' log Phi rule (log of
  ``ndtr`` from z = -37 up, ``log_ndtr`` below), and the single-law total
  as their sum plus the summed prefix, for the batched and the gradient
  kernels;
* the eight mixture starts, each split in both component orderings, that
  the library used before it kept one start per label-swapping orbit;
* the mixture optimum from dense starts, which reuses the library's
  mixture objective and exact gradient but not its optimizer;
* the brute-force label matching over all K! permutations;
* Ward's nearest-neighbour chain with a full cost pass at every chain
  step, as the library ran it before it kept and patched the cost rows
  of the chain's tips;
* the CSV reader that parses one row at a time into a dict per cell, and
  the writer that formats one row at a time, as the library did before
  it parsed and wrote whole columns;
* the panel generator that seeds each firm-role stream with its own
  ``SeedSequence`` and assembles one firm at a time, as the library did
  before it seeded all of a panel's streams in one pass, with the
  half-normal sampler it draws inefficiencies from, which the tests also
  use to simulate levels.
"""

import csv
import itertools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr

from groupsfa.basis import design_matrix
from groupsfa.dgp import (
    _ROLE_COMPONENT,
    _ROLE_U,
    _ROLE_V,
    _ROLE_X,
    DESIGNS,
    DgpTruth,
    MixtureLaw,
    UniqueLaw,
    _design_curves,
    _equal_split,
    _parse_design,
)
from groupsfa.errors import InputError
from groupsfa.estimation import GroupFit
from groupsfa.inefficiency import _mixture_objectives, _mixture_starts
from groupsfa.panel import PanelData


def normal_equations_solve(Z, y, dps=50):
    """Least squares via explicit normal equations in mpmath arithmetic."""
    with mp.workdps(dps):
        A = mp.matrix([[mp.mpf(v) for v in row] for row in np.asarray(Z)])
        b = mp.matrix([mp.mpf(v) for v in np.asarray(y)])
        AtA = A.T * A
        Atb = A.T * b
        sol = mp.lu_solve(AtA, Atb)
        return np.array([float(v) for v in sol])


def halfnormal_marginal_density(eps, sigma_v, sigma_u):
    """Density of a residual series by quadrature over the one-sided draw.

    Integrates prod_t phi((eps_t + u)/sigma_v)/sigma_v times the
    half-normal density of u over [0, inf).
    """
    eps = np.asarray(eps, dtype=float)

    def integrand(u):
        z = (eps + u) / sigma_v
        dens = np.exp(-0.5 * np.sum(z * z)) / (
            (sigma_v * math.sqrt(2 * math.pi)) ** len(eps)
        )
        hn = (
            2.0 / (sigma_u * math.sqrt(2 * math.pi))
            * math.exp(-0.5 * (u / sigma_u) ** 2)
        )
        return dens * hn

    value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return value


def _unique_logdensity_mp(resid_sum, resid_sumsq, T, sigma_v2, sigma_u2, alpha0):
    """Closed-form per-firm log density at level alpha0, as an mpf at the
    working precision; the level is removed from the sums in mpmath too."""
    S, Q, a = mp.mpf(resid_sum), mp.mpf(resid_sumsq), mp.mpf(alpha0)
    sv2 = mp.mpf(sigma_v2)
    su2 = mp.mpf(sigma_u2)
    se = S - T * a
    qe = Q - 2 * a * S + T * a * a
    si2 = sv2 + T * su2
    z = -mp.sqrt(su2) * se / (mp.sqrt(sv2) * mp.sqrt(si2))
    return (
        mp.log(2)
        - mp.mpf(T) / 2 * mp.log(2 * mp.pi)
        - mp.mpf(T - 1) / 2 * mp.log(sv2)
        - mp.log(si2) / 2
        + mp.log(mp.ncdf(z))
        + z * z / 2
        - qe / (2 * sv2)
    )


def square_sum_mp(resid_sum, within_sumsq, T, dps=80):
    """The raw square sum Q = W + S^2 / T that the mpmath oracles take, as
    an mpf formed at ``dps`` digits from the library's (S, W)."""
    with mp.workdps(dps):
        S = mp.mpf(resid_sum)
        return mp.mpf(within_sumsq) + S * S / T


def unique_loglik_mpmath(resid_sum, resid_sumsq, T, sigma_v2, sigma_u2,
                         alpha0=0.0, dps=60):
    """Closed-form per-firm log density evaluated in mpmath arithmetic."""
    with mp.workdps(dps):
        return float(_unique_logdensity_mp(
            resid_sum, resid_sumsq, T, sigma_v2, sigma_u2, alpha0
        ))


def mixture_loglik_mpmath(resid_sum, resid_sumsq, T, sigma_v2,
                          a1, su2_1, a2, su2_2, tau, dps=60):
    """Two-component mixture log density via direct mpmath exponentiation."""
    with mp.workdps(dps):
        f1, f2 = (
            mp.exp(_unique_logdensity_mp(resid_sum, resid_sumsq, T, sigma_v2, su2, a))
            for a, su2 in ((a1, su2_1), (a2, su2_2))
        )
        return float(mp.log(mp.mpf(tau) * f1 + (1 - mp.mpf(tau)) * f2))


def unique_hessian_mpmath(resid_sum, within_sumsq, T, sigma_v2, sigma_u2,
                          alpha0, dps=40):
    """Gradient (2,) and Hessian (2, 2) of one firm's closed-form log
    density in (alpha0, sigma_u2), by ``mpmath.diff`` at ``dps`` digits.

    Takes the library's (S, W); the raw square sum is formed in mpmath.
    """
    Q = square_sum_mp(resid_sum, within_sumsq, T)
    with mp.workdps(dps):
        def f(a, v):
            return _unique_logdensity_mp(resid_sum, Q, T, sigma_v2, v, a)

        at = (mp.mpf(alpha0), mp.mpf(sigma_u2))
        grad = [mp.diff(f, at, order) for order in ((1, 0), (0, 1))]
        aa, av, vv = (mp.diff(f, at, order) for order in ((2, 0), (1, 1), (0, 2)))
        return (np.array([float(g) for g in grad]),
                np.array([[float(aa), float(av)], [float(av), float(vv)]]))


def log_phi_mpmath(z, dps=50):
    """log Phi(z) at ``dps`` digits, as a float."""
    with mp.workdps(dps):
        return float(mp.log(mp.ncdf(mp.mpf(float(z)))))


def unique_grad_mpmath(resid_sum, within_sumsq, T, sigma_v2, sigma_u2, alpha0, dps=40):
    """Derivatives of one firm's closed-form log density in alpha0 and
    eta = log sigma_u2, by ``mpmath.diff`` at ``dps`` digits.

    Takes the library's (S, W); the raw square sum is formed in mpmath.
    """
    Q = square_sum_mp(resid_sum, within_sumsq, T)
    with mp.workdps(dps):
        def f(a, eta):
            return _unique_logdensity_mp(resid_sum, Q, T, sigma_v2, mp.exp(eta), a)

        at = (mp.mpf(alpha0), mp.log(mp.mpf(sigma_u2)))
        return np.array([float(mp.diff(f, at, order)) for order in ((1, 0), (0, 1))])


def mixture_hessian_mpmath(resid_sum, within_sumsq, T, sigma_v2, params, dps=30):
    """Hessian (5, 5) of the mixture log-likelihood summed over firms, in
    (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2), by ``mpmath.diff``
    at ``dps`` digits of the closed-form component densities.

    ``resid_sum``, ``within_sumsq`` and ``sigma_v2`` are per-firm arrays.
    """
    firms = [(square_sum_mp(S, W, T), sv2)
             for S, W, sv2 in zip(resid_sum, within_sumsq, sigma_v2)]
    with mp.workdps(dps):
        def f(tau, a1, v1, a2, v2):
            return mp.fsum(
                mp.log(tau * mp.exp(_unique_logdensity_mp(S, Q, T, sv2, v1, a1))
                       + (1 - tau) * mp.exp(_unique_logdensity_mp(S, Q, T, sv2, v2, a2)))
                for S, (Q, sv2) in zip(resid_sum, firms)
            )

        at = tuple(mp.mpf(float(p)) for p in params)
        H = np.empty((5, 5))
        for i in range(5):
            for j in range(i, 5):
                order = [0] * 5
                order[i] += 1
                order[j] += 1
                H[i, j] = H[j, i] = float(mp.diff(f, at, order))
        return H


def ward_cost_from_points(points_a, points_b):
    """Ward merge cost recomputed from the raw member points."""
    A = np.asarray(points_a, dtype=float)
    B = np.asarray(points_b, dtype=float)
    ca, cb = A.mean(axis=0), B.mean(axis=0)
    diff = ca - cb
    return len(A) * len(B) / (len(A) + len(B)) * float(diff @ diff)


def brute_force_agglomerate(X):
    """Full merge sequence recomputing all pairwise costs at every step.

    Clusters are identified by their smallest member; ties break on the
    lexicographically smallest id pair.
    """
    X = np.asarray(X, dtype=float)
    clusters = {i: [i] for i in range(len(X))}
    merges = []
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                cost = ward_cost_from_points(X[clusters[a]], X[clusters[b]])
                if best is None or cost < best[0] or (
                    cost == best[0] and (a, b) < best[1:]
                ):
                    best = (cost, a, b)
        cost, a, b = best
        merges.append((a, b, cost))
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return merges


def brute_force_cut(n, merges, K):
    """Partition from the first n-K oracle merges, labels by smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b, _ in merges[: n - K]:
        parent[find(b)] = find(a)
    roots = [find(i) for i in range(n)]
    order = sorted(set(roots))
    label = {r: j + 1 for j, r in enumerate(order)}
    return np.array([label[r] for r in roots])


# --- the sieve one point at a time --------------------------------------------


def basis_point(j, s):
    """The j-th cosine basis function at one point s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise InputError(f"basis argument must lie in [0, 1], got {s}")
    if j == 0:
        return 1.0
    return math.sqrt(2.0) * np.cos(j * np.pi * s)


def design_row(x_it, t, T, m):
    """One design row for regressors x_it observed at time t of T."""
    s = t / T
    b = np.array([basis_point(j, s) for j in range(m)])
    parts = [b[1:]]
    for xl in np.asarray(x_it, dtype=float):
        parts.append(xl * b)
    return np.concatenate(parts)


def frontier_eval_per_point(pi, s, m):
    """alpha(s), beta_1(s), ..., beta_p(s) at one point, one dot per curve."""
    p = (len(pi) - (m - 1)) // m
    b = np.array([basis_point(j, s) for j in range(m)])
    out = np.empty(p + 1)
    out[0] = pi[: m - 1] @ b[1:]
    for l in range(p):
        start = (m - 1) + l * m
        out[l + 1] = pi[start : start + m] @ b
    return out


# --- per-firm design loops ---------------------------------------------------


def fit_all_loop(panel, m):
    """Per-firm OLS with intercept, designing and solving one firm at a time
    by its SVD; returns ``FirmFits``' coef and sigma_v2."""
    coef, rss = [], []
    for i in range(panel.N):
        Z = np.column_stack([np.ones(panel.T), design_matrix(panel.x[i], m)])
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        coef.append(((panel.y[i] @ U) / s) @ Vt)
        resid = panel.y[i] - Z @ coef[-1]
        rss.append(resid @ resid)
    return np.array(coef), np.array(rss) / (panel.T - 1)


def fit_group_loop(panel, members, m_under):
    """Pooled within OLS from per-firm demeaned blocks stacked by vstack.

    The members' residual sums S and W are ``composite_stats_loop``'s.
    """
    members = np.asarray(sorted(members), dtype=int)
    rows = []
    ys = []
    for i in members:
        Zi = design_matrix(panel.x[i], m_under)
        rows.append(Zi - Zi.mean(axis=0))
        ys.append(panel.y[i] - panel.y[i].mean(axis=0))
    Z, y = np.vstack(rows), np.concatenate(ys)
    coef = np.linalg.lstsq(Z, y, rcond=None)[0]
    resid = y - Z @ coef
    sigma_v2 = float(resid @ resid) / (members.size * (panel.T - 1))
    S, W = np.array([_firm_sums(panel, i, coef, m_under) for i in members]).T
    return GroupFit(members=members, pi=coef, sigma_v=float(np.sqrt(sigma_v2)),
                    m_under=m_under, S=S, W=W)


def _firm_sums(panel, i, pi, m_under):
    """Firm i's composite residual sum and its square sum about the firm's
    mean, each by ``math.fsum``, the square sum in a second pass."""
    Zi = design_matrix(panel.x[i], m_under)
    r = panel.y[i] - Zi @ pi
    S = math.fsum(r)
    return S, math.fsum((r - S / panel.T) ** 2)


def composite_stats_loop(panel, group_fits):
    """Per-firm (S, W, sigma_v2) of the composite residuals, firm by firm.

    S and W are ``_firm_sums``': correctly rounded sums of the residuals
    r = y - Z pi and, in a second pass, of their squares about the firm's
    mean, so W has no cancellation when the level is far from 0.
    """
    S = np.full(panel.N, np.nan)
    W = np.full(panel.N, np.nan)
    sv2 = np.full(panel.N, np.nan)
    for fit in group_fits:
        for i in fit.members:
            S[i], W[i] = _firm_sums(panel, i, fit.pi, fit.m_under)
            sv2[i] = fit.sigma_v ** 2
    return S, W, sv2


# --- scipy's simplex, per start ----------------------------------------------


def nelder_mead_per_start(f, starts, xatol, fatol, maxiter):
    """scipy's Nelder-Mead from each start on its own, with no evaluation cap.

    ``f`` maps an (R, n) array of points to R values, as the library's
    lockstep simplex takes it; here every call holds one point.
    """
    options = dict(xatol=xatol, fatol=fatol, maxiter=maxiter)
    return [
        minimize(lambda x: f(x[None])[0], x0, method="Nelder-Mead", options=options)
        for x0 in starts
    ]


# --- the mixture starts in both orderings ------------------------------------


def mixture_starts_eight(unique, sd_a, seed):
    """Eight mixture starts: the single-law solution split by plus/minus
    one SD of the firm intercepts in both orderings, crossed with mixing
    weights 0.3/0.5/0.7, then the minimal split and one seeded draw."""
    center_a, base_eta = unique.alpha0, math.log(unique.sigma_u2)
    sd = max(sd_a, 1e-2)
    starts = []
    for tau0 in (0.3, 0.5, 0.7):
        for sign in (1.0, -1.0):
            starts.append(
                [math.log(tau0 / (1.0 - tau0)), center_a + sign * sd, base_eta,
                 center_a - sign * sd, base_eta]
            )
    starts.append([0.0, center_a + 0.1 * sd, base_eta, center_a - 0.1 * sd, base_eta])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(77,)))
    tau0 = rng.uniform(0.2, 0.8)
    starts.append(
        [math.log(tau0 / (1.0 - tau0)),
         center_a + sd * rng.standard_normal(), base_eta + 0.5 * rng.standard_normal(),
         center_a + sd * rng.standard_normal(), base_eta + 0.5 * rng.standard_normal()]
    )
    return [np.array(s) for s in starts]


# --- the mixture optimum from dense starts -----------------------------------


def mixture_optimum_dense(stats, unique, seed):
    """Best mixture log-likelihood of exact-gradient BFGS from 14 starts.

    The starts are the five of ``fit_mixture`` and a grid of nine: tau0 in
    {0.15, 0.5, 0.85} crossed with alpha0 splits of +-{0.5, 1.5, 2.5} sd
    around the single-law ``unique`` fit, both components at its
    log sigma_u2, where sd is the firm intercepts' standard deviation.
    Each start runs BFGS (maxiter 200) on the clipped objective with its
    exact gradient and no simplex pass. The result is a lower bound on the
    global optimum.
    """
    _, value_and_grad = _mixture_objectives(stats)
    sd_a = float(np.std(stats.S / stats.T, ddof=1))
    sd, eta = max(sd_a, 1e-2), math.log(unique.sigma_u2)
    grid = [
        [math.log(tau0 / (1.0 - tau0)), unique.alpha0 + c * sd, eta,
         unique.alpha0 - c * sd, eta]
        for tau0 in (0.15, 0.5, 0.85) for c in (0.5, 1.5, 2.5)
    ]

    def neg(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    best = -np.inf
    for x0 in _mixture_starts(unique, sd_a, seed) + [np.array(g) for g in grid]:
        res = minimize(neg, x0, jac=True, method="BFGS", options=dict(maxiter=200))
        if np.isfinite(res.fun):
            best = max(best, -float(res.fun))
    return best


# --- single-law terms, one point at a time -----------------------------------


def unique_reference_parts(S, W, sv2, T, alpha0, sigma_u2):
    """The prefix, the parameter part of the per-firm terms, and the
    centered sum, scale and z of the kernel module docstring, each written
    out as one expression on (N,) arrays with float parameters. log Phi(z)
    is the log of ``ndtr`` from z = -37 up, and ``log_ndtr`` below."""
    log2pi = math.log(2.0 * math.pi)
    prefix = (math.log(2.0) - 0.5 * T * log2pi - 0.5 * (T - 1) * np.log(sv2)
              - W / (2.0 * sv2))
    se = S - T * alpha0
    si2 = sv2 + T * sigma_u2
    scale = np.sqrt(sigma_u2 / (sv2 * si2))
    z = -scale * se
    with np.errstate(divide="ignore"):
        log_cdf = np.where(z < -37.0, log_ndtr(z), np.log(ndtr(z)))
    rest = -0.5 * np.log(si2) - se * se / (2.0 * T * si2) + log_cdf
    return prefix, rest, se, si2, scale, z, log_cdf


def unique_terms_grad_reference(S, W, sv2, T, alpha0, sigma_u2):
    """Per-firm terms and their derivatives in alpha0 and log sigma_u2.

    The closed forms of the kernel module docstring, each written out as
    one expression on (N,) arrays with float parameters.
    """
    prefix, rest, se, si2, scale, z, log_cdf = unique_reference_parts(
        S, W, sv2, T, alpha0, sigma_u2
    )
    dz = np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_cdf) + z
    d_alpha0 = dz * T * scale + se / sv2
    d_eta = (-0.5 * T * sigma_u2 + 0.5 * dz * z * sv2) / si2
    return prefix + rest, d_alpha0, d_eta


def unique_total_reference(S, W, sv2, T, alpha0, sigma_u2):
    """The single-law total: the parameter parts summed over firms, then
    the summed prefix added once."""
    prefix, rest = unique_reference_parts(S, W, sv2, T, alpha0, sigma_u2)[:2]
    return np.sum(rest) + np.sum(prefix)


# --- label matching by enumeration -------------------------------------------


def best_label_permutation_brute(assignment, truth):
    """First permutation, in lexicographic order, with the fewest
    mismatches, over all K! of them (labels padded to one count K)."""
    k_pad = max(assignment.K, truth.K)
    a = assignment.membership - 1
    b = truth.membership - 1
    best_perm, best = None, assignment.N + 1
    for perm in itertools.permutations(range(k_pad)):
        wrong = int(np.sum(np.array(perm)[a] != b))
        if wrong < best:
            best_perm, best = perm, wrong
    return best_perm, best


# --- Ward's chain with a full cost pass at every step -------------------------


@np.errstate(over="ignore", invalid="ignore")
def agglomerate_full_pass(X):
    """Ward merges by a nearest-neighbour chain that recomputes every cost row.

    Each chain step computes the Ward cost from the tip to every row, and
    merged rows, parked at an inf centroid, are dropped once they are the
    majority. Merges are sorted by (cost, id pair), a merge lifted to the
    key of the merges that built its clusters.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    ids = np.arange(n)
    sums = X.copy()
    centroids = X.copy()
    sizes = np.ones(n)
    found, last = [], {}
    chain = [0]
    while len(found) < n - 1:
        if 2 * (n - len(found)) < len(ids):
            keep = np.flatnonzero(ids >= 0)
            ids, sums, centroids, sizes = ids[keep], sums[keep], centroids[keep], sizes[keep]
            chain = np.searchsorted(keep, chain).tolist()
        tip = chain[-1]
        diff = centroids - centroids[tip]
        cost = np.vecdot(diff, diff)
        weight = sizes * sizes[tip]
        weight /= sizes + sizes[tip]
        cost *= weight
        cost[tip] = np.inf
        near = int(cost.argmin())
        best = float(cost[near])
        if not math.isfinite(best):
            raise InputError(
                f"Ward costs overflow: merge {len(found) + 1} of {n - 1} has "
                f"cost {best}, beyond double precision"
            )
        if len(chain) < 2 or near != chain[-2]:
            chain.append(near)
            continue
        del chain[-2:]
        ra, rb = min(tip, near), max(tip, near)
        a, b = int(ids[ra]), int(ids[rb])
        key = max([(best, a, b)] + [found[last[c]][0] for c in (a, b) if c in last])
        last[a] = len(found)
        found.append((key, len(found), a, b, best))
        sums[ra] += sums[rb]
        sizes[ra] += sizes[rb]
        centroids[ra] = sums[ra] / sizes[ra]
        centroids[rb] = np.inf
        ids[rb] = -1
        if not chain:
            chain.append(ra)
    return [(a, b, cost) for *_, a, b, cost in sorted(found)]


# --- CSV round trip, one row at a time ---------------------------------------


def write_panel_csv_loop(panel, path):
    """Long CSV written one csv.writer row per cell."""
    header = ["firm_id", "t", "y"] + [f"x{l + 1}" for l in range(panel.p)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(panel.N):
            fid = panel.firm_ids[i]
            for t in range(panel.T):
                row = [fid, t + 1, repr(float(panel.y[i, t]))]
                row += [repr(float(v)) for v in panel.x[i, t]]
                w.writerow(row)


def read_panel_csv_loop(path, firm_col="firm_id", time_col="t", y_col="y",
                        x_cols=None):
    """Long CSV read through csv.DictReader into a dict per cell."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file")
        for col in (firm_col, time_col, y_col):
            if col not in reader.fieldnames:
                raise InputError(f"{path}: missing column {col!r}")
        if x_cols is None:
            x_cols = sorted(
                (c for c in reader.fieldnames if c.startswith("x") and c[1:].isdigit()),
                key=lambda c: int(c[1:]),
            )
        if not x_cols:
            raise InputError(f"{path}: no regressor columns found")
        for col in x_cols:
            if col not in reader.fieldnames:
                raise InputError(f"{path}: missing regressor column {col!r}")
        cells = {}
        firm_order = []
        times = set()
        for lineno, rec in enumerate(reader, start=2):
            fid = rec[firm_col]
            try:
                t = int(rec[time_col])
                yv = float(rec[y_col])
                xv = [float(rec[c]) for c in x_cols]
            except (TypeError, ValueError) as exc:
                raise InputError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
            if fid not in cells:
                cells[fid] = {}
                firm_order.append(fid)
            if t in cells[fid]:
                raise InputError(f"{path}:{lineno}: duplicate cell ({fid}, {t})")
            cells[fid][t] = (yv, xv)
            times.add(t)

    if not cells:
        raise InputError(f"{path}: no data rows")
    t_sorted = sorted(times)
    missing = [
        (fid, t) for fid in firm_order for t in t_sorted if t not in cells[fid]
    ]
    if missing:
        shown = ", ".join(f"({f}, {t})" for f, t in missing[:10])
        more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        raise InputError(f"{path}: unbalanced panel, missing cells {shown}{more}")

    N, T, p = len(firm_order), len(t_sorted), len(x_cols)
    y = np.empty((N, T))
    x = np.empty((N, T, p))
    for i, fid in enumerate(firm_order):
        for j, t in enumerate(t_sorted):
            yv, xv = cells[fid][t]
            y[i, j] = yv
            x[i, j] = xv
    return PanelData(y=y, x=x, firm_ids=firm_order)


# --- panel generation, one SeedSequence per stream ----------------------------


def sample_half_normal(sigma, rng, size=None):
    """Draw |N(0, sigma^2)|."""
    if sigma < 0:
        raise InputError(f"sigma must be nonnegative, got {sigma}")
    return np.abs(rng.standard_normal(size)) * sigma


def firm_rng(seed, design_code, rep, firm, role):
    """The stream of one (firm, role) of a panel, seeded on its own."""
    seq = np.random.SeedSequence(seed, spawn_key=(design_code, rep, firm, role))
    return np.random.default_rng(seq)


def generate_per_firm(design, N, T, seed, rep=0):
    """``dgp.generate`` with one ``firm_rng`` per stream and one firm at a time."""
    base, law_code = _parse_design(design)
    if seed < 0 or rep < 0:
        raise InputError(f"seed and rep must be non-negative, got {seed} and {rep}")
    if T < 2:
        raise InputError(f"need T >= 2, got {T}")
    alphas, betas, sigma_v, (x_mean, x_sd) = _design_curves(base)
    K = len(alphas)
    p = len(betas[0])
    if N < K:
        raise InputError(f"need N >= {K} for design {design}, got {N}")
    membership = _equal_split(N, K)
    law = UniqueLaw() if law_code == "u" else MixtureLaw()
    dcode = DESIGNS.index(design.lower())

    tau_grid = np.arange(1, T + 1) / T
    alpha_vals = [f(tau_grid) * np.ones(T) for f in alphas]
    beta_vals = [
        np.column_stack([f(tau_grid) * np.ones(T) for f in fs]) for fs in betas
    ]

    y = np.empty((N, T))
    x = np.empty((N, T, p))
    u = np.empty(N)
    component = np.ones(N, dtype=int)
    for i in range(N):
        g = membership[i] - 1
        xi = x_mean + x_sd * firm_rng(seed, dcode, rep, i, _ROLE_X).standard_normal((T, p))
        vi = sigma_v[g] * firm_rng(seed, dcode, rep, i, _ROLE_V).standard_normal(T)
        if law.kind == "unique":
            level = law.alpha0
            su = law.sigma_u
        else:
            draw = firm_rng(seed, dcode, rep, i, _ROLE_COMPONENT).uniform()
            if draw < law.tau:
                component[i], level, su = 1, law.alpha0_1, law.sigma_u_1
            else:
                component[i], level, su = 2, law.alpha0_2, law.sigma_u_2
        u[i] = sample_half_normal(su, firm_rng(seed, dcode, rep, i, _ROLE_U))
        x[i] = xi
        y[i] = level - u[i] + alpha_vals[g] + (xi * beta_vals[g]).sum(axis=1) + vi

    panel = PanelData(y=y, x=x)
    truth = DgpTruth(
        design=design.lower(), K=K, membership=membership, sigma_v=np.array(sigma_v),
        alpha_funcs=alphas, beta_funcs=betas, law=law, u=u, component=component,
    )
    return panel, truth
