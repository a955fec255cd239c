"""Desk-scale acceptance gate.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see them
on success). The replication cells run the full pipeline at reduced
replication counts with fixed seeds, so every number here is reproducible
bit for bit.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from groupsfa import _kernels
from groupsfa._kernels import CompositeStats
from groupsfa.basis import basis_matrix, design_matrix
from groupsfa.estimation import fit_all, fit_group, within_factors
from groupsfa.grouping import hac_cluster
from groupsfa.montecarlo import McConfig, run_monte_carlo, sensitivity_sweep
from groupsfa.panel import PanelData

from oracles import (
    brute_force_agglomerate,
    brute_force_cut,
    halfnormal_marginal_density,
    normal_equations_solve,
    sample_half_normal,
)

pytestmark = pytest.mark.acceptance

_WORKERS = min(8, os.cpu_count() or 1)


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    return ok


def test_criterion_1_dgp3m_table():
    start = time.time()
    cfg = McConfig(design="dgp3m", sizes=[(250, 100)], replications=100,
                   seed=0, workers=_WORKERS)
    cell = run_monte_carlo(cfg).cells[0]
    elapsed = time.time() - start
    ok = (
        cell.k_freq[3] >= 0.95
        and cell.mean_cls_error <= 0.06
        and cell.freq_mixture >= 0.95
        and elapsed <= 15 * 60
    )
    assert _verdict(
        1, "dgp3m selection/classification/mixture",
        ok,
        f"freq(K=3)={cell.k_freq[3]:.3f} need >=0.95; "
        f"cls={cell.mean_cls_error:.4f} need <=0.06; "
        f"mix={cell.freq_mixture:.3f} need >=0.95; "
        f"runtime={elapsed:.0f}s limit 900s",
    )


def test_criterion_2_dgp2u_table():
    start = time.time()
    cfg = McConfig(design="dgp2u", sizes=[(100, 50)], replications=100,
                   seed=0, workers=_WORKERS)
    cell = run_monte_carlo(cfg).cells[0]
    elapsed = time.time() - start
    ok = cell.k_freq[2] >= 0.98 and cell.freq_unique >= 0.75 and elapsed <= 300
    assert _verdict(
        2, "dgp2u selection/model-choice",
        ok,
        f"freq(K=2)={cell.k_freq[2]:.3f} need >=0.98; "
        f"unique={cell.freq_unique:.3f} need >=0.75; "
        f"runtime={elapsed:.0f}s limit 300s",
    )


def test_criterion_3_dgp1u_bias_rmse():
    cfg = McConfig(design="dgp1u", sizes=[(100, 100)], replications=100,
                   seed=0, workers=_WORKERS)
    cell = run_monte_carlo(cfg).cells[0]
    rv = cell.rmse["sigma_v_1"]
    ru = cell.rmse["sigma_u"]
    ra = cell.rmse["alpha0"]
    # Lower edge for sigma_v_1. Group 1 pools N_k = N/2 firms with T-1
    # within-demeaned periods each, so even with the true members the SD
    # of sigma_v_hat is about sigma_v / sqrt(2 N_k (T-1)) = 0.01005. An
    # R-replication RMSE has relative Monte Carlo SD about 1/sqrt(2R), so
    # the edge sits three of those below the floor (about 0.0079). A
    # correct estimator cannot be held above the floor itself: fitting
    # group 1 on its true members with fit_group and default_m_under(50,
    # 100) scores 0.0094 on these 100 replications, and 0.0094, 0.0105,
    # 0.0119, 0.0112 and 0.0107 on the five 100-replication blocks of
    # replications 0-499. An RMSE well below the floor (a scoring leak,
    # say) still fails.
    N, T = cfg.sizes[0]
    sigma_v, n_k, R = 1.0, N // 2, cfg.replications
    floor_v = sigma_v / math.sqrt(2 * n_k * (T - 1))
    lo_v = floor_v * (1 - 3 / math.sqrt(2 * R))
    ok = lo_v <= rv <= 0.028 and 0.05 <= ru <= 0.12 and 0.03 <= ra <= 0.07
    assert _verdict(
        3, "dgp1u rmse bands",
        ok,
        f"rmse(sigma_v_1)={rv:.4f} need [{lo_v:.4f},0.028]; "
        f"rmse(sigma_u)={ru:.4f} need [0.05,0.12]; "
        f"rmse(alpha0)={ra:.4f} need [0.03,0.07]",
    )


def test_criterion_4_dgp2_sensitivity_zero_error():
    """dgp2 classification error must be exactly 0 in every sweep cell.

    mean_cls_error is scored at the true K, from a cut of the Ward tree
    that does not depend on c_lambda, so the three c_lambda values of one
    design give the same error. Known miss at this seed: 0.0002 (dgp2u)
    and 0.0008 (dgp2m), 5 firms in 10,000. The cause is the unweighted
    feature vector (pi_hat, sigma2_hat): the frontier is common to both
    groups, so pi_hat carries only noise, while a threshold on sigma2_hat
    alone separates the groups in every replication.
    """
    errors = {}
    for design in ("dgp2u", "dgp2m"):
        cfg = McConfig(design=design, sizes=[(100, 50)], replications=50,
                       seed=0, workers=_WORKERS, stages="classification")
        for cl, _, report in sensitivity_sweep(cfg, [0.75, 1.0, 1.5], [1.0]):
            errors[(design, cl)] = report.cells[0].mean_cls_error
    ok = all(v == 0.0 for v in errors.values())
    cells = ", ".join(f"{d} c_lambda={cl:g}: {v:.4f}"
                      for (d, cl), v in errors.items())
    assert _verdict(
        4, "dgp2 sensitivity classification",
        ok,
        f"errors by cell: {cells}; need exactly 0.0 in each",
    )


def test_criterion_5_likelihood_quadrature_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 7))
        sigma_v = float(rng.uniform(0.4, 2.0))
        sigma_u = float(rng.uniform(0.3, 2.0))
        eps = rng.normal(0, sigma_v, size=T) - sample_half_normal(sigma_u, rng)
        dev = eps - eps.mean()
        stats = CompositeStats([eps.sum()], [dev @ dev], [sigma_v ** 2], T)
        (ll,) = _kernels.loglik_unique_total(stats, np.array([[0.0]]),
                                             np.array([[sigma_u ** 2]]))
        ref = halfnormal_marginal_density(eps, sigma_v, sigma_u)
        worst = max(worst, abs(math.exp(ll) - ref) / ref)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed <= 30
    assert _verdict(
        5, "likelihood vs quadrature (200 cases)",
        ok,
        f"max rel err={worst:.2e} need <=1e-8; runtime={elapsed:.1f}s limit 30s",
    )


def test_criterion_6_clustering_oracle():
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        hist = hac_cluster(X)
        oracle = brute_force_agglomerate(X)
        for (a1, b1, c1), (a2, b2, c2) in zip(hist.merges, oracle):
            if (a1, b1) != (a2, b2) or abs(c1 - c2) > 1e-9 * max(1.0, abs(c2)):
                bad += 1
                break
        else:
            for K in range(1, n + 1):
                if not np.array_equal(hist.cut(K).membership,
                                      brute_force_cut(n, oracle, K)):
                    bad += 1
                    break
    ok = bad == 0
    assert _verdict(
        6, "ward merges vs brute force (100 cases)",
        ok, f"{bad} mismatching instances need 0",
    )


def test_criterion_7_least_squares_oracle():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        T = int(rng.integers(25, 60))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(2, 4))
        if trial % 2 == 0:
            x = rng.normal(1.0, 1.0, size=(1, T, p))
            y = rng.normal(size=(1, T))
            panel = PanelData(y=y, x=x)
            est = fit_all(panel, m).coef[0]
            Z = np.column_stack([np.ones(T), design_matrix(x[0], m)])
            ref = normal_equations_solve(Z, y[0])
        else:
            nk = int(rng.integers(2, 4))
            x = rng.normal(1.0, 1.0, size=(nk, T, p))
            y = rng.normal(size=(nk, T))
            panel = PanelData(y=y, x=x)
            est = fit_group(within_factors(panel, m), range(nk), m).pi
            rows = [design_matrix(x[i], m) for i in range(nk)]
            rows = [Zi - Zi.mean(axis=0) for Zi in rows]
            ys = [y[i] - y[i].mean() for i in range(nk)]
            ref = normal_equations_solve(np.vstack(rows), np.concatenate(ys))
        worst = max(worst, float(np.max(np.abs(est - ref))))
    ok = worst <= 1e-8
    assert _verdict(
        7, "least squares vs normal equations (100 cases)",
        ok, f"max abs coef err={worst:.2e} need <=1e-8",
    )


def test_criterion_8_numerical_hygiene():
    problems = []

    # cosine orthonormality by quadrature
    worst_ortho = 0.0
    for j in range(13):
        for k in range(j, 13):
            val, _ = quad(lambda s: np.prod(basis_matrix([s], 13)[0, [j, k]]),
                          0, 1, epsabs=1e-12, epsrel=1e-12, limit=200)
            worst_ortho = max(worst_ortho, abs(val - (1.0 if j == k else 0.0)))
    if worst_ortho > 1e-10:
        problems.append(f"orthonormality {worst_ortho:.2e}")

    # half-normal sampler moment
    draws = sample_half_normal(1.0, np.random.default_rng(3), size=1_000_000)
    moment_err = abs(draws.mean() - math.sqrt(2 / math.pi))
    if moment_err > 0.003:
        problems.append(f"half-normal mean err {moment_err:.4f}")

    # independent finite-difference stencils agree on the gradient
    rng = np.random.default_rng(4)
    n, T = 30, 20
    S = rng.normal(-5, 6, size=n)
    W = rng.uniform(4, 40, size=n)
    stats = CompositeStats(S, W, rng.uniform(0.5, 2.0, size=n), T)

    def f(theta):
        return _kernels.loglik_unique_total(stats, theta[:1, None], theta[1:, None])[0]

    theta = np.array([0.2, 0.9])
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        h = 1e-5
        g1 = (f(theta + h * e) - f(theta - h * e)) / (2 * h)
        g2 = (f(theta + h / 2 * e) - f(theta - h / 2 * e)) / h
        if abs(g1 - g2) > 1e-5 * max(1.0, abs(g2)):
            problems.append(f"gradient stencil mismatch coord {j}")

    # stable log normal CDF across +-40: with T = 4 and unit variances
    # z = -S / sqrt(5), so these residual sums put z on [-40, 40]
    z = np.linspace(-40, 40, 8001)
    S_z = -np.sqrt(5.0) * z
    ones = np.ones_like(z)
    stats_z = CompositeStats(S_z, ones, ones, 4)
    vals = _kernels.loglik_unique_terms_hess(stats_z, np.array([[0.0]]), np.array([[1.0]]))[0]
    if not np.all(np.isfinite(vals)):
        problems.append("log-CDF not finite on [-40, 40]")

    # residual identity: sum e^2 / sigma^2 = Nk (T-1)
    rng2 = np.random.default_rng(5)
    nk, T2, m_under = 4, 40, 3
    x = rng2.normal(size=(nk, T2, 1))
    y = rng2.normal(size=(nk, T2))
    panel = PanelData(y=y, x=x)
    fit = fit_group(within_factors(panel, m_under), range(nk), m_under)
    rss = 0.0
    for i in range(nk):
        Zi = design_matrix(panel.x[i], m_under)
        r = panel.y[i] - Zi @ fit.pi
        r -= r.mean()
        rss += float(r @ r)
    identity = rss / fit.sigma_v ** 2
    if abs(identity - nk * (T2 - 1)) > 1e-8 * nk * (T2 - 1):
        problems.append(f"IC identity off: {identity}")

    ok = not problems
    assert _verdict(
        8, "numerical hygiene suite",
        ok, "; ".join(problems) if problems else "all five checks clean",
    )


def test_criterion_9_full_sweep_config_accepted():
    sizes = [[n, t] for n in (100, 250, 500) for t in (50, 75, 100)]
    designs = ("dgp1u", "dgp1m", "dgp2u", "dgp2m", "dgp3u", "dgp3m")
    accepted = 0
    for design in designs:
        cfg = McConfig.from_dict({
            "design": design, "sizes": sizes, "replications": 500,
            "seed": 0, "workers": 8,
        })
        accepted += len(cfg.sizes)
    ok = accepted == 54
    assert _verdict(
        9, "full 54-case battery accepted (desk-scale suite stands in)",
        ok, f"{accepted} cases validated across {len(designs)} designs",
    )
