import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_ndtr, ndtr

from groupsfa import _kernels
from groupsfa._kernels import CompositeStats
from groupsfa.errors import InputError

from oracles import (
    log_phi_mpmath,
    mixture_loglik_mpmath,
    square_sum_mp,
    unique_grad_mpmath,
    unique_hessian_mpmath,
    unique_loglik_mpmath,
    unique_reference_parts,
    unique_terms_grad_reference,
    unique_total_reference,
)


def _col(*parts):
    """One (R, 1) float kernel column holding the parts' values in order;
    a mixture's alpha0 and sigma_u2 columns are _col(component 1's values,
    component 2's values)."""
    return np.concatenate([np.ravel(p) for p in parts], dtype=float).reshape(-1, 1)


def test_unique_terms_finite_at_extreme_z():
    # T = 4 and unit variances give z = -S / sqrt(5); these residual sums
    # put z at -1e4, -500, -40, 40 and 500, where log Phi(z) needs its
    # asymptotic branch or is 0 to double precision
    T = 4
    z = np.array([-1e4, -500.0, -40.0, 40.0, 500.0])
    S = -np.sqrt(5.0) * z
    ones = np.ones_like(S)
    stats = CompositeStats(S, ones, ones, T)
    (terms,) = _kernels.loglik_unique_terms_grad(stats, _col(0.0), _col(1.0))[0]
    assert np.all(np.isfinite(terms))
    np.testing.assert_array_equal(
        terms, unique_terms_grad_reference(S, ones, ones, T, 0.0, 1.0)[0]
    )


# --- totals against the 60-digit oracle --------------------------------------

# the mixing weights at the optimizer's logit clip +-30
TAU_CLIP = (1.0 / (1.0 + np.exp(30.0)), 1.0 / (1.0 + np.exp(-30.0)))


def _assert_totals_match_mpmath(S, W, sv2, T, unique_rows, mixture_rows):
    # the oracles take the raw square sum, formed from (S, W) in mpmath
    stats, Q = CompositeStats([S], [W], [sv2], T), square_sum_mp(S, W, T)
    for alpha0, su2 in unique_rows:
        (got,) = _kernels.loglik_unique_total(stats, _col(alpha0), _col(su2))
        ref = unique_loglik_mpmath(S, Q, T, sv2, su2, alpha0=alpha0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
    for tau, a1, su2_1, a2, su2_2 in mixture_rows:
        (got,) = _kernels.loglik_mixture_total(
            stats, _col(tau), _col(a1, a2), _col(su2_1, su2_2)
        )
        ref = mixture_loglik_mpmath(S, Q, T, sv2, a1, su2_1, a2, su2_2, tau)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("z", [-1e4, -500.0, -40.0, 40.0, 500.0])
def test_totals_match_mpmath_at_extreme_z(z):
    # T = 4 and unit variances at alpha0 = 0 give z = -S / sqrt(5)
    T = 4
    S = -np.sqrt(5.0) * z
    mixtures = [(tau, 0.0, 1.0, 0.5, 0.3) for tau in (0.3, *TAU_CLIP)]
    _assert_totals_match_mpmath(S, 1.0, 1.0, T, [(0.0, 1.0)], mixtures)


def test_totals_match_mpmath_for_a_level_heavy_firm():
    # level 50 over T = 200 periods: the raw square sum is about 5e5 and
    # the within-firm square sum W about 200, which a difference of the two
    # raw sums would get with about 11 bits lost
    T = 200
    r = 50.0 + np.random.default_rng(4).normal(0.0, 1.0, size=T)
    S = float(r.sum())
    W = float((r - S / T) @ (r - S / T))
    assert float(r @ r) / W > 1e3
    mixtures = [(tau, 50.3, 0.4, 49.8, 0.1) for tau in (0.4, *TAU_CLIP)]
    _assert_totals_match_mpmath(S, W, 1.0, T, [(50.3, 0.4), (49.0, 2.5)], mixtures)


# --- batched totals ---------------------------------------------------------


def _stats(N=37, T=20, seed=0):
    # an odd N leaves a remainder after any SIMD width
    rng = np.random.default_rng(seed)
    S = rng.normal(-5, 6, size=N)
    W = rng.uniform(2, 40, size=N)
    sv2 = rng.uniform(0.3, 2.5, size=N)
    return CompositeStats(S, W, sv2, T)


def _mixture_total(stats, rows):
    """Mixture totals of (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2)
    rows, through one kernel call."""
    tau, a1, su2_1, a2, su2_2 = np.array(rows, dtype=float).T
    return _kernels.loglik_mixture_total(stats, _col(tau), _col(a1, a2), _col(su2_1, su2_2))


# (tau, alpha0_1, sigma_u2_1, alpha0_2, sigma_u2_2): interior points, the
# boundary weights 0 and 1, the mixing weights at the logit clip, and the
# variances at the log-variance clip exp(+-60)
MIXTURE_ROWS = [
    (0.3, 0.4, 0.8, -1.2, 1.7),
    (0.5, -0.25, 2.0, 0.25, 0.05),
    (0.0, 0.9, 1.1, -0.4, 0.6),
    (1.0, 0.9, 1.1, -0.4, 0.6),
    (1.0 / (1.0 + np.exp(30.0)), 1.3, 0.2, 0.1, 3.0),
    (1.0 / (1.0 + np.exp(-30.0)), 1.3, 0.2, 0.1, 3.0),
    (0.7, 0.2, np.exp(-60.0), -0.6, np.exp(60.0)),
    (0.45, -3.0, np.exp(60.0), 2.0, np.exp(-60.0)),
]


def test_batched_mixture_rows_equal_scalar_calls():
    stats = _stats()
    for R in (1, 2, 3, len(MIXTURE_ROWS)):
        totals = _mixture_total(stats, MIXTURE_ROWS[:R])
        assert totals.shape == (R,)
        for row, total in zip(MIXTURE_ROWS, totals):
            one = _mixture_total(stats, [row])
            assert one.shape == (1,)
            assert total == one[0]


def test_batched_unique_rows_equal_scalar_calls():
    stats = _stats(seed=1)
    rows = [(0.3, 0.8), (-1.0, 2.5), (0.0, 1e-3), (2.0, np.exp(-60.0)),
            (-0.7, np.exp(60.0))]
    alpha0s, su2s = np.array(rows).T
    for R in (1, 2, len(rows)):
        totals = _kernels.loglik_unique_total(stats, _col(alpha0s[:R]), _col(su2s[:R]))
        assert totals.shape == (R,)
        for (alpha0, su2), total in zip(rows, totals):
            one = _kernels.loglik_unique_total(stats, _col(alpha0), _col(su2))
            assert one.shape == (1,)
            assert total == one[0]
            assert one[0] == unique_total_reference(
                stats.S, stats.W, stats.sigma_v2, stats.T, float(alpha0), float(su2)
            )


def test_gradient_kernel_equals_the_written_out_forms():
    stats = _stats(seed=3)
    for alpha0, su2 in ((0.3, 0.8), (-2.0, 4.5), (1.0, np.exp(-6.0)), (0.2, np.exp(60.0))):
        got = _kernels.loglik_unique_terms_grad(stats, _col(alpha0), _col(su2))
        ref = unique_terms_grad_reference(stats.S, stats.W, stats.sigma_v2, stats.T, alpha0, su2)
        for (g,), r in zip(got, ref):
            np.testing.assert_array_equal(g, r)


def _mixture_grad_reference(stats, row):
    """The mixture value and gradient in (logit tau, alpha0_1, eta_1,
    alpha0_2, eta_2) of one (tau, alpha0_1, sigma_u2_1, alpha0_2,
    sigma_u2_2) row, from the per-firm single-law kernel and the
    responsibilities of ``log_mixture_terms``."""
    tau, a1, su2_1, a2, su2_2 = row
    (l1, l2), (da1, da2), (de1, de2) = _kernels.loglik_unique_terms_grad(
        stats, _col(a1, a2), _col(su2_1, su2_2))
    x1, lm = _kernels.log_mixture_terms(l1, l2, tau)
    w1 = np.exp(x1 - lm)
    w2 = -np.expm1(x1 - lm)
    return np.sum(lm), np.array([np.sum(w1 - tau), w1 @ da1, w1 @ de1, w2 @ da2, w2 @ de2])


def test_one_pass_totals_equal_the_value_kernels():
    # the value that comes with the gradient is the value kernel's bit for
    # bit; the single law's derivatives are the per-firm ones summed, the
    # mixture's the responsibility-weighted ones of its components
    stats = _stats(seed=4)
    rows = [(0.3, 0.8), (-1.0, 2.5), (2.0, np.exp(-60.0)), (-0.7, np.exp(60.0))]
    alpha0s, su2s = np.array(rows).T
    value, d_alpha0, d_eta = _kernels.loglik_unique_total_grad(stats, _col(alpha0s), _col(su2s))
    np.testing.assert_array_equal(value, _kernels.loglik_unique_total(stats, _col(alpha0s),
                                                                      _col(su2s)))
    for r, (alpha0, su2) in enumerate(rows):
        _, (da,), (de,) = _kernels.loglik_unique_terms_grad(stats, _col(alpha0), _col(su2))
        assert (d_alpha0[r], d_eta[r]) == (np.sum(da), np.sum(de))

    tau, a1, su2_1, a2, su2_2 = np.array(MIXTURE_ROWS).T
    value, grad = _kernels.loglik_mixture_total_grad(stats, _col(tau), _col(a1, a2),
                                                     _col(su2_1, su2_2))
    assert value.shape == (len(MIXTURE_ROWS),) and grad.shape == (len(MIXTURE_ROWS), 5)
    np.testing.assert_array_equal(value, _mixture_total(stats, MIXTURE_ROWS))
    for row, v, g in zip(MIXTURE_ROWS, value, grad):
        ref_value, ref_grad = _mixture_grad_reference(stats, row)
        assert v == pytest.approx(ref_value, rel=1e-13)
        np.testing.assert_allclose(g, ref_grad, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref_grad)))


# --- log Phi's two branches against the mpmath oracles -----------------------

# log Phi(z) is log(ndtr(z)) from z = -37 up and log_ndtr(z) below: a grid
# over both branches, with -37 and its neighbours on either side
TAIL = -37.0
Z_GRID = np.array([-500.0, -40.0, np.nextafter(TAIL, -np.inf), TAIL, np.nextafter(TAIL, np.inf),
                   -36.0, -20.0, -5.0, -1.0, -0.1, 0.0, 0.3, 2.0, 8.0, 40.0])
# the level layouts: one sigma_v2 for all firms, one per group of three,
# and one per firm. Each keeps the scale k between 0.65 and 0.97, so that
# -k S steps by less than a spacing of z near -37 and meets the
# threshold's three grid points exactly
LAYOUTS = {
    "G=1": np.full(len(Z_GRID), 0.4),
    "G=K": np.resize([0.25, 0.35, 0.5], len(Z_GRID)),
    "G=N": np.linspace(0.25, 0.5, len(Z_GRID)),
}
# at alpha0 = 0 the centered sum se is S itself
GRID_T, GRID_ALPHA0, GRID_SU2 = 4, 0.0, 0.8


def _stats_on_grid(sv2):
    """Stats whose firms sit at ``Z_GRID`` at (GRID_ALPHA0, GRID_SU2): each
    S is the float, within 8 spacings of -z / k, whose written-out
    z = -k S is nearest the grid point. The z at and next to the threshold
    are its grid points bit for bit, the others within two spacings."""
    W = np.full(len(Z_GRID), 3.0)
    k = np.sqrt(GRID_SU2 / (sv2 * (sv2 + GRID_T * GRID_SU2)))
    S = -Z_GRID / k
    for i, target in enumerate(Z_GRID):
        candidates = S[i] + np.spacing(S[i]) * np.arange(-8, 9)
        S[i] = candidates[np.argmin(np.abs(-k[i] * candidates - target))]
    stats = CompositeStats(S, W, sv2, GRID_T)
    z = unique_reference_parts(S, W, sv2, GRID_T, GRID_ALPHA0, GRID_SU2)[5]
    np.testing.assert_array_equal(z[2:5], Z_GRID[2:5])
    assert np.all(np.abs(z - Z_GRID) <= 2 * np.spacing(np.abs(Z_GRID)))
    return stats


def test_log_cdf_switches_branch_below_the_threshold(monkeypatch):
    # ndtr is a normal double at the threshold and 0 a unit below it
    assert ndtr(TAIL) >= np.finfo(float).tiny and ndtr(TAIL - 1.0) == 0.0
    # near -37 the two branches agree to the bit, so record which elements
    # reach log_ndtr
    seen = []

    def recording_log_ndtr(z):
        seen.append(np.array(z))
        return log_ndtr(z)

    monkeypatch.setattr(_kernels, "log_ndtr", recording_log_ndtr)
    below = [np.nextafter(TAIL, -np.inf), -40.0, -500.0]
    above = [TAIL, np.nextafter(TAIL, np.inf), -1.0, 0.0, 40.0]
    z = np.array([[above[0], below[0], np.nan, above[1], below[1], above[4], below[2]]])
    got = _kernels._log_cdf(z)
    np.testing.assert_array_equal(np.concatenate(seen), below)
    np.testing.assert_array_equal(got[0, [1, 4, 6]], log_ndtr(below))
    np.testing.assert_array_equal(got[0, [0, 3, 5]], np.log(ndtr(z[0, [0, 3, 5]])))
    assert np.isnan(got[0, 2])
    seen.clear()
    np.testing.assert_array_equal(_kernels._log_cdf(np.array([above])),
                                  np.log(ndtr(np.array([above]))))
    assert not seen
    # within 5.3e-16 relative of 50 digits for z <= 0, 1.2e-16 absolute above
    for point in Z_GRID:
        ref = log_phi_mpmath(point)
        (got,) = _kernels._log_cdf(np.array([point]))
        assert abs(got - ref) <= (5.3e-16 * abs(ref) if point <= 0.0 else 1.2e-16)


def test_z_one_is_the_least_double_where_ndtr_rounds_to_one():
    z_one = _kernels._Z_ONE
    assert ndtr(z_one) == 1.0 > ndtr(np.nextafter(z_one, -np.inf))
    assert 8.29 < z_one < 8.3
    above = np.concatenate([z_one + np.spacing(z_one) * np.arange(1000),
                            np.linspace(z_one, 1e3, 100_001), [np.inf]])
    assert np.all(ndtr(above) == 1.0)


def test_log_cdf_is_zero_from_z_one_up_without_evaluating_it(monkeypatch):
    # bit for bit log(ndtr(z)), log_ndtr(z) below the tail threshold, at
    # z_one and its neighbours, NaN and +-inf; no element from z_one up
    # reaches ndtr
    z_one = _kernels._Z_ONE
    near = z_one + np.spacing(z_one) * np.arange(-3, 4)
    assert near[3] == z_one and near[2] == np.nextafter(z_one, -np.inf)
    z = np.concatenate([near, [np.nan, np.inf, -np.inf, -500.0, -40.0,
                               np.nextafter(TAIL, -np.inf), TAIL, -1.0, 0.0, 5.0, 40.0]])
    seen, real = [], _kernels.ndtr

    def recording_ndtr(x):
        seen.append(np.array(x))
        return real(x)

    monkeypatch.setattr(_kernels, "ndtr", recording_ndtr)
    with np.errstate(divide="ignore"):
        want = np.where(z < TAIL, log_ndtr(z), np.log(real(z)))
    for shape in ((len(z),), (1, len(z)), (len(z), 1)):
        seen.clear()
        got = _kernels._log_cdf(z.reshape(shape))
        assert got.shape == shape
        np.testing.assert_array_equal(got.ravel(), want)
        evaluated = np.concatenate(seen)
        assert not np.any(evaluated >= z_one)
        assert len(evaluated) == np.sum(~(z >= z_one))
    assert np.all(want[z >= z_one] == 0.0) and np.isnan(got.ravel()[7])
    seen.clear()
    np.testing.assert_array_equal(_kernels._log_cdf(np.array([[z_one, 9.0, np.inf]])), 0.0)
    assert not seen


def test_wide_batched_rows_equal_one_row_calls():
    # 2,053 firms, past any SIMD width, and rows that put none, some or
    # all firms at or above z_one, so that each row evaluates log Phi on
    # its own subset of firms
    stats = _stats(N=2053, seed=6)
    rows = [(-1.0, 0.5), (0.5, 0.8), (1.5, 2.0), (2.5, 0.3), (0.2, np.exp(-60.0)), (10.0, 1.0)]
    alpha0s, su2s = np.array(rows).T
    sv2 = stats.sigma_v2
    shares = [np.mean(-np.sqrt(su2 / (sv2 * (sv2 + stats.T * su2))) * (stats.S - stats.T * a)
                      >= _kernels._Z_ONE) for a, su2 in rows]
    assert shares[0] == shares[4] == 0.0 < shares[1] < shares[2] < shares[3] < shares[5] == 1.0

    def arrays(out):
        return out if isinstance(out, tuple) else (out,)

    def row(a, r):  # totals are (R,), per-firm arrays (..., R, N)
        return a[..., r, :] if a.ndim > 1 else a[r]

    for kernel in (_kernels.loglik_unique_total, _kernels.loglik_unique_total_grad,
                   _kernels.loglik_unique_terms_grad, _kernels.loglik_unique_terms_hess):
        batched = arrays(kernel(stats, _col(alpha0s), _col(su2s)))
        for r, (alpha0, su2) in enumerate(rows):
            for b, o in zip(batched, arrays(kernel(stats, _col(alpha0), _col(su2)))):
                np.testing.assert_array_equal(row(b, r), row(o, 0))
    tau, pairs = _col(0.3, 0.6), [(0, 2), (1, 3)]
    batched = [_kernels.loglik_mixture_total(stats, tau, _col(alpha0s[:4]), _col(su2s[:4])),
               *_kernels.loglik_mixture_total_grad(stats, tau, _col(alpha0s[:4]), _col(su2s[:4]))]
    for r, (i, j) in enumerate(pairs):
        args = (stats, tau[r:r + 1], _col(alpha0s[[i, j]]), _col(su2s[[i, j]]))
        one = [_kernels.loglik_mixture_total(*args), *_kernels.loglik_mixture_total_grad(*args)]
        for b, o in zip(batched, one):
            np.testing.assert_array_equal(b[r], o[0])


@pytest.mark.parametrize("layout", LAYOUTS)
def test_terms_and_gradient_on_the_z_grid_match_mpmath(layout):
    # terms to 1e-12 relative, as the totals; the gradient to 1e-10
    # relative, but d/d eta at z = -500 to 1e-6: there lambda + z cancels to
    # about -1/z, and lambda = exp(-z^2/2 - ... - log Phi(z)) carries the
    # rounding of two exponents near 1.25e5, as with log_ndtr throughout
    sv2 = LAYOUTS[layout]
    stats = _stats_on_grid(sv2)
    terms, d_alpha0, d_eta = (
        a[0] for a in _kernels.loglik_unique_terms_grad(stats, _col(GRID_ALPHA0), _col(GRID_SU2))
    )
    for i, z in enumerate(Z_GRID):
        S, W = stats.S[i], stats.W[i]
        ref = unique_loglik_mpmath(S, square_sum_mp(S, W, GRID_T), GRID_T, sv2[i], GRID_SU2,
                                   alpha0=GRID_ALPHA0)
        assert terms[i] == pytest.approx(ref, rel=1e-12, abs=0)
        ref_alpha0, ref_eta = unique_grad_mpmath(S, W, GRID_T, sv2[i], GRID_SU2, GRID_ALPHA0)
        assert d_alpha0[i] == pytest.approx(ref_alpha0, rel=1e-10, abs=0)
        assert d_eta[i] == pytest.approx(ref_eta, rel=1e-10 if abs(z) <= 40.0 else 1e-6, abs=0)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_grid_rows_equal_one_row_calls_and_the_written_out_forms(layout):
    sv2 = LAYOUTS[layout]
    stats = _stats_on_grid(sv2)
    rows = [(GRID_ALPHA0, GRID_SU2), (-3.0, 0.05), (2.0, np.exp(-60.0)), (0.5, np.exp(60.0))]
    alpha0s, su2s = np.array(rows).T
    unique = _kernels.loglik_unique_total(stats, _col(alpha0s), _col(su2s))
    grad = _kernels.loglik_unique_terms_grad(stats, _col(alpha0s), _col(su2s))
    hess = _kernels.loglik_unique_terms_hess(stats, _col(alpha0s), _col(su2s))
    taus = _col(0.3, 1.0, 0.0, 1e-13)
    mixture = _kernels.loglik_mixture_total(stats, taus, _col(alpha0s, alpha0s[::-1]),
                                            _col(su2s, su2s[::-1]))
    for r, (alpha0, su2) in enumerate(rows):
        one = _col(alpha0), _col(su2)
        assert unique[r] == _kernels.loglik_unique_total(stats, *one)[0]
        assert unique[r] == unique_total_reference(stats.S, stats.W, sv2, GRID_T, alpha0, su2)
        for g, ref in zip(grad, unique_terms_grad_reference(stats.S, stats.W, sv2, GRID_T,
                                                           alpha0, su2)):
            np.testing.assert_array_equal(g[r], ref)
        for g, o in zip(grad, _kernels.loglik_unique_terms_grad(stats, *one)):
            np.testing.assert_array_equal(g[r:r + 1], o)
        for h, o in zip(hess, _kernels.loglik_unique_terms_hess(stats, *one)):
            np.testing.assert_array_equal(h[..., r:r + 1, :], o)
        (one_mixture,) = _kernels.loglik_mixture_total(
            stats, taus[r:r + 1], _col(alpha0, alpha0s[::-1][r]), _col(su2, su2s[::-1][r])
        )
        assert mixture[r] == one_mixture


# --- natural-coordinate derivatives against the 40-digit oracle -------------


@pytest.mark.parametrize("sigma_u2", [1e-4, 0.3, 50.0])
@pytest.mark.parametrize("z", [-30.0, -10.0, -1.0, 0.0, 1.0, 10.0, 30.0])
def test_hessian_kernel_matches_mpmath(z, sigma_u2):
    # one firm whose S puts z = -sqrt(su2 / (sv2 si2)) se where asked
    T, sv2, alpha0, W = 4, 0.7, 0.2, 2.0
    S = T * alpha0 - z / math.sqrt(sigma_u2 / (sv2 * (sv2 + T * sigma_u2)))
    stats = CompositeStats([S], [W], [sv2], T)
    terms, grad, hess = _kernels.loglik_unique_terms_hess(stats, _col(alpha0), _col(sigma_u2))
    assert terms.shape == (1, 1) and grad.shape == (2, 1, 1) and hess.shape == (2, 2, 1, 1)
    ref_grad, ref_hess = unique_hessian_mpmath(S, W, T, sv2, sigma_u2, alpha0)
    np.testing.assert_allclose(grad[:, 0, 0], ref_grad, rtol=1e-8, atol=0)
    # within 1e-8 of the largest entry: at z = -30 the closed form of
    # d2/(d alpha0 d sigma_u2) cancels to about 3e-5 of the other entries
    # (its per-entry error is 1.7e-5 relative, and 3e-8 with an exact
    # Mills ratio), while the Hessian as a whole is good to 5e-10
    np.testing.assert_allclose(hess[:, :, 0, 0], ref_hess, rtol=1e-8,
                               atol=1e-8 * np.abs(ref_hess).max())


def test_hessian_kernel_rows_equal_one_row_calls():
    stats = _stats(seed=5)
    alpha0s, su2s = np.array([0.3, -2.0, 1.0]), np.array([0.8, 4.5, np.exp(-6.0)])
    terms, grad, hess = _kernels.loglik_unique_terms_hess(stats, _col(alpha0s), _col(su2s))
    np.testing.assert_array_equal(
        terms, _kernels.loglik_unique_terms_grad(stats, _col(alpha0s), _col(su2s))[0]
    )
    for r, (alpha0, su2) in enumerate(zip(alpha0s, su2s)):
        one = _kernels.loglik_unique_terms_hess(stats, _col(alpha0), _col(su2))
        np.testing.assert_array_equal(one[0], terms[r:r + 1])
        np.testing.assert_array_equal(one[1], grad[:, r:r + 1])
        np.testing.assert_array_equal(one[2], hess[:, :, r:r + 1])


# --- the (R, 1) parameter columns ---------------------------------------------


def test_parameter_lists_give_the_array_results():
    # T * [[0.5]] is list repetition: list columns once gave T = 10 totals,
    # each -11.87 where one total of -11.89 is right
    stats = CompositeStats([1.0], [4.0], [1.0], 10)
    (want,) = _kernels.loglik_unique_total(stats, _col(0.5), _col(1.0))
    got = _kernels.loglik_unique_total(stats, [[0.5]], [[1.0]])
    assert got.shape == (1,) and got[0] == want
    for kernel in (_kernels.loglik_unique_terms_grad, _kernels.loglik_unique_terms_hess):
        for g, w in zip(kernel(stats, [[0.5]], [[1.0]]), kernel(stats, _col(0.5), _col(1.0))):
            np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(
        _kernels.loglik_mixture_total(stats, [[0.3]], [[0.5], [-1]], [[1.0], [2]]),
        _kernels.loglik_mixture_total(stats, _col(0.3), _col(0.5, -1.0), _col(1.0, 2.0)),
    )


@pytest.mark.parametrize("alpha0, sigma_u2, name", [
    (0.5, _col(1.0), "alpha0"),
    (np.array([0.5]), _col(1.0), "alpha0"),
    (_col(0.5), np.ones((1, 2)), "sigma_u2"),
    (_col(0.5), np.ones((1, 1, 1)), "sigma_u2"),
    (_col(0.5), [["a"]], "sigma_u2"),
])
def test_malformed_parameter_columns_raise_input_error(alpha0, sigma_u2, name):
    stats = _stats(N=3)
    for kernel in (_kernels.loglik_unique_total, _kernels.loglik_unique_total_grad,
                   _kernels.loglik_unique_terms_grad, _kernels.loglik_unique_terms_hess):
        with pytest.raises(InputError, match=name):
            kernel(stats, alpha0, sigma_u2)


def test_malformed_mixture_columns_raise_input_error():
    stats = _stats(N=3)
    for kernel in (_kernels.loglik_mixture_total, _kernels.loglik_mixture_total_grad):
        with pytest.raises(InputError, match="tau"):
            kernel(stats, [0.3], _col(0.5, -1.0), _col(1.0, 2.0))
        with pytest.raises(InputError, match="2R = 2 rows"):
            kernel(stats, _col(0.3), _col(0.5), _col(1.0))


# --- properties of the one-stats, column convention ---------------------------


@st.composite
def _stats_inputs(draw):
    """(S, W, sigma_v2, T) with N in 1..40, T in 1..200, finite S,
    W >= 0 and positive sigma_v2."""
    N = draw(st.integers(1, 40))
    T = draw(st.integers(1, 200))

    def floats(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=N, max_size=N)))

    return floats(-1e3, 1e3), floats(0.0, 1e3), floats(1e-3, 1e2), T


# unconstrained coordinates with the optimizer's clip bounds drawn often:
# log variances at +-60 and logit weights at +-30
_ETA = st.one_of(st.sampled_from([-60.0, 60.0]), st.floats(-60.0, 60.0))
_XI = st.one_of(st.sampled_from([-30.0, 30.0]), st.floats(-30.0, 30.0))
_LEVEL = st.floats(-50.0, 50.0)
_ROWS = st.lists(st.tuples(_XI, _LEVEL, _ETA, _LEVEL, _ETA), min_size=1, max_size=6)


def _totals(stats, rows):
    """Mixture and single-law totals of (logit tau, alpha0_1, log sigma_u2_1,
    alpha0_2, log sigma_u2_2) rows; the single law takes component 1."""
    xi, a1, eta1, a2, eta2 = np.array(rows, dtype=float).reshape(-1, 5).T
    tau, su2_1, su2_2 = expit(xi), np.exp(eta1), np.exp(eta2)
    return (
        _kernels.loglik_mixture_total(stats, _col(tau), _col(a1, a2), _col(su2_1, su2_2)),
        _kernels.loglik_unique_total(stats, _col(a1), _col(su2_1)),
    )


@settings(max_examples=60, deadline=None)
@given(_stats_inputs(), _ROWS)
def test_batched_totals_equal_one_row_totals(inputs, rows):
    stats = CompositeStats(*inputs)
    mixture, unique = _totals(stats, rows)
    assert mixture.shape == unique.shape == (len(rows),)
    assert np.all(np.isfinite(mixture)) and np.all(np.isfinite(unique))
    for r, row in enumerate(rows):
        one_mixture, one_unique = _totals(stats, [row])
        assert mixture[r] == one_mixture[0]
        assert unique[r] == one_unique[0]


@settings(max_examples=40, deadline=None)
@given(_stats_inputs(), _ROWS)
def test_stats_from_lists_and_strided_views_equal_contiguous(inputs, rows):
    S, W, sv2, T = inputs
    contiguous = CompositeStats(S, W, sv2, T)
    wide = np.stack([S, W, sv2], axis=1)  # each column a strided view
    assert wide[:, 0].strides == (3 * 8,)
    for stats in (CompositeStats(S.tolist(), W.tolist(), sv2.tolist(), T),
                  CompositeStats(wide[:, 0], wide[:, 1], wide[:, 2], np.int64(T))):
        for name in ("S", "W", "sigma_v2", "prefix"):
            a = getattr(stats, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
        assert stats.T == T and type(stats.T) is int and len(stats) == len(S)
        np.testing.assert_array_equal(stats.prefix, contiguous.prefix)
        for got, want in zip(_totals(stats, rows), _totals(contiguous, rows)):
            np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(_stats_inputs(), _LEVEL, _ETA, _LEVEL, _ETA)
def test_boundary_weight_rows_equal_the_single_law(inputs, a1, eta1, a2, eta2):
    stats = CompositeStats(*inputs)
    su1, su2 = np.exp(eta1), np.exp(eta2)
    one, zero = _kernels.loglik_mixture_total(
        stats, _col(1.0, 0.0), _col(a1, a1, a2, a2), _col(su1, su1, su2, su2)
    )
    assert one == _kernels.loglik_unique_total(stats, _col(a1), _col(su1))[0]
    assert zero == _kernels.loglik_unique_total(stats, _col(a2), _col(su2))[0]


# --- malformed statistics ----------------------------------------------------


def _good():
    return dict(S=np.array([1.0, -2.0]), W=np.array([3.0, 5.0]),
                sigma_v2=np.array([0.5, 1.5]), T=4)


@pytest.mark.parametrize("field, value", [
    ("S", np.ones((2, 1))),
    ("W", np.array([3.0])),  # one element short
    ("sigma_v2", np.array([0.5, 1.5, 1.0])),
    ("S", np.array([])),
    ("W", 3.0),
    ("S", np.array([1.0, np.inf])),
    ("W", np.array([np.nan, 5.0])),
    ("sigma_v2", np.array([np.nan, 1.5])),
    ("sigma_v2", np.array([-1.0, 1.5])),
    ("S", ["a", "b"]),
])
def test_malformed_arrays_raise_input_error_naming_the_field(field, value):
    with pytest.raises(InputError, match=field):
        CompositeStats(**{**_good(), field: value})


@pytest.mark.parametrize("T", [0, -3, 2.0, 2.5, True, "4", None])
def test_non_positive_integer_T_raises_input_error(T):
    with pytest.raises(InputError, match="T must be a positive integer"):
        CompositeStats(**{**_good(), "T": T})


def test_negative_within_sum_raises_input_error():
    # W = -9 is what Q - S^2 / T gives for S = 10, Q = 1 and T = 10, stats
    # that once built and gave a finite log-likelihood
    with pytest.raises(InputError, match="W must not be negative"):
        CompositeStats(S=[10.0], W=[-9.0], sigma_v2=[1.0], T=10)
    with pytest.raises(InputError, match="W must not be negative"):
        CompositeStats(**{**_good(), "W": np.array([3.0, -1e-300])})
    assert CompositeStats(**{**_good(), "W": np.array([0.0, 5.0])}).prefix.shape == (2,)


def test_zero_noise_variance_is_valid_stats_but_not_a_likelihood():
    # a noiseless group's stats still give firm intercepts (S / T)
    stats = CompositeStats(**{**_good(), "sigma_v2": np.array([0.5, 0.0])})
    with pytest.raises(InputError, match=r"sigma_v2 must be positive.*firms \[1\]"):
        _kernels.loglik_unique_total(stats, _col(0.0), _col(1.0))
    with pytest.raises(InputError, match="sigma_v2 must be positive"):
        _kernels.loglik_unique_terms_grad(stats, _col(0.0), _col(1.0))


def test_single_period_and_single_firm_are_valid():
    stats = CompositeStats([0.5], [0.0], [1.0], 1)
    assert len(stats) == 1 and stats.prefix.shape == (1,)
    assert np.isfinite(_kernels.loglik_unique_total(stats, _col(0.0), _col(1.0))[0])


def test_stats_are_read_only():
    source = _good()
    stats = CompositeStats(**source)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.S = np.zeros(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.T = 5
    for name in ("S", "W", "sigma_v2", "prefix"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stats, name)[0] = 0.0
    # the caller's arrays are copied, so writing into them leaves the stats
    prefix = stats.prefix.copy()
    source["S"][0] = 100.0
    source["sigma_v2"][0] = 100.0
    assert stats.S[0] == 1.0 and stats.sigma_v2[0] == 0.5
    np.testing.assert_array_equal(stats.prefix, prefix)
