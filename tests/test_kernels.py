import numpy as np
import pytest

from groupsfa import _kernels

from oracles import (
    mixture_loglik_mpmath,
    unique_loglik_mpmath,
    unique_terms_grad_reference,
)


def test_unique_terms_finite_at_extreme_z():
    # T = 4 and unit variances give z = -S / sqrt(5); these residual sums
    # put z at -1e4, -500, -40, 40 and 500, where log Phi(z) needs its
    # asymptotic branch or is 0 to double precision
    T = 4
    z = np.array([-1e4, -500.0, -40.0, 40.0, 500.0])
    S = -np.sqrt(5.0) * z
    ones = np.ones_like(S)
    terms = _kernels.loglik_unique_terms_grad(S, S ** 2 / T + 1.0, ones, T, 0.0, 1.0)[0]
    assert np.all(np.isfinite(terms))
    np.testing.assert_array_equal(
        terms, unique_terms_grad_reference(S, S ** 2 / T + 1.0, ones, T, 0.0, 1.0)[0]
    )


# --- totals against the 60-digit oracle --------------------------------------

# the mixing weights at the optimizer's logit clip +-30
TAU_CLIP = (1.0 / (1.0 + np.exp(30.0)), 1.0 / (1.0 + np.exp(-30.0)))


def _assert_totals_match_mpmath(S, Q, sv2, T, unique_rows, mixture_rows):
    for alpha0, su2 in unique_rows:
        (got,) = _kernels.loglik_unique_total([S], [Q], [sv2], T, alpha0, su2)
        ref = unique_loglik_mpmath(S, Q, T, sv2, su2, alpha0=alpha0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
    for tau, a1, su2_1, a2, su2_2 in mixture_rows:
        (got,) = _kernels.loglik_mixture_total([S], [Q], [sv2], T, tau, a1, su2_1, a2, su2_2)
        ref = mixture_loglik_mpmath(S, Q, T, sv2, a1, su2_1, a2, su2_2, tau)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("z", [-1e4, -500.0, -40.0, 40.0, 500.0])
def test_totals_match_mpmath_at_extreme_z(z):
    # T = 4 and unit variances at alpha0 = 0 give z = -S / sqrt(5)
    T = 4
    S = -np.sqrt(5.0) * z
    mixtures = [(tau, 0.0, 1.0, 0.5, 0.3) for tau in (0.3, *TAU_CLIP)]
    _assert_totals_match_mpmath(S, S ** 2 / T + 1.0, 1.0, T, [(0.0, 1.0)], mixtures)


def test_totals_match_mpmath_for_a_level_heavy_firm():
    # level 50 over T = 200 periods: Q is about 5e5 and the within-firm
    # square sum W = Q - S^2 / T about 200, so W loses about 11 bits
    T = 200
    r = 50.0 + np.random.default_rng(4).normal(0.0, 1.0, size=T)
    S, Q = float(r.sum()), float(r @ r)
    assert Q / (Q - S ** 2 / T) > 1e3
    mixtures = [(tau, 50.3, 0.4, 49.8, 0.1) for tau in (0.4, *TAU_CLIP)]
    _assert_totals_match_mpmath(S, Q, 1.0, T, [(50.3, 0.4), (49.0, 2.5)], mixtures)


# --- batched totals ---------------------------------------------------------


def _stats(N=37, T=20, seed=0):
    # an odd N leaves a remainder after any SIMD width
    rng = np.random.default_rng(seed)
    S = rng.normal(-5, 6, size=N)
    Q = S ** 2 / T + rng.uniform(2, 40, size=N)
    sv2 = rng.uniform(0.3, 2.5, size=N)
    return S, Q, sv2, T


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
    S, Q, sv2, T = _stats()
    cols = np.array(MIXTURE_ROWS).T
    for R in (1, 2, 3, len(MIXTURE_ROWS)):
        totals = _kernels.loglik_mixture_total(S, Q, sv2, T, *cols[:, :R])
        assert totals.shape == (R,)
        for row, total in zip(MIXTURE_ROWS, totals):
            one = _kernels.loglik_mixture_total(S, Q, sv2, T, *map(float, row))
            assert one.shape == (1,)
            assert total == one[0]


def test_batched_unique_rows_equal_scalar_calls():
    S, Q, sv2, T = _stats(seed=1)
    rows = [(0.3, 0.8), (-1.0, 2.5), (0.0, 1e-3), (2.0, np.exp(-60.0)),
            (-0.7, np.exp(60.0))]
    cols = np.array(rows).T
    for R in (1, 2, len(rows)):
        totals = _kernels.loglik_unique_total(S, Q, sv2, T, *cols[:, :R])
        assert totals.shape == (R,)
        for (alpha0, su2), total in zip(rows, totals):
            one = _kernels.loglik_unique_total(S, Q, sv2, T, float(alpha0), float(su2))
            assert one.shape == (1,)
            assert total == one[0]
            terms = unique_terms_grad_reference(S, Q, sv2, T, float(alpha0), float(su2))[0]
            assert one[0] == np.sum(terms)


def test_boundary_weight_rows_equal_the_single_law():
    S, Q, sv2, T = _stats(seed=2)
    a1, su1, a2, su2 = 0.9, 1.1, -0.4, 0.6
    one, zero = _kernels.loglik_mixture_total(
        S, Q, sv2, T, np.array([1.0, 0.0]), [a1, a1], [su1, su1], [a2, a2], [su2, su2]
    )
    assert one == _kernels.loglik_unique_total(S, Q, sv2, T, a1, su1)[0]
    assert zero == _kernels.loglik_unique_total(S, Q, sv2, T, a2, su2)[0]


def test_gradient_kernel_equals_the_written_out_forms():
    S, Q, sv2, T = _stats(seed=3)
    for alpha0, su2 in ((0.3, 0.8), (-2.0, 4.5), (1.0, np.exp(-6.0)), (0.2, np.exp(60.0))):
        got = _kernels.loglik_unique_terms_grad(S, Q, sv2, T, alpha0, su2)
        ref = unique_terms_grad_reference(S, Q, sv2, T, alpha0, su2)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
