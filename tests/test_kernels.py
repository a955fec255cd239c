import numpy as np
import pytest
from scipy.special import log_ndtr

from groupsfa import _kernels

from oracles import unique_terms_grad_reference


def test_log_norm_cdf_matches_scipy_mixed_tolerance():
    z = np.linspace(-40, 40, 4001)
    mine = _kernels.log_norm_cdf(z)
    ref = log_ndtr(z)
    assert np.all(np.abs(mine - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_norm_cdf_extreme_arguments_finite():
    z = np.array([-1e4, -500.0, -40.0, 40.0, 500.0])
    out = _kernels.log_norm_cdf(z)
    assert np.all(np.isfinite(out))
    assert out[-1] == pytest.approx(0.0, abs=1e-300)


def test_log_norm_cdf_scalar_shape_preserved():
    assert np.ndim(_kernels.log_norm_cdf(0.0)) == 0
    assert _kernels.log_norm_cdf(0.0) == pytest.approx(np.log(0.5))


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
        assert isinstance(totals, np.ndarray) and totals.shape == (R,)
        for row, total in zip(MIXTURE_ROWS, totals):
            scalar = _kernels.loglik_mixture_total(S, Q, sv2, T, *map(float, row))
            assert isinstance(scalar, float)
            assert total == scalar


def test_batched_unique_rows_equal_scalar_calls():
    S, Q, sv2, T = _stats(seed=1)
    rows = [(0.3, 0.8), (-1.0, 2.5), (0.0, 1e-3), (2.0, np.exp(-60.0)),
            (-0.7, np.exp(60.0))]
    cols = np.array(rows).T
    for R in (1, 2, len(rows)):
        totals = _kernels.loglik_unique_total(S, Q, sv2, T, *cols[:, :R])
        assert totals.shape == (R,)
        for (alpha0, su2), total in zip(rows, totals):
            scalar = _kernels.loglik_unique_total(S, Q, sv2, T, float(alpha0), float(su2))
            assert total == scalar
            terms = unique_terms_grad_reference(S, Q, sv2, T, float(alpha0), float(su2))[0]
            assert scalar == float(np.sum(terms))


def test_boundary_weight_rows_equal_the_single_law():
    S, Q, sv2, T = _stats(seed=2)
    a1, su1, a2, su2 = 0.9, 1.1, -0.4, 0.6
    one, zero = _kernels.loglik_mixture_total(
        S, Q, sv2, T, np.array([1.0, 0.0]), [a1, a1], [su1, su1], [a2, a2], [su2, su2]
    )
    assert one == _kernels.loglik_unique_total(S, Q, sv2, T, a1, su1)
    assert zero == _kernels.loglik_unique_total(S, Q, sv2, T, a2, su2)


def test_gradient_kernel_equals_the_written_out_forms():
    S, Q, sv2, T = _stats(seed=3)
    for alpha0, su2 in ((0.3, 0.8), (-2.0, 4.5), (1.0, np.exp(-6.0)), (0.2, np.exp(60.0))):
        got = _kernels.loglik_unique_terms_grad(S, Q, sv2, T, alpha0, su2)
        ref = unique_terms_grad_reference(S, Q, sv2, T, alpha0, su2)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
        np.testing.assert_array_equal(
            got[0], _kernels.loglik_unique_terms(S, Q, sv2, T, alpha0, su2)
        )
