import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from groupsfa.basis import (
    basis_matrix,
    basis_value,
    design_matrix,
    design_row,
    within_demean,
)
from groupsfa.errors import InputError

SQRT2 = np.sqrt(2.0)


def test_basis_value_constant_term():
    assert basis_value(0, 0.37) == 1.0


def test_basis_value_first_term_at_zero():
    assert basis_value(1, 0.0) == pytest.approx(SQRT2, abs=1e-12)


def test_basis_value_second_term_midpoint():
    assert basis_value(2, 0.5) == pytest.approx(-SQRT2, abs=1e-12)


def test_basis_value_rejects_out_of_range():
    with pytest.raises(InputError):
        basis_value(1, 1.5)
    with pytest.raises(InputError):
        basis_value(0, -0.01)


@pytest.mark.parametrize("j,k", [(j, k) for j in range(13) for k in range(j, 13)])
def test_orthonormality_by_quadrature(j, k):
    val, _ = quad(lambda s: basis_value(j, s) * basis_value(k, s), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


@pytest.mark.parametrize("j", range(1, 13))
def test_nonconstant_terms_integrate_to_zero(j):
    val, _ = quad(lambda s: basis_value(j, s), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_grid_near_orthonormality():
    T, m = 500, 8
    B = basis_matrix(T, m)
    G = B.T @ B / T
    dev = np.abs(G - np.eye(m)).max()
    assert dev < 0.05


def test_design_row_no_regressors():
    row = design_row([], t=7, T=7, m=2, with_intercept=True)
    np.testing.assert_allclose(row, [1.0, -SQRT2], atol=1e-12)


def test_design_row_single_regressor_quarter_period():
    row = design_row([2.0], t=1, T=2, m=2, with_intercept=False)
    np.testing.assert_allclose(row, [0.0, 2.0, 0.0], atol=1e-12)


def test_design_row_matches_scalar_evaluation():
    x = [1.5, -0.5]
    row = design_row(x, t=3, T=4, m=3, with_intercept=True)
    assert len(row) == 1 + 2 + 6
    s = 3 / 4
    expected = [1.0, basis_value(1, s), basis_value(2, s)]
    for xl in x:
        expected += [xl * basis_value(j, s) for j in range(3)]
    np.testing.assert_allclose(row, expected, atol=1e-12)


def test_design_matrix_stacks_rows():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2))
    Z = design_matrix(x, m=3, with_intercept=True)
    assert Z.shape == (6, 1 + 2 + 6)
    for t in range(6):
        np.testing.assert_allclose(
            Z[t], design_row(x[t], t=t + 1, T=6, m=3, with_intercept=True)
        )


@pytest.mark.parametrize("with_intercept", [False, True])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_design_matrix_on_a_stack_equals_per_firm_designs(p, with_intercept):
    x = np.random.default_rng(p).normal(size=(5, 7, p))
    Z = design_matrix(x, m=3, with_intercept=with_intercept)
    per_firm = np.stack([design_matrix(xi, m=3, with_intercept=with_intercept) for xi in x])
    assert Z.shape == (5, 7, int(with_intercept) + 2 + 3 * p)
    np.testing.assert_array_equal(Z, per_firm)


@pytest.mark.parametrize("shape", [(7,), (2, 5, 7, 1)])
def test_design_matrix_rejects_other_ranks(shape):
    with pytest.raises(InputError, match=r"\(T, p\) or \(n, T, p\)"):
        design_matrix(np.zeros(shape), m=3, with_intercept=True)


def test_within_demean_constant_and_symmetric():
    np.testing.assert_allclose(within_demean([3.0, 3.0, 3.0]), [0, 0, 0])
    np.testing.assert_allclose(within_demean([1.0, 2.0, 3.0]), [-1, 0, 1])


def test_within_demean_random_mean_tiny():
    rng = np.random.default_rng(11)
    out = within_demean(rng.normal(size=7))
    assert abs(out.mean()) < 1e-12


def test_within_demean_empty_rejected():
    with pytest.raises(InputError):
        within_demean(np.array([]))


@settings(max_examples=30, deadline=None)
@given(arrays(float, st.integers(1, 20),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_within_demean_idempotent(a):
    once = within_demean(a)
    np.testing.assert_allclose(within_demean(once), once, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    arrays(float, 9, elements=st.floats(-1e3, 1e3)),
    arrays(float, 9, elements=st.floats(-1e3, 1e3)),
    st.floats(-10, 10),
)
def test_within_demean_linear(a, b, c):
    lhs = within_demean(a + c * b)
    rhs = within_demean(a) + c * within_demean(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)
