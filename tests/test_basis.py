import numpy as np
import pytest
from scipy.integrate import quad

from groupsfa.basis import basis_matrix, coefficient_curves, design_matrix, nested_columns
from groupsfa.dgp import generate
from groupsfa.errors import InputError
from groupsfa.estimation import default_m, fit_all
from groupsfa.postestimation import select_K

from oracles import basis_point, design_row, frontier_eval_per_point

SQRT2 = np.sqrt(2.0)


def B(j, s):
    """B_j(s) at one point, read off the array evaluator."""
    return basis_matrix([s], j + 1)[0, j]


def test_basis_value_constant_term():
    assert B(0, 0.37) == 1.0


def test_basis_value_first_term_at_zero():
    assert B(1, 0.0) == pytest.approx(SQRT2, abs=1e-12)


def test_basis_value_second_term_midpoint():
    assert B(2, 0.5) == pytest.approx(-SQRT2, abs=1e-12)


def test_basis_value_rejects_out_of_range():
    with pytest.raises(InputError):
        basis_matrix([1.5], 2)
    with pytest.raises(InputError):
        basis_matrix([-0.01], 1)
    with pytest.raises(InputError, match="got nan"):
        basis_matrix([np.nan], 3)


@pytest.mark.parametrize("T", [7, 50, 101, 333])
def test_basis_matrix_equals_pointwise_values(T):
    s = np.concatenate([np.arange(1, T + 1) / T, np.linspace(0.0, 1.0, T)])
    got = basis_matrix(s, 13)
    want = np.array([[basis_point(j, v) for j in range(13)] for v in s])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("j,k", [(j, k) for j in range(13) for k in range(j, 13)])
def test_orthonormality_by_quadrature(j, k):
    val, _ = quad(lambda s: B(j, s) * B(k, s), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


@pytest.mark.parametrize("j", range(1, 13))
def test_nonconstant_terms_integrate_to_zero(j):
    val, _ = quad(lambda s: B(j, s), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_grid_near_orthonormality():
    T, m = 500, 8
    Bt = basis_matrix(np.arange(1, T + 1) / T, m)
    G = Bt.T @ Bt / T
    dev = np.abs(G - np.eye(m)).max()
    assert dev < 0.05


def test_design_row_no_regressors():
    row = design_matrix(np.zeros((7, 0)), m=2)[6]
    np.testing.assert_allclose(row, [-SQRT2], atol=1e-12)


def test_design_row_single_regressor_quarter_period():
    row = design_matrix([[2.0], [5.0]], m=2)[0]
    np.testing.assert_allclose(row, [0.0, 2.0, 0.0], atol=1e-12)


def test_design_row_matches_scalar_evaluation():
    x = [1.5, -0.5]
    row = design_matrix([[0.0, 0.0], [0.0, 0.0], x, [0.0, 0.0]], m=3)[2]
    assert len(row) == 2 + 6
    s = 3 / 4
    expected = [B(1, s), B(2, s)]
    for xl in x:
        expected += [xl * B(j, s) for j in range(3)]
    np.testing.assert_allclose(row, expected, atol=1e-12)


def test_design_matrix_stacks_rows():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2))
    Z = design_matrix(x, m=3)
    assert Z.shape == (6, 2 + 6)
    for t in range(6):
        np.testing.assert_allclose(Z[t], design_row(x[t], t=t + 1, T=6, m=3))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_design_matrix_equals_rows_built_one_at_a_time(p):
    x = np.random.default_rng(20 + p).normal(size=(7, p))
    for m in range(2, 10):
        Z = design_matrix(x, m)
        rows = [design_row(x[t], t + 1, 7, m) for t in range(7)]
        np.testing.assert_array_equal(Z, np.array(rows))


def _assert_curves_match_per_point(pi, m, grid):
    got = coefficient_curves(pi, grid, m)
    want = np.array([frontier_eval_per_point(pi, s, m) for s in grid])
    assert got.shape == want.shape == (len(grid), 1 + (len(pi) - (m - 1)) // m)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_curves_equal_per_point_on_random_coefficients(p):
    rng = np.random.default_rng(30 + p)
    grid = np.linspace(0.0, 1.0, 101)
    for m in range(2, 10):
        pi = rng.normal(size=(m - 1) + m * p)
        _assert_curves_match_per_point(pi, m, grid)
        _assert_curves_match_per_point(pi, m, rng.uniform(size=17))


@pytest.mark.parametrize("design", ["dgp1m", "dgp2u", "dgp3m"])
def test_curves_equal_per_point_on_group_fits(design):
    panel, _ = generate(design, 100, 50, seed=4)
    report = select_K(fit_all(panel, default_m(panel.T)), 4, 1.0)
    grid = np.linspace(0.0, 1.0, 101)
    for record in report.records:
        for fit in record.fits:
            _assert_curves_match_per_point(fit.pi, fit.m_under, grid)


def test_curves_read_each_block():
    # a unit coefficient in one slot gives that slot's basis function in
    # its curve's column and zero in every other column
    m, p = 4, 2
    s = np.linspace(0.0, 1.0, 9)
    Bs = basis_matrix(s, m)
    for slot in range((m - 1) + m * p):
        pi = np.zeros((m - 1) + m * p)
        pi[slot] = 1.0
        want = np.zeros((len(s), 1 + p))
        if slot < m - 1:
            want[:, 0] = Bs[:, slot + 1]
        else:
            l, j = divmod(slot - (m - 1), m)
            want[:, 1 + l] = Bs[:, j]
        np.testing.assert_array_equal(coefficient_curves(pi, s, m), want)


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_design_matrix_on_a_stack_equals_per_firm_designs(p, strided):
    # a strided stack is every other firm of a larger one, a view
    x = np.random.default_rng(p).normal(size=(10 if strided else 5, 7, p))
    x = x[::2] if strided else x
    Z = design_matrix(x, m=3)
    per_firm = np.stack([design_matrix(xi, m=3) for xi in x])
    assert Z.shape == (5, 7, 2 + 3 * p)
    np.testing.assert_array_equal(Z, per_firm)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_nested_columns_pick_the_shorter_sieve_from_the_longer(p):
    x = np.random.default_rng(6).normal(size=(2, 17, p))
    longer = design_matrix(x, 6)
    for m_short in range(2, 7):
        np.testing.assert_array_equal(
            longer[..., nested_columns(m_short, 6, p)],
            design_matrix(x, m_short),
        )


@pytest.mark.parametrize("shape", [(7,), (2, 5, 7, 1)])
def test_design_matrix_rejects_other_ranks(shape):
    with pytest.raises(InputError, match=r"\(T, p\) or \(n, T, p\)"):
        design_matrix(np.zeros(shape), m=3)

