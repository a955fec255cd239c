import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from groupsfa.dgp import (
    CLAMP_HI,
    CLAMP_LO,
    DESIGNS,
    MixtureLaw,
    UniqueLaw,
    _design_curves,
    _stream_states,
    centering_constant,
    design_shape,
    generate,
    logistic_cdf,
)
from groupsfa.errors import InputError

from oracles import firm_rng, generate_per_firm, sample_half_normal

HN_MEAN = math.sqrt(2.0 / math.pi)


@pytest.mark.parametrize("design", DESIGNS)
def test_design_shape_matches_generated_panel(design):
    panel, truth = generate(design.upper(), 6, 10, seed=0)
    assert design_shape(design.upper()) == (truth.K, panel.p)
    assert design_shape(design) == {"1": (2, 1), "2": (2, 1), "3": (3, 2)}[design[3]]


def test_half_normal_zero_sigma():
    rng = np.random.default_rng(0)
    assert sample_half_normal(0.0, rng) == 0.0
    with pytest.raises(InputError):
        sample_half_normal(-1.0, rng)


def test_half_normal_mean_and_variance():
    rng = np.random.default_rng(1)
    draws = sample_half_normal(1.0, rng, size=1_000_000)
    assert draws.mean() == pytest.approx(HN_MEAN, abs=0.003)
    draws2 = sample_half_normal(2.0, rng, size=500_000)
    assert draws2.var() == pytest.approx(4 * (1 - 2 / math.pi), abs=0.015)


def test_centering_constant_zero_mean_basis():
    assert centering_constant(lambda s: math.sqrt(2) * math.cos(math.pi * s)) == (
        pytest.approx(0.0, abs=1e-10)
    )


def test_centering_constant_polynomial():
    assert centering_constant(lambda s: 5 * s ** 2 - s + 1) == pytest.approx(
        13 / 6, abs=1e-10
    )


def test_centering_constant_matches_trapezoid_oracle():
    f = lambda s: 3.0 * logistic_cdf(s, 0.5, 0.1)
    grid = np.linspace(0.0, 1.0, 2_000_001)
    ref = np.trapezoid(f(grid), grid)
    assert centering_constant(f) == pytest.approx(float(ref), abs=1e-8)


def test_centering_constant_rejects_nonfinite_interior():
    with pytest.raises(InputError):
        centering_constant(lambda s: 1.0 / (s - 0.5))


def test_generate_deterministic():
    p1, t1 = generate("dgp1u", 50, 20, seed=42)
    p2, t2 = generate("dgp1u", 50, 20, seed=42)
    np.testing.assert_array_equal(p1.y, p2.y)
    np.testing.assert_array_equal(p1.x, p2.x)
    np.testing.assert_array_equal(t1.u, t2.u)
    p3, _ = generate("dgp1u", 50, 20, seed=43)
    assert not np.array_equal(p1.y, p3.y)


def test_generate_rejects_bad_inputs():
    with pytest.raises(InputError):
        generate("dgp9u", 10, 20, seed=0)
    with pytest.raises(InputError, match="^T must be >= 2, got 1$"):
        generate("dgp1u", 10, 1, seed=0)
    with pytest.raises(InputError, match="^seed must be >= 0, got -1$"):
        generate("dgp1u", 10, 20, seed=-1)
    with pytest.raises(InputError, match="^rep must be >= 0, got -2$"):
        generate("dgp1u", 10, 20, seed=0, rep=-2)
    for name in ("N", "T", "seed", "rep"):
        for bad in (1.5, "3", None):
            args = {"N": 10, "T": 20, "seed": 0, "rep": 0, name: bad}
            with pytest.raises(InputError, match=f"^{name} must be an integer"):
                generate("dgp1u", **args)


def test_generate_accepts_numpy_integers():
    panel, _ = generate("dgp1u", np.int64(10), np.int32(20), seed=np.uint64(3), rep=np.int8(1))
    expected, _ = generate("dgp1u", 10, 20, seed=3, rep=1)
    np.testing.assert_array_equal(panel.y, expected.y)


def test_generate_accepts_the_documented_smallest_t():
    panel, _ = generate("dgp1u", 10, 2, seed=0)
    assert panel.T == 2


@pytest.mark.parametrize("design", DESIGNS)
def test_generate_shapes_and_laws(design):
    panel, truth = generate(design, 30, 15, seed=7)
    base = int(design[3])
    expect_k = 3 if base == 3 else 2
    expect_p = 2 if base == 3 else 1
    assert panel.N == 30 and panel.T == 15 and panel.p == expect_p
    assert truth.K == expect_k
    sizes = np.bincount(truth.membership)[1:]
    assert sizes.max() - sizes.min() <= 1
    if design.endswith("u"):
        assert isinstance(truth.law, UniqueLaw)
        assert np.all(truth.component == 1)
    else:
        assert isinstance(truth.law, MixtureLaw)
        assert set(np.unique(truth.component)) <= {1, 2}


def test_noise_variance_matches_design():
    panel, truth = generate("dgp1u", 100, 50, seed=11)
    # reconstruct v by subtracting every deterministic piece and the level
    tau = np.arange(1, 51) / 50
    v = np.empty_like(panel.y)
    for i in range(100):
        g = truth.membership[i] - 1
        level = truth.law.alpha0 - truth.u[i]
        frontier = truth.alpha_funcs[g](tau) + panel.x[i, :, 0] * truth.beta_funcs[g][0](tau)
        v[i] = panel.y[i] - level - frontier
    assert v.var() == pytest.approx(1.0, abs=0.02)


def test_u_mean_matches_half_normal():
    _, truth = generate("dgp1u", 100_000, 10, seed=12)
    assert truth.u.mean() == pytest.approx(HN_MEAN, abs=0.01)


@pytest.mark.parametrize("design", ["dgp1u", "dgp2u", "dgp3u"])
def test_alpha_curves_integrate_to_zero(design):
    _, truth = generate(design, 6, 20, seed=13)
    for f in truth.alpha_funcs:
        val, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)
        assert val == pytest.approx(0.0, abs=1e-8)


def test_clamped_evaluation_is_finite_at_endpoints():
    alphas, betas, _, _ = _design_curves(3)
    for fs in betas:
        for f in fs:
            assert np.isfinite(f(0.0))
            assert np.isfinite(f(1.0))
            assert f(0.0) == f(CLAMP_LO)
            assert f(1.0) == f(CLAMP_HI)


def test_mixture_components_independent_of_grouping():
    # Cramer's V between group labels and mixture components stays small
    counts = np.zeros((2, 2))
    for rep in range(200):
        _, truth = generate("dgp1m", 40, 10, seed=20, rep=rep)
        for g, c in zip(truth.membership, truth.component):
            counts[g - 1, c - 1] += 1
    n = counts.sum()
    chi2 = 0.0
    for i in range(2):
        for j in range(2):
            e = counts[i].sum() * counts[:, j].sum() / n
            chi2 += (counts[i, j] - e) ** 2 / e
    cramers_v = math.sqrt(chi2 / n)
    assert cramers_v < 0.1


def test_firm_streams_isolated():
    # a firm's draws can be regenerated alone, independent of the others
    panel, truth = generate("dgp2m", 12, 25, seed=33, rep=4)
    dcode = DESIGNS.index("dgp2m")
    i = 7
    x_alone = 2.0 + 0.75 * firm_rng(33, dcode, 4, i, 0).standard_normal((25, 1))
    np.testing.assert_array_equal(panel.x[i], x_alone)
    comp_draw = firm_rng(33, dcode, 4, i, 3).uniform()
    assert truth.component[i] == (1 if comp_draw < 0.5 else 2)


def test_rep_streams_differ():
    p1, _ = generate("dgp1u", 10, 15, seed=5, rep=0)
    p2, _ = generate("dgp1u", 10, 15, seed=5, rep=1)
    assert not np.array_equal(p1.y, p2.y)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("N, T", [(3, 20), (100, 50), (250, 100)])
def test_generate_matches_per_firm_oracle(design, N, T):
    for seed in (0, 2**32, 2**64 + 5, 2**130):
        for rep in (0, 1, 2**32 + 1):
            panel, truth = generate(design, N, T, seed=seed, rep=rep)
            ref_panel, ref_truth = generate_per_firm(design, N, T, seed, rep)
            assert np.all(panel.y == ref_panel.y)
            assert np.all(panel.x == ref_panel.x)
            assert np.all(truth.u == ref_truth.u)
            assert np.all(truth.component == ref_truth.component)
            assert np.all(truth.membership == ref_truth.membership)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**160 - 1),
    design_code=st.integers(0, len(DESIGNS) - 1),
    rep=st.integers(0, 2**40 - 1),
    firms=st.integers(1, 5),
    roles=st.lists(st.integers(0, 3), min_size=1, max_size=4),
)
def test_stream_states_match_seed_sequence(seed, design_code, rep, firms, roles):
    states = _stream_states(seed, design_code, rep, firms, tuple(roles))
    assert states.shape == (firms, len(roles), 4) and states.dtype == np.uint64
    for i in range(firms):
        for r, role in enumerate(roles):
            seq = np.random.SeedSequence(seed, spawn_key=(design_code, rep, i, role))
            np.testing.assert_array_equal(states[i, r], seq.generate_state(4, np.uint64))
