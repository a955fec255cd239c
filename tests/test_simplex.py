"""The lockstep simplex against scipy's Nelder-Mead, one start at a time.

Every start's endpoint, value, evaluation and iteration counts must
equal scipy's, and its convergence (an iteration count below the cap)
scipy's success flag, on the likelihoods the estimator
maximizes and on synthetic objectives that reach every step of the
method: expansion, outside and inside contraction, shrink, ties in the
vertex sort, and the maxiter stop. The stop rule is the module's
constants, which the tests set to scipy's options of the same meaning.
"""

import hashlib

import numpy as np
import pytest

from groupsfa import inefficiency
from groupsfa.dgp import generate
from groupsfa.estimation import default_m, fit_all
from groupsfa.inefficiency import (
    _mixture_objectives,
    _mixture_starts,
    _simplex,
    _unique_objectives,
    composite_residual_stats,
    firm_intercepts,
    fit_unique,
)
from groupsfa.postestimation import select_K

from oracles import nelder_mead_per_start

MLE_OPTIONS = dict(xatol=1e-4, fatol=1e-6, maxiter=2000)


def set_stop_rule(monkeypatch, xatol=1e-4, fatol=1e-6, maxiter=2000):
    """Give the simplex pass scipy's stop options of these names."""
    monkeypatch.setattr(inefficiency, "_XATOL", xatol)
    monkeypatch.setattr(inefficiency, "_FATOL", fatol)
    monkeypatch.setattr(inefficiency, "_MAX_NM", maxiter)


def assert_same_runs(mine, ref):
    x, fun, nit, nfev = mine
    assert len(x) == len(fun) == len(nit) == len(nfev) == len(ref)
    for i, r in enumerate(ref):
        assert np.array_equal(x[i], r.x)
        assert fun[i] == r.fun or (np.isnan(fun[i]) and np.isnan(r.fun))
        assert (nfev[i], nit[i], nit[i] < inefficiency._MAX_NM) == (r.nfev, r.nit, r.success)


def _selected_stats(design):
    panel, _ = generate(design, 100, 50, seed=3)
    report = select_K(fit_all(panel, default_m(panel.T)), 4, 1.0)
    return composite_residual_stats(panel, report.selected.fits)


@pytest.mark.parametrize("design", ["dgp2m", "dgp3m"])
def test_lockstep_equals_scipy_on_the_likelihoods(design):
    stats = _selected_stats(design)
    unique = fit_unique(stats)
    sd_a = float(np.std(firm_intercepts(stats), ddof=1))
    starts = _mixture_starts(unique, sd_a, seed=0)
    objective = _mixture_objectives(stats)[0]

    def neg(X):
        return -objective(X)

    mine = _simplex(neg, starts)
    assert_same_runs(mine, nelder_mead_per_start(neg, starts, **MLE_OPTIONS))
    # the starts stop at different steps, so later calls hold fewer rows
    assert len(set(mine[3])) > 1

    objective = _unique_objectives(stats)[0]
    x0 = np.array([unique.alpha0, np.log(unique.sigma_u2)])
    starts = [x0 + d for d in ([0.0, 0.0], [0.5, -1.0], [-0.3, 2.0])]
    mine = _simplex(neg, starts)
    assert_same_runs(mine, nelder_mead_per_start(neg, starts, **MLE_OPTIONS))


def _noise(levels, nan_every=0):
    """A value from the bits of each point, one of ``levels`` integers, so
    that ties are common; every ``nan_every``-th hash value is NaN."""

    def f(X):
        out = []
        for x in X:
            h = int.from_bytes(hashlib.blake2b(x.tobytes(), digest_size=4).digest(), "little")
            out.append(np.nan if nan_every and h % nan_every == 0 else float(h % levels))
        return np.array(out)

    return f


def _quadratic(X):
    return np.sum((X - 1.0) ** 2 * np.arange(1, X.shape[1] + 1), axis=1)


def _linear(X):
    return X.sum(axis=1)


def _staircase(X):
    # downhill in steps, so an expansion often ties with its reflection
    return np.floor(10.0 * X.sum(axis=1))


def _abs_kink(X):
    # a non-smooth valley, where the simplex contracts across the kink
    return np.abs(X[:, 0] - 2.0 * X[:, 1]) + 1e-3 * np.sum(X * X, axis=1)


STARTS = np.array([
    [0.0, 0.0, 0.0],
    [1.5, -2.0, 0.25],
    [-3.0, 0.0, 7.0],
    [1e-3, 50.0, -0.5],
    [2.0, 2.0, 2.0],
])


@pytest.mark.parametrize("f,options", [
    (_quadratic, dict(xatol=1e-8, fatol=1e-10, maxiter=2000)),
    (_linear, dict(xatol=1e-4, fatol=1e-6, maxiter=40)),
    (_staircase, dict(xatol=1e-4, fatol=1e-6, maxiter=300)),
    (_abs_kink, dict(xatol=1e-10, fatol=1e-12, maxiter=400)),
    (_noise(4), dict(xatol=1e-4, fatol=1e-6, maxiter=300)),
    (_noise(50, nan_every=7), dict(xatol=1e-4, fatol=1e-6, maxiter=150)),
], ids=["quadratic", "linear-maxiter", "staircase", "kink", "ties", "nan"])
def test_lockstep_equals_scipy_on_synthetic_objectives(monkeypatch, f, options):
    set_stop_rule(monkeypatch, **options)
    mine = _simplex(f, STARTS)
    assert_same_runs(mine, nelder_mead_per_start(f, STARTS, **options))


def test_synthetic_objectives_reach_their_steps(monkeypatch):
    n = STARTS.shape[1]
    # a shrink evaluates n points in one step, so an iteration count that
    # cannot account for the evaluations shows that a shrink happened
    set_stop_rule(monkeypatch, maxiter=300)
    for f in (_noise(4), _noise(50)):
        _, _, nit, nfev = _simplex(f, STARTS)
        assert np.any(nfev > (n + 1) + 2 * (nit - 1))
    # downhill along a line every step expands, and only the cap stops it
    set_stop_rule(monkeypatch, maxiter=40)
    _, _, nit, _ = _simplex(_linear, STARTS)
    assert np.all(nit == 40)
    set_stop_rule(monkeypatch, xatol=1e-8, fatol=1e-10)
    x, _, nit, _ = _simplex(_quadratic, STARTS)
    assert np.all(nit < 2000)
    assert np.allclose(x, 1.0, atol=1e-6)


def test_initial_simplex_and_shrinks_are_one_call_each():
    R, n = STARTS.shape
    # _noise(4) shrinks (see above); _abs_kink contracts across its kink
    for f in (_noise(4), _abs_kink):
        rows = []

        def counted(X):
            rows.append(len(X))
            return f(X)

        _, _, nit, nfev = _simplex(counted, STARTS)
        assert rows[0] == R * (n + 1)
        assert sum(rows) == nfev.sum()
        # a step makes at most three calls: the reflections, the second
        # points and the new vertices of every start that shrinks
        assert len(rows) <= 1 + 3 * (nit.max() - 1)


def test_tolerances_are_inclusive(monkeypatch):
    # from x0 = 0 every edge of the initial simplex is exactly 0.00025 long
    x0 = [np.zeros(3)]
    options = dict(xatol=0.00025, fatol=1e300, maxiter=50)
    set_stop_rule(monkeypatch, **options)
    mine = _simplex(_quadratic, x0)
    assert_same_runs(mine, nelder_mead_per_start(_quadratic, x0, **options))
    assert mine[2][0] == 1

    # values 0 at x0 and 0.5 at the other vertices differ by exactly fatol
    def step(X):
        return np.where(X.sum(axis=1) > 0, 0.5, 0.0)

    options = dict(xatol=1e300, fatol=0.5, maxiter=50)
    set_stop_rule(monkeypatch, **options)
    mine = _simplex(step, x0)
    assert_same_runs(mine, nelder_mead_per_start(step, x0, **options))
    assert mine[2][0] == 1
