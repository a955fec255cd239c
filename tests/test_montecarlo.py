import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from groupsfa import inefficiency, montecarlo
from groupsfa.errors import ConfigError, InputError
from groupsfa.montecarlo import (
    McConfig,
    RepRecord,
    aggregate,
    format_report_text,
    run_monte_carlo,
    run_replication,
    sensitivity_sweep,
)


def _smoke_config(**kw):
    base = dict(design="dgp2u", sizes=[(20, 50)], replications=2, seed=0)
    base.update(kw)
    return McConfig.from_dict(base)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        McConfig.from_dict({"design": "dgp1u", "sizes": [[10, 20]],
                            "replications": 1, "c_lamda": 1.0})


def test_config_rejects_missing_and_bad_values():
    with pytest.raises(ConfigError):
        McConfig.from_dict({"design": "dgp1u"})
    with pytest.raises(ConfigError):
        _smoke_config(design="dgp7u")
    with pytest.raises(ConfigError):
        _smoke_config(replications=0)
    with pytest.raises(ConfigError):
        _smoke_config(k_max=2, design="dgp3m")  # below the true group count
    with pytest.raises(ConfigError):
        _smoke_config(stages="half")
    with pytest.raises(ConfigError, match="seed"):
        _smoke_config(seed=-1)


@pytest.mark.parametrize("kw", [
    dict(sizes=[(1, 50)]),  # N below the design's two groups
    dict(sizes=[(3, 50)]),  # N below k_max
    dict(sizes=[(20, 50), (20, 5)]),  # a p = 1 fit needs T >= 6
    dict(sizes=[(20, 7)], design="dgp3u"),  # a p = 2 fit needs T >= 8
    dict(c_lambda=float("nan")),
    dict(c_tilde=float("inf")),
    dict(c_lambda=-1.0),
    dict(c_tilde=-0.5),
])
def test_config_rejects_values_no_replication_can_run(kw):
    # the error names the first key of kw
    with pytest.raises(ConfigError, match=next(iter(kw))):
        _smoke_config(**kw)


def test_config_size_bounds_are_the_smallest_runnable_panel():
    # N = k_max and T = m (p + 1) + 2 run; one firm or period fewer does not
    cfg = _smoke_config(sizes=[(4, 6)], stages="classification")
    assert not run_replication(cfg, (4, 6), 0).failed
    assert _smoke_config(design="dgp3u", sizes=[(4, 8)]).sizes == [(4, 8)]
    for design, size in (("dgp2u", (3, 6)), ("dgp2u", (4, 5)), ("dgp3u", (4, 7))):
        with pytest.raises(ConfigError, match="sizes"):
            _smoke_config(design=design, sizes=[size])


@pytest.mark.parametrize("c_lambdas, c_tildes, message", [
    ([1.0, float("nan")], [1.0], "c_lambda must be a finite real number"),
    # an empty grid once returned [] without a run or an error
    ([], [1.0], "c_lambda must hold at least one value"),
    ([1.0], [], "c_tilde must hold at least one value"),
    ((), np.array([]), "c_lambda must hold at least one value"),
])
def test_sweep_checks_every_point_before_the_first_run(monkeypatch, c_lambdas, c_tildes,
                                                       message):
    runs = []
    monkeypatch.setattr(montecarlo, "run_monte_carlo", runs.append)
    with pytest.raises(ConfigError, match=f"^{message}"):
        sensitivity_sweep(_smoke_config(), c_lambdas, c_tildes)
    assert runs == []


def test_config_keeps_penalties_as_floats():
    # report.json prints 1.0 for a penalty given as the integer 1
    cfg = _smoke_config(c_lambda=1, c_tilde=np.int64(0))
    assert (cfg.c_lambda, cfg.c_tilde) == (1.0, 0.0)
    assert type(cfg.c_lambda) is float and type(cfg.c_tilde) is float


def test_replication_deterministic():
    cfg = _smoke_config()
    r1 = run_replication(cfg, (20, 50), 0)
    r2 = run_replication(cfg, (20, 50), 0)
    assert not r1.failed, r1.message
    assert r1.k_hat == r2.k_hat
    assert r1.cls_error == r2.cls_error
    assert r1.choice == r2.choice
    assert r1.errors == r2.errors


def test_replication_classification_only_skips_mle():
    cfg = _smoke_config(stages="classification")
    rec = run_replication(cfg, (20, 50), 0)
    assert not rec.failed
    assert rec.cls_error is not None
    assert rec.choice is None and rec.errors == {}


# Replications whose selected K (2 and 1) is not the design's true K (3),
# so the level parameters are scored on the refit at the true K: a
# mixture-law refit (dgp3m) and a unique-law refit (dgp3u). Each tuple is
# (k_hat, cls_error, choice at the selected K, errors). Every entry is
# compared exactly except the level errors of the mixture-law refit
# (_MIXTURE_LEVEL_KEYS, the fields of dgp.MixtureLaw). Those come
# from the mixture optimum, which an optimizer change need reproduce only
# within 1e-6: they were recorded with eight mixture starts, and the five
# starts that replaced them move the dgp3m errors by up to 1.9e-7. The
# dgp3u level errors come from fit_unique and stay exact; they were
# re-recorded when Step 4 began reading S and W from Step 3's fit, whose
# last bits moved them by 6.1e-11 (alpha0) and 1.5e-10 (sigma_u). The
# sigma_v errors and the dgp3u level errors were re-recorded again when
# Step 3 moved from lstsq to a QR of the firms' stacked R factors: sigma_v
# moved by at most 2.2e-16, alpha0 by 6.1e-11 and sigma_u by 1.5e-10. The
# dgp3u level errors were re-recorded once more when the likelihood
# kernels took log Phi from ndtr and added the summed prefix once: the
# refit's log-likelihood rose by 4.5e-13 (1.7e-16 relative), and BFGS
# stopped 2.4e-10 away in alpha0 and 5.8e-10 in sigma_u.
_REFIT_RECORDS = {
    "dgp3m": (2, 0.1, "mixture", {
        "sigma_v_1": 0.08575621268384159, "sigma_v_2": 0.258408142808942,
        "sigma_v_3": 0.4054441406203837, "tau": 0.058895485846597095,
        "alpha0_1": -0.24981034646025357, "sigma_u_1": -0.11814682810827792,
        "alpha0_2": -0.2030746797489138, "sigma_u_2": 0.19925889806440922,
    }),
    "dgp3u": (1, 0.14, "mixture", {
        "sigma_v_1": 0.36310265235844597, "sigma_v_2": 0.48342889020202207,
        "sigma_v_3": 0.18335263385046185, "alpha0": 0.1493351250565953,
        "sigma_u": 0.1853625283014706,
    }),
}
_MIXTURE_LEVEL_KEYS = {"tau", "alpha0_1", "sigma_u_1", "alpha0_2", "sigma_u_2"}


@pytest.mark.parametrize("design", sorted(_REFIT_RECORDS))
def test_refit_at_true_k_pinned(design):
    cfg = McConfig(design=design, sizes=[(50, 30)], replications=1, seed=3)
    rec = run_replication(cfg, (50, 30), 0)
    assert not rec.failed, rec.message
    k_hat, cls_error, choice, errors = _REFIT_RECORDS[design]
    assert (rec.k_hat, rec.cls_error, rec.choice) == (k_hat, cls_error, choice)
    assert rec.errors.keys() == errors.keys()
    for name, value in errors.items():
        if name in _MIXTURE_LEVEL_KEYS:
            assert rec.errors[name] == pytest.approx(value, rel=0, abs=1e-6), name
        else:
            assert rec.errors[name] == value, name


def test_aggregate_identical_errors():
    recs = [
        RepRecord(rep=i, N=10, T=20, k_hat=2, cls_error=0.0, choice="unique",
                  errors={"alpha0": 0.25})
        for i in range(4)
    ]
    cell = aggregate(recs, k_max=4)
    assert cell.bias["alpha0"] == pytest.approx(0.25)
    assert cell.rmse["alpha0"] == pytest.approx(0.25)
    assert cell.k_freq[2] == 1.0
    assert sum(cell.k_freq.values()) == pytest.approx(1.0)


def test_aggregate_cancellation_vs_dispersion():
    recs = [
        RepRecord(rep=0, N=10, T=20, k_hat=1, cls_error=0.0, choice="unique",
                  errors={"a": 0.3}),
        RepRecord(rep=1, N=10, T=20, k_hat=1, cls_error=0.0, choice="unique",
                  errors={"a": -0.3}),
    ]
    cell = aggregate(recs, k_max=2)
    assert cell.bias["a"] == pytest.approx(0.0)
    assert cell.rmse["a"] == pytest.approx(0.3)
    assert cell.bias["a"] <= cell.rmse["a"]


def test_aggregate_counts_failures():
    recs = [
        RepRecord(rep=0, N=10, T=20, k_hat=1, cls_error=0.0, choice="unique",
                  errors={"a": 0.1}),
        RepRecord(rep=1, N=10, T=20, failed=True, stage="mle", message="boom"),
    ]
    cell = aggregate(recs, k_max=2)
    assert cell.n_failed == 1
    assert cell.rmse["a"] == pytest.approx(0.1)


def test_aggregate_all_failed_raises():
    recs = [RepRecord(rep=0, N=10, T=20, failed=True, stage="generate",
                      message="x")]
    with pytest.raises(InputError):
        aggregate(recs, k_max=2)


def _fail_likelihood_fits(monkeypatch, calls):
    """Make the simplex pass stall and BFGS fail on the first ``calls``
    calls of each, so that no start of those fits converges."""
    real_simplex, real_minimize = inefficiency._simplex, inefficiency.minimize
    counts = {"simplex": 0, "minimize": 0}

    def simplex(f, starts):
        counts["simplex"] += 1
        x, fun, nit, nfev = real_simplex(f, starts)
        if counts["simplex"] <= calls:
            nit[:] = inefficiency._MAX_NM
        return x, fun, nit, nfev

    def minimize(fun, x0, **kwargs):
        counts["minimize"] += 1
        if counts["minimize"] <= calls:
            return OptimizeResult(x=np.asarray(x0, dtype=float), fun=np.inf,
                                  jac=np.full(len(x0), np.inf), success=False)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(inefficiency, "_simplex", simplex)
    monkeypatch.setattr(inefficiency, "minimize", minimize)


def test_replication_records_a_likelihood_convergence_failure(monkeypatch):
    _fail_likelihood_fits(monkeypatch, calls=np.inf)
    rec = run_replication(_smoke_config(), (20, 50), 0)
    assert rec.failed and rec.stage == "mle"
    assert rec.message.startswith(
        "ConvergenceError: likelihood maximization did not converge")
    assert rec.k_hat is not None and rec.choice is None


def test_monte_carlo_counts_a_likelihood_convergence_failure(monkeypatch):
    # the unique fit of replication 0 is the first fit; later fits run
    _fail_likelihood_fits(monkeypatch, calls=1)
    cell = run_monte_carlo(_smoke_config()).cells[0]
    assert (cell.replications, cell.n_failed) == (2, 1)


def test_monte_carlo_raises_when_every_likelihood_fit_fails(monkeypatch):
    _fail_likelihood_fits(monkeypatch, calls=np.inf)
    with pytest.raises(InputError, match="all 2 replications failed; first failure at "
                       "stage mle: ConvergenceError: likelihood maximization did not converge"):
        run_monte_carlo(_smoke_config())


def test_run_monte_carlo_smoke_and_determinism():
    cfg = _smoke_config()
    rep1 = run_monte_carlo(cfg)
    rep2 = run_monte_carlo(cfg)
    assert rep1.to_dict() == rep2.to_dict()
    cell = rep1.cells[0]
    assert sum(cell.k_freq.values()) == pytest.approx(1.0)
    assert cell.n_failed == 0
    text = format_report_text(rep1)
    assert "(20,50)" in text and "K=1" in text


def test_sensitivity_single_point_reduces_to_plain_run():
    cfg = _smoke_config(stages="classification")
    plain = run_monte_carlo(cfg)
    sweep = sensitivity_sweep(cfg, [1.0], [1.0])
    assert len(sweep) == 1
    assert sweep[0][2].to_dict() == plain.to_dict()


def test_sensitivity_lambda_changes_only_selection():
    cfg = _smoke_config(stages="classification", replications=2)
    entries = sensitivity_sweep(cfg, [0.75, 1.5], [1.0])
    # classification error at the true K does not depend on the penalty
    errs = [e[2].cells[0].mean_cls_error for e in entries]
    assert errs[0] == pytest.approx(errs[1])


def test_mixture_error_alignment_handles_swapped_components():
    from groupsfa.dgp import MixtureLaw
    from groupsfa.inefficiency import MixtureFit
    from groupsfa.montecarlo import _law_errors

    law = MixtureLaw()  # tau=0.5, (1, 0.75), (-1, 1.25)
    swapped = MixtureFit(tau=0.52, alpha0_1=-1.03, sigma_u2_1=1.21 ** 2,
                         alpha0_2=0.95, sigma_u2_2=0.78 ** 2, loglik=0.0)
    errs = _law_errors(swapped, law)
    assert abs(errs["tau"]) == pytest.approx(0.02, abs=1e-12)
    assert errs["alpha0_1"] == pytest.approx(-0.05, abs=1e-9)
    assert errs["sigma_u_1"] == pytest.approx(0.03, abs=1e-9)
    assert errs["alpha0_2"] == pytest.approx(-0.03, abs=1e-9)
    assert errs["sigma_u_2"] == pytest.approx(-0.04, abs=1e-9)


def test_worker_pool_matches_serial():
    cfg_serial = _smoke_config(replications=3)
    cfg_pool = _smoke_config(replications=3, workers=2)
    assert run_monte_carlo(cfg_serial).to_dict() == run_monte_carlo(cfg_pool).to_dict()


@pytest.mark.parametrize("cpus,sizes,pool", [
    (64, [(20, 50)], [2]),            # capped by the 2 replication tasks
    (3, [(20, 50), (22, 50)], [3]),   # capped by the CPU count
    (1, [(20, 50)], []),              # one process: serial, no pool
    (None, [(20, 50)], []),           # CPU count unknown: serial
])
def test_pool_size_is_capped_by_tasks_and_cpus(monkeypatch, cpus, sizes, pool):
    started = []

    class InProcessPool:
        """Records the pool size and runs the tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = _smoke_config(sizes=sizes, workers=10000, stages="classification")
    report = run_monte_carlo(cfg).to_dict()
    assert started == pool
    serial = _smoke_config(sizes=sizes, stages="classification")
    assert report == run_monte_carlo(serial).to_dict()


@pytest.mark.slow
def test_dgp3m_small_cell_classification_level():
    # hardest cell of the battery: average error must stay within the
    # 0.11 replication target for this size
    cfg = McConfig(design="dgp3m", sizes=[(100, 50)], replications=10,
                   seed=0, stages="classification")
    cell = run_monte_carlo(cfg).cells[0]
    assert cell.mean_cls_error <= 0.11


@pytest.mark.slow
def test_dgp1m_mixture_detected():
    cfg = McConfig(design="dgp1m", sizes=[(100, 50)], replications=12, seed=0)
    cell = run_monte_carlo(cfg).cells[0]
    assert cell.freq_mixture >= 0.9
    assert cell.k_freq[2] == 1.0


def test_full_sweep_configuration_accepted():
    # the complete simulation battery must validate even though running it
    # is out of scope for the test suite
    sizes = [[n, t] for n in (100, 250, 500) for t in (50, 75, 100)]
    for design in ("dgp1u", "dgp1m", "dgp2u", "dgp2m", "dgp3u", "dgp3m"):
        cfg = McConfig.from_dict(
            {"design": design, "sizes": sizes, "replications": 500,
             "seed": 0, "workers": 8}
        )
        assert cfg.replications == 500
        assert len(cfg.sizes) == 9
