import numpy as np
import pytest

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
# (k_hat, cls_error, choice at the selected K, errors).
_REFIT_RECORDS = {
    "dgp3m": (2, 0.1, "mixture", {
        "sigma_v_1": 0.08575621268384159, "sigma_v_2": 0.258408142808942,
        "sigma_v_3": 0.4054441406203839, "tau": 0.058895485846597095,
        "alpha0_1": -0.24981034646025357, "sigma_u_1": -0.11814682810827792,
        "alpha0_2": -0.2030746797489138, "sigma_u_2": 0.19925889806440922,
    }),
    "dgp3u": (1, 0.14, "mixture", {
        "sigma_v_1": 0.3631026523584462, "sigma_v_2": 0.48342889020202207,
        "sigma_v_3": 0.18335263385046163, "alpha0": 0.14933512511998548,
        "sigma_u": 0.1853625284530065,
    }),
}


@pytest.mark.parametrize("design", sorted(_REFIT_RECORDS))
def test_refit_at_true_k_pinned(design):
    cfg = McConfig(design=design, sizes=[(50, 30)], replications=1, seed=3)
    rec = run_replication(cfg, (50, 30), 0)
    assert not rec.failed, rec.message
    assert (rec.k_hat, rec.cls_error, rec.choice, rec.errors) == _REFIT_RECORDS[design]


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
    from groupsfa.montecarlo import _mixture_errors

    law = MixtureLaw()  # tau=0.5, (1, 0.75), (-1, 1.25)
    swapped = MixtureFit(tau=0.52, alpha0_1=-1.03, sigma_u2_1=1.21 ** 2,
                         alpha0_2=0.95, sigma_u2_2=0.78 ** 2, loglik=0.0)
    errs = _mixture_errors(swapped, law)
    assert abs(errs["tau"]) == pytest.approx(0.02, abs=1e-12)
    assert errs["alpha0_1"] == pytest.approx(-0.05, abs=1e-9)
    assert errs["sigma_u_1"] == pytest.approx(0.03, abs=1e-9)
    assert errs["alpha0_2"] == pytest.approx(-0.03, abs=1e-9)
    assert errs["sigma_u_2"] == pytest.approx(-0.04, abs=1e-9)


def test_worker_pool_matches_serial():
    cfg_serial = _smoke_config(replications=3)
    cfg_pool = _smoke_config(replications=3, workers=2)
    assert run_monte_carlo(cfg_serial).to_dict() == run_monte_carlo(cfg_pool).to_dict()


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
