"""The argument rules of ``errors.as_integer`` and ``errors.as_penalty``,
held at every entry point that takes a count, a seed or a penalty
constant: a bad value, or an integer below its bound, raises the entry
point's typed error, whose message names the argument and the rule it
broke."""

import functools
import json
import math

import pytest

from groupsfa import cli, montecarlo
from groupsfa.dgp import generate
from groupsfa.errors import ConfigError, InputError
from groupsfa.estimation import fit_all
from groupsfa.montecarlo import McConfig
from groupsfa.pipeline import estimate_panel
from groupsfa.postestimation import select_K

BAD_INTEGERS = (True, 1.5, "3", None)
BAD_PENALTIES = (True, "1", math.nan, math.inf, -1)


@functools.cache
def _panel():
    return generate("dgp2u", 20, 30, seed=9)[0]


@functools.cache
def _firm_fits():
    return fit_all(_panel(), 2)


# entry point: (its error, a call with valid defaults overridden by kw,
# integer arguments, integer arguments whose default is None, penalty arguments)
ENTRY_POINTS = {
    "estimate_panel": (
        InputError, lambda **kw: estimate_panel(_panel(), **{"k_max": 2, **kw}),
        ("m", "k_max", "seed"), ("m",), ("c_lambda", "c_tilde"),
    ),
    "generate": (
        InputError, lambda **kw: generate("dgp2u", **{"N": 20, "T": 30, "seed": 0, **kw}),
        ("N", "T", "seed", "rep"), (), (),
    ),
    "select_K": (
        InputError, lambda **kw: select_K(_firm_fits(), **{"K_max": 2, "c_lambda": 1.0, **kw}),
        ("K_max",), (), ("c_lambda",),
    ),
    "McConfig.from_dict": (
        ConfigError,
        lambda **kw: McConfig.from_dict(
            {"design": "dgp2u", "sizes": [[20, 30]], "replications": 1, **kw}),
        ("replications", "k_max", "seed", "workers"), (), ("c_lambda", "c_tilde"),
    ),
}

CASES = [
    (entry, name, value, f"{name} must be an integer, got {value!r}")
    for entry, (_, _, integers, none_default, _) in ENTRY_POINTS.items()
    for name in integers
    for value in BAD_INTEGERS
    if not (value is None and name in none_default)
] + [
    (entry, name, value, f"{name} must be a finite real number >= 0, got {value!r}")
    for entry, (*_, penalties) in ENTRY_POINTS.items()
    for name in penalties
    for value in BAD_PENALTIES
]


@pytest.mark.parametrize("entry, name, value, message", CASES,
                         ids=[f"{e}-{n}-{v!r}" for e, n, v, _ in CASES])
def test_bad_argument_raises_the_typed_error_naming_it(entry, name, value, message):
    error, call = ENTRY_POINTS[entry][:2]
    with pytest.raises(error) as info:
        call(**{name: value})
    assert str(info.value) == message


# (entry point, argument, its lower bound)
BOUNDS = [
    ("estimate_panel", "m", 1),  # m = 0 once ended in a bare IndexError
    ("estimate_panel", "seed", 0),
    ("generate", "T", 2),
    ("generate", "seed", 0),
    ("generate", "rep", 0),
    ("select_K", "K_max", 1),
    ("McConfig.from_dict", "replications", 1),
    ("McConfig.from_dict", "seed", 0),
    ("McConfig.from_dict", "workers", 1),
]


@pytest.mark.parametrize("entry, name, low", BOUNDS, ids=[f"{e}-{n}" for e, n, _ in BOUNDS])
def test_integer_below_its_bound_raises_the_typed_error_naming_it(entry, name, low):
    error, call = ENTRY_POINTS[entry][:2]
    with pytest.raises(error) as info:
        call(**{name: low - 1})
    assert str(info.value) == f"{name} must be >= {low}, got {low - 1}"


@pytest.mark.parametrize("key, value", [("seed", True), ("c_lambda", [1.0, "1"])])
def test_cli_montecarlo_exits_4_before_any_replication(tmp_path, capsys, monkeypatch,
                                                       key, value):
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "run_replication", no_replication)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"design": "dgp2u", "sizes": [[20, 30]],
                               "replications": 1, key: value}))
    assert cli.main(["montecarlo", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 4
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
