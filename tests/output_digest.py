"""Print sha256 digests of the outputs that byte-identity claims rest on.

Not a test: run each checkout's own copy on its own source and diff what
they print, e.g.

    PYTHONPATH=src python tests/output_digest.py > new.txt
    (cd /path/to/other && PYTHONPATH=src python tests/output_digest.py) > old.txt
    diff old.txt new.txt

Each line is the first 16 hex digits of one output's sha256 and a label;
an output that raises is digested as its exception type and message. Each
set ends with the digest of its lines. Name sets on the command line to
run only those (default: all of them):

* ``dgp``: ``generate(design, N, T, seed, rep)``'s ``y``, ``x``, ``u`` and
  ``component`` (dtype, shape and bytes) on every design at (3, 20),
  (100, 50) and (2000, 50), for seeds 0 and 2**40 and reps 0-1.
* ``estimate``: ``estimate_panel(k_max=min(4, N), seed=rep).to_dict()`` as
  sorted JSON, on every design at (3, 20), (20, 30), (50, 30) and
  (100, 50) for reps 0-2, and on dgp2m (250, 100) for reps 0-7; every
  panel is ``generate(design, N, T, seed=0, rep=rep)``.
* ``groups``: on every ``estimate`` panel, each Step-3 candidate of
  ``select_K(fit_all(panel, default_m(T)), min(4, N), 1.0)``, the
  call ``estimate_panel`` makes: per K, the membership (dtype, shape and
  bytes), and per group fit, ``pi`` (bytes), ``sigma_v`` and ``m_under``.
  ``estimate`` shows only the selected K's groups; this set covers every
  fit ``select_K`` makes.
* ``cli``: the ``estimate`` command's ``result.json`` and ``summary.txt``
  on dgp1m (2000, 50), reps 0-1.
* ``report``: the ``montecarlo`` command's ``report.json`` and
  ``report.txt`` for the configs of acceptance criteria 1-3 and for a
  classification-only dgp2u (100, 50) config.
* ``starts``: every start of every likelihood fit that the ``estimate``
  set runs, as the start's final point and log-likelihood returned by
  ``inefficiency._maximize``, so that an optimizer change shows which
  starts moved and not only which outputs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

from groupsfa import cli, inefficiency
from groupsfa.dgp import DESIGNS, generate
from groupsfa.errors import GroupSfaError
from groupsfa.estimation import default_m, fit_all
from groupsfa.panel import write_panel_csv
from groupsfa.pipeline import estimate_panel
from groupsfa.postestimation import select_K

WORKERS = min(2, os.cpu_count() or 1)


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _dgp():
    for design in DESIGNS:
        for N, T in ((3, 20), (100, 50), (2000, 50)):
            for seed in (0, 2**40):
                for rep in range(2):
                    panel, truth = generate(design, N, T, seed=seed, rep=rep)
                    arrays = {"y": panel.y, "x": panel.x, "u": truth.u,
                              "component": truth.component}
                    for name, a in arrays.items():
                        yield (f"dgp {design} ({N},{T}) seed {seed} rep {rep} {name}",
                               f"{a.dtype} {a.shape} ".encode() + a.tobytes())


def _estimate_panels():
    """(label, panel, rep) of every panel the ``estimate`` set runs."""
    cases = [(d, N, T, rep) for d in DESIGNS
             for N, T in ((3, 20), (20, 30), (50, 30), (100, 50))
             for rep in range(3)]
    cases += [("dgp2m", 250, 100, rep) for rep in range(8)]
    for design, N, T, rep in cases:
        panel, _ = generate(design, N, T, seed=0, rep=rep)
        yield f"{design} ({N},{T}) rep {rep}", panel, rep


def _estimate():
    for name, panel, rep in _estimate_panels():
        label = f"estimate {name}"
        try:
            out = json.dumps(
                estimate_panel(panel, k_max=min(4, panel.N), seed=rep).to_dict(),
                sort_keys=True,
            )
        except GroupSfaError as exc:
            out = f"{type(exc).__name__}: {exc}"
            label += f" raised {type(exc).__name__}"
        yield label, out.encode()


def _groups():
    for name, panel, _ in _estimate_panels():
        try:
            report = select_K(fit_all(panel, default_m(panel.T)),
                              min(4, panel.N), 1.0)
        except GroupSfaError as exc:
            yield f"groups {name} raised {type(exc).__name__}", f"{exc}".encode()
            continue
        for record in report.records:
            member = record.assignment.membership
            yield (f"groups {name} K {record.K} membership",
                   f"{member.dtype} {member.shape} ".encode() + member.tobytes())
            for k, fit in enumerate(record.fits, start=1):
                yield (f"groups {name} K {record.K} group {k}",
                       fit.pi.tobytes() + f" {fit.sigma_v!r} {fit.m_under}".encode())


def _run_cli(argv, names):
    """Run one CLI command quietly; yield (name, bytes) of its outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out-dir", out_dir])
        yield "exit code", str(code).encode()
        for name in names:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    yield name, fh.read()


def _cli():
    for rep in range(2):
        panel, _ = generate("dgp1m", 2000, 50, seed=0, rep=rep)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            write_panel_csv(panel, path)
            for name, data in _run_cli(["estimate", "--input", path],
                                       ("result.json", "summary.txt")):
                yield f"cli dgp1m (2000,50) rep {rep} {name}", data


REPORT_CONFIGS = {
    "criterion 1": {"design": "dgp3m", "sizes": [[250, 100]], "replications": 100},
    "criterion 2": {"design": "dgp2u", "sizes": [[100, 50]], "replications": 100},
    "criterion 3": {"design": "dgp1u", "sizes": [[100, 100]], "replications": 100},
    "classification-only": {"design": "dgp2u", "sizes": [[100, 50]],
                            "replications": 40, "stages": "classification"},
}


def _report():
    for label, config in REPORT_CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump({**config, "seed": 0, "workers": WORKERS}, fh)
            for name, data in _run_cli(["montecarlo", "--config", path],
                                       ("report.json", "report.txt")):
                yield f"report {label} {name}", data


def _starts():
    calls, real = [], inefficiency._maximize

    def recorded(*args):
        x, loglik = real(*args)
        calls.append((x, loglik))
        return x, loglik

    inefficiency._maximize = recorded
    try:
        for label, _ in _estimate():
            panel = label.removeprefix("estimate ")
            for x, loglik in calls:
                fit = "unique" if x.shape[1] == 2 else "mixture"
                for r, (point, value) in enumerate(zip(x, loglik)):
                    yield f"starts {panel} {fit} start {r}", point.tobytes() + value.tobytes()
            calls.clear()
    finally:
        inefficiency._maximize = real


SETS = {"dgp": _dgp, "estimate": _estimate, "groups": _groups, "cli": _cli, "report": _report, "starts": _starts}


def main(argv):
    warnings.simplefilter("ignore")  # the runs' warnings are not outputs
    unknown = [name for name in argv if name not in SETS]
    if unknown:
        sys.exit(f"unknown set(s) {unknown}; choose from {list(SETS)}")
    for name in argv or list(SETS):
        lines = []
        for label, data in SETS[name]():
            lines.append(f"{_digest(data)}  {label}")
            print(lines[-1], flush=True)
        print(f"{_digest(chr(10).join(lines).encode())}  set {name} "
              f"({len(lines)} outputs)", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
