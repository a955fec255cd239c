"""Record the likelihood fits of a fixed panel sweep, and compare two records.

Not a test: run it on two checkouts and compare what it writes, e.g.

    PYTHONPATH=/path/to/other/src python tests/optima_sweep.py run old.json
    PYTHONPATH=src python tests/optima_sweep.py run new.json
    PYTHONPATH=src python tests/optima_sweep.py compare old.json new.json

The sweep is every design at (50, 30), (100, 50) and (250, 100) for reps
0-8, and dgp1m (2000, 50) for reps 0-1: 164 panels, each
``generate(design, N, T, seed=0, rep=rep)`` run through
``estimate_panel(panel, k_max=4, seed=rep)``. ``run`` writes per panel
the selected K, a digest of the membership, the chosen model, both fits'
log-likelihood, parameters and standard errors, the Step-3 group fits of
every K (each group's ``sigma_v`` and ``pi``), and the Step-1
``features`` of ``fit_all(panel, default_m(T))``, the call
``estimate_panel`` makes; a panel whose estimation raises records the
error instead. ``compare`` prints the K,
membership and choice flips, the largest relative log-likelihood moves in
each direction with counts beyond 1e-12 and 1e-9, every standard error
that turned null or stopped being null, the largest relative
standard-error move on a chosen and on a runner-up fit, the largest
relative move of a group's ``sigma_v`` and ``pi`` (``pi`` relative to
its largest entry), and that of a Step-1 feature (relative to the largest
entry of its column). It exits 1 when the records differ in an error, K,
membership or choice, in which standard errors are null, by a
log-likelihood more than 1e-12 relative lower in the new record, or by a
group ``sigma_v`` or ``pi`` or a feature more than 1e-12 relative, so a
likelihood, Step-1 or Step-3 change can quote it as its gate. Records
written before the group fits or the features were recorded are compared
on the rest. Only public calls are used,
so the script runs on any checkout that has them.
"""

import hashlib
import json
import sys
import warnings

import numpy as np

from groupsfa.dgp import DESIGNS, generate
from groupsfa.errors import GroupSfaError
from groupsfa.estimation import default_m, fit_all
from groupsfa.pipeline import estimate_panel

SIZES = ((50, 30), (100, 50), (250, 100))
FITS = ("unique", "mixture")
# the largest relative log-likelihood fall that ``compare`` accepts
FALL_TOL = 1e-12
# the largest relative move of a group's sigma_v or pi, or of a Step-1
# feature, that ``compare`` accepts
GROUP_TOL = 1e-12


def _panels():
    cases = [(d, N, T, rep) for d in DESIGNS for N, T in SIZES for rep in range(9)]
    cases += [("dgp1m", 2000, 50, rep) for rep in range(2)]
    for design, N, T, rep in cases:
        yield f"{design} ({N},{T}) rep {rep}", design, N, T, rep


def _fit_record(fit):
    names = ("alpha0", "sigma_u2") if not hasattr(fit, "tau") else (
        "tau", "alpha0_1", "sigma_u2_1", "alpha0_2", "sigma_u2_2")
    return {
        "loglik": float(fit.loglik),
        "params": [float(getattr(fit, name)) for name in names],
        "se": None if fit.se is None else [float(v) for v in fit.se],
    }


def run(path):
    warnings.simplefilter("ignore")  # the runs' warnings are not outputs
    records = {}
    for label, design, N, T, rep in _panels():
        panel, _ = generate(design, N, T, seed=0, rep=rep)
        try:
            result = estimate_panel(panel, k_max=4, seed=rep)
        except GroupSfaError as exc:
            records[label] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        membership = np.ascontiguousarray(result.assignment.membership, dtype=np.int64)
        records[label] = {
            "K": int(result.selected_K),
            "membership": hashlib.sha256(membership.tobytes()).hexdigest()[:16],
            "choice": result.choice.chosen,
            "unique": _fit_record(result.unique_fit),
            "mixture": _fit_record(result.mixture_fit),
            "groups": [[{"sigma_v": float(f.sigma_v), "pi": [float(v) for v in f.pi]}
                        for f in record.fits] for record in result.ic_report.records],
            "features": fit_all(panel, default_m(T)).features.tolist(),
        }
        print(label, flush=True)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)


def _relative(new, old):
    return (new - old) / abs(old) if old != 0.0 else new - old


def _group_moves(a, b):
    """Largest relative moves (sigma_v, pi) over the group fits of two
    records of one panel; pi's move is relative to its largest entry."""
    sigma, pi = 0.0, 0.0
    for groups_a, groups_b in zip(a, b):
        for ga, gb in zip(groups_a, groups_b):
            sigma = max(sigma, abs(_relative(gb["sigma_v"], ga["sigma_v"])))
            old, new = np.asarray(ga["pi"]), np.asarray(gb["pi"])
            scale = np.max(np.abs(old))
            move = np.max(np.abs(new - old))
            pi = max(pi, float(move / scale if scale > 0.0 else move))
    return sigma, pi


def _feature_move(a, b):
    """Largest move of a Step-1 feature between two records of one panel,
    relative to the largest entry of the feature's column."""
    old, new = np.asarray(a), np.asarray(b)
    scale = np.max(np.abs(old), axis=0)
    move = np.max(np.abs(new - old), axis=0)
    return float(np.max(np.where(scale > 0.0, move / np.where(scale > 0.0, scale, 1.0), move)))


def compare(old_path, new_path):
    """Print the differences of two records; return whether they pass the
    gate (no flip of any kind, no fall beyond ``FALL_TOL``, no group move
    beyond ``GROUP_TOL``)."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    common = [label for label in old if label in new]
    print(f"{len(common)} panels in both records "
          f"({len(old)} old, {len(new)} new)")
    flips = {"error": [], "K": [], "membership": [], "choice": []}
    moves = []  # (relative loglik move, panel, fit)
    se_flips = []
    se_moves = {"chosen": (0.0, None), "runner-up": (0.0, None)}
    group_moves = {"sigma_v": (0.0, None), "pi": (0.0, None)}
    group_panels, group_fails = 0, 0  # panels compared, and with a move beyond GROUP_TOL
    feature_move, feature_panels, feature_fails = (0.0, None), 0, 0
    for label in common:
        a, b = old[label], new[label]
        if "error" in a or "error" in b:
            if a.get("error") != b.get("error"):
                flips["error"].append(f"{label}: {a.get('error')} -> {b.get('error')}")
            continue
        for key in ("K", "membership", "choice"):
            if a[key] != b[key]:
                flips[key].append(f"{label}: {a[key]} -> {b[key]}")
        if "groups" in a and "groups" in b:
            panel_moves = _group_moves(a["groups"], b["groups"])
            group_panels += 1
            group_fails += max(panel_moves) > GROUP_TOL
            for name, move in zip(group_moves, panel_moves):
                if move > group_moves[name][0]:
                    group_moves[name] = (move, label)
        if "features" in a and "features" in b:
            move = _feature_move(a["features"], b["features"])
            feature_panels += 1
            feature_fails += move > GROUP_TOL
            if move > feature_move[0]:
                feature_move = (move, label)
        for fit in FITS:
            fa, fb = a[fit], b[fit]
            moves.append((_relative(fb["loglik"], fa["loglik"]), label, fit))
            if (fa["se"] is None) != (fb["se"] is None):
                se_flips.append(f"{label} {fit}: {fa['se']} -> {fb['se']}")
            elif fa["se"] is not None:
                role = "chosen" if a["choice"] == fit else "runner-up"
                for sa, sb in zip(fa["se"], fb["se"]):
                    rel = abs(_relative(sb, sa))
                    if rel > se_moves[role][0]:
                        se_moves[role] = (rel, f"{label} {fit}")
    for key, items in flips.items():
        print(f"{key} flips: {len(items)}")
        for item in items:
            print(f"  {item}")
    if moves:
        up = max(moves)
        down = min(moves)
        print(f"largest log-likelihood rise: {up[0]:.3e} relative, {up[1]} {up[2]}")
        print(f"largest log-likelihood fall: {down[0]:.3e} relative, {down[1]} {down[2]}")
        for tol in (FALL_TOL, 1e-9):
            higher = sum(m > tol for m, _, _ in moves)
            lower = sum(m < -tol for m, _, _ in moves)
            print(f"beyond {tol:g} relative: {higher} higher, {lower} lower "
                  f"of {len(moves)} fits")
    print(f"se null flips: {len(se_flips)}")
    for item in se_flips:
        print(f"  {item}")
    for role, (rel, where) in se_moves.items():
        print(f"largest relative se move, {role} fits: {rel:.3e}"
              + (f", {where}" if where else ""))
    print(f"group fits compared on {group_panels} panels")
    for name, (rel, where) in group_moves.items():
        print(f"largest relative group {name} move: {rel:.3e}"
              + (f", {where}" if where else ""))
    print(f"features compared on {feature_panels} panels")
    print(f"largest relative feature move: {feature_move[0]:.3e}"
          + (f", {feature_move[1]}" if feature_move[1] else ""))
    falls = sum(m < -FALL_TOL for m, _, _ in moves)
    passed = not (any(flips.values()) or se_flips or falls or group_fails or feature_fails)
    print("gate:", "pass" if passed else
          f"FAIL ({falls} log-likelihood falls beyond {FALL_TOL:g}, "
          f"{sum(map(len, flips.values()))} flips, {len(se_flips)} se null flips, "
          f"{group_fails} panels with group moves and {feature_fails} with feature "
          f"moves beyond {GROUP_TOL:g})")
    return passed


def main(argv):
    if len(argv) == 2 and argv[0] == "run":
        run(argv[1])
    elif len(argv) == 3 and argv[0] == "compare":
        sys.exit(0 if compare(argv[1], argv[2]) else 1)
    else:
        sys.exit("usage: optima_sweep.py run OUT.json | compare OLD.json NEW.json")


if __name__ == "__main__":
    main(sys.argv[1:])
