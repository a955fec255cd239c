"""Command line interface: simulate, estimate, montecarlo.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure,
4 configuration error.
"""

import argparse
import csv
import json
import os
import sys

from .dgp import DESIGNS, generate
from .errors import ConfigError, InputError, NumericalError
from .montecarlo import (
    McConfig,
    format_report_text,
    run_monte_carlo,
    sensitivity_sweep,
)
from .panel import read_panel_csv, write_panel_csv
from .pipeline import estimate_panel

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _truth_path(out_path):
    if out_path.endswith(".csv"):
        return out_path[: -len(".csv")] + ".truth.csv"
    return out_path + ".truth.csv"


def _cmd_simulate(args):
    panel, truth = generate(args.design, args.n, args.t, seed=args.seed, rep=args.rep)
    write_panel_csv(panel, args.out)
    with open(_truth_path(args.out), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["firm_id", "group", "u", "component"])
        for i in range(panel.N):
            w.writerow(
                [panel.firm_ids[i], int(truth.membership[i]),
                 repr(float(truth.u[i])), int(truth.component[i])]
            )
    print(f"wrote {args.out} and {_truth_path(args.out)}")
    return EXIT_OK


def _cmd_estimate(args):
    x_cols = args.x_cols.split(",") if args.x_cols else None
    panel = read_panel_csv(
        args.input, firm_col=args.firm_col, time_col=args.time_col,
        y_col=args.y_col, x_cols=x_cols,
    )
    result = estimate_panel(
        panel, m=args.m, k_max=args.kmax, c_lambda=args.c_lambda,
        c_tilde=args.c_tilde, seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out_dir, "summary.txt"), "w") as fh:
        fh.write(result.summary_text() + "\n")
    if args.emit_curves:
        for k, rows in enumerate(result.curves(args.grid), start=1):
            path = os.path.join(args.out_dir, f"curves_group{k}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["s", "alpha"] + [f"beta{l + 1}" for l in range(panel.p)])
                for row in rows:
                    w.writerow([repr(float(v)) for v in row])
    print(result.summary_text())
    print(f"results written to {args.out_dir}")
    return EXIT_OK


def _as_c_list(value, name):
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list) and value and all(
        isinstance(v, (int, float)) for v in value
    ):
        return [float(v) for v in value]
    raise ConfigError(f"{name} must be a number or a nonempty list of numbers")


def _cmd_montecarlo(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: top level must be an object")
    c_lambdas = _as_c_list(raw.pop("c_lambda", 1.0), "c_lambda")
    c_tildes = _as_c_list(raw.pop("c_tilde", 1.0), "c_tilde")
    base = McConfig.from_dict(
        {**raw, "c_lambda": c_lambdas[0], "c_tilde": c_tildes[0]}
    )
    os.makedirs(args.out_dir, exist_ok=True)
    if len(c_lambdas) == 1 and len(c_tildes) == 1:
        report = run_monte_carlo(base)
        payload = report.to_dict()
        text = format_report_text(report)
    else:
        entries = sensitivity_sweep(base, c_lambdas, c_tildes)
        payload = {
            "sweep": [
                {"c_lambda": cl, "c_tilde": ct, **rep.to_dict()}
                for cl, ct, rep in entries
            ]
        }
        text = "\n".join(format_report_text(rep) for _, _, rep in entries)
    with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    print(text)
    print(f"report written to {args.out_dir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupsfa",
        description="Panel stochastic frontier estimation with latent groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic panel CSV")
    sim.add_argument("--design", required=True, choices=DESIGNS)
    sim.add_argument("--n", type=int, required=True, help="number of firms")
    sim.add_argument("--t", type=int, required=True, help="number of periods")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rep", type=int, default=0, help="replication index")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="run the estimation pipeline on a CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--firm-col", default="firm_id")
    est.add_argument("--time-col", default="t")
    est.add_argument("--y-col", default="y")
    est.add_argument("--x-cols", default=None,
                     help="comma-separated regressor columns (default: x1..xp)")
    est.add_argument("--out-dir", required=True)
    est.add_argument("--m", type=int, default=None, help="override sieve length")
    est.add_argument("--kmax", type=int, default=4)
    est.add_argument("--c-lambda", type=float, default=1.0)
    est.add_argument("--c-tilde", type=float, default=1.0)
    est.add_argument("--seed", type=int, default=0,
                     help="seed for the mixture multi-start jitter")
    est.add_argument("--emit-curves", action="store_true")
    est.add_argument("--grid", type=int, default=101, help="curve grid size")
    est.set_defaults(func=_cmd_estimate)

    mc = sub.add_parser("montecarlo", help="run the replication harness")
    mc.add_argument("--config", required=True, help="JSON config path")
    mc.add_argument("--out-dir", required=True)
    mc.set_defaults(func=_cmd_montecarlo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
