"""Command-line front end.

Subcommands mirror the experiment runners: spiral, nn, meanfield, sweep.
Each run writes config.json, trajectory.csv and report.json into the
output directory (sweeps add summary.csv and one subdirectory per grid
value); see docs/csv-schema.md for the column layout. A run that diverges
is a recorded result and still exits 0; configuration or runtime faults
exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import LazyTdError
from .experiments import ExperimentConfig, run_from_config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON experiment config (ExperimentConfig) of this subcommand's "
                        "experiment; flags other than --out are ignored")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    # optional flags default to None and carry the runner's parameter name
    # as dest, so that a flag left out leaves the library's default in force
    parser = argparse.ArgumentParser(prog="lazytd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spiral", help="3-state spiral-manifold run")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=["ode", "stochastic"])
    p.add_argument("--integrator", choices=["euler", "rk4"])
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--beta", type=float)

    p = sub.add_parser("nn", help="ReLU network run on a cyclic chain")
    _add_common(p)
    p.add_argument("--regime", choices=["over", "under"], required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--units", dest="n_units", type=int)
    p.add_argument("--states", dest="n_states", type=int)
    p.add_argument("--mode", choices=["ode", "stochastic"])
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)

    p = sub.add_parser("sweep", help="grid of network runs")
    _add_common(p)
    p.add_argument("--kind", choices=["alpha", "gamma"], required=True)
    p.add_argument("--grid", type=str, required=True,
                   help="comma-separated grid values, e.g. 0.8,0.85,0.9")
    p.add_argument("--regime", choices=["over", "under"])
    p.add_argument("--workers", type=int,
                   help="recorded only: the runs execute one after another in this process")

    p = sub.add_parser("meanfield", help="particle-ensemble run")
    _add_common(p)
    p.add_argument("--particles", dest="n_particles", type=int)
    p.add_argument("--states", dest="n_states", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    return parser


def _dispatch(args: argparse.Namespace):
    """Run the experiment of the --config file, or else the one the flags
    ask for: ``nn --regime R`` is nn-R, ``sweep --kind K`` is K-sweep, and
    every other flag given is a runner parameter."""
    if args.config is not None:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        params = {k: v for k, v in vars(args).items()
                  if v is not None and k not in ("command", "config", "out", "seed")}
        experiment = args.command
        if experiment == "nn":
            experiment = f"nn-{params.pop('regime')}"
        elif experiment == "sweep":
            experiment = f"{params.pop('kind')}-sweep"
            params["grid"] = [float(x) for x in params["grid"].split(",") if x.strip()]
            params["base"] = {"regime": params.pop("regime")} if "regime" in params else {}
        config = ExperimentConfig(experiment, seed=args.seed, params=params)
    if args.out is not None:
        config.out_dir = str(args.out)
    return run_from_config(config, args.command)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
    except (LazyTdError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = {
        "experiment": report.experiment,
        "diverged": report.diverged,
        "final_projected_error": report.final_projected_error,
        "final_value_error": report.final_value_error,
        "wall_clock": round(report.wall_clock, 3),
    }
    if report.certificate is not None and "passed" in report.certificate:
        summary["certificate_passed"] = report.certificate["passed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
