"""Command line driver: run configured experiments and write reports.

Exit codes: 0 when every stage assertion passed, 2 on an assertion or
computation failure, 3 on an invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .basis import BasisError, FactorizationError
from .geom import GeomError
from .kernel import KernelError
from .lab import (EXPERIMENTS, ConfigError, ExperimentConfig, load_config,
                  run_experiment)
from .zeros import ContourError, ZeroSearchError

SUBCOMMAND_TAGS = {
    "metric": ("metric-demo",),
    "kernel": ("exhaustion",),
    "zeros": ("barbell", "nowhere-density"),
    "experiment": tuple(EXPERIMENTS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blab",
        description="Bergman kernel laboratory: set metrics, kernel fits, "
                    "and certified kernel zeros on grid domains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, tags in SUBCOMMAND_TAGS.items():
        p = sub.add_parser(name, help=f"run a config with experiment tag in "
                                      f"{tags}")
        p.add_argument("config", help="UTF-8 JSON experiment config")
        p.add_argument("--h", type=float, default=None,
                       help="override the lattice spacing")
        p.add_argument("--seed", type=int, default=None,
                       help="override the probe seed")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="override the output directory")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.h is not None:
        updates["h"] = args.h
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        if config.experiment not in SUBCOMMAND_TAGS[args.command]:
            raise ConfigError(
                f"subcommand {args.command!r} accepts experiments "
                f"{SUBCOMMAND_TAGS[args.command]}, got {config.experiment!r}")
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 3

    try:
        report = run_experiment(config)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 3
    except (GeomError, BasisError, FactorizationError, KernelError,
            ZeroSearchError, ContourError) as e:
        print(f"experiment failed: {e}", file=sys.stderr)
        return 2

    csv_path, json_path = report.write(config.out_dir)
    print(f"experiment: {report.experiment}")
    for row in report.rows:
        parts = []
        for col in report.columns:
            v = row[col]
            if v is None:
                continue
            if isinstance(v, float):
                parts.append(f"{col}={v:.12g}")
            else:
                parts.append(f"{col}={v}")
        print("  " + " ".join(parts))
    for a in report.assertions:
        tag = "PASS" if a["passed"] else "FAIL"
        detail = f": {a['detail']}" if a["detail"] else ""
        print(f"[{tag}] {a['name']}{detail}")
    print(f"report: {csv_path}")
    print(f"summary: {json_path}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
