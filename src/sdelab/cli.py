"""Command-line entry point: one subcommand per experiment type.

Every run needs an explicit seed (from --seed or the config file); there is
no wall-clock fallback, so any published CSV can be regenerated exactly.
Exit codes: 0 success, 2 configuration error, 3 oracle self-check failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENT_KINDS, ConfigError, parse_config_file
from .experiments import run_experiment
from .oracles import OracleError


def _u64(text: str) -> int:
    value = int(text, 10)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must fit in an unsigned 64-bit integer, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="Run reproducible SDE discretization experiments from a "
                    "config file and write CSV artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, help_text in EXPERIMENT_KINDS.items():
        p = sub.add_parser(kind, help=help_text)
        p.add_argument(
            "--config", required=True, metavar="PATH",
            help="experiment config file (strict key = value format)",
        )
        p.add_argument(
            "--seed", type=_u64, metavar="U64",
            help="RNG seed; required here or in the config (never defaulted)",
        )
        p.add_argument(
            "--out", metavar="DIR",
            help="output directory for CSV files (default: config, else '.')",
        )
        p.add_argument(
            "--threads", type=int, choices=(1,), default=1,
            help="accepted for the benchmark's command line; has no effect "
                 "(draws use the CPUs the process may run on)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                [
                    f"config file is for experiment {cfg.kind!r} but the "
                    f"{args.command!r} subcommand was invoked"
                ]
            )
        seed = args.seed if args.seed is not None else cfg.seed
        if seed is None:
            raise ConfigError(
                [
                    "a seed is required: pass --seed or set 'seed' in "
                    "[experiment]; runs are never seeded from the clock"
                ]
            )
        out_dir = args.out if args.out is not None else (cfg.out or ".")
        paths = run_experiment(cfg, seed=seed, out_dir=out_dir)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle self-check failed: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
