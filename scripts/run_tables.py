#!/usr/bin/env python3
"""Run every experiment config in scripts/configs and collect the CSVs.

Each config reproduces one table of the study: negativity statistics,
strong-order regressions (CIR and CEV), the moment-explosion table for the
3/2 model, MLMC cost and rmsq tables, a Fourier-priced Heston run, and the
parameter diagnostics. Seeds live in the config files so reruns are
byte-identical. Each line gives a config's wall time and the path-steps its
run takes (``experiments.run_work``, the work bound's own count), so also its
path-steps per second.
"""

import argparse
import pathlib
import sys
import time

from sdelab import cli, config, experiments, models

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="tables", help="output directory (default: tables)")
    ap.add_argument("--only", default="", help="substring filter on config names")
    args = ap.parse_args(argv)

    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if args.only in c.name]
    if not configs:
        print("no configs matched", file=sys.stderr)
        return 2

    out_root = pathlib.Path(args.out)
    failures = 0
    for cfg in configs:
        parsed = config.parse_config_file(str(cfg))
        model = models.build_model(parsed.model_id, parsed.params)
        steps = experiments.run_work(parsed, model)[0] // model.m
        out_dir = out_root / cfg.stem
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rc = cli.main([parsed.kind, "--config", str(cfg), "--out", str(out_dir)])
        wall = time.perf_counter() - t0
        status = "ok" if rc == 0 else f"exit {rc}"
        print(f"{cfg.stem:32s} {status:8s} {wall:7.1f}s {steps:14,d} path-steps "
              f"{steps / wall:9.3g}/s", file=sys.stderr)
        failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
