#!/usr/bin/env python3
"""Run every experiment config in scripts/configs and collect the CSVs.

Each config reproduces one table of the study: negativity statistics,
strong-order regressions (CIR and CEV), the moment-explosion table for the
3/2 model, MLMC cost and rmsq tables, a Fourier-priced Heston run, and the
parameter diagnostics. Seeds live in the config files so reruns are
byte-identical.
"""

import argparse
import pathlib
import sys
import time

from sdelab import cli, config

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
        kind = config.parse_config_file(str(cfg)).kind
        out_dir = out_root / cfg.stem
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        rc = cli.main([kind, "--config", str(cfg), "--out", str(out_dir)])
        status = "ok" if rc == 0 else f"exit {rc}"
        print(f"{cfg.stem:32s} {status:8s} {time.time() - t0:7.1f}s", file=sys.stderr)
        failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
