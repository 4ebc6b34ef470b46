"""The measured process: one fresh interpreter per workload run.

    python3 perfbench/child.py MODE CONFIG OUT_DIR SEED RESULT_JSON

MODE is ``setup`` (import sdelab and parse the config, then stop), ``run``
(also run the study through ``sdelab.cli.main``) or ``trace`` (the same run
with the tracer's wrappers installed; the spans go into RESULT_JSON).
Times are CLOCK_MONOTONIC readings, so the parent can subtract its own
reading taken just before it started this process.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    mode, config_path, out_dir, seed, result_path = argv
    from sdelab import cli, config

    kind = config.parse_config_file(config_path).kind
    t_ready = time.monotonic()
    result: dict = {"t_ready": t_ready}
    rc = 0
    if mode != "setup":
        cli_args = [kind, "--config", config_path, "--out", out_dir,
                    "--seed", seed, "--threads", "1"]
        if mode == "trace":
            import tracer

            rec = tracer.Recorder()
            result["patched"] = rec.install()
            with rec.span(tracer.ROOT):
                rc = cli.main(cli_args)
            rec.uninstall()
            result["spans"] = rec.spans
        else:
            rc = cli.main(cli_args)
    result["t_done"] = time.monotonic()
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
