"""Layer microbenchmarks at the shapes the estimators and the ROADMAP use.

    python3 perfbench/micro.py SEED RESULT_JSON

Each figure is the median of a few repeats in this one process, after the
inputs are built.  Writes ``{"metrics": {...}}``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

from sdelab import brownian, models, oracles, schemes

# Path-steps per step-kernel measurement, whatever the batch width.
KERNEL_PATH_STEPS = 1 << 20


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(seed: int) -> dict:
    out = {}
    for rows, cols in ((10000, 512), (100000, 1)):
        idx = np.arange(rows)
        t = median_s(lambda: brownian.batch_standard_normals(seed, idx, 0, cols), 3)
        out[f"brownian.micro.rate_{rows}x{cols}"] = rows * cols / t

    block = brownian.batch_standard_normals(seed, np.arange(10000), 0, 512)[None]
    out["brownian.micro.aggregate_10000x512_to16_s"] = median_s(
        lambda: brownian.aggregate_to(block, 16), 5
    )

    preset = models.get_preset("cir-scenario-1")
    model = preset.build()
    config = schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler")
    for width in (256, 1024, 4096, 16384):
        n = KERNEL_PATH_STEPS // width
        dt = preset.T / n
        incr = brownian.batch_standard_normals(seed, np.arange(width), 0, n)
        incr = (incr * math.sqrt(dt))[None]
        t = median_s(lambda: schemes.simulate_batch(config, model, dt, incr), 3)
        out[f"schemes.micro.ns_per_path_step_b{width}"] = t / (width * n) * 1e9

    heston = models.get_preset("heston-mlmc")
    out["oracles.micro.heston_call_s"] = median_s(
        lambda: oracles.heston_call_price(heston.params, heston.strike, heston.T), 1
    )
    return out


if __name__ == "__main__":
    seed, result_path = int(sys.argv[1]), sys.argv[2]
    with open(result_path, "w") as fh:
        json.dump({"metrics": main(seed)}, fh)
