"""sdelab benchmark: three study workloads run through ``sdelab.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds this file and
imports sdelab from that checkout's ``src/``.  Every workload run is a fresh
single-threaded interpreter (``--threads 1``) started by ``child.py``; the
seed reaches the program as ``--seed``.  Each run's CSV files are checked
for correctness (``checks.py``) and their sha256 digests are recorded: runs
with the same seed must write identical bytes.

``--trace 0`` repeats the run until ``--seconds`` are spent (at least
MIN_RUNS times) and reports the end-to-end metrics.  ``--trace 1`` runs the
layer microbenchmarks (``micro.py``), then pairs of untraced and traced runs
(``tracer.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines above it state every metric
with its unit and sample count, the failure fraction, the digests and the
machine.  Everything the runs write goes under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_RUNS = 3
SETUP_PROBES = 2  # set-up-only processes before each workload run
DEADLINE_S = 170.0  # whole benchmark, below the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    config: str
    kind: str
    T: float  # horizon of the config's preset
    why: str


WORKLOADS = {
    "mlmc_rmsq": Workload(
        "workloads/mlmc_rmsq.cfg", "mlmc", 1.0,
        "many MLMC samples of 1-64 steps plus three Fourier oracle calls: "
        "stresses per-sample RNG rekeying and the oracle",
    ),
    "cir_converge": Workload(
        "workloads/cir_converge.cfg", "converge", 5.0,
        "long 2^15-step streams in memory-capped batches of width 256, each "
        "grid aggregated from the reference: stresses the step kernel, batch "
        "width and aggregation",
    ),
    "explode_3h": Workload(
        "workloads/explode_3h.cfg", "explode", 4.0,
        "plain MC with Inf as data (overflowing paths), wide batches, no "
        "aggregation or oracle: the only workload that measures overflow",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Which end-to-end figure each layer should move, and where:
# - brownian.draw_s/streams/normals/ns_per_normal: wall_s on mlmc_rmsq and
#   explode_3h; barely on cir_converge (256 streams).
# - brownian.aggregate_*: wall_s on cir_converge; near zero elsewhere.
# - schemes.*: wall_s and path_steps_per_s on cir_converge (width 256), less
#   on explode_3h (about 8x wider), not on mlmc_rmsq.  overflow_paths is
#   non-zero on explode_3h only.
# - brownian.peak_block_bytes: peak_rss_mb on cir_converge and explode_3h.
# - convergence.self_s: cir_converge.  estimators.*: explode_3h, mlmc_rmsq.
# - oracles.*: wall_s on mlmc_rmsq only.
# - util.*, config.parse_s: wall_s and setup_s everywhere (tiny today).
PER_LAYER = {
    "brownian.draw_s": "s",
    "brownian.streams": "count",
    "brownian.normals": "count",
    "brownian.ns_per_normal": "ns",
    "brownian.aggregate_s": "s",
    "brownian.aggregate_bytes_in": "bytes-computed",
    "brownian.peak_block_bytes": "bytes-computed",
    "schemes.simulate_s": "s",
    "schemes.path_steps": "count",
    "schemes.step_iters": "count",
    "schemes.ns_per_path_step": "ns",
    "schemes.batch_width": "paths",
    "schemes.overflow_paths": "count",
    "convergence.self_s": "s",
    "estimators.self_s": "s",
    "estimators.estimates": "count",
    "oracles.fourier_s": "s",
    "oracles.fourier_calls": "count",
    "util.write_csv_s": "s",
    "util.csv_bytes": "bytes",
    "config.parse_s": "s",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "brownian.micro.rate_10000x512": "1/s",
    "brownian.micro.rate_100000x1": "1/s",
    "brownian.micro.aggregate_10000x512_to16_s": "s",
    "schemes.micro.ns_per_path_step_b256": "ns",
    "schemes.micro.ns_per_path_step_b1024": "ns",
    "schemes.micro.ns_per_path_step_b4096": "ns",
    "schemes.micro.ns_per_path_step_b16384": "ns",
    "oracles.micro.heston_call_s": "s",
}


def path_steps(kind: str, cfg: dict, T: float) -> int:
    """Path-steps one run takes, worked out from its config."""
    if kind == "mlmc":
        per_rep = sum(checks.mlmc_plan(eps, T)[1]
                      for eps in checks.as_tuple(cfg["epsilon_list"]))
        return cfg["replications"] * per_rep
    if kind == "converge":
        schemes = len(checks.as_tuple(cfg["scheme"]))
        return cfg["n_samples"] * (
            cfg["ref_n"] + schemes * sum(checks.as_tuple(cfg["n_list"]))
        )
    return sum(checks.as_tuple(cfg["n_list"])) * sum(
        checks.as_tuple(cfg["n_samples_list"])
    )


@dataclass
class Sample:
    tag: str
    rc: int
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float = 0.0
    elapsed_s: float = 0.0
    child: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class Bench:
    """Starts the child processes of one workload and checks their output."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.work = work
        self.config_path = str(BENCH / self.w.config)
        self.cfg = checks.read_config(self.config_path)
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.reference_digests: dict[str, str] | None = None

    def spawn(self, tag: str, cmd: list[str]) -> Sample:
        """Run one child to completion; CLOCK_MONOTONIC brackets it."""
        result_path = self.work / f"{tag}.json"
        with open(self.work / f"{tag}.log", "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *cmd, str(result_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                status, usage = self._reap(proc)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            t_end = time.monotonic()
        sample = Sample(tag, proc.returncode, rss_mb=usage.ru_maxrss / 1024.0,
                        elapsed_s=t_end - t_spawn)
        if result_path.exists():
            sample.child = json.loads(result_path.read_text())
            result_path.unlink()
        if "t_ready" in sample.child:
            sample.setup_s = sample.child["t_ready"] - t_spawn
        if "t_done" in sample.child:
            sample.wall_s = sample.child["t_done"] - sample.child["t_ready"]
        if sample.rc != 0:
            sample.problems.append(f"exit code {sample.rc} (see {tag}.log)")
        return sample

    def _reap(self, proc: subprocess.Popen):
        """Wait for ``proc`` (killing it at the deadline); its wait status
        and its own resource usage, which holds its peak RSS."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            if time.monotonic() > self.deadline:
                proc.kill()
            time.sleep(0.005)

    def probe(self, tag: str) -> Sample:
        return self.spawn(tag, [str(BENCH / "child.py"), "setup",
                                self.config_path, "-", str(self.seed)])

    def run(self, tag: str, mode: str) -> Sample:
        out_dir = self.work / tag
        sample = self.spawn(tag, [str(BENCH / "child.py"), mode,
                                  self.config_path, str(out_dir), str(self.seed)])
        if sample.rc != 0:
            return sample
        try:
            sample.problems += checks.CHECKS[self.w.kind](out_dir, self.cfg, self.w.T)
        except (OSError, KeyError, ValueError) as exc:
            sample.problems.append(f"unreadable output: {exc!r}")
        sample.digests = checks.digests(out_dir)
        if self.reference_digests is None:
            self.reference_digests = sample.digests
        elif sample.digests != self.reference_digests:
            sample.problems.append("CSV bytes differ from the first run with this seed")
        shutil.rmtree(out_dir, ignore_errors=True)
        return sample

    def done(self, started: float, seconds: float, next_s: float,
             count: int, min_count: int) -> bool:
        """Whether to stop repeating: the window of ``seconds`` would be
        overrun by another repeat lasting ``next_s`` and ``min_count`` are
        done, or the overall deadline would be overrun."""
        now = time.monotonic()
        if now + next_s > self.deadline:
            return True
        return count >= min_count and now - started + next_s > seconds


def median(values):
    return statistics.median(values) if values else math.nan


def measure(bench: Bench, seconds: float):
    """Untraced runs until the window is spent; end-to-end metrics."""
    bench.probe("warmup")  # compiles bytecode and warms the file cache
    probes, runs = [], []
    started = time.monotonic()
    while True:
        k = len(runs)
        probes += [bench.probe(f"probe{k}.{i}") for i in range(SETUP_PROBES)]
        runs.append(bench.run(f"run{k}", "run"))
        per_run = median([r.elapsed_s for r in runs]) + sum(
            p.elapsed_s for p in probes[-SETUP_PROBES:])
        if bench.done(started, seconds, per_run, len(runs), MIN_RUNS):
            break
    # Runs that failed their check still timed the program; correct=false
    # in the result says their figures are not to be trusted.
    completed = [r for r in runs if r.rc == 0]
    setups = [s.setup_s for s in probes + completed if s.setup_s is not None]
    walls = [r.wall_s for r in completed]
    wall = median(walls)
    steps = path_steps(bench.w.kind, bench.cfg, bench.w.T)
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": steps / wall,
        "setup_s": median(setups),
        "peak_rss_mb": median([r.rss_mb for r in completed]),
    }
    notes = {
        "wall_s": f"median of {len(walls)} runs, range "
                  f"{min(walls, default=math.nan):.4f}-{max(walls, default=math.nan):.4f} s",
        "path_steps_per_s": f"{steps} path-steps per run (from the config) / wall_s",
        "setup_s": f"median of {len(setups)} set-ups "
                   f"({len(probes)} set-up-only processes + {len(completed)} runs): "
                   "interpreter start, imports, config parse",
        "peak_rss_mb": f"median ru_maxrss of {len(completed)} run processes",
    }
    return runs, metrics, notes


def trace(bench: Bench, seconds: float):
    """Microbenchmarks, then untraced/traced run pairs; per-layer metrics."""
    started = time.monotonic()
    micro = bench.spawn("micro", [str(BENCH / "micro.py"), str(bench.seed)])
    plain, traced = [], []
    while True:
        k = len(plain)
        plain.append(bench.run(f"run{k}", "run"))
        traced.append(bench.run(f"traced{k}", "trace"))
        per_pair = plain[-1].elapsed_s + traced[-1].elapsed_s
        if bench.done(started, seconds, per_pair, len(plain), 1):
            break
    runs = plain + traced + [micro]
    layers = [tracer.layer_metrics(r.child["spans"]) for r in traced if r.rc == 0]
    metrics = dict.fromkeys(PER_LAYER, 0.0)  # layers a workload never calls
    if layers:
        metrics.update({name: median([layer[name] for layer in layers])
                        for name in layers[0]})
    metrics.update(micro.child.get("metrics", {}))
    plain_wall = median([r.wall_s for r in plain if r.rc == 0])
    traced_wall = median([r.wall_s for r in traced if r.rc == 0])
    metrics["trace.overhead"] = traced_wall / plain_wall
    patched = traced[0].child.get("patched", [])
    notes = {
        "trace": f"medians over {len(layers)} traced runs; trace.overhead is the "
                 f"traced over the untraced wall time of {len(plain)} run(s)",
        "patched": ", ".join(patched),
    }
    if metrics["trace.coverage"] < 0.95:
        notes["warning"] = (f"traced layers cover only {metrics['trace.coverage']:.3f} "
                            "of the traced wall time")
    return runs, metrics, notes


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sdelab" / "cli.py").is_file():
        print(f"error: no sdelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2

    work = BENCH / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    runs, metrics, notes = (trace if args.trace else measure)(bench, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END

    failed = [r for r in runs if not r.ok]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload].why}")
    for name, unit in units.items():
        line = f"  {name:44s} {metrics[name]:>16.6g} {unit}"
        print(line + (f"  ({notes[name]})" if name in notes else ""))
    for key in ("trace", "patched", "warning"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    print(f"  failed_frac {len(failed) / len(runs):.4g} ({len(failed)} of {len(runs)} runs)")
    for r in failed:
        print(f"  failed {r.tag}: {'; '.join(r.problems)}")
    for name, digest in (bench.reference_digests or {}).items():
        print(f"  csv sha256 {name} {digest}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))

    measured = all(math.isfinite(metrics[name]) for name in units)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "csv_sha256": bench.reference_digests, "notes": notes,
        "runs": [{"tag": r.tag, "rc": r.rc, "setup_s": r.setup_s, "wall_s": r.wall_s,
                  "rss_mb": r.rss_mb, "problems": r.problems} for r in runs],
        "metrics": metrics,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    if not measured:
        print("error: no run completed to take metrics from", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
