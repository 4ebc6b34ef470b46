"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the tracer's self-time arithmetic, that tracing leaves the
program's output bytes alone, that the correctness checks reject corrupted
output, and that BENCHMARK.json matches the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts]


def test_self_times_on_synthetic_tree():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a1", 20, 30, 1),
        span("b", 50, 90, 0),
        span("c", 60, 95, 0),  # overlaps b: the union is counted once
        span("d", 98, 120, 0),  # runs past its parent: clipped to 98..100
    ]
    assert tracer.self_times(spans) == [100 - 30 - 45 - 2, 20, 10, 40, 35, 22]


def test_layer_metrics_sums_self_time_and_counts():
    ms = 1_000_000
    spans = [
        span(tracer.ROOT, 0, 100 * ms, -1),
        span("mc_estimate", 0, 90 * ms, 0, {"estimates": 1}),
        span("batch_standard_normals", 0, 20 * ms, 1,
             {"streams": 4, "normals": 400}),
        span("simulate_batch", 20 * ms, 50 * ms, 1,
             {"path_steps": 400, "step_iters": 100, "width_x_path_steps": 1600,
              "block_bytes": 3200, "overflow_paths": 1}),
        span("simulate_batch", 50 * ms, 60 * ms, 1,
             {"path_steps": 100, "step_iters": 100, "width_x_path_steps": 100,
              "block_bytes": 800, "overflow_paths": 0}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["estimators.self_s"] == pytest.approx(0.030)
    assert m["brownian.draw_s"] == pytest.approx(0.020)
    assert m["schemes.simulate_s"] == pytest.approx(0.040)
    assert m["experiments.self_s"] == pytest.approx(0.010)
    assert m["trace.wall_s"] == pytest.approx(0.100)
    assert m["trace.coverage"] == pytest.approx(0.9)
    assert m["brownian.ns_per_normal"] == pytest.approx(0.020 / 400 * 1e9)
    assert m["schemes.path_steps"] == 500
    assert m["schemes.batch_width"] == pytest.approx(1700 / 500)
    assert m["schemes.overflow_paths"] == 1
    assert m["brownian.peak_block_bytes"] == 3200
    assert set(m) <= set(run.PER_LAYER)


def test_install_patches_every_binding_and_uninstall_restores():
    import sdelab
    from sdelab import cli, convergence, estimators, schemes

    original = schemes.simulate_batch
    rec = tracer.Recorder()
    patched = rec.install()
    try:
        for binding in ("sdelab.schemes.simulate_batch",
                        "sdelab.convergence.simulate_batch",
                        "sdelab.estimators.simulate_batch",
                        "sdelab.cli.parse_config_file"):
            assert binding in patched
        assert convergence.simulate_batch is estimators.simulate_batch
        assert convergence.simulate_batch is not original
        assert convergence.simulate_batch.__wrapped__ is original
    finally:
        rec.uninstall()
    assert convergence.simulate_batch is original
    assert estimators.simulate_batch is original
    assert cli.parse_config_file is sdelab.config.parse_config_file


TINY = {
    "mlmc": """[experiment]
kind = mlmc
[model]
preset = heston-mlmc
[scheme]
scheme = log_heston
[run]
epsilon_list = 2^-4
replications = 1
truth = 7.46253
""",
    "converge": """[experiment]
kind = converge
[model]
preset = cir-scenario-1
[scheme]
scheme = truncated_euler, implicit_sqrt
[run]
n_list = 2^3, 2^4, 2^5
n_samples = 8
ref_n = 2^7
p = 1
""",
    "explode": """[experiment]
kind = explode
[model]
preset = three-halves-mc
[scheme]
scheme = euler
[run]
n_list = 4, 16
n_samples_list = 50
payoff = abs
""",
}


def tiny_bench(tmp_path: Path, kind: str) -> run.Bench:
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(TINY[kind])
    T = {"mlmc": 1.0, "converge": 5.0, "explode": 4.0}[kind]
    return run.Bench(run.Workload(str(cfg), kind, T, "test"), 7, tmp_path)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_leaves_csv_bytes_unchanged(tmp_path, kind):
    bench = tiny_bench(tmp_path, kind)
    plain = bench.run("plain", "run")
    traced = bench.run("traced", "trace")
    assert plain.rc == 0 and traced.rc == 0
    assert plain.digests and traced.digests == plain.digests
    assert "CSV bytes differ" not in " ".join(traced.problems)
    assert tracer.layer_metrics(traced.child["spans"])["trace.coverage"] > 0.5


def test_mlmc_check_rejects_shifted_estimate(tmp_path):
    bench = tiny_bench(tmp_path, "mlmc")
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "sdelab.cli", "mlmc", "--config", bench.config_path,
         "--out", str(out), "--seed", "7", "--threads", "1"],
        env=bench.env, check=True, capture_output=True,
    )
    assert checks.check_mlmc(out, bench.cfg, 1.0) == []

    csv = out / "mlmc.csv"
    text = csv.read_text()
    _, rows, _ = checks.read_csv(csv)
    est = rows[0]["estimate"]
    csv.write_text(text.replace(f",{est},", f",{float(est) + 5.0!r},"))
    assert any("Fourier truth" in p for p in checks.check_mlmc(out, bench.cfg, 1.0))

    steps = rows[0]["total_steps"]
    csv.write_text(text.replace(f",{steps},", f",{int(steps) + 1},"))
    assert any("total_steps" in p for p in checks.check_mlmc(out, bench.cfg, 1.0))


def write_explode(out: Path, fine: str, mid: str) -> None:
    rows = []
    for n in (4, 16, 64, 4096):
        for N in (1000, 10000):
            value = {4: "7.0", 16: mid, 64: mid, 4096: fine}[n]
            over = 3 if value == "inf" else 0
            rows.append(f"{4.0 / n!r},{N},{value},0.01,{over}")
    out.mkdir(exist_ok=True)
    (out / "explode.csv").write_text(
        "# sdelab\ndelta,n_samples,estimate,stderr,n_overflow\n"
        + "\n".join(rows) + "\n"
    )


def test_explode_check_needs_inf_mid_grids_and_a_finite_fine_grid(tmp_path):
    cfg = checks.read_config(str(BENCH / run.WORKLOADS["explode_3h"].config))
    write_explode(tmp_path, fine="0.57", mid="inf")
    assert checks.check_explode(tmp_path, cfg, 4.0) == []
    write_explode(tmp_path, fine="0.57", mid="12.5")
    assert len(checks.check_explode(tmp_path, cfg, 4.0)) == 2
    write_explode(tmp_path, fine="0.7", mid="inf")
    assert len(checks.check_explode(tmp_path, cfg, 4.0)) == 2


def write_converge(out: Path, label: str, slope: float, last_error: str) -> None:
    deltas = [5.0 / 2**k for k in range(7, 14)]
    errors = [repr(0.3 * d**slope) for d in deltas[:-1]] + [last_error]
    body = "\n".join(f"{d!r},{e},0.001,0" for d, e in zip(deltas, errors))
    (out / f"converge_{label}.csv").write_text(
        f"# sdelab\ndelta,error,stderr,n_overflow\n{body}\n"
        f"# regression: slope = {slope!r} intercept = -1.0 residual_stderr = 0.01\n"
    )


def test_converge_check_needs_finite_errors_and_slopes_in_band(tmp_path):
    cfg = checks.read_config(str(BENCH / run.WORKLOADS["cir_converge"].config))
    good = {"truncated_euler": 0.55, "implicit_sqrt": 0.97, "dimp_milstein": 0.99}
    for label, slope in good.items():
        write_converge(tmp_path, label, slope, "0.0001")
    assert checks.check_converge(tmp_path, cfg, 5.0) == []
    write_converge(tmp_path, "implicit_sqrt", 0.5, "0.0001")
    assert any("slope" in p for p in checks.check_converge(tmp_path, cfg, 5.0))
    write_converge(tmp_path, "implicit_sqrt", 0.97, "inf")
    assert any("non-finite" in p for p in checks.check_converge(tmp_path, cfg, 5.0))


def test_plan_and_path_steps_match_the_program():
    from sdelab import estimators

    for eps in (2**-2, 2**-4, 2**-5, 2**-6, 0.03):
        plan = estimators.mlmc_plan(eps, 1.0)
        assert checks.mlmc_plan(eps, 1.0) == (plan.levels, plan.total_steps)
    steps = {
        name: run.path_steps(w.kind, checks.read_config(str(BENCH / w.config)), w.T)
        for name, w in run.WORKLOADS.items()
    }
    assert steps["cir_converge"] == 256 * (2**15 + 3 * sum(2**k for k in range(7, 14)))
    assert steps["explode_3h"] == (4 + 16 + 64 + 4096) * (1000 + 10000)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explode_3h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
