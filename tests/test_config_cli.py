"""Config parsing (strict, line-numbered) and the CLI contract."""

import contextlib
import dataclasses
import io
import math
import os
import shutil
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sdelab import brownian as bw, cli, config as cfgmod, estimators, models, schemes, util
from sdelab.config import ConfigError, parse_config

MINIMAL_CONVERGE = """
[experiment]
kind = converge
seed = 11

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler, implicit_sqrt

[run]
n_list = 2^4, 2^5
n_samples = 100
ref_n = 2^7
ref_scheme = implicit_sqrt
"""


def _errors(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


# ---------------------------------------------------------------------------
# parsing happy path


def test_parse_minimal_converge_config():
    cfg = parse_config(MINIMAL_CONVERGE)
    assert cfg.kind == "converge" and cfg.seed == 11
    assert cfg.model_id == "cir" and cfg.preset_name == "cir-scenario-1"
    assert cfg.T == 5.0
    assert cfg.schemes == ("truncated_euler", "implicit_sqrt")
    assert cfg.run["n_list"] == (16, 32) and cfg.run["ref_n"] == 128


def test_dyadic_notation_parses_exactly():
    cfg = parse_config(
        """
[experiment]
kind = price
seed = 1

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
method = standard
epsilon = 2^-10
"""
    )
    assert cfg.run["epsilon"] == 2.0**-10 == 0.0009765625


def test_preset_overrides_are_applied():
    cfg = parse_config(
        MINIMAL_CONVERGE.replace("preset = cir-scenario-1", "preset = cir-scenario-1\nkappa = 5.0\nT = 2.0")
    )
    assert cfg.params.kappa == 5.0
    assert cfg.params.lam == 0.0457  # untouched preset value
    assert cfg.T == 2.0


def test_inline_model_without_preset():
    cfg = parse_config(
        """
[experiment]
kind = pathwise
seed = 2

[model]
model = gbm
mu = 0.05
sigma = 0.2
gamma = 1.0
s0 = 1.0
T = 1.0

[scheme]
scheme = euler

[run]
n_list = 8, 16
reference = exact
"""
    )
    assert cfg.model_id == "gbm" and cfg.params.s0 == 1.0 and cfg.strike is None


def test_validate_kind_needs_no_scheme():
    cfg = parse_config(
        """
[experiment]
kind = validate
seed = 1

[model]
preset = cir-scenario-2
"""
    )
    assert cfg.schemes == ()


# ---------------------------------------------------------------------------
# strict errors, all collected, with line numbers


def test_misspelled_parameter_reports_line_and_candidates():
    errs = _errors(
        """
[experiment]
kind = validate
seed = 1

[model]
preset = cir-scenario-1
kapa = 5.0
"""
    )
    assert len(errs) == 1
    assert errs[0].startswith("line 8:") and "'kapa'" in errs[0] and "kappa" in errs[0]


def test_duplicate_key_reports_both_lines():
    errs = _errors(
        """
[experiment]
kind = validate
seed = 1
seed = 2

[model]
preset = cir-scenario-1
"""
    )
    assert any("line 5" in e and "duplicate" in e and "line 4" in e for e in errs)


def test_unknown_section_and_stray_key():
    errs = _errors(
        """
out = somewhere

[experimnt]
kind = validate
"""
    )
    assert any("before any [section]" in e for e in errs)
    assert any("unknown section [experimnt]" in e for e in errs)


def test_type_mismatch_reports_line():
    errs = _errors(
        MINIMAL_CONVERGE.replace("n_samples = 100", "n_samples = ten")
    )
    assert any(e.startswith("line") and "bad value for 'n_samples'" in e for e in errs)


def test_wrong_kind_run_key_rejected():
    errs = _errors(
        """
[experiment]
kind = negstats
seed = 1

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler

[run]
n = 512
n_samples = 100
epsilon = 0.25
"""
    )
    assert any("'epsilon' is not used by experiment 'negstats'" in e for e in errs)


def test_many_errors_are_all_collected():
    errs = _errors(
        """
[experiment]
kind = negstats

[model]
preset = cir-scenario-1
kapa = 5.0

[scheme]
scheme = truncated_euler, tamed_euler

[run]
n = 0
n_list = 4
"""
    )
    assert len(errs) >= 4
    assert any("'kapa'" in e for e in errs)
    assert any("takes exactly one scheme" in e for e in errs)
    assert any("'n_list' is not used" in e for e in errs)
    assert any("'n' must be >= 1" in e for e in errs)
    assert any("requires 'n_samples'" in e for e in errs)


def test_model_preset_conflict():
    errs = _errors(
        """
[experiment]
kind = validate
seed = 1

[model]
preset = cir-scenario-1
model = gbm
"""
    )
    assert any("conflicts with preset" in e for e in errs)


def test_required_run_keys_enforced():
    errs = _errors(
        """
[experiment]
kind = converge
seed = 1

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler

[run]
n_samples = 100
"""
    )
    assert any("requires 'n_list'" in e for e in errs)


def test_unknown_alias_and_bad_enums():
    errs = _errors(
        MINIMAL_CONVERGE.replace("scheme = truncated_euler, implicit_sqrt", "scheme = eulerr")
        .replace("ref_scheme = implicit_sqrt", "ref_scheme = implicit_sqrt\npolicy = drop\nreference = table")
    )
    assert any("unknown scheme alias 'eulerr'" in e for e in errs)
    assert any("unknown policy 'drop'" in e for e in errs)
    assert any("unknown reference 'table'" in e for e in errs)


def test_seed_must_fit_u64():
    errs = _errors(
        MINIMAL_CONVERGE.replace("seed = 11", f"seed = {2**64}")
    )
    assert any("unsigned 64-bit" in e for e in errs)


def test_mlmc_study_needs_truth():
    errs = _errors(
        """
[experiment]
kind = mlmc
seed = 1

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
epsilon = 2^-3
replications = 10
"""
    )
    assert any("needs 'truth'" in e for e in errs)


def test_price_method_requirements():
    base = """
[experiment]
kind = price
seed = 1

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
method = {method}
"""
    errs = _errors(base.format(method="mc"))
    assert any("requires 'n'" in e for e in errs)
    assert any("requires 'n_samples'" in e for e in errs)
    errs = _errors(base.format(method="mlmc"))
    assert any("requires 'epsilon'" in e for e in errs)
    errs = _errors(base.format(method="teleport"))
    assert any("unknown method 'teleport'" in e for e in errs)


def test_echo_lines_are_deterministic_and_thread_free():
    cfg = parse_config(MINIMAL_CONVERGE)
    lines = cfgmod.echo_lines(cfg, 11)
    assert lines == cfgmod.echo_lines(cfg, 11)
    assert lines[0] == "experiment = converge"
    assert "seed = 11" in lines
    assert any(line == "model.kappa = 5.07" for line in lines)
    assert not any("threads" in line for line in lines)


# ---------------------------------------------------------------------------
# CLI contract


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


VALIDATE_CFG = """
[experiment]
kind = validate
seed = 3

[model]
preset = cir-scenario-1
"""


def test_cli_validate_writes_csv_and_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path / "v.cfg", VALIDATE_CFG)
    rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path == str(tmp_path / "validate.csv")
    text = open(out_path).read()
    head = text.splitlines()
    assert head[0].startswith("# sdelab ")
    assert head[1] == "# gaussian-transform = philox4x64-ziggurat-block64"
    assert "# seed = 3" in text and "# model = cir" in text
    assert "threads" not in text
    assert "feller_ratio,2.0112760416666666" in text


def test_cli_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _write(tmp_path / "v.cfg", VALIDATE_CFG)
    rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path), "--seed", "99"])
    assert rc == 0
    capsys.readouterr()
    assert "# seed = 99" in open(tmp_path / "validate.csv").read()


def test_cli_requires_a_seed(tmp_path, capsys):
    cfg = _write(
        tmp_path / "v.cfg", VALIDATE_CFG.replace("seed = 3\n", "")
    )
    rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "never seeded from the clock" in err


@pytest.mark.parametrize("where", ["--out", "[experiment] out"])
@pytest.mark.parametrize("target", ["file", "file/x"], ids=["a-file", "under-a-file"])
def test_cli_unwritable_output_directory_exits_2(tmp_path, capsys, where, target):
    # an existing file, or a path through one, cannot be the output directory
    (tmp_path / "file").write_text("")
    out = str(tmp_path / target)
    text = VALIDATE_CFG if where == "--out" else VALIDATE_CFG.replace(
        "seed = 3\n", f"seed = 3\nout = {out}\n"
    )
    cfg = _write(tmp_path / "v.cfg", text)
    rc = cli.main(["validate", "--config", cfg] + (["--out", out] if where == "--out" else []))
    assert rc == 2
    assert f"cannot write output {out!r}" in capsys.readouterr().err


def test_cli_unwritable_output_file_exits_2(tmp_path, capsys):
    (tmp_path / "validate.csv").mkdir()  # the CSV's path is a directory
    cfg = _write(tmp_path / "v.cfg", VALIDATE_CFG)
    rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert f"cannot write output {str(tmp_path / 'validate.csv')!r}" in capsys.readouterr().err


def test_cli_rejects_mismatched_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path / "v.cfg", VALIDATE_CFG)
    rc = cli.main(["price", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "subcommand" in capsys.readouterr().err


def test_cli_reports_every_config_error(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.cfg",
        """
[experiment]
kind = negstats
seed = 1

[model]
preset = cir-scenario-1
kapa = 5.0

[scheme]
scheme = truncated_euler

[run]
n = 0
n_samples = 10
""",
    )
    rc = cli.main(["negstats", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("config error:") >= 2
    assert "'kapa'" in err and "'n' must be >= 1" in err


def test_cli_rejects_scheme_id_key(tmp_path, capsys):
    # [scheme] lists aliases only; a scheme with options is a library call
    cfg = _write(
        tmp_path / "s.cfg",
        """
[experiment]
kind = negstats
seed = 1

[model]
preset = cir-scenario-1

[scheme]
scheme_id = modified_euler

[run]
n = 8
n_samples = 10
""",
    )
    rc = cli.main(["negstats", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 10: unknown key 'scheme_id' in [scheme]; known keys: scheme" in err


def test_cli_oracle_failure_exits_three(tmp_path, capsys):
    cfg = _write(
        tmp_path / "o.cfg",
        """
[experiment]
kind = mlmc
seed = 4

[model]
preset = heston-mlmc
theta = 1e-6
v0 = 0.0457

[scheme]
scheme = log_heston

[run]
epsilon = 2^-1
replications = 2
truth = oracle
""",
    )
    rc = cli.main(["mlmc", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "oracle self-check failed" in capsys.readouterr().err


# runs whose walks split their draws over the CPUs and draw a chunk ahead:
# 1024 paths (16 blocks) over 256 steps, cut from 128-step chunks to 32
SPLIT_RUNS = {
    "explode": ("three-halves-mc", "euler",
                "n_list = 4, 256\nn_samples_list = 500, 1024\npayoff = abs"),
    "converge": ("cir-scenario-1", "truncated_euler, implicit_sqrt",
                 "n_list = 2^4, 2^5\nn_samples = 1024\nref_n = 2^8\nref_scheme = implicit_sqrt"),
    "negstats": ("cir-scenario-1", "truncated_euler", "n = 256\nn_samples = 1024"),
}


def _split_run(tmp_path, kind, out, *flags):
    preset, alias, run = SPLIT_RUNS[kind]
    cfg = _write(
        tmp_path / f"{kind}.cfg",
        f"[experiment]\nkind = {kind}\nseed = 7\n\n[model]\npreset = {preset}\n\n"
        f"[scheme]\nscheme = {alias}\n\n[run]\n{run}\n",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([kind, "--config", cfg, "--out", str(out), *flags]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_output_is_byte_identical_across_threads(tmp_path, monkeypatch, capsys):
    # walks that draw a chunk ahead on 2 CPUs write the bytes of one CPU
    buffers = []

    class Walk(bw._Walk):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(len(self.bufs))

    monkeypatch.setattr(bw, "_Walk", Walk)
    for kind in SPLIT_RUNS:
        monkeypatch.setattr(bw, "_WORKERS", 1)
        one = _split_run(tmp_path, kind, tmp_path / f"{kind}-1")
        assert set(buffers) == {1}
        buffers.clear()
        monkeypatch.setattr(bw, "_WORKERS", 2)
        assert _split_run(tmp_path, kind, tmp_path / f"{kind}-2") == one
        assert 2 in buffers
        buffers.clear()
    # --threads is kept for the benchmark's command line: it takes 1 only
    # and changes nothing
    one = _split_run(tmp_path, "explode", tmp_path / "t0")
    assert _split_run(tmp_path, "explode", tmp_path / "t1", "--threads", "1") == one
    with pytest.raises(SystemExit) as exc:
        _split_run(tmp_path, "explode", tmp_path / "t4", "--threads", "4")
    assert exc.value.code == 2
    capsys.readouterr()
    assert b"threads" not in one["explode.csv"]


def test_split_runs_stay_on_the_calling_thread(tmp_path, monkeypatch):
    # the functions a tracer may wrap run on the caller; only the private
    # draw of a part runs on the pool
    entered = set()

    def record(name, fn):
        def wrapper(*args, **kwargs):
            entered.add((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("sdelab.")]
    traced = ("batch_standard_normals", "aggregate_to", "simulate_batch")
    for mod, name in [(bw, "batch_standard_normals"), (bw, "aggregate_to"),
                      (schemes, "simulate_batch"), (bw, "_draw_part")]:
        original = getattr(mod, name)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, record(name, original))
    monkeypatch.setattr(bw, "_WORKERS", 2)
    for kind in SPLIT_RUNS:
        _split_run(tmp_path, kind, tmp_path / kind)
    assert entered == {(name, True) for name in traced} | {
        ("_draw_part", True), ("_draw_part", False),
    }


@pytest.mark.parametrize(
    "n_samples_list, policy, radius",
    [((300, 100, 40), "propagate", None), ((40, 300, 100), "exclude", None),
     ((100, 300), "propagate", 2.0)],
    ids=["propagate-descending", "exclude-unsorted", "radius"],
)
def test_explode_reduces_each_n_samples_over_one_walk_per_grid(
    n_samples_list, policy, radius, tmp_path, capsys, monkeypatch
):
    # each grid is walked once, at the largest N; the row of each N equals a
    # separate estimate over samples 0 .. N - 1, byte for byte
    cfg = _write(tmp_path / "e.cfg", f"""
[experiment]
kind = explode
seed = 5

[model]
preset = three-halves-mc

[scheme]
scheme = euler

[run]
n_list = 4, 64
payoff = abs
n_samples_list = {", ".join(map(str, n_samples_list))}
{f"radius = {radius}" if radius else f"policy = {policy}"}
""")
    walks, walk = [], bw.increment_batches
    monkeypatch.setattr(
        bw, "increment_batches", lambda *a, **kw: walks.append(a[1]) or walk(*a, **kw)
    )
    assert cli.main(["explode", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert walks == [300, 300]
    monkeypatch.setattr(bw, "increment_batches", walk)
    preset = models.get_preset("three-halves-mc")
    model, euler = preset.build(), schemes.ALIASES["euler"]
    payoff = estimators.PayoffSpec(phi="abs")
    want = []
    for n in (4, 64):
        for N in n_samples_list:
            e = estimators.mc_estimate(
                euler, model, payoff, T=preset.T, seed=5, n=n, n_samples=N,
                policy=policy, radius=radius,
            )
            row = (preset.T / n, N, e.value, e.stderr, e.n_overflow)
            want.append(",".join(util.format_value(v) for v in row))
    lines = open(tmp_path / "explode.csv").read().splitlines()
    assert [l for l in lines if l[:1].isdigit()] == want
    # overflowed paths are in the data, so the policy is exercised
    assert any(int(l.split(",")[-1]) > 0 for l in want)


_MULTI_BATCH_CONFIGS = {
    "converge": """
[experiment]
kind = converge
seed = 3

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler, implicit_sqrt

[run]
n_list = 4, 8
n_samples = 300
ref_n = 32
""",
    "converge-exclude": """
[experiment]
kind = converge
seed = 777

[model]
preset = three-halves-mc

[scheme]
scheme = euler

[run]
n_list = 16, 64
n_samples = 100
ref_scheme = tamed_euler
ref_n = 256
policy = exclude
""",
    "pathwise-exact": """
[experiment]
kind = pathwise
seed = 12

[model]
model = gbm
mu = 0.05
sigma = 0.2
gamma = 1.0
s0 = 1.0
T = 1.0

[scheme]
scheme = euler

[run]
n_list = 2^2, 2^3, 2^4, 2^5
ref_n = 2^7
reference = exact
sample_index = 70
""",
    "explode": """
[experiment]
kind = explode
seed = 7

[model]
preset = three-halves-mc

[scheme]
scheme = euler

[run]
n_list = 64, 256
n_samples = 300
payoff = abs
""",
    "negstats": """
[experiment]
kind = negstats
seed = 4

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler

[run]
n = 64
n_samples = 300
""",
    "mlmc": """
[experiment]
kind = mlmc
seed = 9

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
epsilon_list = 2^-3, 2^-4
replications = 2
truth = 7.46
""",
    "price": """
[experiment]
kind = price
seed = 2

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
method = mc
n = 16
n_samples = 300
""",
    "price-barrier": """
[experiment]
kind = price
seed = 2

[model]
preset = heston-mlmc

[scheme]
scheme = log_heston

[run]
method = mc
n = 16
n_samples = 300
lower = 85
upper = 125
""",
    "explode-radius": """
[experiment]
kind = explode
seed = 7

[model]
preset = three-halves-mc

[scheme]
scheme = euler

[run]
n_list = 64, 256
n_samples = 300
payoff = abs
radius = 2.0
""",
}


@pytest.mark.parametrize("name", sorted(_MULTI_BATCH_CONFIGS))
def test_cli_output_is_byte_identical_across_batch_widths(
    name, tmp_path, capsys, monkeypatch
):
    # (increment budget, draw chunk in steps): one batch of every sample,
    # batches of a few paths drawn one step at a time, budgets below one
    # path, and one whole chunk per path.  Every kind walks time in chunks
    # rounded up to whole draws and keeps no whole path: a curve's chunk is
    # one coarsest step (8, 16 or 32 fine steps here), an estimate's two
    # steps, which a coupled level halves, and negstats' one step.
    cfg = _write(tmp_path / "b.cfg", _MULTI_BATCH_CONFIGS[name])
    kind = name.split("-")[0]
    outputs = []
    for budget, chunk in [(2**23, 128), (2**9, 1), (2**5, 1), (2**9, 2**12)]:
        monkeypatch.setattr(bw, "_BATCH_FLOATS", budget)
        monkeypatch.setattr(bw, "_CHUNK", chunk)
        out = tmp_path / f"{budget}-{chunk}"
        assert cli.main([kind, "--config", cfg, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    capsys.readouterr()
    assert outputs[0] and all(o == outputs[0] for o in outputs[1:])
    if name == "converge-exclude":  # paths were excluded, not just none found
        lines = outputs[0]["converge_euler.csv"].decode().splitlines()
        assert any(int(l.split(",")[-1]) > 0 for l in lines if l[:1].isdigit())


def test_cli_pathwise_csv_has_regression_comment(tmp_path, capsys):
    cfg = _write(
        tmp_path / "p.cfg",
        """
[experiment]
kind = pathwise
seed = 12

[model]
model = gbm
mu = 0.05
sigma = 0.2
gamma = 1.0
s0 = 1.0
T = 1.0

[scheme]
scheme = euler

[run]
n_list = 2^4, 2^5, 2^6, 2^7, 2^8
reference = exact
"""
    )
    rc = cli.main(["pathwise", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    lines = open(tmp_path / "pathwise.csv").read().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "delta,error,stderr,n_overflow"
    assert len(data) == 6  # header + one row per resolution
    first = data[1].split(",")
    assert float(first[0]) == 0.0625 and float(first[1]) > 0
    assert first[2] == ""  # single-path curves carry no standard error
    assert lines[-1].startswith("# regression: slope = ")
    slope = float(lines[-1].split("slope = ")[1].split(" ")[0])
    assert 0.3 < slope < 0.8


def test_cli_converge_csv_reports_reference_and_regression(tmp_path, capsys):
    cfg = _write(
        tmp_path / "c.cfg",
        """
[experiment]
kind = converge
seed = 6

[model]
model = gbm
mu = 0.05
sigma = 0.2
gamma = 1.0
s0 = 1.0
T = 1.0

[scheme]
scheme = euler, tamed_euler

[run]
n_list = 2^3, 2^4, 2^5
n_samples = 200
reference = exact
"""
    )
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    paths = capsys.readouterr().out.split()
    assert [os.path.basename(p) for p in paths] == [
        "converge_euler.csv",
        "converge_tamed_euler.csv",
    ]
    for p in paths:
        lines = open(p).read().splitlines()
        assert any(l == "# reference = exact" for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "delta,error,stderr,n_overflow"
        assert len(data) == 4
        assert lines[-1].startswith("# regression: slope = ")


# ---------------------------------------------------------------------------
# exit-code contract: a config that parses never ends in a traceback

# [model] block per model id: a preset where one exists, inline otherwise.
# gbm appears twice; gamma = 0.5 parses but cannot build the model.
SWEEP_MODELS = {
    "cir": "preset = cir-scenario-1",
    "cev": "preset = cev-set-1",
    "gbm": "model = gbm\nmu = 0.05\nsigma = 0.2\ngamma = 1.0\ns0 = 1.0\nT = 1.0",
    "gbm-gamma": "model = gbm\nmu = 0.05\nsigma = 0.2\ngamma = 0.5\ns0 = 1.0\nT = 1.0",
    "heston_log": "preset = heston-mlmc",
    "heston": (
        "model = heston\nmu = 0.05\nkappa = 2.0\nlam = 0.09\ntheta = 0.3\n"
        "rho = -0.5\ns0 = 100.0\nv0 = 0.09\nT = 1.0"
    ),
    "ait_sahalia": (
        "model = ait_sahalia\na_m1 = 1.0\na_0 = 1.0\na_1 = 1.0\na_2 = 1.0\n"
        "sigma = 0.5\nr = 2.0\nrho = 1.4\nx0 = 1.0\nT = 1.0"
    ),
    "three_halves_vol": "preset = three-halves-mc",
    "cubic_toy": "model = cubic_toy\nsigma = 1.0\nx0 = 1.0\nT = 1.0",
}

SWEEP_RUNS = {
    "negstats": "n = 4\nn_samples = 8",
    "pathwise": "n_list = 2, 4\nref_n = 8",
    "converge": "n_list = 2, 4\nn_samples = 4\nref_n = 8",
    "explode": "n_list = 2, 4\nn_samples = 8",
    "mlmc": "epsilon = 2^-1",
    "price": "method = mc\nn = 8\nn_samples = 16",
}


_GBM = SWEEP_MODELS["gbm"]


# (config text, the error it must give): each a config that parses no further
@pytest.mark.parametrize("text, needle", [
    (f"[experiment]\nkind = bogus\n\n[model]\n{_GBM}\n", "line 2: unknown experiment 'bogus'"),
    (f"[experiment]\nkind = validate\nseed\n\n[model]\n{_GBM}\n",
     "line 3: expected 'key = value', got 'seed'"),
    ("[experiment]\nkind = validate\n\n[model]\nT = 1.0\n",
     "[model]: needs either 'preset' or 'model'"),
    ("[experiment]\nkind = validate\n\n[model]\npreset = bogus\n",
     "line 5: unknown preset 'bogus'; known presets: "),
    (f"[experiment]\nkind = validate\n\n[model]\n{SWEEP_MODELS['cev']}\nkappa = 1.0\n",
     "line 6: model 'cev' has no parameter 'kappa'; its parameters are gamma, mu, s0, sigma"),
    ("[experiment]\nkind = validate\n\n[model]\npreset = cir-scenario-1\nkappa = -1\n",
     "[model]: kappa must be positive, got -1.0"),
    (f"[experiment]\nkind = validate\n\n[model]\n{_GBM.replace('T = 1.0', '')}\n",
     "[model]: needs 'T' (no preset supplies it)"),
    ("[experiment]\nkind = validate\n\n[model]\npreset = cir-scenario-1\nT = 0\n",
     "[model]: T must be positive, got 0.0"),
])
def test_config_errors_name_their_cause(text, needle):
    errs = _errors(text)
    assert any(needle in e for e in errs), errs


def test_an_unreadable_config_path_exits_2(tmp_path, capsys):
    rc = cli.main(["validate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "config error: cannot read config file" in capsys.readouterr().err


def test_an_overflowed_reference_marks_the_curve_invalid(tmp_path):
    # the 3/2 model under Euler at a coarse reference: a reference path overflows
    cfg = _write(tmp_path / "converge.cfg", (
        "[experiment]\nkind = converge\nseed = 5\n\n[model]\npreset = three-halves-mc\n\n"
        "[scheme]\nscheme = euler\n\n[run]\nn_list = 2, 4\nn_samples = 200\nref_n = 16\n"
    ))
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "converge_euler.csv").read_text().splitlines()
    assert lines[-1] == "# invalid: reference overflowed; errors are meaningless"


def test_every_model_alias_and_kind_exits_cleanly(tmp_path, capsys):
    assert {m.split("-")[0] for m in SWEEP_MODELS} == set(models.MODEL_IDS)
    tracebacks = []
    for label, model_block in SWEEP_MODELS.items():
        for alias in schemes.ALIASES:
            for kind, run_block in SWEEP_RUNS.items():
                text = (
                    f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\n{model_block}\n\n"
                    f"[scheme]\nscheme = {alias}\n\n[run]\n{run_block}\n"
                )
                cfg = _write(tmp_path / "sweep.cfg", text)
                try:
                    rc = cli.main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
                except Exception as exc:  # collect every traceback, not just the first
                    tracebacks.append(f"{label} {alias} {kind}: {exc!r}")
                    continue
                if rc not in (0, 2, 3):
                    tracebacks.append(f"{label} {alias} {kind}: exit {rc}")
    capsys.readouterr()
    assert not tracebacks, f"{len(tracebacks)} runs failed:\n" + "\n".join(tracebacks)


def test_mlmc_levels_where_both_paths_overflow_warn_nothing(tmp_path, capsys):
    # at eps = 2^-5 some coupled 3/2-model levels overflow on the fine and
    # the coarse grid alike; inf - inf there is data, not a warning
    text = (
        "[experiment]\nkind = mlmc\nseed = 1\n\n[model]\npreset = three-halves-mc\n\n"
        "[scheme]\nscheme = euler\n\n[run]\nepsilon = 2^-5\npayoff = abs\n"
    )
    cfg = _write(tmp_path / "mlmc.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["mlmc", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0 and capsys.readouterr().err == ""
    with open(tmp_path / "out" / "mlmc.csv") as fh:
        row = [line for line in fh if not line.startswith("#")][1].strip()
    assert row == "0.03125,7,329728,inf,,26"


# Boundary values per [run] key.  Step counts, sample sizes and accuracies
# stay small enough that a run takes milliseconds, but for one step count
# and one accuracy past the work bound, which a run must refuse at once.
_INT = ("0", "1", "-1", "2", "2^3")
_FLOAT = ("0", "1", "-1", "2^-1", "2^-3", "2^1023", "2^1024", "0^-1", "inf", "nan")
_STEPS = (*_INT, "2^33")
_EPSILON = (*_FLOAT, "2^-13", "2^-600")


def _lists(values):
    """The empty list, each value alone, and one two-element list."""
    return ("", *values, ", ".join(values[3:5]))


RUN_VALUES = {
    "n": _STEPS,
    "n_samples": _STEPS,
    "n_list": _lists(_STEPS),
    "n_samples_list": _lists(_STEPS),
    "p": _INT,
    "ref_n": _STEPS,
    "ref_scheme": (*sorted(schemes.ALIASES), "bogus"),
    "reference": ("scheme", "exact", "bogus"),
    "sample_index": _INT + (str(bw.MAX_SAMPLE_INDEX - 1), str(bw.MAX_SAMPLE_INDEX)),
    "policy": ("propagate", "exclude", "drop"),
    "payoff": ("identity", "call", "put", "abs", "digital"),
    "lower": _FLOAT,
    "upper": _FLOAT,
    "radius": _FLOAT,
    "method": ("mc", "mc_discarded", "mlmc", "standard", "quasi"),
    "epsilon": _EPSILON,
    "epsilon_list": _lists(_EPSILON),
    "replications": _STEPS,
    "truth": ("oracle", *_FLOAT),
    "moment_p_list": _lists(_FLOAT),
    "l1": _FLOAT,
    "l2": _FLOAT,
}


def _applicable_aliases(model_block):
    """The aliases whose scheme applies to the model; every alias if the
    model block does not build (the sweep above covers the rest)."""
    try:
        cfg = parse_config(f"[experiment]\nkind = validate\n\n[model]\n{model_block}\n")
        model = models.build_model(cfg.model_id, cfg.params)
    except (ConfigError, models.ModelError):
        return sorted(schemes.ALIASES)
    ok = []
    for alias, stepper in sorted(schemes.ALIASES.items()):
        try:
            schemes.make_stepper(stepper, model)
        except schemes.SchemeError:
            continue
        ok.append(alias)
    return ok


SWEEP_ALIASES = {label: _applicable_aliases(block) for label, block in SWEEP_MODELS.items()}


@st.composite
def _boundary_configs(draw):
    """(kind, config text): a kind, a model block, an alias that applies to
    it, and a boundary value for each [run] key the kind requires and, one
    time in three, for each other key it accepts."""
    kind = draw(st.sampled_from(sorted(cfgmod.EXPERIMENT_KINDS)))
    label = draw(st.sampled_from(sorted(SWEEP_MODELS)))
    alias = draw(st.sampled_from(SWEEP_ALIASES[label]))
    run = [
        f"{key} = {draw(st.sampled_from(RUN_VALUES[key]))}"
        for key, row in cfgmod._RUN_KEYS.items()
        if kind in row.required_by or (kind in row.kinds and draw(st.integers(0, 2)) == 0)
    ]
    scheme = "" if kind == "validate" else f"[scheme]\nscheme = {alias}\n\n"
    return kind, (
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\n{SWEEP_MODELS[label]}\n\n"
        f"{scheme}[run]\n" + "\n".join(run) + "\n"
    )


def test_run_values_cover_every_run_key():
    assert set(RUN_VALUES) == set(cfgmod._RUN_KEYS)


def _exits_cleanly(tmp_path_factory, case):
    """Run one (kind, config text) case: it exits 0, 2 or 3, and a run that
    exits 0 writes no nan in any CSV row: inf is data, nan is not."""
    kind, text = case
    work = tmp_path_factory.getbasetemp() / "boundary"
    work.mkdir(exist_ok=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    cfg = _write(work / "run.cfg", text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        rc = cli.main([kind, "--config", cfg, "--out", str(work / "out")])
    assert rc in (0, 2, 3), text
    if rc == 0:
        for csv in (work / "out").glob("*.csv"):
            rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
            nans = [f for row in rows for f in row.split(",") if f.lower() == "nan"]
            assert not nans, f"{csv.name}\n{text}"


@settings(max_examples=1500, derandomize=True, database=None)
@given(case=_boundary_configs())
def test_boundary_run_values_never_end_in_a_traceback(tmp_path_factory, case):
    _exits_cleanly(tmp_path_factory, case)


# Boundary values for each [model] float and T.  The square of 2^-1074, the
# least subnormal, underflows to 0; inf and values past the float range are
# no model value.
_MODEL_FLOAT = ("0", "-1", "2^-1074", "1e-300", "2^-1", "1", "2^1023", "1e300", "inf")


def _model_values(model_block):
    """The model id and every float of a model block, T included."""
    cfg = parse_config(f"[experiment]\nkind = validate\n\n[model]\n{model_block}\n")
    return cfg.model_id, {**dataclasses.asdict(cfg.params), "T": cfg.T}


SWEEP_VALUES = {label: _model_values(block) for label, block in SWEEP_MODELS.items()}


@st.composite
def _boundary_model_configs(draw):
    """(kind, config text): a kind with its sweep run, an alias that applies
    to the sweep's model, and that model with each float and T kept or, one
    time in two, set to a boundary value."""
    kind = draw(st.sampled_from(sorted(cfgmod.EXPERIMENT_KINDS)))
    label = draw(st.sampled_from(sorted(SWEEP_MODELS)))
    alias = draw(st.sampled_from(SWEEP_ALIASES[label]))
    model_id, values = SWEEP_VALUES[label]
    fields = "".join(
        f"{key} = {draw(st.sampled_from((repr(v),) * len(_MODEL_FLOAT) + _MODEL_FLOAT))}\n"
        for key, v in values.items()
    )
    scheme = "" if kind == "validate" else f"[scheme]\nscheme = {alias}\n\n"
    return kind, (
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\nmodel = {model_id}\n{fields}\n"
        f"{scheme}[run]\n{SWEEP_RUNS.get(kind, '')}\n"
    )


@settings(max_examples=1500, derandomize=True, database=None)
@given(case=_boundary_model_configs())
def test_boundary_model_values_never_end_in_a_traceback(tmp_path_factory, case):
    _exits_cleanly(tmp_path_factory, case)


WORK_BOUND = "over the bound of 4294967296"
ORACLE_RUN = "epsilon = 2^-1\nreplications = 1\ntruth = oracle"

# (kind, [run] block, exit code, text the error must contain)
EDGE_RUNS = {
    # resolutions only need to divide ref_n by a power of two
    "converge-n3": ("converge", "n_list = 3, 6\nn_samples = 4\nref_n = 12", 0, None),
    "pathwise-n3": ("pathwise", "n_list = 3, 6\nref_n = 12", 0, None),
    "pathwise-last-index": (
        "pathwise", "n_list = 2, 4\nsample_index = 72057594037927935", 0, None,
    ),
    "pathwise-index-2^56": (
        "pathwise", "n_list = 2, 4\nsample_index = 72057594037927936", 2, "sample_index",
    ),
    # keys the run would ignore are config errors
    "price-mc-radius": (
        "price", "method = mc\nn = 8\nn_samples = 16\nradius = 0.1", 2, "'radius'",
    ),
    "price-standard-radius": (
        "price", "method = standard\nepsilon = 2^-1\nradius = 0.1", 2, "'radius'",
    ),
    "explode-radius-policy": (
        "explode", "n_list = 2, 4\nn_samples = 8\nradius = 0.1\npolicy = exclude",
        2, "'policy'",
    ),
    "explode-n_samples-and-list": (
        "explode", "n_list = 2, 4\nn_samples = 5\nn_samples_list = 10, 20", 2,
        "line 18: 'n_samples' has no effect with 'n_samples_list'",
    ),
    "mlmc-epsilon-and-list": (
        "mlmc", "epsilon = 2^-1\nepsilon_list = 2^-1, 2^-2", 2,
        "line 17: 'epsilon' has no effect with 'epsilon_list'",
    ),
    "price-standard-n": (
        "price", "method = standard\nepsilon = 2^-1\nn = 8", 2,
        "line 19: method 'standard' does not read 'n'",
    ),
    "price-mlmc-n_samples": (
        "price", "method = mlmc\nepsilon = 2^-1\nn_samples = 16", 2,
        "line 19: method 'mlmc' does not read 'n_samples'",
    ),
    "price-mc-epsilon": (
        "price", "method = mc\nn = 8\nn_samples = 16\nepsilon = 2^-1", 2,
        "line 20: method 'mc' does not read 'epsilon'",
    ),
    "price-mc_discarded-epsilon": (
        "price", "method = mc_discarded\nn = 8\nn_samples = 16\nradius = 1.0\n"
        "epsilon = 2^-1", 2, "line 21: method 'mc_discarded' does not read 'epsilon'",
    ),
    "converge-exact-ref_scheme": (
        "converge", "n_list = 2, 4\nn_samples = 4\nreference = exact\nref_scheme = euler",
        2, "line 20: 'ref_scheme' has no effect with reference = exact",
    ),
    "pathwise-exact-ref_scheme": (
        "pathwise", "n_list = 2, 4\nreference = exact\nref_scheme = euler", 2,
        "line 19: 'ref_scheme' has no effect with reference = exact",
    ),
    "validate-l1-only": (
        "validate", "l1 = 1.0", 2, "line 17: 'l1' is read only together with 'l2'",
    ),
    "validate-l2-only": (
        "validate", "l2 = 1.0", 2, "line 17: 'l2' is read only together with 'l1'",
    ),
    # the step bound 1/max(1 + 2*l1, 4*l2) exists only for a positive max
    "validate-step-bound-zero": (
        "validate", "l1 = -0.5\nl2 = 0", 2, "line 17: the implicit step bound",
    ),
    "validate-step-bound-negative": (
        "validate", "l1 = -2\nl2 = -1", 2, "line 17: the implicit step bound",
    ),
    "validate-moment_p_list-gbm": (
        "validate", "moment_p_list = 2", 2, "line 17: model 'gbm' has no moment diagnostic",
    ),
    "validate-scheme": (
        "validate", "l1 = 1.0\nl2 = 1.0\n\n[scheme]\nscheme = euler", 2,
        "line 21: experiment 'validate' runs no scheme",
    ),
    # checked when the config is parsed, before anything runs
    "mlmc-method-mc": (
        "mlmc", "method = mc\nepsilon = 2^-1", 2,
        "line 17: experiment 'mlmc' supports 'method'",
    ),
    "mlmc-oracle-without-heston": (
        "mlmc", "epsilon = 2^-1\nreplications = 2\ntruth = oracle", 2, "truth = oracle",
    ),
    "mlmc-truth-without-replications": (
        "mlmc", "epsilon = 2^-1\ntruth = 1.0", 2,
        "line 18: 'truth' is read only by a replication study",
    ),
    "price-call-without-strike": (
        "price", "method = mc\nn = 8\nn_samples = 16\npayoff = call", 2, "strike",
    ),
    # a run over the work bound is a config error, not a failed allocation
    "negstats-over-budget": (
        "negstats", "n = 2^40\nn_samples = 10", 2,
        "[run]: n, n_samples give 10995116277760 path-steps x noise dimensions",
    ),
    # 4 x (2^30 + 1) path-steps: over the work bound by four, before the walk
    "converge-over-budget": (
        "converge", "n_list = 1\nn_samples = 4\nref_n = 2^30", 2,
        "[run]: n_list, n_samples, ref_n, [scheme] give 4294967300 path-steps",
    ),
    # a curve needs one coarsest step, ref_n / min(n_list) fine steps, per path:
    # here 2^24 of them, more than a batch holds, in a run under the work bound
    "pathwise-over-budget": (
        "pathwise", "n_list = 2, 4\nref_n = 2^25", 2, "16777216 steps",
    ),
    # a run of more path-steps than the work bound ends at once: here a
    # reference walk of ref_n = 4 * 2^40 steps, drawn in chunks that each fit
    # the budget, and the scheme's 2^40
    "pathwise-runaway": (
        "pathwise", "n_list = 2^40\nsample_index = 72057594037927935", 2,
        f"[run]: n_list give 5497558138880 path-steps x noise dimensions, {WORK_BOUND}",
    ),
    "converge-runaway": (
        "converge", "n_list = 2^40\nn_samples = 2", 2,
        "[run]: n_list, n_samples, [scheme] give 10995116277760 path-steps",
    ),
    # every walk of explode's 2000 distinct grids is under the bound, and so
    # is converge's reference walk and the normals it draws (4.1e9), but not
    # its five schemes' steps
    "explode-runaway": (
        "explode", "n_list = " + ", ".join(str(2**20 - k) for k in range(2000))
        + "\nn_samples = 4000", 2,
        "[run]: n_list, n_samples give 8380612000000 path-steps x noise dimensions",
    ),
    "converge-schemes-runaway": (
        "converge", "n_list = 2^10, 2^11, 2^12\nref_n = 2^12\nn_samples = 10^6", 2,
        "[run]: n_list, ref_n, n_samples, [scheme] give 39936000000 path-steps",
    ),
    # and so are a curve's per-path errors, 9 bytes per scheme, grid and
    # path, in a run within the work bound (4.2e9 path-steps)
    "converge-error-cells": (
        "converge", "n_list = 1\nref_n = 1\nn_samples = 700000000", 2,
        "[run]: n_list, ref_n, n_samples, [scheme] give 3500000000 per-path errors, "
        "over the bound of 8388608",
    ),
    # a fixed-grid price of 2^17 steps x 2^16 paths is bounded as a whole too
    "price-mc-runaway": (
        "price", "method = mc\nn = 2^17\nn_samples = 2^16", 2,
        f"[run]: n, n_samples give 8589934592 path-steps x noise dimensions, {WORK_BOUND}",
    ),
    # each alias writes converge_<alias>.csv: a repeat would overwrite its own
    "converge-repeated-alias": (
        "converge", "n_list = 2, 4\nn_samples = 4", 2,
        "line 14: scheme aliases listed more than once: euler",
    ),
    # the Lamperti form of CIR is the implicit sqrt scheme's state, not a model
    "validate-cir_lamperti": ("validate", "", 2, "unknown model 'cir_lamperti'"),
    # a replication study is bounded as a whole, before the oracle runs
    "mlmc-replications-runaway": (
        "mlmc", "epsilon = 2^-1\nreplications = 2^40\ntruth = 1.0", 2,
        "[run]: epsilon, replications give 21990232555520 path-steps x noise dimensions",
    ),
    # and so is a run without replications, whose levels each fit the bound
    "mlmc-epsilon-runaway": (
        "mlmc", "epsilon = 2^-13", 2,
        f"[run]: epsilon give 35769024512 path-steps x noise dimensions, {WORK_BOUND}",
    ),
    "mlmc-epsilon_list-runaway": (
        "mlmc", "epsilon_list = 2^-1, 2^-13", 2,
        f"[run]: epsilon_list give 35769024532 path-steps x noise dimensions, {WORK_BOUND}",
    ),
    "price-mlmc-epsilon-runaway": (
        "price", "method = mlmc\nepsilon = 2^-13", 2,
        f"[run]: epsilon give 35769024512 path-steps x noise dimensions, {WORK_BOUND}",
    ),
    # a value past the float range is no number, however it is written:
    # infinity is spelled inf
    "mlmc-epsilon-zero-power": (
        "mlmc", "epsilon = 0^-1", 2,
        "line 12: bad value for 'epsilon' in [run]: not a finite number, nor inf",
    ),
    "mlmc-epsilon-power-overflow": (
        "mlmc", "epsilon = 2^1024", 2,
        "line 12: bad value for 'epsilon' in [run]: not a finite number, nor inf",
    ),
    "mlmc-epsilon-decimal-overflow": (
        "mlmc", "epsilon = 1e309", 2,
        "line 12: bad value for 'epsilon' in [run]: not a finite number, nor inf",
    ),
    # a repeated value would merge its rows or run the same plan again
    "converge-repeated-n_list": (
        "converge", "n_list = 16, 16, 32\nn_samples = 4", 2,
        "line 17: bad value for 'n_list' in [run]: 16 listed more than once",
    ),
    "explode-repeated-n_samples_list": (
        "explode", "n_list = 2, 4\nn_samples_list = 8, 2^3", 2,
        "line 18: bad value for 'n_samples_list' in [run]: 8 listed more than once",
    ),
    "mlmc-repeated-epsilon_list": (
        "mlmc", "epsilon_list = 2^-2, 0.25", 2,
        "line 17: bad value for 'epsilon_list' in [run]: 0.25 listed more than once",
    ),
    # a moment order is a finite positive number: inf would write nan
    "validate-moment_p_list-inf": (
        "validate", "moment_p_list = 2, inf", 2,
        "line 12: 'moment_p_list' must list finite positive values",
    ),
    "validate-moment_p_list-zero": (
        "validate", "moment_p_list = 0", 2,
        "line 12: 'moment_p_list' must list finite positive values",
    ),
    # the moment threshold takes sqrt(16p - 1): a smaller order exits 2 from
    # the model, not in a traceback
    "validate-moment_p_list-below-sixteenth": (
        "validate", "moment_p_list = 2^-5", 2, "moment order must be >= 1/16",
    ),
    # nan is no value: the run would compute with it
    "validate-l1-nan": (
        "validate", "l1 = nan\nl2 = 1", 2, "line 17: bad value for 'l1'",
    ),
    "validate-l2-nan": (
        "validate", "l1 = 1\nl2 = nan", 2, "line 18: bad value for 'l2'",
    ),
    "mlmc-truth-nan": (
        "mlmc", "epsilon = 2^-2\nreplications = 2\ntruth = nan", 2,
        "line 19: bad value for 'truth'",
    ),
    "pathwise-mu-nan": ("pathwise", "n_list = 2, 4", 2, "line 7: bad value for 'mu'"),
    # the oracle's value is finite, or the run ends as an oracle error
    "mlmc-oracle-forward-overflow": (
        "mlmc", ORACLE_RUN, 3, "discounted forward is not finite: inf",
    ),
    "mlmc-oracle-damping-overflow": (
        "mlmc", ORACLE_RUN, 3, "Fourier price (base) is not finite: inf",
    ),
    "mlmc-oracle-nan": (
        "mlmc", ORACLE_RUN, 3, "Fourier price (base) is not finite: nan",
    ),
    # the implicit square-root schemes refuse a model with 4*kappa*lam < theta^2
    "negstats-implicit_sqrt-degraded": (
        "negstats", "n = 8\nn_samples = 16", 2,
        "implicit sqrt Euler requires 4*kappa*lam > theta^2",
    ),
    "negstats-dimp_milstein-degraded": (
        "negstats", "n = 8\nn_samples = 16", 2,
        "drift-implicit Milstein loses positivity when 4*kappa*lam < theta^2",
    ),
    "price-log_heston-degraded": (
        "price", "method = mc\nn = 8\nn_samples = 16", 2,
        "volatility equation violates 4*kappa*lam > theta^2",
    ),
    # an accuracy whose T/epsilon^2 samples are past the float range
    "mlmc-epsilon-too-small": (
        "mlmc", "epsilon = 2^-600", 2, "epsilon = 2.409919865102884e-181 is too small",
    ),
    "price-standard-epsilon-too-small": (
        "price", "method = standard\nepsilon = 2^-600", 2,
        "epsilon = 2.409919865102884e-181 is too small",
    ),
    # a theta whose square underflows: the Feller ratio reads inf, the
    # condition holding
    "validate-cir-theta-underflow": ("validate", "", 0, None),
    "validate-heston_log-theta-underflow": ("validate", "", 0, None),
    "converge-cir-theta-underflow": (
        "converge", "n_list = 2, 4\nn_samples = 4\nref_n = 8", 0, None,
    ),
    # no [model] value is infinite, and a discount factor must be a float
    "validate-T-inf": (
        "validate", "", 2, "line 7: bad value for 'T' in [model]: not a finite number",
    ),
    "price-discount-overflow": (
        "price", "method = mc\nn = 8\nn_samples = 16", 2,
        "[model]: the discount factor exp(-r*T) overflows at r = -1.0, T = 1e+300",
    ),
}

# (model block, scheme alias) of the rows that do not run euler on gbm
EDGE_SETUPS = {
    "pathwise-runaway": ("preset = cev-set-1", "tamed_euler"),
    "mlmc-replications-runaway": ("preset = heston-mlmc", "log_heston"),
    "mlmc-epsilon-runaway": ("preset = heston-mlmc", "log_heston"),
    "mlmc-epsilon_list-runaway": ("preset = heston-mlmc", "log_heston"),
    "price-mlmc-epsilon-runaway": ("preset = heston-mlmc", "log_heston"),
    "mlmc-epsilon-zero-power": ("preset = heston-mlmc", "log_heston"),
    "mlmc-epsilon-power-overflow": ("preset = heston-mlmc", "log_heston"),
    "mlmc-epsilon-decimal-overflow": ("preset = heston-mlmc", "log_heston"),
    "validate-moment_p_list-inf": ("preset = heston-mlmc", None),
    "validate-moment_p_list-zero": ("preset = heston-mlmc", None),
    "validate-moment_p_list-below-sixteenth": ("preset = cir-scenario-1", None),
    "pathwise-mu-nan": (SWEEP_MODELS["gbm"].replace("mu = 0.05", "mu = nan"), "euler"),
    "negstats-implicit_sqrt-degraded": ("preset = cir-scenario-2", "implicit_sqrt"),
    "negstats-dimp_milstein-degraded": ("preset = cir-scenario-2", "dimp_milstein"),
    "price-log_heston-degraded": ("preset = heston-mlmc\ntheta = 1.0", "log_heston"),
    "mlmc-epsilon-too-small": ("preset = heston-mlmc", "log_heston"),
    "mlmc-oracle-forward-overflow": (
        "preset = heston-mlmc\nstrike = 0\nmu = 800", "log_heston",
    ),
    "mlmc-oracle-damping-overflow": ("preset = heston-mlmc\nstrike = 1e-300", "log_heston"),
    "mlmc-oracle-nan": ("preset = heston-mlmc\nmu = 300", "log_heston"),
    "price-standard-epsilon-too-small": ("preset = heston-mlmc", "log_heston"),
    "explode-runaway": ("preset = three-halves-mc", "euler"),
    "converge-schemes-runaway": (
        "preset = cev-set-1", "euler, milstein, tamed_euler, split_step, backward_euler",
    ),
    "converge-error-cells": (
        "preset = cev-set-1", "euler, milstein, tamed_euler, split_step, backward_euler",
    ),
    "converge-repeated-alias": (SWEEP_MODELS["gbm"], "euler, tamed_euler, euler"),
    "validate-cir_lamperti": ("model = cir_lamperti\nT = 1.0", None),
    "validate-cir-theta-underflow": ("model = cir\nkappa = 2.0\nlam = 0.09\nx0 = 0.09\nT = 1.0\ntheta = 1e-300", None),
    "validate-heston_log-theta-underflow": ("preset = heston-mlmc\ntheta = 2^-1074", None),
    "converge-cir-theta-underflow": ("model = cir\nkappa = 2.0\nlam = 0.09\nx0 = 0.09\nT = 1.0\ntheta = 2^-1074", "euler"),
    "validate-T-inf": ("preset = cir-scenario-1\nT = inf", None),
    "price-discount-overflow": ("preset = heston-mlmc\nr = -1\nT = 1e300", "log_heston"),
}


# a key that did not parse is reported once, as a bad value, and not again
# by the rule that requires it
@pytest.mark.parametrize("kind, run_block", [
    ("mlmc", "epsilon = nan"),
    ("mlmc", "epsilon_list = 2^-1, nan"),
    ("price", "method = mlmc\nepsilon = nan"),
    ("price", "method = mc\nn = 8\nn_samples = x"),
    ("price", "method = mc_discarded\nn = 8\nn_samples = 16\nradius = nan"),
    ("negstats", "n = x\nn_samples = 8"),
    ("explode", "n_list = 2, 4\nn_samples = x"),
    ("mlmc", "epsilon = 2^-2\nreplications = 2\ntruth = nan"),
    ("mlmc", "epsilon = 2^-2\nreplications = x\ntruth = 1.0"),
    ("validate", "l1 = 1\nl2 = nan"),
])
def test_an_unparsable_required_key_is_reported_once(kind, run_block):
    scheme = "" if kind == "validate" else "[scheme]\nscheme = euler\n\n"
    errs = _errors(
        f"[experiment]\nkind = {kind}\nseed = 1\n\n[model]\n{SWEEP_MODELS['gbm']}\n\n"
        f"{scheme}[run]\n{run_block}\n"
    )
    assert len(errs) == 1 and "bad value" in errs[0], errs


@pytest.mark.parametrize("name", list(EDGE_RUNS), ids=list(EDGE_RUNS))
def test_cli_exit_code_of_edge_configs(tmp_path, capsys, name):
    kind, run_block, code, needle = EDGE_RUNS[name]
    model_block, alias = EDGE_SETUPS.get(name, (SWEEP_MODELS["gbm"], "euler"))
    # validate runs no scheme: its rows put a [scheme] section in run_block
    scheme_block = "" if kind == "validate" else f"scheme = {alias}"
    text = (
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\n{model_block}\n\n"
        f"[scheme]\n{scheme_block}\n\n[run]\n{run_block}\n"
    )
    cfg = _write(tmp_path / "edge.cfg", text)
    rc = cli.main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == code, err
    if needle is not None:
        assert needle in err
