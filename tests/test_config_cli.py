"""Config parsing (strict, line-numbered) and the CLI contract."""

import contextlib
import io
import math
import os
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sdelab import brownian as bw, cli, config as cfgmod, models, schemes
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


def test_cli_output_is_byte_identical_across_threads(tmp_path, capsys):
    cfg = _write(
        tmp_path / "e.cfg",
        """
[experiment]
kind = explode
seed = 7

[model]
preset = three-halves-mc

[scheme]
scheme = euler

[run]
n_list = 4, 8
n_samples_list = 100, 200
payoff = abs
""",
    )
    # --threads is kept for the benchmark's command line: it takes 1 only
    # and changes nothing
    d0, d1 = tmp_path / "t0", tmp_path / "t1"
    assert cli.main(["explode", "--config", cfg, "--out", str(d0)]) == 0
    assert cli.main(["explode", "--config", cfg, "--out", str(d1), "--threads", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode", "--config", cfg, "--out", str(tmp_path), "--threads", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    b0 = open(d0 / "explode.csv", "rb").read()
    b1 = open(d1 / "explode.csv", "rb").read()
    assert b0 == b1
    assert b"threads" not in b1


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
# cir_lamperti takes square-root parameters, which it does not have.
SWEEP_MODELS = {
    "cir": "preset = cir-scenario-1",
    "cir_lamperti": "model = cir_lamperti\nkappa = 2.0\nlam = 0.09\ntheta = 0.3\nx0 = 0.09\nT = 1.0",
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
# stay small enough that a run takes milliseconds.
_INT = ("0", "1", "-1", "2", "2^3")
_FLOAT = ("0", "1", "-1", "2^-1", "2^-3", "2^1023", "2^1024", "inf", "nan")


def _lists(values):
    """The empty list, each value alone, and one two-element list."""
    return ("", *values, ", ".join(values[3:5]))


RUN_VALUES = {
    "n": _INT,
    "n_samples": _INT,
    "n_list": _lists(_INT),
    "n_samples_list": _lists(_INT),
    "p": _INT,
    "ref_n": _INT,
    "ref_scheme": (*sorted(schemes.ALIASES), "bogus"),
    "reference": ("scheme", "exact", "bogus"),
    "sample_index": _INT + (str(bw.MAX_SAMPLE_INDEX - 1), str(bw.MAX_SAMPLE_INDEX)),
    "policy": ("propagate", "exclude", "drop"),
    "payoff": ("identity", "call", "put", "abs", "digital"),
    "lower": _FLOAT,
    "upper": _FLOAT,
    "radius": _FLOAT,
    "method": ("mc", "mc_discarded", "mlmc", "standard", "quasi"),
    "epsilon": _FLOAT,
    "epsilon_list": _lists(_FLOAT),
    "replications": _INT,
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


@settings(max_examples=1500, derandomize=True, database=None)
@given(case=_boundary_configs())
def test_boundary_run_values_never_end_in_a_traceback(tmp_path_factory, case):
    kind, text = case
    work = tmp_path_factory.getbasetemp() / "boundary"
    work.mkdir(exist_ok=True)
    cfg = _write(work / "run.cfg", text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        rc = cli.main([kind, "--config", cfg, "--out", str(work / "out")])
    assert rc in (0, 2, 3), text


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
    # one path over the batch budget is a config error, not a failed allocation
    "negstats-over-budget": (
        "negstats", "n = 2^40\nn_samples = 10", 2, "1099511627776 steps",
    ),
    # a curve needs one coarsest step, ref_n / min(n_list) fine steps, per path
    "converge-over-budget": (
        "converge", "n_list = 1\nn_samples = 4\nref_n = 2^30", 2, "1073741824 steps",
    ),
    "pathwise-over-budget": (
        "pathwise", "n_list = 2, 4\nref_n = 2^25", 2, "16777216 steps",
    ),
    # a walk of more increments than the work bound ends at once: here
    # ref_n = 4 * 2^40 steps, drawn in chunks that each fit the budget
    "pathwise-runaway": (
        "pathwise", "n_list = 2^40\nsample_index = 72057594037927935", 2,
        "1 paths x 4398046511104 steps",
    ),
    "converge-runaway": (
        "converge", "n_list = 2^40\nn_samples = 2", 2, "2 paths x 4398046511104 steps",
    ),
    # a replication study is bounded as a whole, before the oracle runs
    "mlmc-replications-runaway": (
        "mlmc", "epsilon = 2^-1\nreplications = 2^40\ntruth = 1.0", 2,
        "replications = 1099511627776 repeats 10 steps x 2 noise dimensions",
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
}

# (model block, scheme alias) of the rows that do not run euler on gbm
EDGE_SETUPS = {
    "pathwise-runaway": ("preset = cev-set-1", "tamed_euler"),
    "mlmc-replications-runaway": ("preset = heston-mlmc", "log_heston"),
    "pathwise-mu-nan": (SWEEP_MODELS["gbm"].replace("mu = 0.05", "mu = nan"), "euler"),
}


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
