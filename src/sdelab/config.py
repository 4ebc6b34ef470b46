"""Strict line-oriented experiment configuration.

Format: ``[section]`` headers and ``key = value`` lines; ``#`` starts a
comment.  Sections are ``[experiment]``, ``[model]``, ``[scheme]`` and
``[run]``.  Parsing is deliberately unforgiving: unknown sections, unknown
keys, duplicate keys, type errors, and run keys that the chosen experiment
does not use are all hard errors, each reported with its line number.  A
silently ignored typo ("kapa = 5.07") would invalidate a table reproduction,
so nothing is ignored.

Floats accept dyadic shorthand (``2^-10``) alongside ordinary literals,
since every stepsize and accuracy grid in the experiments is a power of two.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, get_args

from . import estimators, models, schemes, util
from .brownian import MAX_SAMPLE_INDEX

# experiment kind -> the help text of its CLI subcommand
EXPERIMENT_KINDS = {
    "negstats": "negative-step statistics of extension-based Euler schemes",
    "pathwise": "error vs stepsize along one fixed Brownian path",
    "converge": "strong-error curves and empirical convergence orders",
    "explode": "Monte Carlo estimates across a stepsize/sample grid "
               "(moment-explosion study)",
    "mlmc": "multilevel / standard Monte Carlo cost and accuracy tables",
    "price": "a single Monte Carlo price estimate",
    "validate": "parameter diagnostics (no simulation)",
}


class ConfigError(ValueError):
    """All configuration problems found, one message per line."""

    def __init__(self, errors: list[str]):
        self.errors = tuple(errors)
        super().__init__("\n".join(errors))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model_id: str
    params: models.Params
    T: float
    strike: float | None
    preset_name: str | None
    schemes: tuple[str, ...]  # scheme aliases
    run: dict
    seed: int | None = None
    out: str | None = None


def _parse_float(text: str) -> float:
    """A float or a power ``a^k``.  Neither nan nor a value past the float
    range (``1e309``, ``2^1024``, ``0^-1``) is one: infinity is ``inf``."""
    m = re.fullmatch(r"([+-]?\d+)\^([+-]?\d+)", text)
    try:
        value = float(m.group(1)) ** _parse_digits(m.group(2)) if m else float(text)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if value != value or math.isinf(value) and "inf" not in text.lower():  # nan != nan
        raise ValueError("not a finite number, nor inf")
    return value


def _parse_finite(text: str) -> float:
    """A :func:`_parse_float` value other than inf, as every [model] value is."""
    if math.isinf(value := _parse_float(text)):
        raise ValueError("not a finite number")
    return value


def _parse_digits(text: str) -> int:
    """``int(text, 10)``, read from its significant digits: more than 20 of
    them are past 2^64 and read as 2^64 + 1 or 2^64 + 2, of the same sign and
    parity, which is all a caller reads of such a value.  ``int()`` would
    refuse a string of over 4,300 digits with a message of its own."""
    signed = text.startswith(("+", "-"))
    if not text[signed:].isdecimal():
        return int(text, 10)  # not plain digits: int() accepts or refuses it
    digits = text[signed:].lstrip("0")
    value = 2**64 + 2 - int(digits[-1]) % 2 if len(digits) > 20 else int(digits or "0")
    return -value if text.startswith("-") else value


def _parse_int(text: str) -> int:
    """An integer or a power ``a^k`` of magnitude at most 2^64, more than any
    key or seed takes.  A power past it is refused before it is computed:
    ``9^99999999`` would take minutes, and ``10^5000`` has too many digits to
    print."""
    m = re.fullmatch(r"([+-]?\d+)\^(\d+)", text)
    base, k = map(_parse_digits, m.groups()) if m else (_parse_digits(text), 1)
    # |a|^k with |a| >= 2 passes 2^64 by k = 65
    if abs(base) > 1 and k > 64 or abs(value := base**k) > 2**64:
        raise ValueError("magnitude past 2^64")
    return value


def _split_list(text: str) -> list[str]:
    return [t for t in re.split(r"[,\s]+", text.strip()) if t]


def _repeated(values) -> str:
    """The values listed more than once, sorted and joined by commas."""
    return ", ".join(map(str, sorted({v for v in values if values.count(v) > 1})))


def _distinct(values: tuple) -> tuple:
    """``values``; ValueError if one is listed twice, which would merge its
    rows or run the same work again."""
    if repeated := _repeated(values):
        raise ValueError(f"{repeated} listed more than once")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _distinct(tuple(_parse_float(t) for t in _split_list(text)))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _distinct(tuple(_parse_int(t) for t in _split_list(text)))


def _parse_str(text: str) -> str:
    return text


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(_split_list(text))


def _parse_truth(text: str) -> str | float:
    if text == "oracle":
        return text
    try:
        return _parse_float(text)
    except ValueError:
        raise ValueError(f"not a number or 'oracle': {text!r}") from None


def _at_least_one(key: str, v) -> str | None:
    return None if v >= 1 else f"{key!r} must be >= 1, got {v}"


def _all_at_least_one(key: str, v) -> str | None:
    return None if v and min(v) >= 1 else f"{key!r} must list integers >= 1"


def _positive(key: str, v) -> str | None:
    return None if v > 0 else f"{key!r} must be positive"


def _all_positive(key: str, v) -> str | None:
    ok = v and all(0 < x < math.inf for x in v)
    return None if ok else f"{key!r} must list finite positive values"


def _one_of(noun: str, choices) -> Callable[[str, object], str | None]:
    def check(key: str, v) -> str | None:
        return None if v in choices else f"unknown {noun} {v!r}; known: " + ", ".join(choices)

    return check


def _sample_index(key: str, v) -> str | None:
    return None if 0 <= v < MAX_SAMPLE_INDEX else "sample_index must lie in [0, 2**56)"


class _RunKey(NamedTuple):
    parse: Callable[[str], object]
    kinds: tuple[str, ...]  # experiments that accept the key; the rest reject it
    required_by: tuple[str, ...]
    check: Callable[[str, object], str | None] | None  # error message or None


# One row per [run] key.  Rules that tie several keys together, or a key to
# the model, are in _check_run_values.
_RUN_KEYS: dict[str, _RunKey] = {
    "n": _RunKey(_parse_int, ("negstats", "price"), ("negstats",), _at_least_one),
    "n_samples": _RunKey(
        _parse_int, ("negstats", "converge", "explode", "price"),
        ("negstats", "converge"), _at_least_one,
    ),
    "n_list": _RunKey(
        _parse_int_list, ("pathwise", "converge", "explode"),
        ("pathwise", "converge", "explode"), _all_at_least_one,
    ),
    "n_samples_list": _RunKey(_parse_int_list, ("explode",), (), _all_at_least_one),
    "p": _RunKey(_parse_int, ("converge",), (), _at_least_one),
    "ref_n": _RunKey(_parse_int, ("pathwise", "converge"), (), _at_least_one),
    "ref_scheme": _RunKey(
        _parse_str, ("pathwise", "converge"), (), _one_of("scheme alias", schemes.SCHEMES)
    ),
    "reference": _RunKey(
        _parse_str, ("pathwise", "converge"), (), _one_of("reference", ("scheme", "exact"))
    ),
    "sample_index": _RunKey(_parse_int, ("pathwise",), (), _sample_index),
    "policy": _RunKey(
        _parse_str, ("converge", "explode", "mlmc", "price"), (),
        _one_of("policy", ("propagate", "exclude")),
    ),
    "payoff": _RunKey(
        _parse_str, ("explode", "mlmc", "price"), (),
        _one_of("payoff", estimators.PHI_NAMES),
    ),
    "lower": _RunKey(_parse_float, ("mlmc", "price"), (), None),
    "upper": _RunKey(_parse_float, ("mlmc", "price"), (), None),
    "radius": _RunKey(_parse_float, ("explode", "price"), (), _positive),
    "method": _RunKey(
        _parse_str, ("mlmc", "price"), ("price",),
        _one_of("method", ("mc", "mlmc", "standard")),
    ),
    "epsilon": _RunKey(_parse_float, ("mlmc", "price"), (), _positive),
    "epsilon_list": _RunKey(_parse_float_list, ("mlmc",), (), _all_positive),
    "replications": _RunKey(_parse_int, ("mlmc",), (), _at_least_one),
    "truth": _RunKey(_parse_truth, ("mlmc",), (), None),
    "moment_p_list": _RunKey(_parse_float_list, ("validate",), (), _all_positive),
    "l1": _RunKey(_parse_float, ("validate",), (), None),
    "l2": _RunKey(_parse_float, ("validate",), (), None),
}


# every field of every parameter class, in class order
_MODEL_PARAM_KEYS = tuple(dict.fromkeys(
    f.name for cls in get_args(models.Params) for f in dataclasses.fields(cls)
))

# key -> parser, per section
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "experiment": {
        "kind": _parse_str,
        "seed": _parse_int,
        "out": _parse_str,
    },
    "model": {
        "preset": _parse_str,
        "model": _parse_str,
        **{k: _parse_finite for k in ("T", "strike", *_MODEL_PARAM_KEYS)},
    },
    "scheme": {"scheme": _parse_str_list},
    "run": {key: row.parse for key, row in _RUN_KEYS.items()},
}


def _parse_sections(text: str, errors: list[str]):
    """Raw pass: sections -> {key: (value_text, line_no)}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                errors.append(
                    f"line {lineno}: unknown section [{name}]; known sections: "
                    + ", ".join(f"[{s}]" for s in _SCHEMA)
                )
                current = None
            else:
                current = name
                sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            errors.append(
                f"line {lineno}: key {key!r} appears before any [section] header"
            )
            continue
        schema = _SCHEMA[current]
        if key not in schema:
            errors.append(
                f"line {lineno}: unknown key {key!r} in [{current}]; known keys: "
                + ", ".join(sorted(schema))
            )
            continue
        if key in sections[current]:
            prev_line = sections[current][key][1]
            errors.append(
                f"line {lineno}: duplicate key {key!r} in [{current}] "
                f"(first set on line {prev_line})"
            )
            continue
        sections[current][key] = (value, lineno)
    return sections


def _typed(section: dict[str, tuple[str, int]], name: str, errors: list[str]) -> dict:
    out = {}
    for key, (text, lineno) in section.items():
        try:
            out[key] = _SCHEMA[name][key](text)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r} in [{name}]: {exc}")
    return out


def _line_of(section: dict[str, tuple[str, int]], key: str) -> int:
    return section[key][1]


def _resolve_model(
    raw: dict[str, tuple[str, int]], vals: dict, errors: list[str]
):
    """Combine preset and inline overrides into (model_id, params, T, strike)."""
    preset_name = vals.get("preset")
    preset = None
    if preset_name is not None:
        try:
            preset = models.get_preset(preset_name)
        except models.ModelError as exc:
            errors.append(f"line {_line_of(raw, 'preset')}: {exc}")
            return None
    model_id = vals.get("model", preset.model_id if preset else None)
    if model_id is None:
        errors.append("[model]: needs either 'preset' or 'model'")
        return None
    try:
        cls = models.param_class(model_id)
    except models.ModelError as exc:
        errors.append(f"line {_line_of(raw, 'model')}: {exc}")
        return None
    fields = [f.name for f in dataclasses.fields(cls)]
    for key in _MODEL_PARAM_KEYS:
        if key in vals and key not in fields:
            errors.append(
                f"line {_line_of(raw, key)}: model {model_id!r} has no "
                f"parameter {key!r}; its parameters are "
                + ", ".join(sorted(fields))
            )
    if preset is not None and preset.model_id != model_id:
        # replacing the model invalidates preset params wholesale
        errors.append(
            f"line {_line_of(raw, 'model')}: model {model_id!r} conflicts with "
            f"preset {preset_name!r} ({preset.model_id}); drop one of the two"
        )
        return None
    # the preset's fields, then the overrides
    values = dataclasses.asdict(preset.params) if preset is not None else {}
    values.update((k, vals[k]) for k in fields if k in vals)
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in values and f.default is dataclasses.MISSING
    ]
    if missing:
        errors.append(
            f"[model]: model {model_id!r} without a preset needs "
            + ", ".join(missing)
        )
        return None
    try:
        params = cls(**values)
    except models.ModelError as exc:
        errors.append(f"[model]: {exc}")
        return None
    T = vals.get("T", preset.T if preset else None)
    if T is None:
        errors.append("[model]: needs 'T' (no preset supplies it)")
        return None
    if not T > 0:
        errors.append(f"[model]: T must be positive, got {T}")
        return None
    strike = vals.get("strike", preset.strike if preset else None)
    return model_id, params, T, strike, preset_name


def _resolve_schemes(
    raw: dict[str, tuple[str, int]], vals: dict, errors: list[str]
) -> tuple[str, ...]:
    aliases = vals.get("scheme", ())
    for a in aliases:
        if a not in schemes.SCHEMES:
            errors.append(
                f"line {_line_of(raw, 'scheme')}: unknown scheme alias {a!r}; "
                "known: " + ", ".join(schemes.SCHEMES)
            )
    repeated = _repeated(aliases)
    if repeated:  # a repeat would recompute and overwrite its own results
        errors.append(f"line {_line_of(raw, 'scheme')}: scheme aliases listed "
                      f"more than once: {repeated}")
    return tuple(a for a in aliases if a in schemes.SCHEMES)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError listing every
    problem found (never just the first)."""
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    exp_raw = sections.get("experiment", {})
    model_raw = sections.get("model", {})
    scheme_raw = sections.get("scheme", {})
    run_raw = sections.get("run", {})

    exp = _typed(exp_raw, "experiment", errors)
    model_vals = _typed(model_raw, "model", errors)
    scheme_vals = _typed(scheme_raw, "scheme", errors)
    run = _typed(run_raw, "run", errors)

    kind = exp.get("kind")
    if "experiment" not in sections or "kind" not in exp_raw:
        errors.append("[experiment]: missing required key 'kind'")
    elif kind not in EXPERIMENT_KINDS:
        errors.append(
            f"line {_line_of(exp_raw, 'kind')}: unknown experiment {kind!r}; "
            "known: " + ", ".join(EXPERIMENT_KINDS)
        )
        kind = None

    seed = exp.get("seed")
    if seed is not None and not 0 <= seed < 2**64:
        errors.append(
            f"line {_line_of(exp_raw, 'seed')}: seed must fit in an unsigned "
            f"64-bit integer, got {seed}"
        )

    resolved = None
    if "model" not in sections:
        errors.append("missing [model] section")
    else:
        resolved = _resolve_model(model_raw, model_vals, errors)

    schemes = _resolve_schemes(scheme_raw, scheme_vals, errors)
    if kind == "validate" and "scheme" in scheme_raw:
        errors.append(
            f"line {_line_of(scheme_raw, 'scheme')}: experiment 'validate' runs "
            "no scheme; drop the [scheme] section"
        )
    elif kind is not None and kind != "validate" and not schemes:
        errors.append(f"[scheme]: experiment {kind!r} needs at least one scheme")
    elif kind is not None and kind not in ("converge",) and len(schemes) > 1:
        errors.append(
            f"[scheme]: experiment {kind!r} takes exactly one scheme, "
            f"got {len(schemes)}"
        )

    if kind is not None:
        for key, (_, lineno) in run_raw.items():
            row = _RUN_KEYS[key]
            if kind not in row.kinds:
                errors.append(
                    f"line {lineno}: run key {key!r} is not used by experiment "
                    f"{kind!r}; its keys are "
                    + (", ".join(sorted(k for k, r in _RUN_KEYS.items() if kind in r.kinds))
                       or "(none)")
                )
            elif key in run and row.check and (msg := row.check(key, run[key])):
                errors.append(f"line {lineno}: {msg}")
        for key, row in _RUN_KEYS.items():
            if kind in row.required_by and key not in run_raw:
                errors.append(f"[run]: experiment {kind!r} requires {key!r}")
        _check_run_values(kind, run, run_raw, resolved, errors)

    if errors:
        raise ConfigError(errors)
    model_id, params, T, strike, preset_name = resolved
    return ExperimentConfig(
        kind=kind,
        model_id=model_id,
        params=params,
        T=T,
        strike=strike,
        preset_name=preset_name,
        schemes=schemes,
        run=run,
        seed=seed,
        out=exp.get("out"),
    )


def _check_run_values(kind, run, run_raw, resolved, errors):
    """The rules that tie several run keys together, or a key to the model;
    those that require a key read ``run_raw``, so a bad value is reported once."""
    def bad(key, msg):
        errors.append(f"line {_line_of(run_raw, key)}: {msg}")

    if "radius" in run and "policy" in run:
        bad("policy", "'policy' has no effect with 'radius': paths that leave "
            "the radius or overflow count as zero")
    method = run.get("method")
    if kind == "price" and method in ("mc", "mlmc", "standard"):
        grid = ("n", "n_samples")
        fixed = method == "mc"
        for key in grid if fixed else ("epsilon",):
            if key not in run_raw:
                errors.append(f"[run]: method {method!r} requires {key!r}")
        for key in ("epsilon",) if fixed else (*grid, "radius"):
            if key in run:
                bad(key, f"method {method!r} does not read {key!r}; drop it")
    if kind == "mlmc":
        if "epsilon" not in run_raw and "epsilon_list" not in run_raw:
            errors.append("[run]: experiment 'mlmc' needs 'epsilon' or 'epsilon_list'")
        if "replications" in run and "truth" not in run_raw:
            errors.append("[run]: a replication study needs 'truth' (number or 'oracle')")
        if "truth" in run and "replications" not in run_raw:
            bad("truth", "'truth' is read only by a replication study; set "
                "'replications' or drop 'truth'")
        if method == "mc":
            bad("method", "experiment 'mlmc' supports 'method' = mlmc or standard; "
                "use experiment 'price' for single fixed-grid estimates")
    if run.get("truth") == "oracle" and resolved is not None:
        _, params, _, strike, _ = resolved
        if not isinstance(params, models.HestonParams) or strike is None:
            bad("truth", "truth = oracle needs a heston model with a strike "
                "(the Fourier call-price oracle)")
    if kind == "explode" and "n_samples" not in run_raw and "n_samples_list" not in run_raw:
        errors.append("[run]: experiment 'explode' needs 'n_samples' or 'n_samples_list'")
    for key, other in (("n_samples", "n_samples_list"), ("epsilon", "epsilon_list")):
        if key in run and other in run:
            bad(key, f"{key!r} has no effect with {other!r}; drop one of the two")
    if run.get("reference") == "exact" and "ref_scheme" in run:
        bad("ref_scheme", "'ref_scheme' has no effect with reference = exact")
    for key, other in (("l1", "l2"), ("l2", "l1")):
        if key in run and other not in run_raw:
            bad(key, f"{key!r} is read only together with {other!r}")
    if "l1" in run and "l2" in run and max(1 + 2 * run["l1"], 4 * run["l2"]) <= 0:
        bad("l1", "the implicit step bound 1/max(1 + 2*l1, 4*l2) needs "
            "1 + 2*l1 > 0 or l2 > 0")
    if "moment_p_list" in run and resolved is not None and not isinstance(
        resolved[1], (models.CirParams, models.HestonParams)
    ):
        bad("moment_p_list", f"model {resolved[0]!r} has no moment diagnostic")


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    return parse_config(text)


def echo_lines(cfg: ExperimentConfig, seed: int) -> list[str]:
    """Resolved configuration as deterministic key = value lines, used as the
    metadata block of every output file (overrides already applied).  Only
    what determines the results is echoed, so the output directory is not."""
    lines = [
        f"experiment = {cfg.kind}",
        f"seed = {seed}",
        f"model = {cfg.model_id}",
    ]
    if cfg.preset_name:
        lines.append(f"preset = {cfg.preset_name}")
    for f in dataclasses.fields(cfg.params):
        lines.append(f"model.{f.name} = {getattr(cfg.params, f.name)!r}")
    lines.append(f"model.T = {cfg.T!r}")
    if cfg.strike is not None:
        lines.append(f"model.strike = {cfg.strike!r}")
    if cfg.schemes:
        lines.append("scheme = " + ", ".join(cfg.schemes))
    for key in sorted(cfg.run):
        v = cfg.run[key]
        values = v if isinstance(v, tuple) else (v,)
        lines.append(f"run.{key} = " + ", ".join(util.format_value(x) for x in values))
    return lines
