"""Config-driven experiments that write gnuplot-friendly CSV files.

Each kind's runner simulates and returns its tables; :func:`run_experiment`
alone writes them.  Every file starts with a '#' metadata block (library
version, seed, the resolved configuration, and the Gaussian-transform
identifier of the RNG), so a result can always be traced back to the exact
run that produced it.
Floats are written with repr, and every estimator reduces its per-sample
values once, in sample-index order, which makes outputs byte-identical for
a fixed seed no matter how wide the sample batches are.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__, brownian as bw
from . import convergence, estimators, models, oracles, schemes, util
from .config import ConfigError, ExperimentConfig, echo_lines


def build_stepper_config(alias: str, model: models.Model) -> schemes.StepperConfig:
    """The StepperConfig a config-file scheme alias selects, checked against
    ``model``."""
    cfg = schemes.ALIASES[alias]
    try:
        schemes.make_stepper(cfg, model)
    except schemes.SchemeError as exc:
        raise ConfigError(
            [f"[scheme]: {alias!r} does not apply to model {model.model_id!r}: {exc}"]
        ) from exc
    return cfg


def _build_payoff(cfg: ExperimentConfig, default_phi: str | None = None):
    run = cfg.run
    phi = run.get("payoff", default_phi)
    if phi is None:
        phi = "call" if cfg.strike is not None else "identity"
    rate = cfg.params.r if isinstance(cfg.params, models.HestonParams) else 0.0
    if -rate * cfg.T > np.log(np.finfo(float).max):  # exp(-r*T) past the float range
        raise ConfigError([f"[model]: the discount factor exp(-r*T) overflows at r = {rate}, T = {cfg.T}"])
    return estimators.PayoffSpec(
        phi=phi,
        strike=cfg.strike if phi in ("call", "put") else None,
        lower=run.get("lower"),
        upper=run.get("upper"),
        discount=rate,
    )


class Table(NamedTuple):
    """One CSV of a run: its file name, columns and rows, the header lines
    after the run's own, and its trailing comments."""

    name: str
    columns: Sequence[str]
    rows: Iterable[Sequence[object]]
    header: Sequence[str] = ()
    comments: Sequence[str] = ()


def _regression_comments(report: convergence.ErrorReport) -> list[str]:
    if not report.valid:
        return ["invalid: reference overflowed; errors are meaningless"]
    if report.regression is None:
        return ["no regression (needs >= 2 finite positive errors)"]
    r = report.regression
    return [
        f"regression: slope = {r.slope!r} intercept = {r.intercept!r} "
        f"residual_stderr = {r.residual_stderr!r}"
    ]


def _run_negstats(cfg, model, seed, steppers):
    stats = convergence.negativity_stats(
        steppers[0],
        model,
        T=cfg.T,
        seed=seed,
        n=cfg.run["n"],
        n_samples=cfg.run["n_samples"],
    )
    return [Table(
        "negstats.csv",
        ("scheme", "n_steps", "n_samples", "avg_negative_steps",
         "negative_path_fraction"),
        [(cfg.schemes[0], cfg.run["n"], cfg.run["n_samples"],
          stats.avg_negative_steps, stats.negative_path_fraction)],
    )]


def _run_curves(cfg, model, seed, steppers):
    """converge, and pathwise as its case of one path: one sample at
    ``sample_index``, p = 1, and no standard error (one path has none)."""
    run = cfg.run
    pathwise = cfg.kind == "pathwise"
    ref_cfg = None
    if "ref_scheme" in run:
        ref_cfg = build_stepper_config(run["ref_scheme"], model)
    reports = convergence.strong_error_curves(
        steppers,
        model,
        T=cfg.T,
        seed=seed,
        n_list=run["n_list"],
        n_samples=1 if pathwise else run["n_samples"],
        p=1 if pathwise else run.get("p", 2),
        ref_config=ref_cfg,
        ref_n=run.get("ref_n"),
        reference=run.get("reference", "scheme"),
        policy=run.get("policy", "propagate"),
        index_offset=run.get("sample_index", 0),
    )
    return [
        Table(
            "pathwise.csv" if pathwise else f"converge_{alias}.csv",
            ("delta", "error", "stderr", "n_overflow"),
            zip(report.stepsizes, report.errors,
                (None,) * len(report.errors) if pathwise else report.stderrs,
                report.overflow_counts),
            ([] if pathwise else [f"scheme = {alias}"])
            + [f"reference = {report.reference}"],
            _regression_comments(report),
        )
        for alias, report in zip(cfg.schemes, reports)
    ]


def _run_explode(cfg, model, seed, steppers):
    run = cfg.run
    payoff = _build_payoff(cfg, default_phi="abs")
    n_samples_list = run.get("n_samples_list") or (run["n_samples"],)
    rows = []
    for n in run["n_list"]:
        ests = estimators.mc_prefix_estimates(
            steppers[0], model, payoff, T=cfg.T, seed=seed, n=n,
            n_samples_list=n_samples_list, policy=run.get("policy", "propagate"),
            radius=run.get("radius"),
        )
        rows += [(cfg.T / n, e.n_samples, e.value, e.stderr, e.n_overflow) for e in ests]
    return [Table("explode.csv", ("delta", "n_samples", "estimate", "stderr", "n_overflow"), rows)]


def _plans(cfg: ExperimentConfig) -> dict[float, estimators.Plan]:
    """Each accuracy of an ``mlmc`` or ``price`` run, and its level plan."""
    eps_list = cfg.run.get("epsilon_list") or (cfg.run["epsilon"],)
    return {eps: estimators.plan_for(cfg.run.get("method", "mlmc"), eps, cfg.T) for eps in eps_list}


def _run_mlmc(cfg, model, seed, steppers):
    run = cfg.run
    payoff = _build_payoff(cfg)
    method = run.get("method", "mlmc")
    replications = run.get("replications")
    kw = dict(T=cfg.T, seed=seed, policy=run.get("policy", "propagate"))

    # evaluated once, before any simulation, so a bad truth fails first
    truth = run.get("truth")
    if replications and truth == "oracle":
        truth = oracles.heston_call_price(cfg.params, cfg.strike, cfg.T)

    rows = []
    for eps, plan in _plans(cfg).items():
        levels = plan.levels if method == "mlmc" else None
        if replications:
            study = estimators.rmsq_study(
                steppers[0], model, payoff, plan, truth=truth,
                replications=replications, **kw,
            )
            rows.append((eps, levels, plan.total_steps,
                         float(np.mean(study.estimates)), study.rmsq,
                         study.n_overflow))
        else:
            est = estimators.mlmc_estimate(steppers[0], model, payoff, plan, **kw)
            rows.append((eps, levels, est.total_steps, est.value, None,
                         est.n_overflow))
    return [Table(
        "mlmc.csv",
        ("epsilon", "levels", "total_steps", "estimate", "rmsq_if_study",
         "overflow_count"),
        rows,
        [f"method = {method}"],
    )]


def _run_price(cfg, model, seed, steppers):
    run = cfg.run
    payoff = _build_payoff(cfg)
    method = run["method"]
    kw = dict(T=cfg.T, seed=seed, policy=run.get("policy", "propagate"))
    if method in ("mc", "mc_discarded"):
        est = estimators.mc_estimate(
            steppers[0], model, payoff, n=run["n"], n_samples=run["n_samples"],
            radius=run.get("radius"), **kw,
        )
    else:
        (plan,) = _plans(cfg).values()
        est = estimators.mlmc_estimate(steppers[0], model, payoff, plan, **kw)
    return [Table(
        "price.csv",
        ("method", "estimate", "stderr", "n_samples", "total_steps",
         "n_overflow"),
        [(method, est.value, est.stderr, est.n_samples, est.total_steps,
          est.n_overflow)],
    )]


def _run_validate(cfg, model, seed, steppers):
    run = cfg.run
    p = cfg.params
    rows: list[tuple[str, object]] = []
    if isinstance(p, (models.CirParams, models.HestonParams)):
        rows.append(("feller_ratio", models.feller_ratio(p)))
        for mp in run.get("moment_p_list", (1.0, 2.0, 4.0, 8.0)):
            thr = models.bbd_threshold(p, mp)
            rows.append((f"bbd_threshold(p={mp:g})", thr.threshold))
            rows.append((f"bbd_satisfied(p={mp:g})", thr.satisfied))
    if isinstance(p, models.HestonParams):
        for mp in run.get("moment_p_list", (2.0,)):
            if mp > 1.0:
                mb = models.heston_moment_bound(p, mp)
                rows.append((f"moment_rho_bound(p={mp:g})", mb.threshold))
                rows.append((f"moment_bound_satisfied(p={mp:g})", mb.satisfied))
    if isinstance(p, models.AitSahaliaParams):
        wp = models.ait_sahalia_wellposed(p)
        rows.append(("strong_solution_ok", wp.strong_solution_ok))
        rows.append(("backward_euler_ok", wp.backward_euler_ok))
    if "l1" in run and "l2" in run:
        rows.append(
            ("implicit_step_bound", schemes.implicit_step_bound(run["l1"], run["l2"]))
        )
    if not rows:
        rows.append(("model", cfg.model_id))
    return [Table("validate.csv", ("quantity", "value"), rows)]


_RUNNERS: dict[str, Callable] = {
    "negstats": _run_negstats,
    "pathwise": _run_curves,
    "converge": _run_curves,
    "explode": _run_explode,
    "mlmc": _run_mlmc,
    "price": _run_price,
    "validate": _run_validate,
}


#: The [run] keys a run's work depends on, which its bounds' messages name.
_WORK_KEYS = ("n", "n_samples", "n_list", "n_samples_list", "ref_n", "epsilon",
              "epsilon_list", "replications")
#: A run's bounds, on its work and on its per-path cells (as many as a batch
#: holds increments), read once: a narrower batch budget leaves them as they are.
_BOUNDS = ((bw._WALK_FLOATS, "path-steps x noise dimensions"), (bw._BATCH_FLOATS, "per-path errors"))


def run_work(cfg: ExperimentConfig, model: models.Model) -> tuple[int, int]:
    """The work of a run, fixed by its config: the path-steps its walks draw
    or take times the noise dimension, and the per-path cells it keeps, one
    per (scheme, grid, path) of an error curve."""
    run, cells = cfg.run, 0
    if cfg.kind in ("converge", "pathwise"):  # the reference walk and each scheme's
        paths, nc, ns = run.get("n_samples", 1), len(cfg.schemes), run["n_list"]
        ref_n = convergence.reference_n(ns, run.get("reference", "scheme"), run.get("ref_n"))
        steps, cells = paths * (ref_n + nc * sum(ns)), paths * nc * len(ns)
    elif cfg.kind == "explode":  # one walk per grid, of the largest sample count
        steps = sum(run["n_list"]) * max(run.get("n_samples_list") or (run["n_samples"],))
    elif cfg.kind == "negstats" or run.get("method") in ("mc", "mc_discarded"):
        steps = run["n"] * run["n_samples"]
    elif cfg.kind == "validate":
        steps = 0
    else:  # mlmc, and price at method mlmc or standard
        steps = run.get("replications", 1) * sum(p.total_steps for p in _plans(cfg).values())
    return steps * model.m, cells


@contextmanager
def _output(path: str):
    """An OSError while making or writing ``path`` as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError([f"cannot write output {path!r}: {exc.strerror or exc}"]) from exc


def run_experiment(
    cfg: ExperimentConfig, *, seed: int, out_dir: str
) -> list[str]:
    """Run one experiment, write its CSV artifacts, return their paths; a
    run whose work (:func:`run_work`) is over a bound, or whose output
    cannot be written, is a ConfigError."""
    try:
        model = models.build_model(cfg.model_id, cfg.params)
        keys = [k for k in cfg.run if k in _WORK_KEYS] + ["[scheme]"] * (cfg.kind == "converge")
        errors = [f"[run]: {', '.join(keys)} give {v} {what}, over the bound of {b}"
                  for v, (b, what) in zip(run_work(cfg, model), _BOUNDS) if v > b]
        if errors:
            raise ConfigError(errors)
        steppers = [build_stepper_config(alias, model) for alias in cfg.schemes]
        with _output(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        tables = _RUNNERS[cfg.kind](cfg, model, seed, steppers)
    except (
        bw.LatticeError,
        models.ModelError,
        schemes.SchemeError,
        schemes.DomainError,
        schemes.SolverError,
        convergence.MeasurementError,
        estimators.EstimatorError,
    ) as exc:
        raise ConfigError([str(exc)]) from exc
    header = [f"sdelab {__version__}", f"gaussian-transform = {bw.GAUSSIAN_TRANSFORM}",
              *echo_lines(cfg, seed)]
    paths = [os.path.join(out_dir, t.name) for t in tables]
    for path, t in zip(paths, tables):
        with _output(path):
            util.write_csv(path, t.columns, t.rows, [*header, *t.header], t.comments)
    return paths
