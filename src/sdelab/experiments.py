"""Config-driven experiment runners that write gnuplot-friendly CSV files.

Every file starts with a '#' metadata block (library version, seed, the
resolved configuration, and the Gaussian-transform identifier of the RNG),
so a result can always be traced back to the exact run that produced it.
Floats are written with repr, and every estimator reduces its per-sample
values once, in sample-index order, which makes outputs byte-identical for
a fixed seed no matter how wide the sample batches are.
"""

from __future__ import annotations

import os
from typing import Callable

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


def _discount_rate(cfg: ExperimentConfig) -> float:
    if isinstance(cfg.params, models.HestonParams):
        return cfg.params.r
    return 0.0


def _build_payoff(cfg: ExperimentConfig, default_phi: str | None = None):
    run = cfg.run
    phi = run.get("payoff", default_phi)
    if phi is None:
        phi = "call" if cfg.strike is not None else "identity"
    return estimators.PayoffSpec(
        phi=phi,
        strike=cfg.strike if phi in ("call", "put") else None,
        lower=run.get("lower"),
        upper=run.get("upper"),
        discount=_discount_rate(cfg),
    )


def _header(cfg: ExperimentConfig, seed: int) -> list[str]:
    return [
        f"sdelab {__version__}",
        f"gaussian-transform = {bw.GAUSSIAN_TRANSFORM}",
        *echo_lines(cfg, seed),
    ]


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


def _run_negstats(cfg, model, seed, out_dir, header):
    scheme_cfg = build_stepper_config(cfg.schemes[0], model)
    stats = convergence.negativity_stats(
        scheme_cfg,
        model,
        T=cfg.T,
        seed=seed,
        n=cfg.run["n"],
        n_samples=cfg.run["n_samples"],
    )
    path = os.path.join(out_dir, "negstats.csv")
    util.write_csv(
        path,
        ("scheme", "n_steps", "n_samples", "avg_negative_steps",
         "negative_path_fraction"),
        [
            (
                cfg.schemes[0],
                cfg.run["n"],
                cfg.run["n_samples"],
                stats.avg_negative_steps,
                stats.negative_path_fraction,
            )
        ],
        header,
    )
    return [path]


def _run_curves(cfg, model, seed, out_dir, header):
    """converge, and pathwise as its case of one path: one sample at
    ``sample_index``, p = 1, and no standard error (one path has none)."""
    run = cfg.run
    pathwise = cfg.kind == "pathwise"
    ref_cfg = None
    if "ref_scheme" in run:
        ref_cfg = build_stepper_config(run["ref_scheme"], model)
    reports = convergence.strong_error_curves(
        [build_stepper_config(s, model) for s in cfg.schemes],
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
    paths = []
    for alias, report in zip(cfg.schemes, reports):
        name = "pathwise.csv" if pathwise else f"converge_{alias}.csv"
        path = os.path.join(out_dir, name)
        stderrs = (None,) * len(report.errors) if pathwise else report.stderrs
        util.write_csv(
            path,
            ("delta", "error", "stderr", "n_overflow"),
            zip(report.stepsizes, report.errors, stderrs, report.overflow_counts),
            header
            + ([] if pathwise else [f"scheme = {alias}"])
            + [f"reference = {report.reference}"],
            _regression_comments(report),
        )
        paths.append(path)
    return paths


def _run_explode(cfg, model, seed, out_dir, header):
    run = cfg.run
    scheme_cfg = build_stepper_config(cfg.schemes[0], model)
    payoff = _build_payoff(cfg, default_phi="abs")
    n_samples_list = run.get("n_samples_list") or (run["n_samples"],)
    rows = []
    for n in run["n_list"]:
        for N in n_samples_list:
            est = estimators.mc_estimate(
                scheme_cfg, model, payoff, T=cfg.T, seed=seed, n=n,
                n_samples=N, policy=run.get("policy", "propagate"),
                radius=run.get("radius"),
            )
            rows.append((cfg.T / n, N, est.value, est.stderr, est.n_overflow))
    path = os.path.join(out_dir, "explode.csv")
    util.write_csv(
        path,
        ("delta", "n_samples", "estimate", "stderr", "n_overflow"),
        rows,
        header,
    )
    return [path]


def _run_mlmc(cfg, model, seed, out_dir, header):
    run = cfg.run
    scheme_cfg = build_stepper_config(cfg.schemes[0], model)
    payoff = _build_payoff(cfg)
    method = run.get("method", "mlmc")
    eps_list = run.get("epsilon_list") or (run["epsilon"],)
    plans = [estimators.plan_for(method, eps, cfg.T) for eps in eps_list]
    replications = run.get("replications")
    kw = dict(T=cfg.T, seed=seed, policy=run.get("policy", "propagate"))
    if replications:  # the whole study under the work bound of one walk
        steps = sum(plan.total_steps for plan in plans)
        bw.check_work(
            replications * steps * model.m,
            f"[run]: replications = {replications} repeats {steps} steps x "
            f"{model.m} noise dimensions",
        )

    # evaluated once, before any simulation: the oracle is the costly part
    truth = run.get("truth")
    if replications and truth == "oracle":
        truth = oracles.heston_call_price(cfg.params, cfg.strike, cfg.T)

    rows = []
    for eps, plan in zip(eps_list, plans):
        levels = plan.levels if method == "mlmc" else None
        if replications:
            study = estimators.rmsq_study(
                scheme_cfg, model, payoff, plan, truth=truth,
                replications=replications, **kw,
            )
            rows.append((eps, levels, plan.total_steps,
                         float(np.mean(study.estimates)), study.rmsq,
                         study.n_overflow))
        else:
            est = estimators.mlmc_estimate(scheme_cfg, model, payoff, plan, **kw)
            rows.append((eps, levels, est.total_steps, est.value, None,
                         est.n_overflow))
    path = os.path.join(out_dir, "mlmc.csv")
    util.write_csv(
        path,
        ("epsilon", "levels", "total_steps", "estimate", "rmsq_if_study",
         "overflow_count"),
        rows,
        header + [f"method = {method}"],
    )
    return [path]


def _run_price(cfg, model, seed, out_dir, header):
    run = cfg.run
    scheme_cfg = build_stepper_config(cfg.schemes[0], model)
    payoff = _build_payoff(cfg)
    method = run["method"]
    kw = dict(T=cfg.T, seed=seed, policy=run.get("policy", "propagate"))
    if method in ("mc", "mc_discarded"):
        est = estimators.mc_estimate(
            scheme_cfg, model, payoff, n=run["n"], n_samples=run["n_samples"],
            radius=run.get("radius"), **kw,
        )
    else:
        plan = estimators.plan_for(method, run["epsilon"], cfg.T)
        est = estimators.mlmc_estimate(scheme_cfg, model, payoff, plan, **kw)
    path = os.path.join(out_dir, "price.csv")
    util.write_csv(
        path,
        ("method", "estimate", "stderr", "n_samples", "total_steps",
         "n_overflow"),
        [(method, est.value, est.stderr, est.n_samples, est.total_steps,
          est.n_overflow)],
        header,
    )
    return [path]


def _run_validate(cfg, model, seed, out_dir, header):
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
    path = os.path.join(out_dir, "validate.csv")
    util.write_csv(path, ("quantity", "value"), rows, header)
    return [path]


_RUNNERS: dict[str, Callable] = {
    "negstats": _run_negstats,
    "pathwise": _run_curves,
    "converge": _run_curves,
    "explode": _run_explode,
    "mlmc": _run_mlmc,
    "price": _run_price,
    "validate": _run_validate,
}


def run_experiment(
    cfg: ExperimentConfig, *, seed: int, out_dir: str
) -> list[str]:
    """Run one experiment, write its CSV artifacts, return their paths."""
    try:
        model = models.build_model(cfg.model_id, cfg.params)
        os.makedirs(out_dir, exist_ok=True)
        return _RUNNERS[cfg.kind](cfg, model, seed, out_dir, _header(cfg, seed))
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
