"""Empirical convergence measurement: error curves, order fits, negativity.

The central quantity is the root mean square maximum error at the grid nodes,

    e(dt) = ( (1/N) sum_i max_k |X*_i(t_k) - Xbar_i(t_k)|^p )^(1/p),

with the reference X* and the scheme under test driven by the same Brownian
increments (coupling), so e is a pure discretization error.  A reference is
either the same or another scheme at a finer dyadic resolution on the shared
lattice, or the exact solution where one exists (geometric Brownian motion).

Orders are estimated by least squares on (log dt, log e).  Overflowed paths
are data: under the default "propagate" policy they push the error to
infinity, under "exclude" they are dropped and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import brownian as bw, util
from .models import Model
from .oracles import gbm_exact_nodes
from .schemes import StepperConfig, default_reference_config, simulate_batch


class MeasurementError(ValueError):
    """Ill-posed error-curve request (grids, references, fit inputs)."""


def reference_n(n_list: Sequence[int], reference: str, ref_n: int | None) -> int:
    """``ref_n``, else the default reference resolution: four times the
    finest grid for a scheme reference, the finest grid for an exact one."""
    if ref_n is not None:
        return ref_n
    return max(n_list) * (4 if reference == "scheme" else 1)


@dataclass(frozen=True)
class Regression:
    """Least-squares line through (log dt, log e)."""

    slope: float
    intercept: float
    residual_stderr: float


@dataclass
class ErrorReport:
    """One error-vs-stepsize curve and the reference it was measured against.

    ``stepsizes`` are strictly decreasing.  ``stderrs`` hold the Monte Carlo
    standard error of each point.  ``valid`` is cleared when the reference
    itself overflowed, in which case the errors are meaningless and no
    regression is attached.  ``reference`` names the reference: "exact", or
    "<scheme_id>@n=<ref_n>".
    """

    stepsizes: tuple[float, ...]
    errors: tuple[float, ...]
    p: int
    regression: Regression | None
    stderrs: tuple[float, ...] | None = None
    overflow_counts: tuple[int, ...] | None = None
    valid: bool = True
    reference: str = ""

    def __post_init__(self) -> None:
        if len(self.stepsizes) != len(self.errors):
            raise MeasurementError("stepsizes and errors must have equal length")
        steps = np.asarray(self.stepsizes)
        if len(steps) and not (steps > 0).all():
            raise MeasurementError("stepsizes must be positive")
        if len(steps) > 1 and not (np.diff(steps) < 0).all():
            raise MeasurementError("stepsizes must be strictly decreasing")
        if self.p < 1:
            raise MeasurementError(f"p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class NegativityStats:
    """Average negative steps per path and fraction of paths going negative."""

    avg_negative_steps: float
    negative_path_fraction: float


def fit_order(stepsizes: Sequence[float], errors: Sequence[float]) -> Regression:
    """Least-squares slope of log(error) against log(stepsize).

    Requires at least two points and strictly positive, finite errors; a
    two-point fit is exact and reports zero residual spread.
    """
    steps = np.asarray(stepsizes, dtype=np.float64)
    errs = np.asarray(errors, dtype=np.float64)
    if steps.shape != errs.shape or steps.ndim != 1:
        raise MeasurementError("stepsizes and errors must be 1-d and equal length")
    if len(steps) < 2:
        raise MeasurementError("order fit needs at least two points")
    if not np.all(steps > 0):
        raise MeasurementError("stepsizes must be positive")
    if not np.all(np.isfinite(errs)) or not np.all(errs > 0):
        raise MeasurementError(
            "order fit needs positive finite errors; got "
            f"{[float(e) for e in errs]}"
        )
    lx = np.log(steps)
    ly = np.log(errs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(steps) - 2
    stderr = float(np.sqrt((resid**2).sum() / dof)) if dof > 0 else 0.0
    return Regression(slope=float(slope), intercept=float(intercept), residual_stderr=stderr)


def _dist_max(rec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-path max node deviation for recorded blocks (d, nodes, b), worked
    out in ``rec``; a path with a non-finite deviation at any node gets inf.
    The max propagates nan, so mapping nan to inf touches only the result."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(ref, rec, out=rec)
        dist = (np.abs(rec, out=rec)[0] if len(rec) == 1
                else np.sqrt(np.square(rec, out=rec).sum(axis=0)))
        worst = dist.max(axis=0)
    worst[np.isnan(worst)] = np.inf
    return worst


def strong_error_curves(
    configs: Sequence[StepperConfig],
    model: Model,
    *,
    T: float,
    seed: int,
    n_list: Sequence[int],
    n_samples: int,
    p: int = 2,
    ref_config: StepperConfig | None = None,
    ref_n: int | None = None,
    reference: str = "scheme",
    policy: str = "propagate",
    index_offset: int = 0,
) -> list[ErrorReport]:
    """Coupled strong-error curves for several schemes over one sample set.

    Brownian paths use sample indices index_offset .. index_offset +
    n_samples - 1 of the given seed; the reference path is simulated once
    per sample and shared by all configs.  ``reference="exact"`` (geometric
    Brownian motion only) compares against the closed-form solution on the
    same Brownian path instead of a scheme.  A pathwise curve is the case
    ``n_samples=1, p=1``: the error along the one path ``index_offset``.
    Memory is O(width x chunk), not O(width x ref_n): no path is held whole,
    but each (config, grid, path) keeps its maximum error and overflow flag.
    """
    if policy not in ("propagate", "exclude"):
        raise MeasurementError(f"unknown overflow policy {policy!r}")
    if reference not in ("scheme", "exact"):
        raise MeasurementError(f"unknown reference kind {reference!r}")
    if reference == "exact" and model.model_id != "gbm":
        raise MeasurementError("exact reference is available for gbm only")
    if n_samples < 1:
        raise MeasurementError("n_samples must be >= 1")
    ns = sorted(set(int(n) for n in n_list))  # increasing n: decreasing dt
    if not ns:
        raise MeasurementError("n_list is empty")
    n_top, ref_n = ns[-1], reference_n(ns, reference, ref_n)
    for n in ns:
        if n < 1 or ref_n % n != 0 or not bw.is_power_of_two(ref_n // n):
            raise MeasurementError(
                f"resolution n={n} does not dyadically divide the reference "
                f"resolution {ref_n}"
            )
    if reference == "scheme" and ref_config is None:
        ref_config = default_reference_config(configs[0], model)

    m = model.m
    nc, nn = len(configs), len(ns)
    # Walk time in chunks of whole coarsest steps, carrying states and
    # running max errors across them; one chunk per path fills the budget.
    dt_ref = T / ref_n
    stride = ref_n // n_top
    walk = bw.increment_batches(
        seed, n_samples, m, ref_n, dt_ref, index_offset, granule=ref_n // ns[0]
    )
    dist = np.zeros((nc, nn, n_samples))  # max node deviation of each path
    bad = np.zeros((nc, nn, n_samples), dtype=bool)
    ref_bad = np.zeros(n_samples, dtype=bool)

    for idx, chunks in walk:
        paths = slice(idx.start - index_offset, idx.stop - index_offset)
        rres, w_end, carry, t0 = None, np.zeros(len(idx)), {}, 0
        for fine in chunks:
            grids, incr = {}, fine
            for n in reversed(ns):  # each grid from the next finer one
                grids[n] = incr = bw.aggregate_to(incr, fine.shape[-1] * n // ref_n)
            if reference == "scheme":
                rres = simulate_batch(
                    ref_config, model, dt_ref, fine, record_every=stride, carry=rres
                )
                ref_top = rres.recorded  # (d, nodes, b)
            else:  # W at the chunk's nodes, summed in path order
                w = np.cumsum(np.column_stack([w_end, grids[n_top][0]]), axis=-1)
                w_end, nodes = w[:, -1], slice(t0 // stride, t0 // stride + w.shape[-1])
                ref_top = gbm_exact_nodes(model.params, T, n_top, w, nodes).T[None]
            for j_c, j_n in np.ndindex(nc, nn):
                n = ns[j_n]
                res = carry[j_c, j_n] = simulate_batch(
                    configs[j_c], model, T / n, grids[n], record_every=1,
                    carry=carry.get((j_c, j_n)),
                )
                d_max = _dist_max(res.recorded, ref_top[:, :: n_top // n, :])
                res.recorded = None  # a carry keeps no node values alive
                np.maximum(dist[j_c, j_n, paths], d_max, out=dist[j_c, j_n, paths])
            t0 += fine.shape[-1]
        ref_bad[paths] = False if rres is None else rres.overflow
        for (j_c, j_n), res in carry.items():
            bad[j_c, j_n, paths] = res.overflow | ref_bad[paths]

    reports = []
    steps = tuple(T / n for n in ns)
    valid = not ref_bad.any()
    ref_name = "exact" if reference == "exact" else f"{ref_config.scheme_id}@n={ref_n}"
    for j_c in range(nc):
        errors, stderrs = [], []
        for j_n in range(nn):
            ep = np.where(bad[j_c, j_n], np.inf, dist[j_c, j_n])
            if policy == "exclude":
                ep = ep[~bad[j_c, j_n]]
            # for p > 1, reduce ep over its largest finite value, so that no
            # ep**p underflows, and scale the error and stderr back
            finite = ep[np.isfinite(ep)]
            scale = float(finite.max()) if p > 1 and finite.any() else 1.0
            with np.errstate(over="ignore"):
                ep = (ep / scale) ** p
            mean_p, var = util.sample_moments(ep)
            se = math.inf
            if math.isfinite(mean_p):
                se_mean = math.sqrt(var / len(ep))
                # numpy power: a subnormal mean_p overflows to inf, not raises
                se = scale * (
                    (1.0 / p) * np.float64(mean_p) ** (1.0 / p - 1.0) * se_mean
                    if mean_p > 0
                    else 0.0
                )
            errors.append(scale * mean_p ** (1.0 / p))
            stderrs.append(float(se))
        reg = None
        if valid and all(math.isfinite(e) and e > 0 for e in errors) and nn >= 2:
            reg = fit_order(steps, errors)
        reports.append(
            ErrorReport(
                stepsizes=steps,
                errors=tuple(errors),
                p=p,
                regression=reg,
                stderrs=tuple(stderrs),
                overflow_counts=tuple(int(v) for v in bad[j_c].sum(axis=-1)),
                valid=valid,
                reference=ref_name,
            )
        )
    return reports


def negativity_stats(
    config: StepperConfig,
    model: Model,
    *,
    T: float,
    seed: int,
    n: int,
    n_samples: int,
) -> NegativityStats:
    """Average negative steps per path and the fraction of negative paths.

    Counts grid nodes k >= 1 whose value is strictly negative.  Schemes that
    preserve the domain report zeros; the extension-based Euler variants on
    the square-root process reproduce the known negativity levels.
    """
    if model.m != 1:
        raise MeasurementError("negativity statistics are defined for scalar noise")
    dt = T / n
    total_neg = 0
    neg_paths = 0
    for idx, chunks in bw.increment_batches(seed, n_samples, 1, n, dt, granule=1):
        res, neg = None, 0
        span = max(1, bw.BUFFER_FLOATS // len(idx))  # steps whose nodes fill 64 KiB
        for incr in chunks:
            for k in range(0, incr.shape[-1], span):
                piece = incr[:, :, k : k + span]
                res = simulate_batch(config, model, dt, piece, record_every=1, carry=res)
                neg = neg + (res.recorded[:, 1:] < 0).any(axis=0).sum(axis=0)
        total_neg += int(neg.sum())
        neg_paths += int((neg > 0).sum())
    return NegativityStats(
        avg_negative_steps=total_neg / n_samples,
        negative_path_fraction=neg_paths / n_samples,
    )
