"""Monte Carlo price estimators: plain, discarded-path, and multilevel.

Sampling is fully deterministic given (seed, index_offset): plain MC uses
one Brownian stream per sample index, the multilevel estimator assigns each
(level, sample) pair a fresh index from contiguous blocks, and replication
studies stride their offsets so no stream is ever reused.  Overflowed paths
are never hidden: the default policy propagates them as +inf (reproducing
moment explosion), "exclude" drops and counts them, and the discarded-path
estimator zeroes every path whose running maximum leaves the chosen radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import brownian as bw, util
from .models import Model
from .schemes import BatchResult, StepperConfig, simulate_batch


class EstimatorError(ValueError):
    """Ill-posed estimator request."""


PHI_NAMES = ("call", "put", "identity", "abs")


@dataclass(frozen=True)
class PayoffSpec:
    """Discounted payoff of a simulated path.

    ``phi`` applies to the terminal price observable.  A payoff with a
    ``lower`` or ``upper`` bound is a barrier payoff: it multiplies that by
    the indicator that the running price observable stayed inside
    [lower, upper].  ``discount`` is the rate r in e^(-rT).
    """

    phi: str = "identity"
    strike: float | None = None
    lower: float | None = None
    upper: float | None = None
    discount: float = 0.0

    def __post_init__(self) -> None:
        if self.phi not in PHI_NAMES:
            raise EstimatorError(
                f"unknown payoff function {self.phi!r}; known: {', '.join(PHI_NAMES)}"
            )
        if self.phi in ("call", "put"):
            if self.strike is None or self.strike < 0:
                raise EstimatorError(
                    f"{self.phi} payoff needs a nonnegative strike, got {self.strike}"
                )
        if self.needs_extrema:
            lo = 0.0 if self.lower is None else self.lower
            hi = math.inf if self.upper is None else self.upper
            if not 0 <= lo <= hi:
                raise EstimatorError(
                    f"barrier bounds must satisfy 0 <= lower <= upper, got "
                    f"({self.lower}, {self.upper})"
                )

    @property
    def needs_extrema(self) -> bool:
        return self.lower is not None or self.upper is not None

    def _apply_phi(self, s: np.ndarray) -> np.ndarray:
        if self.phi == "call":
            return np.maximum(s - self.strike, 0.0)
        if self.phi == "put":
            return np.maximum(self.strike - s, 0.0)
        if self.phi == "abs":
            return np.abs(s)
        return s

    def evaluate(
        self,
        terminal_obs: np.ndarray,
        T: float,
        runmin_obs: np.ndarray | None = None,
        runmax_obs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Discounted payoff values from observables (all in price units)."""
        out = self._apply_phi(np.asarray(terminal_obs, dtype=np.float64))
        if self.needs_extrema:
            if runmin_obs is None or runmax_obs is None:
                raise EstimatorError("barrier payoff needs running extrema")
            alive = np.ones_like(out, dtype=bool)
            if self.lower is not None:
                alive &= runmin_obs >= self.lower
            if self.upper is not None:
                alive &= runmax_obs <= self.upper
            out = np.where(alive, out, 0.0)
        if self.discount != 0.0:
            out = out * math.exp(-self.discount * T)
        return out


@dataclass(frozen=True)
class LevelStat:
    """Per-level summary of a multilevel run."""

    level: int
    n_fine: int
    n_samples: int
    mean: float
    variance: float
    n_overflow: int


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    stderr: float
    n_samples: int
    total_steps: int
    n_overflow: int
    levels: tuple[LevelStat, ...] | None = None


@dataclass(frozen=True)
class MlmcPlan:
    """Level/sample layout for target accuracy epsilon:

        L = ceil(log2(T/eps)),  N_l = ceil(L * eps^-2 * T * 2^-l).

    A level-l path costs 2^l fine steps plus, for l >= 1, 2^(l-1) coupled
    coarse steps.
    """

    levels: int
    samples: tuple[int, ...]
    level_steps: tuple[int, ...]
    total_steps: int

    @property
    def sample_span(self) -> int:
        """Stream indices consumed by one estimate using this plan."""
        return sum(self.samples)


def mlmc_plan(epsilon: float, T: float) -> MlmcPlan:
    if not 0 < epsilon <= T / 2:
        raise EstimatorError(
            f"epsilon must lie in (0, T/2] so that at least one refinement "
            f"level exists; got epsilon={epsilon}, T={T}"
        )
    levels = math.ceil(math.log2(T / epsilon))
    samples = tuple(
        math.ceil(levels * T / (epsilon * epsilon) * 2.0 ** (-l))
        for l in range(levels + 1)
    )
    level_steps = tuple(
        (2**l + 2 ** (l - 1)) if l >= 1 else 1 for l in range(levels + 1)
    )
    total = sum(n * c for n, c in zip(samples, level_steps))
    return MlmcPlan(
        levels=levels,
        samples=samples,
        level_steps=level_steps,
        total_steps=total,
    )


@dataclass(frozen=True)
class StandardPlan:
    """Step/sample pairing for plain MC at target accuracy epsilon:
    n = ceil(T/eps) steps, N = ceil(T/eps^2) samples."""

    n: int
    n_samples: int
    total_steps: int


def mc_standard_pairing(epsilon: float, T: float) -> StandardPlan:
    if not 0 < epsilon <= T:
        raise EstimatorError(f"epsilon must lie in (0, T], got {epsilon}")
    n = math.ceil(T / epsilon)
    n_samples = math.ceil(T / (epsilon * epsilon))
    return StandardPlan(n=n, n_samples=n_samples, total_steps=n * n_samples)


def _payoff_values(
    model: Model, payoff: PayoffSpec, T: float, res: BatchResult
) -> np.ndarray:
    """Discounted payoff of each simulated path in ``res``."""
    rmin = rmax = None
    if res.runmin is not None:  # extrema of coordinate 0; observables are monotone
        rmin = model.observable(res.runmin[None])
        rmax = model.observable(res.runmax[None])
    return payoff.evaluate(model.observable(res.terminal), T, rmin, rmax)


def _sample(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    seed: int,
    n: int,
    n_samples: int,
    index_offset: int,
    policy: str = "propagate",
    radius: float | None = None,
    coupled: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Per-sample payoff values at resolution n, in sample-index order.

    With ``coupled`` (an MLMC level l >= 1) each value is the fine payoff
    minus the payoff on the n/2-step grid driven by the same, aggregated,
    increments.  ``radius`` zeroes paths that leave the ball; otherwise
    overflowed paths become +inf ("propagate") or are dropped ("exclude").
    Returns the values, the overflow count and the steps taken.
    """
    if policy not in ("propagate", "exclude"):
        raise EstimatorError(f"unknown overflow policy {policy!r}")
    track = payoff.needs_extrema or radius is not None
    dt = T / n
    chunks = []
    n_over = 0
    steps = 0
    for idx, (incr,) in bw.increment_batches(
        seed, n_samples, model.m, n, dt, index_offset
    ):
        res = simulate_batch(config, model, dt, incr, track_extrema=track)
        steps += n * len(idx)
        vals = _payoff_values(model, payoff, T, res)
        over = res.overflow
        if coupled:
            coarse = simulate_batch(
                config,
                model,
                T / (n // 2),
                bw.aggregate_to(incr, n // 2),
                track_extrema=track,
            )
            steps += n // 2 * len(idx)
            vals = vals - _payoff_values(model, payoff, T, coarse)
            over = over | coarse.overflow
        n_over += int(over.sum())
        if radius is not None:
            sup = np.maximum(np.abs(res.runmax), np.abs(res.runmin))
            sup = np.where(over, np.inf, sup)
            vals = np.where(sup <= radius, vals, 0.0)
        elif policy == "exclude":
            vals = vals[~over]
        else:
            vals = np.where(over, np.inf, vals)
        chunks.append(vals)
    return np.concatenate(chunks), n_over, steps


def mc_estimate(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    seed: int,
    n: int,
    n_samples: int,
    policy: str = "propagate",
    radius: float | None = None,
    index_offset: int = 0,
) -> PriceEstimate:
    """Plain Monte Carlo mean of the discounted payoff at resolution n.

    With ``radius`` set, paths whose running maximum |X| exceeds it are
    zeroed out instead of applying ``policy``.  Overflowed paths always count
    as outside the radius, so the estimate stays finite where the plain
    estimator explodes; ``radius=inf`` keeps every path and reproduces the
    plain estimate exactly.
    """
    if n_samples < 1:
        raise EstimatorError("n_samples must be >= 1")
    if radius is not None:
        if not radius >= 0:
            raise EstimatorError(f"radius must be nonnegative, got {radius}")
        if model.d != 1:
            raise EstimatorError("the discarded-path estimator is scalar-only")
    vals, n_over, steps = _sample(
        config, model, payoff, T=T, seed=seed, n=n, n_samples=n_samples,
        index_offset=index_offset, policy=policy,
        radius=radius,
    )
    value, var = util.sample_moments(vals)
    return PriceEstimate(
        value=value,
        stderr=math.sqrt(var / max(len(vals), 1)),
        n_samples=n_samples,
        total_steps=steps,
        n_overflow=n_over,
    )


def mlmc_estimate(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    epsilon: float,
    seed: int,
    policy: str = "propagate",
    index_offset: int = 0,
) -> PriceEstimate:
    """Multilevel Monte Carlo over dyadic resolutions 2^0 .. 2^L.

    Level 0 averages the payoff on the one-step grid; level l >= 1 averages
    the payoff difference between resolutions 2^l and 2^(l-1), both driven by
    the same Brownian increments (the coarse path aggregates the fine ones).
    Every (level, sample) pair consumes its own stream index, so levels are
    independent and the whole estimate is reproducible from (seed, offset).
    """
    plan = mlmc_plan(epsilon, T)
    total = 0.0
    var_sum = 0.0
    stats: list[LevelStat] = []
    n_over = 0
    steps = 0
    any_inf = False
    offset = index_offset
    for level, n_l in enumerate(plan.samples):
        y, n_over_l, steps_l = _sample(
            config, model, payoff, T=T, seed=seed, n=2**level, n_samples=n_l,
            index_offset=offset, policy=policy,
            coupled=level > 0,
        )
        offset += n_l
        steps += steps_l
        n_over += n_over_l
        mean_l, var_l = util.sample_moments(y)
        if math.isfinite(mean_l):
            total += mean_l
            var_sum += var_l / len(y)
        else:
            any_inf = True
        stats.append(
            LevelStat(
                level=level,
                n_fine=2**level,
                n_samples=n_l,
                mean=mean_l,
                variance=var_l,
                n_overflow=n_over_l,
            )
        )

    if steps != plan.total_steps:
        raise RuntimeError(
            f"step accounting bug: simulated {steps}, plan says {plan.total_steps}"
        )
    value = math.inf if any_inf else total
    stderr = math.inf if any_inf else math.sqrt(var_sum)
    return PriceEstimate(
        value=value,
        stderr=stderr,
        n_samples=plan.sample_span,
        total_steps=steps,
        n_overflow=n_over,
        levels=tuple(stats),
    )


def estimate_at(
    method: str,
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    epsilon: float,
    seed: int,
    policy: str = "propagate",
    index_offset: int = 0,
) -> PriceEstimate:
    """One multilevel ("mlmc") or standard-pairing ("standard") estimate at
    accuracy epsilon, on the stream indices from ``index_offset`` on."""
    if method == "mlmc":
        return mlmc_estimate(
            config, model, payoff, T=T, epsilon=epsilon, seed=seed,
            policy=policy, index_offset=index_offset,
        )
    if method != "standard":
        raise EstimatorError(f"unknown method {method!r}; use 'mlmc' or 'standard'")
    pairing = mc_standard_pairing(epsilon, T)
    return mc_estimate(
        config, model, payoff, T=T, seed=seed, n=pairing.n,
        n_samples=pairing.n_samples, policy=policy, index_offset=index_offset,
    )


@dataclass(frozen=True)
class RmsqStudy:
    """Replicated root-mean-square error of an estimator against a truth."""

    rmsq: float
    steps_per_replication: int
    n_overflow: int
    estimates: tuple[float, ...]


def rmsq_study(
    method: str,
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    epsilon: float,
    truth: float,
    replications: int,
    seed: int,
    policy: str = "propagate",
) -> RmsqStudy:
    """Empirical rmsq of the multilevel or standard estimator at accuracy eps.

    Replication r uses stream indices [r*span, (r+1)*span), so replications
    are independent and the study is reproducible without any shared state.
    """
    if replications < 1:
        raise EstimatorError("replications must be >= 1")
    if method == "mlmc":
        plan = mlmc_plan(epsilon, T)
        span = plan.sample_span
        steps_per = plan.total_steps
    else:
        pairing = mc_standard_pairing(epsilon, T)
        span = pairing.n_samples
        steps_per = pairing.total_steps

    results = [
        estimate_at(
            method, config, model, payoff, T=T, epsilon=epsilon, seed=seed,
            policy=policy, index_offset=r * span,
        )
        for r in range(replications)
    ]
    estimates = [est.value for est in results]
    n_over = sum(est.n_overflow for est in results)
    arr = np.asarray(estimates)
    with np.errstate(invalid="ignore", over="ignore"):
        rmsq = float(np.sqrt(np.mean((arr - truth) ** 2)))
    return RmsqStudy(
        rmsq=rmsq,
        steps_per_replication=steps_per,
        n_overflow=n_over,
        estimates=tuple(float(e) for e in estimates),
    )
