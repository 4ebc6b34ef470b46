"""Monte Carlo price estimators: one plain-Monte-Carlo walk, one level plan.

:func:`mc_estimate` is plain Monte Carlo at one resolution: one walk of the
largest sample count, reduced over its first N values for each N asked for.
A :class:`Plan` lays out the levels of the multilevel telescoping sum, and
:func:`mlmc_estimate` is its one estimation loop.  Sampling is fully
deterministic given (seed, index_offset): each (level, sample) pair takes a
fresh stream index from contiguous blocks, and replication studies stride
their offsets so no stream is ever reused.  Overflowed paths are never
hidden: the default policy propagates them as +inf (reproducing moment
explosion), "exclude" drops and counts them, and the discarded-path
estimator zeroes every path whose running maximum leaves the chosen radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import brownian as bw, util
from .models import Model
from .schemes import BatchResult, StepperConfig, simulate_batch


class EstimatorError(util.RunError, ValueError):
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
    levels: tuple[LevelStat, ...]


@dataclass(frozen=True)
class Plan:
    """Level layout of one estimate (Giles, Oper. Res. 2008).

    Level l runs ``samples[l]`` paths on the n0*2^l-step grid; each level
    l >= 1 subtracts the payoff on the n0*2^(l-1)-step grid driven by the
    same, aggregated, increments.  Plain Monte Carlo is the one-level plan.
    """

    n0: int
    samples: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n0 < 1 or not self.samples or min(self.samples) < 1:
            raise EstimatorError(
                f"a plan needs n0 >= 1 and every level n_samples >= 1; got "
                f"n0={self.n0}, samples={self.samples}"
            )

    @property
    def levels(self) -> int:
        """Index L of the finest level; 0 for plain Monte Carlo."""
        return len(self.samples) - 1

    @property
    def level_steps(self) -> tuple[int, ...]:
        """Steps of one level-l sample: n0*2^l fine plus n0*2^(l-1) coarse."""
        return tuple(self.n0 * (2**l + 2**l // 2) for l in range(len(self.samples)))

    @property
    def total_steps(self) -> int:
        return sum(n * c for n, c in zip(self.samples, self.level_steps))

    @property
    def sample_span(self) -> int:
        """Stream indices consumed by one estimate using this plan."""
        return sum(self.samples)


def mlmc_plan(epsilon: float, T: float) -> Plan:
    """Multilevel plan for accuracy epsilon on grids 2^0 .. 2^L:

        L = ceil(log2(T/eps)),  N_l = ceil(L * eps^-2 * T * 2^-l).
    """
    if not 0 < epsilon <= T / 2:
        raise EstimatorError(
            f"epsilon must lie in (0, T/2] so that at least one refinement "
            f"level exists; got epsilon={epsilon}, T={T}"
        )
    levels = math.ceil(math.log2(T / epsilon))
    return Plan(1, tuple(
        math.ceil(levels * T / (epsilon * epsilon) * 2.0 ** (-l))
        for l in range(levels + 1)
    ))


def mc_standard_pairing(epsilon: float, T: float) -> Plan:
    """Plain MC at accuracy epsilon: n = ceil(T/eps) steps, N = ceil(T/eps^2)
    samples."""
    if not 0 < epsilon <= T:
        raise EstimatorError(f"epsilon must lie in (0, T], got {epsilon}")
    return Plan(math.ceil(T / epsilon), (math.ceil(T / (epsilon * epsilon)),))


def plan_for(method: str, epsilon: float, T: float) -> Plan:
    """The multilevel ("mlmc") or standard-pairing ("standard") plan at
    accuracy epsilon; EstimatorError if its sample counts, of order
    T/epsilon^2, are past the float range."""
    if method not in ("mlmc", "standard"):
        raise EstimatorError(f"unknown method {method!r}; use 'mlmc' or 'standard'")
    try:
        return mlmc_plan(epsilon, T) if method == "mlmc" else mc_standard_pairing(epsilon, T)
    except (ZeroDivisionError, OverflowError):
        raise EstimatorError(
            f"epsilon = {epsilon!r} is too small: its plan's sample counts, "
            "of order T/epsilon^2, are past the float range"
        ) from None


def _payoff_values(
    model: Model, payoff: PayoffSpec, T: float, res: BatchResult,
    radius: float | None,
) -> np.ndarray:
    """Discounted payoff of each simulated path in ``res``; with ``radius``,
    zero where the running max |X| left the ball or the path overflowed."""
    rmin = rmax = None
    if res.runmin is not None:  # extrema of coordinate 0; observables are monotone
        rmin = model.observable(res.runmin[None])
        rmax = model.observable(res.runmax[None])
    vals = payoff.evaluate(model.observable(res.terminal), T, rmin, rmax)
    if radius is None:
        return vals
    sup = np.maximum(np.abs(res.runmax), np.abs(res.runmin))
    sup = np.where(res.overflow, np.inf, sup)
    return np.where(sup <= radius, vals, 0.0)


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
    policy: str,
    radius: float | None,
    coupled: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample payoff values at resolution n in sample-index order and
    their overflow flags.

    With ``coupled`` (a level l >= 1) each value is the fine payoff minus the
    payoff on the n/2-step grid driven by the same, aggregated, increments.
    ``radius`` zeroes each path that leaves the ball.
    """
    if policy not in ("propagate", "exclude"):
        raise EstimatorError(f"unknown overflow policy {policy!r}")
    if radius is not None:
        if not radius >= 0:
            raise EstimatorError(f"radius must be nonnegative, got {radius}")
        if model.d != 1:
            raise EstimatorError("the discarded-path estimator is scalar-only")
    track = payoff.needs_extrema or radius is not None
    dt = T / n
    values, overs = [], []
    for idx, incrs in bw.increment_batches(
        seed, n_samples, model.m, n, dt, index_offset, granule=2  # coarse halves it
    ):
        res = coarse = None
        for incr in incrs:
            res = simulate_batch(config, model, dt, incr, track_extrema=track, carry=res)
            if coupled:
                half = bw.aggregate_to(incr, incr.shape[-1] // 2)
                coarse = simulate_batch(
                    config, model, T / (n // 2), half, track_extrema=track, carry=coarse
                )
        vals = _payoff_values(model, payoff, T, res, radius)
        over = res.overflow
        if coupled:
            # inf - inf where both paths overflowed; the overflow policy
            # replaces or drops every overflowed value
            with np.errstate(invalid="ignore"):
                vals = vals - _payoff_values(model, payoff, T, coarse, radius)
            over = over | coarse.overflow
        values.append(vals)
        overs.append(over)
    return np.concatenate(values), np.concatenate(overs)


def _level(
    level: int, n: int, y: np.ndarray, over: np.ndarray, policy: str, radius: float | None
) -> tuple[LevelStat, float]:
    """A level's summary and the variance of its mean, from per-sample values
    and overflow flags; the overflow policy applies unless ``radius`` is set."""
    if radius is None:
        y = y[~over] if policy == "exclude" else np.where(over, np.inf, y)
    mean, var = util.sample_moments(y)
    return LevelStat(level, n, len(over), mean, var, int(over.sum())), var / max(len(y), 1)


def mc_estimate(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    *,
    T: float,
    seed: int,
    n: int,
    n_samples_list: tuple[int, ...],
    policy: str = "propagate",
    radius: float | None = None,
) -> list[PriceEstimate]:
    """Plain Monte Carlo at resolution n: one estimate per N of
    ``n_samples_list``, from one walk of stream indices 0 .. max N - 1.

    A sample's value does not depend on the samples walked with it, so the
    estimate at N reduces the first N values of that walk, bit for bit what
    ``mlmc_estimate`` gives on the one-level plan ``Plan(n, (N,))``.  With
    ``radius`` set, a path whose running maximum |X| exceeds it, or that
    overflowed, pays zero instead of applying ``policy``; ``radius=inf``
    keeps every path.
    """
    if n < 1 or not n_samples_list or min(n_samples_list) < 1:
        raise EstimatorError(
            f"plain Monte Carlo needs n >= 1 and every n_samples >= 1; got "
            f"n={n}, n_samples_list={n_samples_list}"
        )
    y, over = _sample(
        config, model, payoff, T=T, seed=seed, n=n, n_samples=max(n_samples_list),
        index_offset=0, policy=policy, radius=radius, coupled=False,
    )
    stats = [_level(0, n, y[:N], over[:N], policy, radius) for N in n_samples_list]
    return [PriceEstimate(s.mean, math.sqrt(v), s.n_samples, s.n_samples * n, s.n_overflow, (s,))
            for s, v in stats]


def mlmc_estimate(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    plan: Plan,
    *,
    T: float,
    seed: int,
    policy: str = "propagate",
    index_offset: int = 0,
) -> PriceEstimate:
    """Telescoping Monte Carlo estimate of the discounted payoff on ``plan``.

    The value is the sum of the level means, the stderr the root of the sum
    of var_l / N_l.  Every (level, sample) pair consumes its own stream
    index, from ``index_offset`` on, so levels are independent and the whole
    estimate is reproducible from (seed, offset).
    """
    stats: list[LevelStat] = []
    var_sum = 0.0
    offset = index_offset
    for level, n_l in enumerate(plan.samples):
        n = plan.n0 * 2**level
        y, over = _sample(
            config, model, payoff, T=T, seed=seed, n=n, n_samples=n_l,
            index_offset=offset, policy=policy, radius=None, coupled=level > 0,
        )
        stat, var_mean = _level(level, n, y, over, policy, None)
        stats.append(stat)
        var_sum += var_mean
        offset += n_l
    return PriceEstimate(
        value=sum((s.mean for s in stats[1:]), stats[0].mean),
        stderr=math.sqrt(var_sum),
        n_samples=plan.sample_span,
        total_steps=plan.total_steps,
        n_overflow=sum(s.n_overflow for s in stats),
        levels=tuple(stats),
    )


@dataclass(frozen=True)
class RmsqStudy:
    """Replicated root-mean-square error of an estimator against a truth."""

    rmsq: float
    n_overflow: int
    estimates: tuple[float, ...]


def rmsq_study(
    config: StepperConfig,
    model: Model,
    payoff: PayoffSpec,
    plan: Plan,
    *,
    T: float,
    truth: float,
    replications: int,
    seed: int,
    policy: str = "propagate",
) -> RmsqStudy:
    """Empirical rmsq of the estimate on ``plan`` over independent replications.

    Replication r uses stream indices [r*span, (r+1)*span), so replications
    are independent and the study is reproducible without any shared state.
    """
    if replications < 1:
        raise EstimatorError("replications must be >= 1")
    results = [
        mlmc_estimate(
            config, model, payoff, plan, T=T, seed=seed, policy=policy,
            index_offset=r * plan.sample_span,
        )
        for r in range(replications)
    ]
    arr = np.asarray([est.value for est in results])
    with np.errstate(invalid="ignore", over="ignore"):
        rmsq = float(np.sqrt(np.mean((arr - truth) ** 2)))
    return RmsqStudy(
        rmsq=rmsq,
        n_overflow=sum(est.n_overflow for est in results),
        estimates=tuple(float(e) for e in arr),
    )
