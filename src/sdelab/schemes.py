"""One-step maps and path simulation for SDE discretization schemes.

The scheme inventory covers the standard explicit methods (Euler, scalar
Milstein), domain-aware modifications (auxiliary coefficient extensions,
reflection/symmetrization), implicit methods (split-step and drift-implicit
Euler, with closed forms where the drift is affine), taming, and the
square-root-process specials: the drift-implicit square-root Euler scheme in
Lamperti coordinates, the drift-implicit Milstein scheme in its
positivity-preserving rearrangement, and the composite log-price/volatility
scheme for the Heston model.

Two policies are enforced everywhere and never silently relaxed:

* Coefficients are evaluated only where they are defined.  On a model whose
  ``positive`` flag is set, a state that leaves the positive half-line or
  orthant without a configured extension is treated as a programming error
  and raises :class:`DomainError`; all truncation behavior is opt-in via an
  :data:`EXTENSIONS` entry or scheme flags.
* Non-finite values freeze a path.  Overflow is data (it reproduces moment
  explosion), so it sets a flag instead of raising; downstream estimators
  decide how to aggregate it.

One-step maps are pure and vectorized: state has shape (d, b) for a batch of
b paths, increments (m, b).  ``simulate_batch`` drives a batch of paths and
is the engine used by the measurement modules.

``SCHEMES`` is the one table of schemes, keyed by the names config files
use: each row holds the StepperConfig it selects, builds its stepper and
says which models it applies to.  A StepperConfig that is no row of it runs
no scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import brownian as bw
from .models import (
    CirParams,
    DomainError,
    Model,
    SolverError,
    feller_ratio,
    lamperti_cir,
    lamperti_root,
)


class SchemeError(ValueError):
    """Invalid scheme configuration for the given model."""


# 0-d operands: a ufunc converts a Python float operand on every call
_ZERO, _HALF = np.array(0.0), np.array(0.5)


# ---------------------------------------------------------------------------
# configuration types


# controls for the implicit-step equation x - drift(x)*dt = rhs
_ABS_TOL = 1e-12
_MAX_ITER = 100
_BRACKET_FACTOR = 2.0


@dataclass(frozen=True)
class StepperConfig:
    """A scheme and the names of its options, resolved against a model by
    :func:`make_stepper`.

    ``extension`` names an :data:`EXTENSIONS` entry (the modified schemes),
    and ``truncate_sqrt`` opts the square-root-process implicit schemes into
    evaluating sqrt(x^+) instead of sqrt(x), which is how they are run when
    the Feller-type conditions fail and iterates may leave the domain.  The
    configs that run are the rows of :data:`SCHEMES`.
    """

    scheme_id: str
    extension: str | None = None
    truncate_sqrt: bool = False


# ---------------------------------------------------------------------------
# coefficient extension


def _extended_cir(model: Model, name: str) -> Model:
    """The square-root model extended to all of R by ``EXTENSIONS[name]``.

    The diffusion becomes b(pi(x)) for the extension's map pi onto
    [0, inf), which is b on x > 0; the drift is kept (f = a for both
    extensions).  The diffusion derivative is b' on x > 0, g' on x < 0, and
    0 at x = 0, where sqrt has no finite one-sided limit.
    """
    theta = model.params.theta
    project, g_prime = EXTENSIONS[name]
    b, db = model.diffusion[0], model.diffusion_jacobian[0]

    def ext_diff(x):
        return b(project(x))

    def ext_ddiff(x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(all="ignore"):
            vals = np.where(x > 0, db(x), g_prime(theta, x))
        return np.where(x == 0.0, 0.0, vals)

    return replace(
        model, diffusion=(ext_diff,), diffusion_jacobian=(ext_ddiff,), positive=False
    )


# ---------------------------------------------------------------------------
# one-step maps (public, vectorized)


def _add_noise(model: Model, out, x, dw) -> np.ndarray:
    """out + sum_j b_j(x)*dW_j, with the diffusion evaluated at x."""
    if model.m == 1 and model.d == 1:
        return out + model.diffusion[0](x) * dw
    for j in range(model.m):
        out = out + model.diffusion[j](x) * dw[j]
    return out


def step_explicit_euler(model: Model, x, dt: float, dw) -> np.ndarray:
    """x' = x + a(x)*dt + sum_j b_j(x)*dW_j."""
    x = np.asarray(x, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    return _add_noise(model, x + model.drift(x) * dt, x, dw)


def step_milstein_scalar(model: Model, x, dt: float, dw) -> np.ndarray:
    """Euler plus the scalar-noise Milstein correction b*b'*((dW)^2 - dt)/2."""
    x = np.asarray(x, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    b = model.diffusion[0]
    db = model.diffusion_jacobian[0]
    euler = x + model.drift(x) * dt + b(x) * dw
    return euler + _HALF * b(x) * db(x) * (dw * dw - dt)


def step_reflected(model: Model, x, dt: float, dw) -> np.ndarray:
    """Euler step reflected into [0, inf): |x + a(x)*dt + sum_j b_j(x)*dW_j|."""
    return np.abs(step_explicit_euler(model, x, dt, dw))


def step_tamed_euler(model: Model, x, dt: float, dw) -> np.ndarray:
    """Euler with the drift increment damped to a(x)*dt/(1 + |a(x)|*dt)."""
    x = np.asarray(x, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    a = model.drift(x)
    if model.d == 1:
        denom = 1.0 + np.abs(a) * dt
    else:
        denom = 1.0 + np.sqrt((a * a).sum(axis=0)) * dt
    return _add_noise(model, x + a * dt / denom, x, dw)


# --- implicit machinery ----------------------------------------------------


def implicit_step_bound(L1: float, L2: float) -> float:
    """Largest safe dt for the implicit schemes under a one-sided Lipschitz
    constant L1 and polynomial-growth constant L2: 1/max(1 + 2*L1, 4*L2)."""
    return 1.0 / max(1.0 + 2.0 * L1, 4.0 * L2)


def solve_drift_implicit(model: Model, rhs, dt: float, x_init) -> np.ndarray:
    """Solve x - a(x)*dt = rhs for the drift a of ``model``, for x in
    (0, inf) when the model is ``positive`` and in R otherwise, vectorized
    over rhs.

    Uses the model's closed form when it has one; otherwise brackets a sign
    change of g(x) = x - dt*a(x) - rhs inside that domain, starting from
    ``x_init`` (geometric expansion on (0, inf), additive on R), and drives
    it home with bisection accelerated by Newton candidates where the model
    gives ``drift_prime`` and secant ones where it does not.  The result
    satisfies |g(x*)| <= 1e-12; failure to bracket raises
    :class:`SolverError`, which typically signals dt above the scheme's
    well-definedness bound or a non-coercive drift.
    """
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    if model.closed_form is not None:
        return model.closed_form(rhs, dt)
    drift, positive, dp = model.drift, model.positive, model.drift_prime

    def g(x):
        return x - dt * drift(x) - rhs

    x0 = np.broadcast_to(
        np.asarray(x_init, dtype=np.float64), rhs.shape
    ).astype(np.float64)
    if positive:
        x0 = np.maximum(x0, 1e-12)

    fac = _BRACKET_FACTOR
    lo = x0.copy()
    hi = x0.copy()
    with np.errstate(all="ignore"):
        glo = g(lo)
        ghi = g(hi)
        # expand until g(lo) <= 0 <= g(hi); drift coercivity makes g increase
        # from -inf near the lower end of the domain to +inf at the upper end
        for _ in range(600):
            need_lo = glo > 0
            need_hi = ghi < 0
            if not (need_lo.any() or need_hi.any()):
                break
            if positive:
                lo = np.where(need_lo, lo / fac, lo)
                hi = np.where(need_hi, hi * fac, hi)
            else:
                lo = np.where(
                    need_lo, lo - (fac - 1.0) * np.maximum(np.abs(lo), 1.0), lo
                )
                hi = np.where(
                    need_hi, hi + (fac - 1.0) * np.maximum(np.abs(hi), 1.0), hi
                )
            glo = g(lo)
            ghi = g(hi)
        else:
            raise SolverError(
                "no sign change found for the implicit equation after bracket "
                "expansion; dt may exceed the well-definedness bound, or the "
                "drift is not coercive on the domain"
            )

        x = 0.5 * (lo + hi)
        gx = g(x)
        for _ in range(_MAX_ITER):
            done = np.abs(gx) <= _ABS_TOL
            if done.all():
                break
            # maintain the bracket
            neg = gx < 0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
            glo = np.where(neg, gx, glo)
            ghi = np.where(neg, ghi, gx)
            if dp is not None:
                slope = 1.0 - dt * dp(x)
                cand = x - gx / slope
            else:
                cand = (lo * ghi - hi * glo) / (ghi - glo)
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            x = np.where(bad, 0.5 * (lo + hi), cand)
            x = np.where(done, np.where(neg, lo, hi), x)  # hold converged entries
            gx = g(x)
    if np.any(np.abs(gx) > _ABS_TOL) or not np.all(np.isfinite(x)):
        worst = float(np.max(np.abs(gx)))
        raise SolverError(
            f"implicit solve did not reach abs_tol={_ABS_TOL} within "
            f"{_MAX_ITER} iterations (worst residual {worst:.3e})"
        )
    return x


def _guard_domain_eval(model: Model, x: np.ndarray, what: str) -> None:
    if model.positive and not (x > 0).all():
        raise DomainError(
            f"{what}: state left the domain of model {model.model_id!r} and no "
            "extension, reflection or truncation is configured for this scheme"
        )


def step_split_step_backward(model: Model, x, dt: float, dw) -> np.ndarray:
    """x* = x + a(x*)*dt, then x' = x* + sum_j b_j(x*)*dW_j."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    dw = np.asarray(dw, dtype=np.float64)
    xs = solve_drift_implicit(model, x, dt, x_init=x)
    _guard_domain_eval(model, xs, "split-step diffusion stage")
    return _add_noise(model, xs, xs, dw)


def step_backward_euler(model: Model, x, dt: float, dw) -> np.ndarray:
    """x' solves x' = x + a(x')*dt + sum_j b_j(x)*dW_j."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    dw = np.asarray(dw, dtype=np.float64)
    _guard_domain_eval(model, x, "backward Euler diffusion term")
    return solve_drift_implicit(model, _add_noise(model, x, x, dw), dt, x_init=x)


# --- square-root process specials ------------------------------------------


def _cir_milstein(
    p: CirParams, dt: float, truncate: bool
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The unchecked drift-implicit Milstein map (z, dW) -> z' at one dt."""
    half_theta = 0.5 * p.theta
    theta_half = np.array(half_theta)
    shift = np.array((p.kappa * p.lam - half_theta * half_theta) * dt)
    scale = np.array(1.0 + p.kappa * dt)

    def step(z, dw):
        sq = np.sqrt(np.maximum(z, _ZERO) if truncate else z) + theta_half * dw
        return (sq * sq + shift) / scale

    return step


def step_cir_implicit_milstein(
    p: CirParams, z, dt: float, dw, truncate: bool = False
) -> np.ndarray:
    """Drift-implicit Milstein for CIR in the positivity-revealing form

        z' = [ (sqrt(z) + (theta/2)*dW)^2 + (kappa*lam - theta^2/4)*dt ] / (1 + kappa*dt).

    Strictly positive whenever 4*kappa*lam >= theta^2 and dW is not exactly
    at the zero of the square.  Negative input is rejected unless
    ``truncate`` is set, in which case sqrt(z^+) is used.
    """
    z = np.asarray(z, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    if not truncate and np.any(z < 0):
        raise DomainError(
            "negative state passed to the drift-implicit Milstein step; "
            "enable truncate_sqrt to run outside the Feller regime"
        )
    return _cir_milstein(p, dt, truncate)(z, dw)


# ---------------------------------------------------------------------------
# the scheme table


@dataclass(frozen=True)
class _Stepper:
    """Internal bundle for one step size: initial state, one-step map
    (x, dW) -> x' on (d, b) blocks, and the transform from internal state to
    recorded path values."""

    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    state0: tuple[float, ...]
    emit: Callable[[np.ndarray], np.ndarray] | None = None  # state -> values
    check_domain: bool = False


# A scheme's factory checks that it applies to the model and returns its
# stepper builder dt -> _Stepper, which computes the dt-only constants once.
_Builder = Callable[[float], _Stepper]


def _bind(step_fn, model: Model, check_domain: bool = False) -> _Builder:
    """Builder of the stepper x' = step_fn(model, x, dt, dW)."""

    def at(dt: float) -> _Stepper:
        dt = np.array(dt)
        return _Stepper(lambda x, dw: step_fn(model, x, dt, dw), model.state0,
                        check_domain=check_domain)

    return at


def _on_model(step_fn, check_domain: bool = True):
    """Stepper factory for a map on the model's own coefficients.  With
    ``check_domain``, simulation raises DomainError when a path of a positive
    model goes negative; the implicit maps guard their own evaluations
    instead."""
    return lambda config, model: _bind(step_fn, model, check_domain and model.positive)


def _modified(step_fn):
    """Stepper factory for an explicit map on the extended coefficients."""
    return lambda config, model: _bind(step_fn, _extended_cir(model, config.extension))


def _cir_implicit_sqrt(config: StepperConfig, model: Model) -> _Builder:
    """Drift-implicit Euler for Y = sqrt(X): the closed-form positive root of
    y' = y + (alpha/y' + beta*y')*dt + gamma*dW, positive for any input when
    alpha > 0 (``truncate_sqrt`` clips the radicand when alpha < 0).  The
    model's X = y^2 is recorded."""
    lam = lamperti_cir(model.params)
    if lam.alpha <= 0 and not config.truncate_sqrt:
        raise SchemeError(
            "implicit sqrt Euler requires 4*kappa*lam > theta^2 "
            f"(alpha = {lam.alpha:.6g}); scheme implicit_sqrt_truncated runs anyway"
        )
    gamma = np.array(lam.gamma)

    def at(dt: float) -> _Stepper:
        root = lamperti_root(lam, dt, config.truncate_sqrt)
        return _Stepper(lambda y, dw: root(y + gamma * dw), (lam.y0,), lambda y: y * y)

    return at


def _cir_implicit_milstein(config: StepperConfig, model: Model) -> _Builder:
    p = model.params
    if 4.0 * p.kappa * p.lam < p.theta * p.theta and not config.truncate_sqrt:
        raise SchemeError(
            "drift-implicit Milstein loses positivity when 4*kappa*lam < "
            "theta^2; scheme dimp_milstein_truncated runs in that regime"
        )
    return lambda dt: _Stepper(_cir_milstein(p, dt, config.truncate_sqrt), model.state0)


def _log_heston(config: StepperConfig, model: Model) -> _Builder:
    """Composite step for (H, Y) = (log-price, sqrt-variance):

        H' = H + (mu - Y^2/2)*dt + Y*(sqrt(1-rho^2)*dW1 + rho*dW2)
        Y' = implicit sqrt step driven by dW2.
    """
    p = model.params
    lam = lamperti_cir(p.vol_cir())
    if lam.alpha <= 0:
        raise SchemeError(
            "volatility equation violates 4*kappa*lam > theta^2 "
            f"(alpha = {lam.alpha:.6g})"
        )
    mu, rho, rho_bar, gamma = (
        np.array(v) for v in (p.mu, p.rho, math.sqrt(1.0 - p.rho * p.rho), lam.gamma)
    )

    def at(dt: float) -> _Stepper:
        root = lamperti_root(lam, dt)
        dt = np.array(dt)

        def step(x, dw):
            h, y = x[0], x[1]
            dw1, dw2 = dw[0], dw[1]
            h_new = h + (mu - _HALF * y * y) * dt + y * (rho_bar * dw1 + rho * dw2)
            return np.stack([h_new, root(y + gamma * dw2)])

        return _Stepper(step, model.state0)

    return at


@dataclass(frozen=True)
class SchemeEntry:
    """One scheme row: the StepperConfig it selects, how to build its stepper
    and which models it applies to; ``requires`` states the ``applies_to``
    condition in words, for errors."""

    config: StepperConfig
    factory: Callable[[StepperConfig, Model], _Builder]
    applies_to: Callable[[Model], bool] = lambda model: True
    requires: str = ""


def _scalar(model: Model) -> bool:
    return model.d == 1


def _scalar_noise(model: Model) -> bool:
    return model.d == 1 and model.m == 1


def _scalar_in_domain(model: Model) -> bool:
    return model.d == 1 and model.positive


def _cir(model: Model) -> bool:
    return isinstance(model.params, CirParams)


# the scheme names config files use, in the order their messages list them
SCHEMES: dict[str, SchemeEntry] = {
    "euler": SchemeEntry(StepperConfig("explicit_euler"), _on_model(step_explicit_euler)),
    "milstein": SchemeEntry(
        StepperConfig("milstein"), _on_model(step_milstein_scalar), _scalar_noise,
        "models with scalar noise (d = m = 1)",
    ),
    "truncated_euler": SchemeEntry(
        StepperConfig("modified_euler", extension="truncate"),
        _modified(step_explicit_euler), _cir, "CIR models",
    ),
    "absolute_euler": SchemeEntry(
        StepperConfig("modified_euler", extension="absolute"),
        _modified(step_explicit_euler), _cir, "CIR models",
    ),
    "truncated_milstein": SchemeEntry(
        StepperConfig("modified_milstein", extension="truncate"),
        _modified(step_milstein_scalar), _cir, "CIR models",
    ),
    "absolute_milstein": SchemeEntry(
        StepperConfig("modified_milstein", extension="absolute"),
        _modified(step_milstein_scalar), _cir, "CIR models",
    ),
    "symmetrized_euler": SchemeEntry(
        StepperConfig("reflected_euler"), _on_model(step_reflected, check_domain=False),
        _scalar_in_domain, "scalar models with a proper domain",
    ),
    "tamed_euler": SchemeEntry(StepperConfig("tamed_euler"), _on_model(step_tamed_euler)),
    "split_step": SchemeEntry(
        StepperConfig("split_step_backward_euler"),
        _on_model(step_split_step_backward, check_domain=False), _scalar, "scalar models",
    ),
    "backward_euler": SchemeEntry(
        StepperConfig("backward_euler"),
        _on_model(step_backward_euler, check_domain=False), _scalar, "scalar models",
    ),
    "implicit_sqrt": SchemeEntry(
        StepperConfig("cir_implicit_sqrt_euler"), _cir_implicit_sqrt, _cir, "CIR models",
    ),
    "implicit_sqrt_truncated": SchemeEntry(
        StepperConfig("cir_implicit_sqrt_euler", truncate_sqrt=True),
        _cir_implicit_sqrt, _cir, "CIR models",
    ),
    "dimp_milstein": SchemeEntry(
        StepperConfig("cir_implicit_milstein"), _cir_implicit_milstein, _cir, "CIR models",
    ),
    "dimp_milstein_truncated": SchemeEntry(
        StepperConfig("cir_implicit_milstein", truncate_sqrt=True),
        _cir_implicit_milstein, _cir, "CIR models",
    ),
    "log_heston": SchemeEntry(
        StepperConfig("log_heston_composite"), _log_heston,
        lambda model: model.model_id == "heston_log", "the log-Heston model",
    ),
}

# each row by the config it selects: the one lookup make_stepper makes
_ROWS = {entry.config: entry for entry in SCHEMES.values()}


# square-root extensions: (pi, g'), the map onto [0, inf) whose
# composite b(pi(x)) is the diffusion, and its derivative g'(theta, x) for
# x < 0; truncate kills the diffusion, absolute makes it theta*sqrt(|x|)
EXTENSIONS: dict[str, tuple[Callable, Callable]] = {
    "truncate": (lambda x: np.maximum(x, _ZERO), lambda theta, x: 0.0),
    "absolute": (np.abs, lambda theta, x: -theta / (2.0 * np.sqrt(-x))),
}


def default_reference_config(config: StepperConfig, model: Model) -> StepperConfig:
    """Reference scheme for coupled error curves.

    For the square-root process the drift-implicit square-root Euler scheme is
    the reference inside the Feller regime; outside it (where that scheme
    needs truncation itself) the truncated Euler scheme is used.  Every other
    model is referenced by the scheme under test at the finer resolution.
    """
    if model.model_id == "cir":
        feller = feller_ratio(model.params) >= 1.0
        return SCHEMES["implicit_sqrt" if feller else "truncated_euler"].config
    return config


def make_stepper(config: StepperConfig, model: Model) -> _Builder:
    """The scheme's stepper builder dt -> _Stepper for ``model``; SchemeError
    if ``config`` is no row of :data:`SCHEMES` or its scheme does not apply."""
    entry = _ROWS.get(config)
    if entry is None:
        raise SchemeError(f"{config} is no scheme; the schemes are {', '.join(SCHEMES)}")
    if not entry.applies_to(model):
        raise SchemeError(
            f"{config.scheme_id} applies only to {entry.requires}, not to model "
            f"{model.model_id!r} (d={model.d}, m={model.m})"
        )
    return entry.factory(config, model)


# ---------------------------------------------------------------------------
# simulation engine


@dataclass
class BatchResult:
    """Vectorized simulation output for a block of paths' first ``steps`` steps."""

    recorded: np.ndarray | None  # (d, n_rec+1, b) emitted values of this chunk, or None
    terminal: np.ndarray  # (d, b) emitted values after the last step
    state: np.ndarray  # (d, b) scheme state after the last step, to resume from
    overflow: np.ndarray  # (b,) bool: the path's state is non-finite
    runmax: np.ndarray | None  # (b,) signed max of emitted coordinate 0
    runmin: np.ndarray | None  # (b,) signed min of emitted coordinate 0
    steps: int
    stepper: _Stepper | None = None  # the walk's stepper, built by its first chunk


def simulate_batch(
    config: StepperConfig,
    model: Model,
    dt: float,
    incr: np.ndarray,
    record_every: int | None = None,
    track_extrema: bool = False,
    carry: BatchResult | None = None,
) -> BatchResult:
    """Drive a batch of paths through the configured scheme.

    ``incr`` has shape (m, b, n): per noise dimension, per path, per step.
    ``record_every = s`` stores emitted values at nodes 0, s, 2s, ..., n
    (n must be divisible by s), ``track_extrema`` the running extrema of
    coordinate 0.  No scheme here takes a non-finite state it can reach back
    to a finite one (``dimp_milstein_truncated`` maps -inf to a finite value,
    but its states stay above a finite floor; ``tests/test_schemes.py``
    checks every pair the table admits), so ``overflow`` is read from the end
    state.  ``carry``, the result of the same paths' previous chunk under the
    same scheme, model and dt, resumes them and is left unchanged: the result
    covers the path so far (errors count steps from its start, flags and
    extrema merge), and only ``recorded`` covers ``incr``.  The stepper is
    built once per walk, by its first chunk, and carried in the result.
    """
    m, b, n = incr.shape
    if m != model.m:
        raise SchemeError(
            f"increment block has {m} noise dimensions, model needs {model.m}"
        )
    if record_every is not None and n % record_every != 0:
        raise SchemeError(f"record_every={record_every} must divide n={n}")

    d = model.d
    stepper = getattr(carry, "stepper", None) or make_stepper(config, model)(dt)
    step, emit = stepper.step, stepper.emit or (lambda s: s)
    if carry is None:  # a zero-step result: the paths at their start
        x = np.repeat(np.array(stepper.state0, dtype=np.float64)[:, None], b, axis=1)
        v = emit(x)[0]
        carry = BatchResult(None, emit(x), x, np.zeros(b, dtype=bool), v, v, 0)
    x, t0 = carry.state, carry.steps
    runmax, runmin = (carry.runmax, carry.runmin) if track_extrema else (None, None)

    rec = None
    if record_every is not None:
        rec = np.empty((d, n // record_every + 1, b))
        rec[:, 0, :] = carry.terminal

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if rec is None and not track_extrema and not stepper.check_domain:
            for k in range(n):
                x = step(x, incr[:, :, k])
        else:
            # step a pass of states into a buffer of bw.BUFFER_FLOATS, then
            # check, track and record them (per step when d * b fills it)
            span = max(1, bw.BUFFER_FLOATS // (d * b))
            buf = np.empty((d, min(span, n), b))
            for k0 in range(0, n, span):
                states = buf[:, : min(span, n - k0)]
                for j in range(states.shape[1]):
                    states[:, j] = x = step(x, incr[:, :, k0 + j])
                if stepper.check_domain:
                    left = (states < 0).any(axis=(0, 2))  # (steps,)
                    if left.any():
                        raise DomainError(
                            f"scheme {config.scheme_id!r} left the domain of model "
                            f"{model.model_id!r} at step {t0 + k0 + int(left.argmax()) + 1}; "
                            "use a scheme that extends the coefficients, projects "
                            "back into the domain, or truncates"
                        )
                vals = emit(states)  # a no-op where the domain is checked
                if track_extrema:
                    runmax = np.maximum(runmax, vals[0].max(axis=0))
                    runmin = np.minimum(runmin, vals[0].min(axis=0))
                if rec is not None:
                    j0 = -(k0 + 1) % record_every  # first step of the pass on a node
                    kept = vals[:, j0::record_every]
                    node = (k0 + j0 + 1) // record_every
                    rec[:, node : node + kept.shape[1], :] = kept

    return BatchResult(
        recorded=rec,
        terminal=emit(x),
        state=x,
        overflow=carry.overflow | ~np.isfinite(x).all(axis=0),
        runmax=runmax,
        runmin=runmin,
        steps=t0 + n,
        stepper=stepper,
    )
