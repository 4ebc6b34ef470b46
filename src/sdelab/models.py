"""Model zoo: drift/diffusion fields, state spaces, and well-posedness diagnostics.

Each model is packaged as a :class:`Model` with vectorized coefficient
evaluators and analytic diffusion derivatives (no automatic differentiation:
the formulas are few and the derivative of ``sqrt`` & friends is where all
the numerical subtlety lives, so it is spelled out).  Models are defined on
their natural domain only -- how to evaluate a square root left of zero is a
scheme-level decision, configured explicitly there.  The domain is one bit:
``Model.positive`` is set for the processes that live on the positive
half-line or orthant (square-root, Ait-Sahalia, Heston), and every other
model lives on all of R^d.

The diagnostics mirror the standard well-posedness conditions for these
equations: the Feller ratio 2*kappa*lambda/theta**2 for square-root
processes, moment-bound thresholds for CIR and Heston, and the parameter
conditions under which the generalized Ait-Sahalia rate model has a unique
positive strong solution and a solvable drift-implicit step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import util


class ModelError(util.RunError, ValueError):
    """Raised when parameters violate a model's standing assumptions."""


class DomainError(util.RunError, RuntimeError):
    """A coefficient was about to be evaluated outside its domain."""


class SolverError(util.RunError, RuntimeError):
    """The implicit-step equation could not be solved."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ModelError(what)


# ---------------------------------------------------------------------------
# parameter sets


@dataclass(frozen=True)
class CirParams:
    """dX = kappa*(lam - X) dt + theta*sqrt(X) dW on (0, inf)."""

    kappa: float
    lam: float
    theta: float
    x0: float

    def __post_init__(self) -> None:
        _require(self.kappa > 0, f"kappa must be positive, got {self.kappa}")
        _require(self.lam > 0, f"lam must be positive, got {self.lam}")
        _require(self.theta > 0, f"theta must be positive, got {self.theta}")
        _require(self.x0 > 0, f"x0 must be positive, got {self.x0}")


@dataclass(frozen=True)
class CevParams:
    """dS = mu*|S| dt + sigma*(S^+)^gamma dW, gamma in [1/2, 1].

    The drift and diffusion are written so the equation makes sense on all of
    R; gamma = 1 recovers geometric Brownian motion on the positive orbit.
    """

    mu: float
    sigma: float
    gamma: float
    s0: float

    def __post_init__(self) -> None:
        # sigma = 0 is allowed: the degenerate deterministic case is a useful
        # exactness check for the schemes
        _require(self.sigma >= 0, f"sigma must be nonnegative, got {self.sigma}")
        _require(
            0.5 <= self.gamma <= 1.0,
            f"gamma must lie in [1/2, 1], got {self.gamma}",
        )
        _require(self.s0 > 0, f"s0 must be positive, got {self.s0}")


@dataclass(frozen=True)
class HestonParams:
    """dS = mu*S dt + sqrt(V) S dB,  dV = kappa*(lam - V) dt + theta*sqrt(V) dW,
    d<B, W> = rho dt; r is the discount rate used for payoffs."""

    mu: float
    kappa: float
    lam: float
    theta: float
    rho: float
    s0: float
    v0: float
    r: float = 0.0

    def __post_init__(self) -> None:
        _require(self.kappa > 0, f"kappa must be positive, got {self.kappa}")
        _require(self.lam > 0, f"lam must be positive, got {self.lam}")
        _require(self.theta > 0, f"theta must be positive, got {self.theta}")
        _require(-1.0 < self.rho < 1.0, f"rho must lie in (-1, 1), got {self.rho}")
        _require(self.s0 > 0, f"s0 must be positive, got {self.s0}")
        _require(self.v0 > 0, f"v0 must be positive, got {self.v0}")

    def vol_cir(self) -> CirParams:
        """The variance equation as a stand-alone square-root process."""
        return CirParams(kappa=self.kappa, lam=self.lam, theta=self.theta, x0=self.v0)


@dataclass(frozen=True)
class AitSahaliaParams:
    """dX = (a_m1/X - a_0 + a_1*X - a_2*X^r) dt + sigma*X^rho dW on (0, inf)."""

    a_m1: float
    a_0: float
    a_1: float
    a_2: float
    sigma: float
    r: float
    rho: float
    x0: float

    def __post_init__(self) -> None:
        for name in ("a_m1", "a_0", "a_1", "a_2", "sigma"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        _require(self.r > 1, f"r must exceed 1, got {self.r}")
        _require(self.rho > 1, f"rho must exceed 1, got {self.rho}")
        _require(self.x0 > 0, f"x0 must be positive, got {self.x0}")


@dataclass(frozen=True)
class ThreeHalvesParams:
    """dV = c1*V*(c2 - V) dt + c3*(V^+)^(3/2) dW.

    Written with (V^+)^(3/2) so the explicit Euler iteration is defined on all
    of R -- the moment-explosion experiments run exactly this form.
    """

    c1: float
    c2: float
    c3: float
    v0: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        _require(self.v0 > 0, f"v0 must be positive, got {self.v0}")


@dataclass(frozen=True)
class CubicToyParams:
    """dX = -X^3 dt + sigma dW: the standard example of Euler moment blow-up."""

    sigma: float
    x0: float

    def __post_init__(self) -> None:
        _require(self.sigma >= 0, f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class LampertiCir:
    """dY = (alpha/Y + beta*Y) dt + gamma dW, the CIR equation for Y = sqrt(X),
    as :func:`lamperti_cir` derives it from checked CirParams."""

    alpha: float
    beta: float
    gamma: float
    y0: float


Params = (
    CirParams
    | CevParams
    | HestonParams
    | AitSahaliaParams
    | ThreeHalvesParams
    | CubicToyParams
)


# ---------------------------------------------------------------------------
# the Model container


@dataclass(frozen=True)
class Model:
    """An SDE dX = a(X) dt + sum_j b_j(X) dW^j on R^d or, when ``positive``,
    on the open positive half-line or orthant.

    Evaluators are vectorized: for d == 1 they map arrays elementwise; for
    d > 1 they map arrays of shape (d, ...) to arrays of the same shape.
    ``diffusion_jacobian[j]`` is b_j' for scalar models and empty otherwise
    (Milstein is scalar-only).  ``observable`` maps a state block of shape
    (d, ...) to the scalar used by payoffs (coordinate 0, or exp of the
    log-price for the log-Heston system).  The implicit schemes use
    ``drift_prime`` (a') and ``closed_form(rhs, dt)`` (the root of
    x - a(x)*dt = rhs) where the drift admits them.
    """

    model_id: str
    d: int
    m: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: tuple[Callable[[np.ndarray], np.ndarray], ...]
    diffusion_jacobian: tuple[Callable[[np.ndarray], np.ndarray], ...]
    positive: bool
    params: Params
    state0: tuple[float, ...]
    observable: Callable[[np.ndarray], np.ndarray] = lambda state: state[0]
    drift_prime: Callable[[np.ndarray], np.ndarray] | None = None
    closed_form: Callable[[np.ndarray, float], np.ndarray] | None = None


# ---------------------------------------------------------------------------
# model builders


def _cir_model(p: CirParams) -> Model:
    # 0-d operands: a ufunc converts a Python float operand on every call
    kappa, lam, theta = (np.array(v) for v in (p.kappa, p.lam, p.theta))

    def drift(x):
        return kappa * (lam - x)

    def diff(x):
        return theta * np.sqrt(x)

    def ddiff(x):
        return theta / (2.0 * np.sqrt(x))

    def closed_form(rhs, dt):
        return (rhs + kappa * lam * dt) / (1.0 + kappa * dt)

    return Model(
        model_id="cir", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=True, params=p,
        state0=(float(p.x0),), closed_form=closed_form,
    )


def _cev_model(p: CevParams) -> Model:
    mu, sigma, gamma = p.mu, p.sigma, p.gamma

    def drift(x):
        return mu * np.abs(x)

    def diff(x):
        return sigma * np.maximum(x, 0.0) ** gamma

    def ddiff(x):
        x = np.asarray(x, dtype=np.float64)
        pos = x > 0
        out = np.zeros_like(x)
        # one-sided derivative from the right of 0 diverges for gamma < 1;
        # by convention it is taken as 0 there
        np.power(x, gamma - 1.0, where=pos, out=out)
        return sigma * gamma * out

    return Model(
        model_id="cev", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=False, params=p,
        state0=(float(p.s0),),
    )


def _gbm_model(p: CevParams) -> Model:
    _require(p.gamma == 1.0, f"gbm requires gamma = 1, got {p.gamma}")
    mu, sigma = p.mu, p.sigma

    def drift(x):
        return mu * x

    def diff(x):
        return sigma * x

    def ddiff(x):
        return np.full_like(np.asarray(x, dtype=np.float64), sigma)

    def closed_form(rhs, dt):
        denom = 1.0 - mu * dt
        if denom <= 0:
            raise SolverError(f"linear implicit step ill-posed: 1 - mu*dt = {denom}")
        return rhs / denom

    return Model(
        model_id="gbm", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=False, params=p,
        state0=(float(p.s0),), closed_form=closed_form,
    )


def _ait_sahalia_model(p: AitSahaliaParams) -> Model:
    a_m1, a_0, a_1, a_2, sigma, r, rho = (
        p.a_m1, p.a_0, p.a_1, p.a_2, p.sigma, p.r, p.rho,
    )

    def drift(x):
        return a_m1 / x - a_0 + a_1 * x - a_2 * x**r

    def diff(x):
        return sigma * x**rho

    def ddiff(x):
        return sigma * rho * x ** (rho - 1.0)

    def drift_prime(x):
        return -a_m1 / x**2 + a_1 - a_2 * r * x ** (r - 1.0)

    return Model(
        model_id="ait_sahalia", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=True, params=p,
        state0=(float(p.x0),), drift_prime=drift_prime,
    )


def _three_halves_model(p: ThreeHalvesParams) -> Model:
    c1, c2, c3 = p.c1, p.c2, p.c3

    def drift(x):
        return c1 * x * (c2 - x)

    def diff(x):
        return c3 * np.maximum(x, 0.0) ** 1.5

    def ddiff(x):
        return 1.5 * c3 * np.sqrt(np.maximum(x, 0.0))

    def drift_prime(x):
        return c1 * c2 - 2.0 * c1 * np.asarray(x, dtype=np.float64)

    return Model(
        model_id="three_halves_vol", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=False, params=p,
        state0=(float(p.v0),), drift_prime=drift_prime,
    )


def _cubic_toy_model(p: CubicToyParams) -> Model:
    sigma = p.sigma

    def drift(x):
        return -(x**3)

    def diff(x):
        return np.full_like(np.asarray(x, dtype=np.float64), sigma)

    def ddiff(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def drift_prime(x):
        return -3.0 * np.asarray(x, dtype=np.float64) ** 2

    return Model(
        model_id="cubic_toy", d=1, m=1, drift=drift, diffusion=(diff,),
        diffusion_jacobian=(ddiff,), positive=False, params=p,
        state0=(float(p.x0),), drift_prime=drift_prime,
    )


def lamperti_root(
    p: LampertiCir, dt: float, truncate: bool = False
) -> Callable[[np.ndarray], np.ndarray]:
    """The map rhs -> y solving y - (alpha/y + beta*y)*dt = rhs at one dt,
    its positive root:

        y = rhs/(2*(1-beta*dt)) + sqrt(rhs^2/(4*(1-beta*dt)^2) + alpha*dt/(1-beta*dt))

    The dt-only constants are computed once, here.  With alpha > 0 the root
    is strictly positive for every rhs.  ``truncate`` clips the (possibly
    negative, when alpha < 0) radicand at zero, which is the sqrt(x^+)
    convention used outside the Feller regime; otherwise a negative radicand
    raises DomainError.  The radicand is rhs^2/(...) plus the dt-only shift,
    so it is tested only when that shift is negative.
    """
    denom = 1.0 - p.beta * dt
    if denom <= 0:
        raise SolverError(f"implicit sqrt step ill-posed: 1 - beta*dt = {denom} <= 0")
    two_denom = np.array(2.0 * denom)
    shift = np.array(p.alpha * dt / denom)
    zero = np.array(0.0)
    check = not truncate and shift < 0

    def root(rhs: np.ndarray) -> np.ndarray:
        half = rhs / two_denom
        radicand = half * half + shift
        if truncate:
            radicand = np.maximum(radicand, zero)
        elif check and np.any(radicand < 0):
            raise DomainError(
                "negative radicand in implicit sqrt step (alpha < 0 regime); "
                "pass truncate=True to run outside the Feller condition"
            )
        return half + np.sqrt(radicand)

    return root


def _heston_log_model(p: HestonParams) -> Model:
    """(log-price, sqrt-variance) system driven by independent (W1, W2).

    With Y = sqrt(V):
        dH = (mu - Y^2/2) dt + Y*(sqrt(1-rho^2) dW1 + rho dW2)
        dY = (alpha/Y + beta*Y) dt + (theta/2) dW2
    where alpha = (4*kappa*lam - theta^2)/8 and beta = -kappa/2.  This is the
    primary simulation form; payoffs exponentiate H at maturity.
    """
    mu, theta, rho = p.mu, p.theta, p.rho
    lam_cir = lamperti_cir(p.vol_cir())
    alpha, beta = lam_cir.alpha, lam_cir.beta
    rho_bar = math.sqrt(1.0 - rho * rho)

    def drift(x):
        h, y = x[0], x[1]
        return np.stack([mu - 0.5 * y * y, alpha / y + beta * y])

    def b1(x):
        y = x[1]
        return np.stack([rho_bar * y, np.zeros_like(y)])

    def b2(x):
        y = x[1]
        return np.stack([rho * y, np.full_like(y, theta / 2.0)])

    return Model(
        model_id="heston_log", d=2, m=2, drift=drift, diffusion=(b1, b2),
        diffusion_jacobian=(), positive=False, params=p,
        state0=(math.log(p.s0), math.sqrt(p.v0)),
        observable=lambda state: np.exp(state[0]),
    )


def _heston_model(p: HestonParams) -> Model:
    """Heston in its native (price, variance) coordinates.

    Provided for coefficient inspection and diagnostics; simulation uses the
    log-price system, where the composite scheme keeps the volatility
    positive.
    """
    mu, kappa, lam, theta, rho = p.mu, p.kappa, p.lam, p.theta, p.rho
    rho_bar = math.sqrt(1.0 - rho * rho)

    def drift(x):
        s, v = x[0], x[1]
        return np.stack([mu * s, kappa * (lam - v)])

    def b1(x):
        s, v = x[0], x[1]
        return np.stack([rho_bar * np.sqrt(v) * s, np.zeros_like(s)])

    def b2(x):
        s, v = x[0], x[1]
        return np.stack([rho * np.sqrt(v) * s, theta * np.sqrt(v)])

    return Model(
        model_id="heston", d=2, m=2, drift=drift, diffusion=(b1, b2),
        diffusion_jacobian=(), positive=True, params=p,
        state0=(float(p.s0), float(p.v0)),
    )


_BUILDERS: dict[str, tuple[type, Callable]] = {
    "cir": (CirParams, _cir_model),
    "cev": (CevParams, _cev_model),
    "gbm": (CevParams, _gbm_model),
    "heston_log": (HestonParams, _heston_log_model),
    "heston": (HestonParams, _heston_model),
    "ait_sahalia": (AitSahaliaParams, _ait_sahalia_model),
    "three_halves_vol": (ThreeHalvesParams, _three_halves_model),
    "cubic_toy": (CubicToyParams, _cubic_toy_model),
}

MODEL_IDS = tuple(sorted(_BUILDERS))


def param_class(model_id: str) -> type:
    """The parameter dataclass that ``build_model`` expects for ``model_id``."""
    if model_id not in _BUILDERS:
        raise ModelError(
            f"unknown model {model_id!r}; known models: {', '.join(MODEL_IDS)}"
        )
    return _BUILDERS[model_id][0]


def build_model(model_id: str, params: Params) -> Model:
    """Construct the model named ``model_id`` from a matching parameter set."""
    ptype = param_class(model_id)
    if not isinstance(params, ptype):
        raise ModelError(
            f"model {model_id!r} expects {ptype.__name__}, got {type(params).__name__}"
        )
    return _BUILDERS[model_id][1](params)


# ---------------------------------------------------------------------------
# diagnostics


def feller_ratio(p: CirParams | HestonParams) -> float:
    """2*kappa*lambda/theta^2 (inf if theta^2 underflows); the boundary 0 is
    unattainable iff ratio >= 1."""
    return 2.0 * p.kappa * p.lam / p.theta / p.theta


@dataclass(frozen=True)
class MomentThreshold:
    threshold: float
    satisfied: bool


def bbd_threshold(p: CirParams | HestonParams, moment_p: float) -> MomentThreshold:
    """Feller-ratio threshold under which the moments E[sup |X_t|^(2p)] and
    E[sup 1/X_t^p] of the square-root process are known finite:

        2*kappa*lam/theta^2 > 1 + sqrt(8)*max((sqrt(kappa)/theta)*sqrt(16p-1), 16p-2)
    """
    # the threshold takes sqrt(16p - 1), so it exists from p = 1/16 on
    _require(16.0 * moment_p >= 1.0, f"moment order must be >= 1/16, got {moment_p}")
    kappa, theta = p.kappa, p.theta
    root, q = math.sqrt(16.0 * moment_p - 1.0), 16.0 * moment_p - 2.0
    rhs = 1.0 + math.sqrt(8.0) * max((math.sqrt(kappa) / theta) * root, q)
    # compared as theta times each side: both sides read inf where theta^2 underflows
    lhs_theta = 2.0 * kappa * p.lam / theta
    rhs_theta = theta + math.sqrt(8.0) * max(math.sqrt(kappa) * root, q * theta)
    return MomentThreshold(threshold=rhs, satisfied=lhs_theta > rhs_theta)


def heston_moment_bound(p: HestonParams, moment_p: float) -> MomentThreshold:
    """E[S_T^p] is finite for all T iff the correlation satisfies

        rho <= -sqrt(p-1)/sqrt(p) + kappa/(theta*p)   (non-strict).

    Returns the right-hand side and whether the model's rho clears it.
    """
    _require(moment_p >= 1, f"moment order must be >= 1, got {moment_p}")
    rhs = -math.sqrt(moment_p - 1.0) / math.sqrt(moment_p) + p.kappa / (
        p.theta * moment_p
    )
    return MomentThreshold(threshold=rhs, satisfied=p.rho <= rhs)


@dataclass(frozen=True)
class WellPosedness:
    strong_solution_ok: bool
    backward_euler_ok: bool


def ait_sahalia_wellposed(p: AitSahaliaParams) -> WellPosedness:
    """Unique positive strong solution iff r > 1 and rho < (1+r)/2; the
    drift-implicit Euler step is well defined and positive iff r + 1 > 2*rho."""
    strong = p.r > 1.0 and p.rho < (1.0 + p.r) / 2.0
    implicit = p.r + 1.0 > 2.0 * p.rho
    return WellPosedness(strong_solution_ok=strong, backward_euler_ok=implicit)


def lamperti_cir(p: CirParams) -> LampertiCir:
    """Coefficients of the sqrt-transformed CIR equation Y = sqrt(X):

        alpha = (4*kappa*lam - theta^2)/8,  beta = -kappa/2,  gamma = theta/2.
    """
    return LampertiCir(
        alpha=(4.0 * p.kappa * p.lam - p.theta * p.theta) / 8.0,
        beta=-p.kappa / 2.0,
        gamma=p.theta / 2.0,
        y0=math.sqrt(p.x0),
    )


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    """An experiment setup, named by its key in ``PRESETS``: model,
    parameters, horizon, optional strike."""

    model_id: str
    params: Params
    T: float
    strike: float | None = None

    def build(self) -> Model:
        return build_model(self.model_id, self.params)


PRESETS: dict[str, Preset] = {
    "cir-scenario-1": Preset(
        model_id="cir",
        params=CirParams(kappa=5.07, lam=0.0457, theta=0.48, x0=0.05), T=5.0,
    ),
    "cir-scenario-2": Preset(
        model_id="cir",
        params=CirParams(kappa=2.0, lam=0.09, theta=1.0, x0=0.09), T=5.0,
    ),
    "cev-set-1": Preset(
        model_id="cev",
        params=CevParams(mu=0.1, sigma=0.3, gamma=0.75, s0=0.2), T=1.0,
    ),
    "cev-set-2": Preset(
        model_id="cev",
        params=CevParams(mu=0.2, sigma=0.5, gamma=0.55, s0=0.5), T=1.0,
    ),
    "heston-mlmc": Preset(
        model_id="heston_log",
        params=HestonParams(
            mu=0.0319, kappa=5.07, lam=0.0457, theta=0.48, rho=-0.7,
            s0=100.0, v0=0.05, r=0.0319,
        ),
        T=1.0, strike=105.0,
    ),
    "three-halves-mc": Preset(
        model_id="three_halves_vol",
        params=ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5), T=4.0,
    ),
}


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ModelError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]
