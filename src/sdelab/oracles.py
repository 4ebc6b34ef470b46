"""Closed-form reference values: Fourier call prices and exact solutions.

Everything here is simulation-free.  The Heston price uses the damped-payoff
Fourier transform with the trap-free branch of the characteristic function,
integrated by Gauss-Legendre quadrature, and every call re-verifies itself by
doubling both the node count and the truncation bound; a result that moves
more than the stability tolerance raises :class:`OracleError` instead of
returning silently wrong numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import CevParams, HestonParams, heston_moment_bound


class OracleError(RuntimeError):
    """A reference value failed its self-check or is out of scope."""


@dataclass(frozen=True)
class FourierSettings:
    """Quadrature controls for the damped-transform call price."""

    nodes: int = 1024
    truncation: float = 200.0
    damping: float = 1.5
    stability_tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.nodes < 64:
            raise OracleError(f"need at least 64 quadrature nodes, got {self.nodes}")
        if not self.truncation > 0:
            raise OracleError(f"truncation must be positive, got {self.truncation}")
        if not self.damping > 0:
            raise OracleError(f"damping must be positive, got {self.damping}")
        if not self.stability_tol > 0:
            raise OracleError("stability tolerance must be positive")


def _heston_charfunc(u: np.ndarray, p: HestonParams, T: float) -> np.ndarray:
    """E exp(i*u*ln S_T), on the branch that stays continuous in T."""
    kappa, lam, theta, rho, v0 = p.kappa, p.lam, p.theta, p.rho, p.v0
    iu = 1j * u
    beta = kappa - 1j * rho * theta * u
    d = np.sqrt(beta * beta + theta * theta * (iu + u * u))
    g = (beta - d) / (beta + d)
    edt = np.exp(-d * T)
    log_ratio = np.log((1.0 - g * edt) / (1.0 - g))
    cc = (kappa * lam / (theta * theta)) * ((beta - d) * T - 2.0 * log_ratio)
    dd = ((beta - d) / (theta * theta)) * (1.0 - edt) / (1.0 - g * edt)
    return np.exp(iu * (math.log(p.s0) + p.mu * T) + cc + dd * v0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on the three-term Legendre recurrence, started from the
    guesses -cos(pi*(k - 1/4)/(n + 1/2)); it converges in a few sweeps.
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    step = np.inf
    while step > 1e-15:
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        step = np.max(np.abs(dx))
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _damped_call_quad(
    p: HestonParams, strike: float, T: float, x: np.ndarray, w: np.ndarray,
    truncation: float, alpha: float,
) -> float:
    """Value of the damped-payoff inversion integral on [0, truncation], from
    Gauss-Legendre nodes ``x`` and weights ``w`` on [-1, 1]."""
    u = 0.5 * truncation * (x + 1.0)
    w = 0.5 * truncation * w
    k = math.log(strike)
    shifted = u - (alpha + 1.0) * 1j
    phi = _heston_charfunc(shifted, p, T)
    denom = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
    integrand = np.exp(-1j * u * k) * math.exp(-p.r * T) * phi / denom
    return float(math.exp(-alpha * k) / math.pi * np.dot(w, integrand.real))


def heston_call_price(
    p: HestonParams, strike: float, T: float, settings: FourierSettings | None = None
) -> float:
    """European call on the stochastic-volatility model, self-checked.

    The damping parameter requires a finite moment E S_T^(damping+1); the
    moment-explosion bound is checked up front.  The quadrature is then run
    at the requested settings, at doubled nodes, and at doubled nodes plus
    doubled truncation; disagreement beyond ``stability_tol`` raises
    :class:`OracleError` with the three values for diagnosis.
    """
    settings = settings or FourierSettings()
    if not T > 0:
        raise OracleError(f"maturity must be positive, got {T}")
    if strike < 0:
        raise OracleError(f"strike must be nonnegative, got {strike}")
    if strike == 0.0:
        # limit of the call payoff: the discounted forward
        return p.s0 * math.exp((p.mu - p.r) * T)
    bound = heston_moment_bound(p, settings.damping + 1.0)
    if not bound.satisfied:
        raise OracleError(
            f"damping {settings.damping} needs E S_T^{settings.damping + 1:g} "
            f"finite, which fails: rho = {p.rho} > bound {bound.threshold:.6g}; "
            "lower the damping"
        )
    base = _gauss_legendre(settings.nodes)
    fine = _gauss_legendre(2 * settings.nodes)
    a = _damped_call_quad(p, strike, T, *base, settings.truncation, settings.damping)
    b = _damped_call_quad(p, strike, T, *fine, settings.truncation, settings.damping)
    c = _damped_call_quad(p, strike, T, *fine, 2.0 * settings.truncation, settings.damping)
    tol = settings.stability_tol
    if abs(a - b) > tol or abs(b - c) > tol:
        raise OracleError(
            "Fourier price did not stabilize: "
            f"{a:.8f} (base), {b:.8f} (2x nodes), {c:.8f} (2x nodes+truncation); "
            "increase nodes/truncation or reduce damping"
        )
    return c


def gbm_exact_nodes(
    p: CevParams, T: float, n: int, w: np.ndarray, nodes: slice = slice(None)
) -> np.ndarray:
    """Exact geometric Brownian motion at grid nodes from W values.

    ``w`` holds W(t_k) for t_k = k*T/n along the last axis, for the nodes k
    in ``range(n + 1)[nodes]`` (all n+1 by default); the result is
    s0 * exp((mu - sigma^2/2) t_k + sigma W(t_k)), same shape.
    """
    if p.gamma != 1.0:
        raise OracleError("exact solution requires the log-linear case gamma = 1")
    w = np.asarray(w, dtype=np.float64)
    ks = range(n + 1)[nodes]
    if w.shape[-1] != len(ks):
        raise OracleError(f"need {len(ks)} node values, got {w.shape[-1]}")
    t = np.arange(ks.start, ks.stop, ks.step, dtype=np.float64) * (T / n)
    if ks and ks[-1] == n:
        t[-1] = T
    return p.s0 * np.exp((p.mu - 0.5 * p.sigma * p.sigma) * t + p.sigma * w)
