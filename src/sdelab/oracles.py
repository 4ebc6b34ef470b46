"""Closed-form reference values: Fourier call prices and exact solutions.

Everything here is simulation-free.  The Heston price uses the damped-payoff
Fourier transform with the trap-free branch of the characteristic function,
integrated by Gauss-Legendre quadrature on rules stored in
``gauss_legendre.npz`` (written by the Newton loop of
``tests/test_oracles.py``, which rewrites it when run as a script), and every
call re-verifies itself by doubling both the node count and the truncation
bound; a result that moves more than the stability tolerance, or is not
finite, raises :class:`OracleError` instead of returning silently wrong
numbers.
"""

from __future__ import annotations

import functools
import math
import pathlib
from typing import Callable

import numpy as np

from .models import CevParams, HestonParams, heston_moment_bound


class OracleError(RuntimeError):
    """A reference value failed its self-check or is out of scope."""


# Quadrature of the damped-transform call price: Gauss-Legendre nodes on
# [0, truncation], the damping exponent, the self-check's tolerance, the rule file.
_NODES = 1024
_TRUNCATION = 200.0
_DAMPING = 1.5
_STABILITY_TOL = 1e-4
_RULES = pathlib.Path(__file__).with_name("gauss_legendre.npz")


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


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only, for
    n = 1024 and 2048: the rules Newton's method wrote to ``_RULES``."""
    with np.load(_RULES) as rules:
        x, w = rules[f"x{n}"], rules[f"w{n}"]
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


def _finite(what: str, compute: Callable[[], float]) -> float:
    """``compute()``, or :class:`OracleError` where it overflows or is nan."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except OverflowError:  # math.exp past the float range
        value = math.inf
    if not math.isfinite(value):
        raise OracleError(f"{what} is not finite: {value}")
    return value


def heston_call_price(p: HestonParams, strike: float, T: float) -> float:
    """European call on the stochastic-volatility model, self-checked.

    The damping requires a finite moment E S_T^(damping+1); the
    moment-explosion bound is checked up front.  The quadrature is then run
    at ``_NODES`` nodes on [0, ``_TRUNCATION``], at doubled nodes, and at
    doubled nodes plus doubled truncation; disagreement beyond
    ``_STABILITY_TOL`` raises :class:`OracleError` with the three values for
    diagnosis, as does any value (or the zero-strike forward) that is not finite.
    """
    if not T > 0:
        raise OracleError(f"maturity must be positive, got {T}")
    if strike < 0:
        raise OracleError(f"strike must be nonnegative, got {strike}")
    if strike == 0.0:
        # limit of the call payoff: the discounted forward
        return _finite("discounted forward", lambda: p.s0 * math.exp((p.mu - p.r) * T))
    bound = heston_moment_bound(p, _DAMPING + 1.0)
    if not bound.satisfied:
        raise OracleError(
            f"damping {_DAMPING} needs E S_T^{_DAMPING + 1:g} "
            f"finite, which fails: rho = {p.rho} > bound {bound.threshold:.6g}"
        )
    base = _gauss_legendre(_NODES)
    fine = _gauss_legendre(2 * _NODES)
    quad = functools.partial(_damped_call_quad, p, strike, T, alpha=_DAMPING)
    a = _finite("Fourier price (base)", lambda: quad(*base, _TRUNCATION))
    b = _finite("Fourier price (2x nodes)", lambda: quad(*fine, _TRUNCATION))
    c = _finite("Fourier price (2x nodes+truncation)", lambda: quad(*fine, 2.0 * _TRUNCATION))
    if abs(a - b) > _STABILITY_TOL or abs(b - c) > _STABILITY_TOL:
        raise OracleError(
            "Fourier price did not stabilize: "
            f"{a:.8f} (base), {b:.8f} (2x nodes), {c:.8f} (2x nodes+truncation)"
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
