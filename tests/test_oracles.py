"""Reference values: Fourier call price, Black-Scholes, exact GBM nodes, and
the 3/2 model's reciprocal square-root process."""

import dataclasses
import math

import numpy as np
import pytest

from sdelab import brownian as bw
from sdelab import models, oracles as orc, schemes
from sdelab.oracles import OracleError, _damped_call_quad, _gauss_legendre

HESTON = models.HestonParams(
    mu=0.0319,
    kappa=5.07,
    lam=0.0457,
    theta=0.48,
    rho=-0.7,
    s0=100.0,
    v0=0.05,
    r=0.0319,
)


# Closed forms that only the tests use as references.


def black_scholes_call(
    s0: float, strike: float, sigma: float, T: float, r: float = 0.0
) -> float:
    """Lognormal call price; degenerate volatility collapses to the forward."""
    if s0 <= 0:
        raise OracleError(f"spot must be positive, got {s0}")
    if strike < 0:
        raise OracleError(f"strike must be nonnegative, got {strike}")
    if T < 0:
        raise OracleError(f"maturity must be nonnegative, got {T}")
    disc = math.exp(-r * T)
    forward = s0 * math.exp(r * T)
    if strike == 0.0:
        return s0
    vol = sigma * math.sqrt(T)
    if vol < 1e-15:
        return disc * max(forward - strike, 0.0)
    d1 = (math.log(forward / strike) + 0.5 * vol * vol) / vol
    d2 = d1 - vol
    nd = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return disc * (forward * nd(d1) - strike * nd(d2))


def three_halves_inverse_cir(p: models.ThreeHalvesParams) -> models.CirParams:
    """The reciprocal 1/V of the volatility equation is a square-root process.

    Ito's formula on X = 1/V gives dX = (c1 + c3^2 - c1 c2 X) dt - c3 sqrt(X) dW,
    i.e. CIR with kappa = c1 c2, lam = (c1 + c3^2)/(c1 c2), theta = c3, started
    at 1/v0.  Useful for validating V-moments through a positivity-preserving
    scheme on X.
    """
    kappa = p.c1 * p.c2
    return models.CirParams(
        kappa=kappa, lam=(p.c1 + p.c3 * p.c3) / kappa, theta=p.c3, x0=1.0 / p.v0
    )


@pytest.fixture(scope="module")
def heston_price():
    return orc.heston_call_price(HESTON, 105.0, 1.0)


# ---------------------------------------------------------------------------
# Fourier call price


def test_heston_price_matches_frozen_value(heston_price):
    assert math.isclose(heston_price, 7.462531075585542, abs_tol=1e-9)
    assert abs(heston_price - 7.46253) < 5e-3


def test_heston_price_stable_under_quadrature_changes(heston_price):
    # one quadrature at half the nodes and three quarters of the truncation
    alt = _damped_call_quad(HESTON, 105.0, 1.0, *_gauss_legendre(512), 150.0, 1.5)
    assert abs(alt - heston_price) < 1e-4


def test_heston_zero_strike_is_discounted_forward():
    assert orc.heston_call_price(HESTON, 0.0, 1.0) == 100.0
    drifted = dataclasses.replace(HESTON, mu=0.05, r=0.02)
    expect = 100.0 * math.exp((0.05 - 0.02) * 2.0)
    assert math.isclose(orc.heston_call_price(drifted, 0.0, 2.0), expect, rel_tol=1e-15)


def test_heston_degenerate_vol_matches_black_scholes():
    deg = dataclasses.replace(HESTON, theta=1e-4, v0=HESTON.lam)
    bs = black_scholes_call(100.0, 105.0, math.sqrt(HESTON.lam), 1.0, r=HESTON.r)
    assert abs(orc.heston_call_price(deg, 105.0, 1.0) - bs) <= 1e-4


def test_heston_unstable_integral_raises():
    # vanishing vol-of-vol makes the damped integrand too stiff to stabilize
    deg = dataclasses.replace(HESTON, theta=1e-6, v0=HESTON.lam)
    with pytest.raises(OracleError, match="stabilize"):
        orc.heston_call_price(deg, 105.0, 1.0)


def test_heston_damping_beyond_moment_bound_raises():
    # E S_T^2.5, which the damping 1.5 needs, is infinite for rho above
    # -sqrt(0.6) + kappa / (2.5 theta) = -0.5746
    exploding = dataclasses.replace(HESTON, kappa=0.5, theta=1.0, rho=0.5)
    assert not models.heston_moment_bound(exploding, 2.5).satisfied
    with pytest.raises(OracleError, match="damping 1.5 needs E S_T"):
        orc.heston_call_price(exploding, 105.0, 1.0)


def test_heston_price_input_guards():
    with pytest.raises(OracleError):
        orc.heston_call_price(HESTON, 105.0, 0.0)
    with pytest.raises(OracleError):
        orc.heston_call_price(HESTON, -5.0, 1.0)


def test_heston_call_monotone_and_convex_in_strike():
    strikes = np.linspace(85.0, 125.0, 12)
    prices = [orc.heston_call_price(HESTON, k, 1.0) for k in strikes]
    assert all(b < a for a, b in zip(prices, prices[1:]))
    second = np.diff(prices, n=2)
    assert (second > -1e-9).all()


@pytest.mark.parametrize("n", [64, 1024, 2048])
def test_gauss_legendre_matches_numpy(n):
    x, w = _gauss_legendre(n)
    want_x, _ = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-14)
    assert abs(w.sum() - 2.0) <= 1e-14
    assert not x.flags.writeable and not w.flags.writeable
    assert _gauss_legendre(n) is _gauss_legendre(n)


def _gauss_legendre_all_nodes(n):
    """The plain Newton loop: every node in every sweep."""
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
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [64, 1024, 2048])
def test_gauss_legendre_sweeping_moving_nodes_is_bit_identical(n):
    x, w = _gauss_legendre(n)
    want_x, want_w = _gauss_legendre_all_nodes(n)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


# ---------------------------------------------------------------------------
# Black-Scholes


def test_black_scholes_frozen_value():
    assert math.isclose(
        black_scholes_call(100.0, 100.0, 0.2, 1.0, r=0.05),
        10.450583572185579,
        rel_tol=1e-12,
    )


def test_black_scholes_limits():
    assert black_scholes_call(100.0, 0.0, 0.2, 1.0, r=0.05) == 100.0
    intrinsic = math.exp(-0.05) * (100.0 * math.exp(0.05) - 90.0)
    assert math.isclose(
        black_scholes_call(100.0, 90.0, 0.0, 1.0, r=0.05), intrinsic, rel_tol=1e-15
    )
    with pytest.raises(OracleError):
        black_scholes_call(0.0, 100.0, 0.2, 1.0)
    with pytest.raises(OracleError):
        black_scholes_call(100.0, -1.0, 0.2, 1.0)
    with pytest.raises(OracleError):
        black_scholes_call(100.0, 100.0, 0.2, -1.0)


# ---------------------------------------------------------------------------
# exact flows


def test_gbm_exact_nodes_deterministic_and_shapes():
    p = models.CevParams(mu=0.1, sigma=0.3, gamma=1.0, s0=2.0)
    n = 8
    vals = orc.gbm_exact_nodes(p, 2.0, n, np.zeros(n + 1))
    t = np.arange(n + 1) * 0.25
    assert np.allclose(vals, 2.0 * np.exp((0.1 - 0.045) * t), rtol=1e-15)
    w = np.array([[0.0] * (n + 1), [0.5] * (n + 1)])
    batch = orc.gbm_exact_nodes(p, 2.0, n, w)
    assert batch.shape == (2, n + 1)
    assert math.isclose(
        batch[1, -1], 2.0 * math.exp((0.1 - 0.045) * 2.0 + 0.3 * 0.5), rel_tol=1e-15
    )
    with pytest.raises(OracleError, match="gamma"):
        orc.gbm_exact_nodes(
            models.CevParams(mu=0.1, sigma=0.3, gamma=0.5, s0=2.0), 1.0, 4, np.zeros(5)
        )
    with pytest.raises(OracleError):
        orc.gbm_exact_nodes(p, 1.0, 4, np.zeros(4))


# ---------------------------------------------------------------------------
# the 3/2 model's reciprocal square-root process


def test_inverse_cir_parameter_map():
    inv = three_halves_inverse_cir(
        models.ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5)
    )
    assert math.isclose(inv.kappa, 0.96, rel_tol=1e-15)
    assert math.isclose(inv.lam, 2.2916666666666667, rel_tol=1e-15)
    assert inv.theta == 1.0 and inv.x0 == 2.0


def test_reciprocal_process_reproduces_absolute_mean():
    # E|V_T| = E[1/X_T] where X is the reciprocal square-root process; the
    # positivity-preserving implicit scheme on X cross-checks the pinned
    # value 0.566217 for c1=1.2, c2=0.8, c3=1, v0=0.5, T=4.
    inv = three_halves_inverse_cir(
        models.ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5)
    )
    cir = models.build_model("cir", inv)
    cfg = schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler")
    n, n_samples = 2**12, 20_000
    dt = 4.0 / n
    total = total_sq = 0.0
    for start in range(0, n_samples, 1024):
        idx = np.arange(start, min(start + 1024, n_samples))
        incr = (bw.batch_standard_normals(123, idx, 0, n) * math.sqrt(dt))[None]
        res = schemes.simulate_batch(cfg, cir, dt, incr)
        v = 1.0 / res.terminal[0]
        total += v.sum()
        total_sq += (v * v).sum()
    mean = total / n_samples
    se = math.sqrt((total_sq / n_samples - mean * mean) / (n_samples - 1))
    assert se < 4e-3
    assert abs(mean - 0.566217) <= 3.0 * se
