"""One-step maps: exact values, implicit equations, positivity, taming."""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdelab import models, schemes
from sdelab import brownian as bw


SC1 = models.CirParams(kappa=5.07, lam=0.0457, theta=0.48, x0=0.05)
CIR = models.build_model("cir", SC1)
LAM1 = models.lamperti_cir(SC1)
ISQRT = schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler")
AS_PARAMS = models.AitSahaliaParams(
    a_m1=1.0, a_0=1.0, a_1=1.0, a_2=1.0, sigma=0.5, r=2.0, rho=1.4, x0=1.0
)
AS = models.build_model("ait_sahalia", AS_PARAMS)
CUBIC = models.build_model("cubic_toy", models.CubicToyParams(sigma=0.0, x0=10.0))
GBM = models.build_model("gbm", models.CevParams(mu=0.05, sigma=0.2, gamma=1.0, s0=1.0))


# --- explicit Euler ---------------------------------------------------------


def test_euler_flat_gbm_is_identity():
    m = models.build_model("gbm", models.CevParams(mu=0.0, sigma=0.0, gamma=1.0, s0=1.0))
    x = np.array([0.7, 1.3])
    np.testing.assert_array_equal(
        schemes.step_explicit_euler(m, x, 0.25, np.array([0.4, -0.2])), x
    )


def test_euler_cubic_one_step_collapse():
    # from x = n with step 1/n the drift alone sends the state to n(1 - n^2/n) = n - n^2
    n = 8.0
    out = schemes.step_explicit_euler(CUBIC, np.array([n]), 1.0 / n, np.array([0.0]))
    assert out[0] == n * (1.0 - n)


def test_euler_cir_drift_only_value():
    dt = 5.0 / 512.0
    out = schemes.step_explicit_euler(CIR, np.array([0.05]), dt, np.array([0.0]))
    assert out[0] == 0.05 + 5.07 * (0.0457 - 0.05) * dt


# --- Milstein ----------------------------------------------------------------


def test_milstein_additive_noise_equals_euler():
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=2.0, x0=0.0))
    x = np.array([0.3, -1.2])
    dw = np.array([0.11, -0.07])
    np.testing.assert_array_equal(
        schemes.step_milstein_scalar(m, x, 0.125, dw),
        schemes.step_explicit_euler(m, x, 0.125, dw),
    )


def test_milstein_cir_correction_term(rng):
    x = rng.uniform(0.01, 1.0, 50)
    dw = rng.normal(0.0, 0.1, 50)
    dt = 5.0 / 512.0
    diff = schemes.step_milstein_scalar(CIR, x, dt, dw) - schemes.step_explicit_euler(
        CIR, x, dt, dw
    )
    # recovering the correction by subtraction loses ulps of the state scale
    np.testing.assert_allclose(
        diff, (SC1.theta**2 / 4.0) * (dw * dw - dt), rtol=1e-12, atol=1e-15
    )


def test_milstein_gbm_one_step_order():
    # against the lognormal solution a single Milstein step is O(dt^1.5)
    p = GBM.params
    z = 0.8
    errs, dts = [], []
    for k in range(2, 11):
        dt = 2.0**-k
        dw = z * math.sqrt(dt)
        exact = p.s0 * math.exp((p.mu - 0.5 * p.sigma**2) * dt + p.sigma * dw)
        approx = schemes.step_milstein_scalar(GBM, np.array([p.s0]), dt, np.array([dw]))[0]
        errs.append(abs(approx - exact))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.4 < slope < 1.6


# --- coefficient extensions ---------------------------------------------------


def test_truncated_extension_zeroes_diffusion_outside():
    ext = schemes._extended_cir(CIR, "truncate")
    assert not ext.positive
    x = np.array([-0.01])
    assert ext.diffusion[0](x)[0] == 0.0
    assert ext.diffusion_jacobian[0](x)[0] == 0.0
    assert math.isclose(ext.drift(x)[0], 5.07 * (0.0457 + 0.01), rel_tol=1e-15)


def test_absolute_extension_reflects_diffusion():
    ext = schemes._extended_cir(CIR, "absolute")
    out = ext.diffusion[0](np.array([-0.01]))[0]
    assert math.isclose(out, 0.48 * 0.1, rel_tol=1e-15)
    slope = ext.diffusion_jacobian[0](np.array([-0.01]))[0]
    assert math.isclose(slope, -0.48 / 0.2, rel_tol=1e-15)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_extension_projection_form_matches_the_where_form():
    # b(pi(x)) against the branch form np.where(x > 0, b(x), g(theta, x)),
    # compared as bits: assert_array_equal takes -0.0 and 0.0 as equal
    x = np.array([-1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, np.inf, -np.inf, np.nan])
    b, theta, dt, dw = CIR.diffusion[0], SC1.theta, 0.01, np.full(9, 0.1)
    with np.errstate(all="ignore"):
        branch = {
            "truncate": np.where(x > 0, b(x), 0.0),
            "absolute": np.where(x > 0, b(x), theta * np.sqrt(-x)),
        }
    # the forms differ only where the branch form gives truncate's nan a
    # zero diffusion, and absolute's 0.0 the zero -0.0 (sqrt(-0.0)) and
    # its nan a negative sign
    differ = {"truncate": [8], "absolute": [3, 8]}
    for name in schemes.EXTENSIONS:
        ext = schemes._extended_cir(CIR, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no square root left of zero
            got = ext.diffusion[0](x)
        same = np.ones(len(x), dtype=bool)
        same[differ[name]] = False
        np.testing.assert_array_equal(_bits(got)[same], _bits(branch[name])[same])
        # there, x + a(x)*dt > 0 absorbs the zero's sign and nan stays nan:
        # the Euler and Milstein states are the same bits (nan up to sign)
        branched = dataclasses.replace(ext, diffusion=(lambda v, f=branch[name]: f,))
        for step in (schemes.step_explicit_euler, schemes.step_milstein_scalar):
            with np.errstate(all="ignore"):
                got_x, want_x = step(ext, x, dt, dw), step(branched, x, dt, dw)
            assert np.array_equal(np.isnan(got_x), np.isnan(want_x))
            fin = ~np.isnan(got_x)
            np.testing.assert_array_equal(_bits(got_x)[fin], _bits(want_x)[fin])


def test_extension_is_identity_inside(rng):
    x = rng.uniform(0.01, 2.0, 200)
    for name in schemes.EXTENSIONS:
        m = schemes._extended_cir(CIR, name)
        np.testing.assert_array_equal(m.drift(x), CIR.drift(x))
        np.testing.assert_array_equal(m.diffusion[0](x), CIR.diffusion[0](x))
        np.testing.assert_array_equal(
            m.diffusion_jacobian[0](x), CIR.diffusion_jacobian[0](x)
        )
        # sqrt has no finite slope at 0, so the extended derivative is 0 there
        assert m.diffusion_jacobian[0](np.array([0.0]))[0] == 0.0
    with pytest.raises(schemes.SchemeError, match="CIR models"):
        schemes.make_stepper(schemes.SCHEMES["truncated_euler"].config, GBM)


# --- reflection ----------------------------------------------------------------


def test_reflected_inside_matches_euler():
    x = np.array([0.05])
    dw = np.array([0.001])
    dt = 5.0 / 512.0
    ref = schemes.step_reflected(CIR, x, dt, dw)
    np.testing.assert_array_equal(ref, schemes.step_explicit_euler(CIR, x, dt, dw))


def test_reflected_symmetrizes_negative_excursion():
    x = np.array([0.04])
    dt = 1.0 / 512.0
    dw = np.array([-0.7])  # drives the Euler step negative
    h = schemes.step_explicit_euler(CIR, x, dt, dw)
    assert h[0] < 0
    out = schemes.step_reflected(CIR, x, dt, dw)
    assert out[0] == -h[0]


# --- implicit solver ------------------------------------------------------------


def test_solve_linear_drift():
    # a linear drift without its closed form: bracketing and secant steps
    rhs = np.array([1.0])
    linear = dataclasses.replace(GBM, drift=lambda x: -x, closed_form=None)
    x = schemes.solve_drift_implicit(linear, rhs, 1.0, x_init=rhs)
    assert abs(x[0] - 0.5) <= 1e-12


def test_lamperti_root_keeps_its_guard_for_direct_calls():
    # alpha < 0: the radicand goes negative for small |rhs|; the steppers
    # never see this regime untruncated, a direct call still rejects it
    lam = models.LampertiCir(alpha=-0.01, beta=-1.0, gamma=0.24, y0=0.3)
    with pytest.raises(models.DomainError, match="negative radicand"):
        models.lamperti_root(lam, 0.01)(np.array([0.0, 1.0]))
    out = models.lamperti_root(lam, 0.01, truncate=True)(np.array([0.0, 1.0]))
    assert out[0] == 0.0 and out[1] > 0


def test_lamperti_closed_form_matches_display(rng):
    dt = 5.0 / 512.0
    rhs = rng.normal(0.0, 0.5, 200)
    got = models.lamperti_root(LAM1, dt)(rhs)
    denom = 1.0 - LAM1.beta * dt
    want = rhs / (2.0 * denom) + np.sqrt(
        rhs**2 / (4.0 * denom**2) + LAM1.alpha * dt / denom
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _bisect_oracle(fn, lo, hi, tol=1e-14):
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if hi - lo < tol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_newton_matches_bisection_on_ait_sahalia(rng):
    # Newton steps with the model's drift_prime, secant steps without it
    dt = 0.01
    for model, rhs in itertools.product(
        (AS, dataclasses.replace(AS, drift_prime=None)), rng.uniform(0.1, 5.0, 20)
    ):
        got = schemes.solve_drift_implicit(model, np.array([rhs]), dt, x_init=np.array([rhs]))[0]

        def g(x, rhs=rhs):
            return x - dt * AS.drift(np.array([x]))[0] - rhs

        want = _bisect_oracle(g, 1e-12, 50.0)
        assert abs(got - want) < 1e-10


def test_solver_failure_signals_unsolvable_step():
    # quadratic drift of the volatility model: for strongly negative rhs and a
    # large step the implicit equation has no real root
    th = models.build_model(
        "three_halves_vol", models.ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5)
    )
    with pytest.raises(schemes.SolverError):
        schemes.step_backward_euler(th, np.array([-10.0]), 1.0, np.array([0.0]))


def test_implicit_step_bound():
    assert schemes.implicit_step_bound(2.0, 3.0) == 1.0 / 12.0
    assert schemes.implicit_step_bound(3.0, 1.0) == 1.0 / 7.0


# --- split step and backward Euler ----------------------------------------------


def test_split_step_cir_closed_form(rng):
    dt = 5.0 / 512.0
    x = rng.uniform(0.01, 0.5, 50)
    dw = rng.normal(0.0, math.sqrt(dt), 50)
    xs = (x + SC1.kappa * SC1.lam * dt) / (1.0 + SC1.kappa * dt)
    want = xs + SC1.theta * np.sqrt(xs) * dw
    got = schemes.step_split_step_backward(CIR, x, dt, dw)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_split_step_zero_noise_is_pure_drift_solve():
    dt = 0.125
    x = np.array([0.3])
    got = schemes.step_split_step_backward(CIR, x, dt, np.array([0.0]))
    assert got[0] == (0.3 + SC1.kappa * SC1.lam * dt) / (1.0 + SC1.kappa * dt)


def test_split_step_drift_part_is_second_order_on_gbm():
    errs, dts = [], []
    for k in range(3, 10):
        dt = 2.0**-k
        split = schemes.step_split_step_backward(GBM, np.array([1.0]), dt, np.array([0.0]))[0]
        euler = schemes.step_explicit_euler(GBM, np.array([1.0]), dt, np.array([0.0]))[0]
        errs.append(abs(split - euler))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1


def test_backward_euler_cir_closed_form(rng):
    dt = 5.0 / 512.0
    x = rng.uniform(0.01, 0.5, 50)
    dw = rng.normal(0.0, math.sqrt(dt), 50)
    want = (x + SC1.kappa * SC1.lam * dt + SC1.theta * np.sqrt(x) * dw) / (
        1.0 + SC1.kappa * dt
    )
    np.testing.assert_allclose(
        schemes.step_backward_euler(CIR, x, dt, dw), want, rtol=1e-14
    )


def test_backward_euler_driftless_is_explicit():
    m = models.build_model("gbm", models.CevParams(mu=0.0, sigma=0.2, gamma=1.0, s0=1.0))
    x = np.array([1.4])
    dw = np.array([-0.3])
    np.testing.assert_array_equal(
        schemes.step_backward_euler(m, x, 0.25, dw),
        schemes.step_explicit_euler(m, x, 0.25, dw),
    )


def test_backward_euler_ait_sahalia_stays_positive(rng):
    dt = 0.05
    dw = rng.normal(0.0, math.sqrt(dt), 10_000)
    out = schemes.step_backward_euler(AS, np.full(10_000, 1.0), dt, dw)
    assert np.all(out > 0)


def test_implicit_residuals(rng):
    # both implicit schemes satisfy their defining equations to solver tolerance
    dt = 0.05
    x = rng.uniform(0.2, 3.0, 10_000)
    dw = rng.normal(0.0, math.sqrt(dt), 10_000)
    xb = schemes.step_backward_euler(AS, x, dt, dw)
    res_b = xb - x - AS.drift(xb) * dt - AS.diffusion[0](x) * dw
    assert np.abs(res_b).max() <= 1e-12
    xs = schemes.solve_drift_implicit(AS, x, dt, x_init=x)
    res_s = xs - x - AS.drift(xs) * dt
    assert np.abs(res_s).max() <= 1e-12


# --- taming ----------------------------------------------------------------------


def test_tamed_cubic_known_value():
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=0.0, x0=10.0))
    out = schemes.step_tamed_euler(m, np.array([10.0]), 0.1, np.array([0.0]))
    assert math.isclose(out[0] - 10.0, -100.0 / 101.0, rel_tol=1e-13)
    assert math.isclose(out[0], 9.00990099, rel_tol=1e-8)
    # explicit Euler takes the same state to about -90
    raw = schemes.step_explicit_euler(m, np.array([10.0]), 0.1, np.array([0.0]))
    assert raw[0] < -80.0


def test_tamed_zero_drift_reduces_to_noise():
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=2.0, x0=0.0))
    dw = np.array([0.37])
    out = schemes.step_tamed_euler(m, np.array([0.0]), 0.5, dw)
    assert out[0] == 2.0 * 0.37


def test_tamed_increment_saturates():
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=0.0, x0=0.0))
    a = m.drift(np.array([1e5]))[0]
    inc = a * 0.1 / (1.0 + abs(a) * 0.1)
    assert -1.0 < inc < -0.9999999999999


@given(
    x=st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
    dt=st.floats(min_value=1e-12, max_value=10.0, allow_nan=False),
)
def test_tamed_increment_bounded(x, dt):
    # the damped drift increment lives in [-1, 1]; the boundary is reachable
    # only by float saturation once |a|*dt exceeds 2^53
    a = -(x**3)
    t = a * dt
    inc = t / (1.0 + abs(t))
    assert abs(inc) <= 1.0
    if abs(t) < 2.0**52:
        assert abs(inc) < 1.0


# --- square-root process specials --------------------------------------------------


def _isqrt_step(model, y, dt, dw):
    """One implicit square-root Euler step, in Lamperti coordinates, of the
    stepper that simulations use."""
    step = schemes.make_stepper(ISQRT, model)(dt).step
    return step(np.atleast_1d(y)[None], np.atleast_1d(dw)[None])[0]


def test_implicit_sqrt_degenerate_is_positive_part(rng):
    lam = models.LampertiCir(alpha=0.0, beta=0.0, gamma=0.24, y0=0.3)
    y = rng.uniform(-0.5, 0.5, 200)
    dw = rng.normal(0.0, 0.3, 200)
    # alpha = 0 runs only truncated; the radicand (rhs/2)^2 never needs it
    out = models.lamperti_root(lam, 0.01, truncate=True)(y + 0.24 * dw)
    np.testing.assert_array_equal(out, np.maximum(y + 0.24 * dw, 0.0))


def test_implicit_sqrt_satisfies_defining_equation(rng):
    dt = 5.0 / 512.0
    y = rng.uniform(0.05, 1.0, 1000)
    dw = rng.normal(0.0, math.sqrt(dt), 1000)
    yp = _isqrt_step(CIR, y, dt, dw)
    res = yp - y - (LAM1.alpha / yp + LAM1.beta * yp) * dt - LAM1.gamma * dw
    assert np.abs(res).max() <= 1e-12


def test_implicit_sqrt_scenario_1_value():
    out = _isqrt_step(CIR, math.sqrt(0.05), 5.0 / 512.0, 0.0)
    assert abs(out[0] - 0.22194) < 1e-5


def test_implicit_sqrt_positive_for_any_input(rng):
    y = rng.uniform(-3.0, 3.0, 100_000)
    dw = rng.normal(0.0, 0.3, 100_000)
    out = _isqrt_step(CIR, y, 5.0 / 512.0, dw)
    assert np.all(out > 0)


def test_implicit_sqrt_monotone_in_state(rng):
    dt = 5.0 / 512.0
    y1 = rng.uniform(0.0, 2.0, 10_000)
    y2 = y1 + rng.uniform(0.0, 1.0, 10_000)
    dw = rng.normal(0.0, math.sqrt(dt), 10_000)
    out1 = _isqrt_step(CIR, y1, dt, dw)
    out2 = _isqrt_step(CIR, y2, dt, dw)
    assert np.all(out2 >= out1)


def test_implicit_milstein_fixed_point():
    z_star = SC1.lam - SC1.theta**2 / (4.0 * SC1.kappa)
    assert abs(z_star - 0.034339) < 1e-6
    out = schemes.step_cir_implicit_milstein(SC1, np.array([z_star]), 5.0 / 512.0, np.array([0.0]))
    assert math.isclose(out[0], z_star, rel_tol=1e-13)


def test_implicit_milstein_recursion_residual(rng):
    dt = 5.0 / 512.0
    z = rng.uniform(0.001, 0.5, 1000)
    dw = rng.normal(0.0, math.sqrt(dt), 1000)
    zp = schemes.step_cir_implicit_milstein(SC1, z, dt, dw)
    res = zp - (
        z
        + SC1.kappa * (SC1.lam - zp) * dt
        + SC1.theta * np.sqrt(z) * dw
        + (SC1.theta**2 / 4.0) * (dw * dw - dt)
    )
    assert np.abs(res).max() <= 1e-12


def test_implicit_milstein_boundary_zero():
    p = models.CirParams(kappa=1.0, lam=1.0, theta=2.0, x0=0.25)
    z = 0.25
    dw = -2.0 * math.sqrt(z) / p.theta
    out = schemes.step_cir_implicit_milstein(p, np.array([z]), 0.1, np.array([dw]))
    assert out[0] == 0.0


def test_implicit_milstein_positivity(rng):
    z = rng.uniform(0.0, 1.0, 100_000)
    dw = rng.normal(0.0, 0.1, 100_000)
    out = schemes.step_cir_implicit_milstein(SC1, z, 5.0 / 512.0, dw)
    assert np.all(out > 0)


def test_implicit_milstein_rejects_negative_without_truncation():
    with pytest.raises(schemes.DomainError):
        schemes.step_cir_implicit_milstein(SC1, np.array([-0.01]), 0.01, np.array([0.0]))
    out = schemes.step_cir_implicit_milstein(
        SC1, np.array([-0.01]), 0.01, np.array([0.0]), truncate=True
    )
    assert out[0] > 0


def test_implicit_milstein_conditional_mean_gauss_hermite():
    nodes, weights = np.polynomial.hermite.hermgauss(24)
    dt = 5.0 / 512.0
    for z in (0.01, 0.05, 0.3):
        dw = math.sqrt(2.0 * dt) * nodes  # dW = sqrt(dt) * N(0,1)
        vals = schemes.step_cir_implicit_milstein(SC1, np.full_like(dw, z), dt, dw)
        mean = (weights * vals).sum() / math.sqrt(math.pi)
        want = (z + SC1.kappa * SC1.lam * dt) / (1.0 + SC1.kappa * dt)
        assert abs(mean - want) <= 1e-10


def test_domination_of_milstein_over_sqrt_euler(rng):
    # coupled on the same increments, the drift-implicit Milstein iterate
    # dominates the squared implicit-sqrt iterate at every step
    n, b = 32, 10_000
    dt = 5.0 / n
    dw = rng.normal(0.0, math.sqrt(dt), (b, n))
    z = np.full(b, SC1.x0)
    y = np.full(b, math.sqrt(SC1.x0))
    worst = 0.0
    for k in range(n):
        z = schemes.step_cir_implicit_milstein(SC1, z, dt, dw[:, k])
        y = _isqrt_step(CIR, y, dt, dw[:, k])
        worst = min(worst, float((z - y * y).min()))
    assert worst >= -1e-12


# --- log-Heston composite ------------------------------------------------------------


HP = models.get_preset("heston-mlmc").params
LOG_HESTON = schemes.StepperConfig(scheme_id="log_heston_composite")


def _log_heston_step(p, h, y, dt, dw1, dw2):
    """One composite step from (h, y) through the scheme's stepper."""
    stepper = schemes.make_stepper(LOG_HESTON, models.build_model("heston_log", p))
    out = stepper(dt).step(np.array([[h], [y]]), np.array([[dw1], [dw2]]))
    return out[0, 0], out[1, 0]


def test_log_heston_deterministic_part():
    h, y = 4.6, 0.22
    dt = 1.0 / 64.0
    h2, y2 = _log_heston_step(HP, h, y, dt, 0.0, 0.0)
    assert h2 == h + (HP.mu - 0.5 * y * y) * dt


def test_log_heston_decorrelates_at_rho_zero():
    p = models.HestonParams(
        mu=0.05, kappa=2.0, lam=0.09, theta=0.3, rho=0.0, s0=100.0, v0=0.09
    )
    dt = 1.0 / 64.0
    h_a, y_a = _log_heston_step(p, 4.6, 0.3, dt, 0.5, 0.1)
    h_b, y_b = _log_heston_step(p, 4.6, 0.3, dt, 0.5, -0.4)
    assert h_a == h_b  # price leg sees only dW1
    h_c, y_c = _log_heston_step(p, 4.6, 0.3, dt, -0.2, 0.1)
    assert y_a == y_c  # volatility leg sees only dW2


def test_log_heston_degenerates_to_black_scholes():
    lam = 0.09
    p = models.HestonParams(
        mu=0.05, kappa=2.0, lam=lam, theta=1e-8, rho=-0.5, s0=100.0, v0=lam
    )
    y0 = math.sqrt(lam)
    dt = 1.0 / 64.0
    h2, y2 = _log_heston_step(p, 4.6, y0, dt, 0.08, -0.05)
    assert abs(y2 - y0) < 1e-7
    rho_bar = math.sqrt(1.0 - 0.25)
    bs = 4.6 + (0.05 - 0.5 * lam) * dt + y0 * (rho_bar * 0.08 - 0.5 * -0.05)
    assert abs(h2 - bs) < 1e-12


# --- path simulation -------------------------------------------------------------------


def test_simulate_flat_gbm_compound_growth():
    mu, n = 0.05, 8
    m = models.build_model("gbm", models.CevParams(mu=mu, sigma=0.0, gamma=1.0, s0=1.0))
    dt = 1.0 / n
    incr = np.zeros((1, 1, n))
    res = schemes.simulate_batch(
        schemes.StepperConfig(scheme_id="explicit_euler"), m, dt, incr, record_every=1
    )
    want = (1.0 + mu * dt) ** np.arange(n + 1)
    np.testing.assert_allclose(res.recorded[0, :, 0], want, rtol=1e-13)
    res_t = schemes.simulate_batch(
        schemes.StepperConfig(scheme_id="tamed_euler"), m, dt, incr, record_every=1
    )
    # taming perturbs the growth factor at O((mu*x*dt)^2) per step
    np.testing.assert_allclose(res_t.recorded[0, :, 0], want, rtol=1e-3)


def test_simulate_cubic_double_exponential_blowup():
    cfg = schemes.StepperConfig(scheme_id="explicit_euler")
    incr = np.zeros((1, 1, 3))
    res = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1)
    vals = res.recorded[0, :, 0]
    assert math.isclose(abs(vals[2]), 72_810.0, rel_tol=1e-6)
    x2 = vals[2]
    assert math.isclose(vals[3], x2 - 0.1 * x2**3, rel_tol=1e-6)
    assert abs(vals[3]) > 3.8e13


def test_simulate_tamed_cubic_stays_bounded():
    cfg = schemes.StepperConfig(scheme_id="tamed_euler")
    incr = np.zeros((1, 1, 10))
    res = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1)
    assert np.abs(res.recorded).max() < 1e2
    assert not res.overflow[0]


def test_simulate_overflow_freezes_path(monkeypatch):
    cfg = schemes.StepperConfig(scheme_id="explicit_euler")
    incr = np.zeros((1, 1, 10))
    res = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1)
    assert res.overflow[0]
    vals = res.recorded[0, :, 0]
    k = int(np.isfinite(vals).argmin())  # the first non-finite node
    assert k > 0 and not np.isfinite(vals[k:]).any()
    assert not np.isfinite(res.terminal[0, 0])
    # paths that blow up at steps 6, 8 and 9, and two that stay finite:
    # a path stays non-finite from its first non-finite node on
    x0 = np.array([[10.0, 5.0, 4.5, 4.2, 1.0]])
    start = schemes.BatchResult(  # zero steps taken: the paths at x0
        None, x0, x0, np.zeros(5, dtype=bool), None, None, 0,
    )
    incr = np.zeros((1, 5, 14))
    whole = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1, carry=start)
    np.testing.assert_array_equal(whole.overflow, [True, True, True, False, False])
    bad = ~np.isfinite(whole.recorded[0])
    np.testing.assert_array_equal(bad.argmax(axis=0)[:3], [6, 8, 9])
    np.testing.assert_array_equal(bad, np.logical_or.accumulate(bad, axis=0))
    assert not bad[:, 3:].any()
    # bookkeeping passes of 1, 2, 3 and 5 steps give the same results, and
    # a call that records nothing flags the same paths
    for span in (1, 2, 3, 5):
        monkeypatch.setattr(bw, "BUFFER_FLOATS", span * 5)
        res = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1, carry=start)
        np.testing.assert_array_equal(res.overflow, whole.overflow)
        np.testing.assert_array_equal(res.recorded, whole.recorded)
    bare = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, carry=start)
    assert bare.recorded is None
    np.testing.assert_array_equal(bare.overflow, whole.overflow)
    # resumed in pieces, a path is flagged from the piece it overflows in
    # on; only the nodes cover each piece alone
    res, nodes = start, [x0[:, None]]
    for k0, k1 in [(0, 4), (4, 7), (7, 14)]:
        res = schemes.simulate_batch(
            cfg, CUBIC, 0.1, incr[:, :, k0:k1], record_every=1, carry=res
        )
        assert res.steps == k1 and res.recorded.shape[1] == k1 - k0 + 1
        np.testing.assert_array_equal(res.overflow, bad[k1])
        nodes.append(res.recorded[:, 1:])
    np.testing.assert_array_equal(np.concatenate(nodes, axis=1), whole.recorded)


# one parameter set per model, for checks over every (scheme, model) pair
_HESTON = models.HestonParams(
    mu=0.05, kappa=2.0, lam=0.09, theta=0.3, rho=-0.5, s0=100.0, v0=0.09
)
_EVERY_MODEL = {
    "cir": SC1, "ait_sahalia": AS_PARAMS,
    "heston": _HESTON, "heston_log": _HESTON,
    "cev": models.CevParams(mu=0.1, sigma=0.3, gamma=0.75, s0=0.2),
    "gbm": models.CevParams(mu=0.1, sigma=0.3, gamma=1.0, s0=1.0),
    "three_halves_vol": models.ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5),
    "cubic_toy": models.CubicToyParams(sigma=1.0, x0=1.0),
}


@pytest.mark.parametrize("alias", sorted(schemes.SCHEMES))
def test_every_scheme_keeps_a_non_finite_state_non_finite(alias):
    # simulate_batch reads overflow from the end state alone, which is exact
    # only if no step maps a non-finite state back to a finite one: every
    # admitted (scheme, model) pair maps a state with +-inf or nan in any
    # coordinate to a non-finite state, or stops the run with an error
    assert set(_EVERY_MODEL) == set(models.MODEL_IDS)
    cfg = schemes.SCHEMES[alias].config
    admitted = 0
    for model_id, params in _EVERY_MODEL.items():
        model = models.build_model(model_id, params)
        try:
            stepper = schemes.make_stepper(cfg, model)(0.01)
        except schemes.SchemeError:
            continue
        admitted += 1
        for i, bad in itertools.product(range(model.d), (np.inf, -np.inf, np.nan)):
            if alias == "dimp_milstein_truncated" and bad == -np.inf:
                # sqrt(max(z, 0)) makes z = -inf finite, but no state reaches
                # it: every step's output is at least shift/scale > -inf
                continue
            x = np.array(stepper.state0, dtype=np.float64)[:, None].repeat(3, axis=1)
            x[i] = bad
            dw = np.array([[0.0, 0.3, -0.3]] * model.m)
            with np.errstate(all="ignore"):
                try:
                    out = stepper.step(x, dw)
                except (schemes.DomainError, schemes.SolverError):
                    continue  # the run ends here: no state to carry
            assert not np.isfinite(out).all(axis=0).any(), (model_id, i, bad, out)
    assert admitted


def _row_outcomes() -> dict[tuple[str, str], str]:
    """Per (alias, model) pair: the first 16 hex digits of the sha256 of a
    fixed 64-path, 64-step block's terminal values and overflow flags, or
    the name of the error that refuses or ends the run and a digest of its
    message."""
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    # a second CIR set, outside 4*kappa*lam > theta^2, runs the truncations
    every = {**{m: (m, params) for m, params in _EVERY_MODEL.items()},
             "cir-scenario-2": ("cir", models.get_preset("cir-scenario-2").params)}
    outcomes = {}
    for alias, (name, (model_id, params)) in itertools.product(schemes.SCHEMES, every.items()):
        model = models.build_model(model_id, params)
        config, dt = schemes.SCHEMES[alias].config, 1.0 / 64
        incr = np.random.default_rng(20261022).standard_normal((model.m, 64, 64))
        try:
            res = schemes.simulate_batch(config, model, dt, incr * math.sqrt(dt))
        except (schemes.SchemeError, schemes.DomainError, schemes.SolverError) as exc:
            outcomes[alias, name] = f"{type(exc).__name__} {digest(str(exc).encode())}"
            continue
        outcomes[alias, name] = digest(res.terminal.tobytes() + res.overflow.tobytes())
    return outcomes


# written before the sqrt convention became one StepperConfig option, with
# numpy 2.4.6, as scripts/tables.sha256
_ROW_BITS = {
    ("absolute_euler", "ait_sahalia"): "SchemeError 5cc7063cd8996e32",
    ("absolute_euler", "cev"): "SchemeError 2b3f8a9ac78f39b5",
    ("absolute_euler", "cir"): "ec167cfa877db91d",
    ("absolute_euler", "cir-scenario-2"): "eac8269715596a0d",
    ("absolute_euler", "cubic_toy"): "SchemeError f41173bf4b81fa28",
    ("absolute_euler", "gbm"): "SchemeError 7fcc1731c1de9bd5",
    ("absolute_euler", "heston"): "SchemeError ea4489ced51b4c25",
    ("absolute_euler", "heston_log"): "SchemeError 234083d181fdd050",
    ("absolute_euler", "three_halves_vol"): "SchemeError d6fcf84fb7f8a85f",
    ("absolute_milstein", "ait_sahalia"): "SchemeError 839a145d58928e03",
    ("absolute_milstein", "cev"): "SchemeError 3bc2d99b2167586a",
    ("absolute_milstein", "cir"): "2447b106236bd4bb",
    ("absolute_milstein", "cir-scenario-2"): "3afbd3bb31b91446",
    ("absolute_milstein", "cubic_toy"): "SchemeError 1ca8dbf93422765c",
    ("absolute_milstein", "gbm"): "SchemeError ab86ccf5b90f0050",
    ("absolute_milstein", "heston"): "SchemeError 0d519af625f1a04f",
    ("absolute_milstein", "heston_log"): "SchemeError fea91e73444bff6d",
    ("absolute_milstein", "three_halves_vol"): "SchemeError 8e0d9fd72c2ccdb6",
    ("backward_euler", "ait_sahalia"): "d950af4e2a7088ab",
    ("backward_euler", "cev"): "da965b1573af29e8",
    ("backward_euler", "cir"): "DomainError 06dc1d7e990f2b67",
    ("backward_euler", "cir-scenario-2"): "DomainError 06dc1d7e990f2b67",
    ("backward_euler", "cubic_toy"): "6373991858fce67d",
    ("backward_euler", "gbm"): "0199811368a1325e",
    ("backward_euler", "heston"): "SchemeError fee52b2c4fbef18a",
    ("backward_euler", "heston_log"): "SchemeError b66a517a9ac2eb9a",
    ("backward_euler", "three_halves_vol"): "10443184dddf81e6",
    ("dimp_milstein", "ait_sahalia"): "SchemeError 67c1042229dfdacf",
    ("dimp_milstein", "cev"): "SchemeError 8f845d978a0e56a0",
    ("dimp_milstein", "cir"): "4b1368fc60a170bc",
    ("dimp_milstein", "cir-scenario-2"): "SchemeError 96eb422522465000",
    ("dimp_milstein", "cubic_toy"): "SchemeError de12bca73c8a2e44",
    ("dimp_milstein", "gbm"): "SchemeError 3ddd7f3499854b8c",
    ("dimp_milstein", "heston"): "SchemeError 66211360685a756c",
    ("dimp_milstein", "heston_log"): "SchemeError 3a7f9b21ab9cc6ff",
    ("dimp_milstein", "three_halves_vol"): "SchemeError 3a6d5ccf36853df1",
    ("dimp_milstein_truncated", "ait_sahalia"): "SchemeError 67c1042229dfdacf",
    ("dimp_milstein_truncated", "cev"): "SchemeError 8f845d978a0e56a0",
    ("dimp_milstein_truncated", "cir"): "4b1368fc60a170bc",
    ("dimp_milstein_truncated", "cir-scenario-2"): "6ecc230d6e87d2c9",
    ("dimp_milstein_truncated", "cubic_toy"): "SchemeError de12bca73c8a2e44",
    ("dimp_milstein_truncated", "gbm"): "SchemeError 3ddd7f3499854b8c",
    ("dimp_milstein_truncated", "heston"): "SchemeError 66211360685a756c",
    ("dimp_milstein_truncated", "heston_log"): "SchemeError 3a7f9b21ab9cc6ff",
    ("dimp_milstein_truncated", "three_halves_vol"): "SchemeError 3a6d5ccf36853df1",
    ("euler", "ait_sahalia"): "b4b20c311a35d624",
    ("euler", "cev"): "d76c8c6e5ba902af",
    ("euler", "cir"): "DomainError 077149cf6cdee2b1",
    ("euler", "cir-scenario-2"): "DomainError d23158a6ff8f5164",
    ("euler", "cubic_toy"): "9b7ac3a2c4d71d62",
    ("euler", "gbm"): "a33aec6bf41b1e1a",
    ("euler", "heston"): "786ad8d04d3efccd",
    ("euler", "heston_log"): "4078f6eae256b275",
    ("euler", "three_halves_vol"): "52ae8987731522d7",
    ("implicit_sqrt", "ait_sahalia"): "SchemeError 4c955e3a2c2be5cb",
    ("implicit_sqrt", "cev"): "SchemeError 76877a4767c9c347",
    ("implicit_sqrt", "cir"): "7c4cbfc7e15ad2f2",
    ("implicit_sqrt", "cir-scenario-2"): "SchemeError 84893b2df8aced24",
    ("implicit_sqrt", "cubic_toy"): "SchemeError fd174925628f1066",
    ("implicit_sqrt", "gbm"): "SchemeError ef2ed5f699ca765d",
    ("implicit_sqrt", "heston"): "SchemeError f8d189ac24987104",
    ("implicit_sqrt", "heston_log"): "SchemeError c730daec0b9ffa9f",
    ("implicit_sqrt", "three_halves_vol"): "SchemeError 7d3de9ccd22eb999",
    ("implicit_sqrt_truncated", "ait_sahalia"): "SchemeError 4c955e3a2c2be5cb",
    ("implicit_sqrt_truncated", "cev"): "SchemeError 76877a4767c9c347",
    ("implicit_sqrt_truncated", "cir"): "7c4cbfc7e15ad2f2",
    ("implicit_sqrt_truncated", "cir-scenario-2"): "988f9b3c37a2d178",
    ("implicit_sqrt_truncated", "cubic_toy"): "SchemeError fd174925628f1066",
    ("implicit_sqrt_truncated", "gbm"): "SchemeError ef2ed5f699ca765d",
    ("implicit_sqrt_truncated", "heston"): "SchemeError f8d189ac24987104",
    ("implicit_sqrt_truncated", "heston_log"): "SchemeError c730daec0b9ffa9f",
    ("implicit_sqrt_truncated", "three_halves_vol"): "SchemeError 7d3de9ccd22eb999",
    ("log_heston", "ait_sahalia"): "SchemeError 569a4c8e6ff906c3",
    ("log_heston", "cev"): "SchemeError 563207390a9cb519",
    ("log_heston", "cir"): "SchemeError 44bb32fb3499d972",
    ("log_heston", "cir-scenario-2"): "SchemeError 44bb32fb3499d972",
    ("log_heston", "cubic_toy"): "SchemeError a4bca1baae2d0f03",
    ("log_heston", "gbm"): "SchemeError d5e03953ac0497c2",
    ("log_heston", "heston"): "SchemeError ad981c9147fe68e2",
    ("log_heston", "heston_log"): "0720bbd96a157d74",
    ("log_heston", "three_halves_vol"): "SchemeError c90e2e1033709a38",
    ("milstein", "ait_sahalia"): "c60a32cd6d6f8148",
    ("milstein", "cev"): "3e21431ac95377f9",
    ("milstein", "cir"): "2447b106236bd4bb",
    ("milstein", "cir-scenario-2"): "DomainError 7c70a2df1ac46572",
    ("milstein", "cubic_toy"): "9b7ac3a2c4d71d62",
    ("milstein", "gbm"): "b482796403763a67",
    ("milstein", "heston"): "SchemeError b2570e245b6dfdd5",
    ("milstein", "heston_log"): "SchemeError 1741546e3fbb50f3",
    ("milstein", "three_halves_vol"): "deecc5d1e464bda7",
    ("split_step", "ait_sahalia"): "6842019348a10520",
    ("split_step", "cev"): "a4368e336392ca9e",
    ("split_step", "cir"): "DomainError 57cb73dcca927838",
    ("split_step", "cir-scenario-2"): "DomainError 57cb73dcca927838",
    ("split_step", "cubic_toy"): "3dc33a4f9708f6e2",
    ("split_step", "gbm"): "c0731c8bb1ce5003",
    ("split_step", "heston"): "SchemeError 8711247638c448b7",
    ("split_step", "heston_log"): "SchemeError 8e5f9955a2a4d759",
    ("split_step", "three_halves_vol"): "5c5fa4905d2b2059",
    ("symmetrized_euler", "ait_sahalia"): "b4b20c311a35d624",
    ("symmetrized_euler", "cev"): "SchemeError afa6eb79ca9ff756",
    ("symmetrized_euler", "cir"): "7e42f51426bc3ca8",
    ("symmetrized_euler", "cir-scenario-2"): "9c4afb67e75c39a1",
    ("symmetrized_euler", "cubic_toy"): "SchemeError 3333ce65a887afb0",
    ("symmetrized_euler", "gbm"): "SchemeError 442711e5508a3655",
    ("symmetrized_euler", "heston"): "SchemeError 720cb8675dfd5562",
    ("symmetrized_euler", "heston_log"): "SchemeError b35d771c0c714b51",
    ("symmetrized_euler", "three_halves_vol"): "SchemeError 0afc351b67e4ebda",
    ("tamed_euler", "ait_sahalia"): "f909ac4ea01a64c8",
    ("tamed_euler", "cev"): "42f313b6e6caabae",
    ("tamed_euler", "cir"): "DomainError e16367ec8d8d3e89",
    ("tamed_euler", "cir-scenario-2"): "DomainError 59ba9ba23079884a",
    ("tamed_euler", "cubic_toy"): "8903653364a09369",
    ("tamed_euler", "gbm"): "bc087d1954d147e8",
    ("tamed_euler", "heston"): "4ddc04dfd7c7b08a",
    ("tamed_euler", "heston_log"): "1bc61496838398c4",
    ("tamed_euler", "three_halves_vol"): "14c1c689385d1670",
    ("truncated_euler", "ait_sahalia"): "SchemeError 5cc7063cd8996e32",
    ("truncated_euler", "cev"): "SchemeError 2b3f8a9ac78f39b5",
    ("truncated_euler", "cir"): "cb97bdf210952496",
    ("truncated_euler", "cir-scenario-2"): "4c66e4b046399b85",
    ("truncated_euler", "cubic_toy"): "SchemeError f41173bf4b81fa28",
    ("truncated_euler", "gbm"): "SchemeError 7fcc1731c1de9bd5",
    ("truncated_euler", "heston"): "SchemeError ea4489ced51b4c25",
    ("truncated_euler", "heston_log"): "SchemeError 234083d181fdd050",
    ("truncated_euler", "three_halves_vol"): "SchemeError d6fcf84fb7f8a85f",
    ("truncated_milstein", "ait_sahalia"): "SchemeError 839a145d58928e03",
    ("truncated_milstein", "cev"): "SchemeError 3bc2d99b2167586a",
    ("truncated_milstein", "cir"): "2447b106236bd4bb",
    ("truncated_milstein", "cir-scenario-2"): "3087b9c26091d130",
    ("truncated_milstein", "cubic_toy"): "SchemeError 1ca8dbf93422765c",
    ("truncated_milstein", "gbm"): "SchemeError ab86ccf5b90f0050",
    ("truncated_milstein", "heston"): "SchemeError 0d519af625f1a04f",
    ("truncated_milstein", "heston_log"): "SchemeError fea91e73444bff6d",
    ("truncated_milstein", "three_halves_vol"): "SchemeError 8e0d9fd72c2ccdb6",
}


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason=f"_ROW_BITS pins numpy 2.4.6 output, found {np.__version__}",
)
def test_every_scheme_row_keeps_its_bits():
    # every row on every model it admits, the rows no shipped config runs too
    assert _row_outcomes() == _ROW_BITS


def _lattice_run(cfg, model, lat, T):
    """One recorded path on the lattice's finest grid."""
    return schemes.simulate_batch(
        cfg, model, T / lat.shape[-1], lat[:, None, :], record_every=1
    )


def test_symmetrized_euler_never_negative():
    lat = bw.sample_lattice(907, 0, T=5.0, m=1, finest_n=512)
    cfg = schemes.StepperConfig(scheme_id="reflected_euler")
    res = _lattice_run(cfg, CIR, lat, 5.0)
    assert res.recorded.min() >= 0.0
    assert res.recorded[0, 0, 0] == SC1.x0


def test_modified_euler_agrees_with_explicit_on_clean_path():
    # pick a path that never leaves the domain; on it the extension is inert
    cfg_mod = schemes.StepperConfig(scheme_id="modified_euler", extension="truncate")
    for idx in range(20):
        lat = bw.sample_lattice(31, idx, T=5.0, m=1, finest_n=2048)
        path_mod = _lattice_run(cfg_mod, CIR, lat, 5.0)
        if (path_mod.recorded >= 0).all():
            path_exp = _lattice_run(
                schemes.StepperConfig(scheme_id="explicit_euler"), CIR, lat, 5.0
            )
            np.testing.assert_array_equal(path_mod.recorded, path_exp.recorded)
            break
    else:
        pytest.fail("no domain-clean path found in 20 tries")


def test_explicit_euler_raises_on_domain_exit():
    cfg = schemes.StepperConfig(scheme_id="explicit_euler")
    incr = np.array([[[-0.7]]])  # one brutal negative increment
    with pytest.raises(schemes.DomainError):
        schemes.simulate_batch(cfg, CIR, 5.0 / 512.0, incr)


@pytest.mark.parametrize("resumed", [False, True], ids=["start", "carry-at-7"])
@pytest.mark.parametrize("k", [5, 4, 7], ids=["mid-pass", "first-of-pass", "last-of-pass"])
def test_domain_check_names_the_first_negative_step(monkeypatch, k, resumed):
    # passes of 4 steps over 2 paths: steps 0-3, 4-7 and 8-11 of the chunk;
    # path 1 leaves the domain on chunk step k, and the pass is checked
    # only after all of its steps are taken
    monkeypatch.setattr(bw, "BUFFER_FLOATS", 4 * 2)
    cfg, dt = schemes.SCHEMES["euler"].config, 0.01
    carry, t0 = None, 0
    if resumed:
        carry, t0 = schemes.simulate_batch(cfg, CIR, dt, np.zeros((1, 2, 7))), 7
    incr = np.zeros((1, 2, 12))
    incr[0, 1, k] = -1.0
    # the reference: check after every step, one step at a time
    x = np.full((1, 2), SC1.x0) if carry is None else carry.state
    for j in range(incr.shape[-1]):
        x = schemes.step_explicit_euler(CIR, x, dt, incr[:, :, j])
        if (x < 0).any():
            break
    assert j == k
    with pytest.raises(schemes.DomainError, match=f"at step {t0 + j + 1};"):
        schemes.simulate_batch(cfg, CIR, dt, incr, carry=carry)


def test_batch_equals_stacked_single_paths(rng):
    cfg = schemes.StepperConfig(scheme_id="reflected_euler")
    n, b = 16, 5
    dt = 5.0 / n
    incr = rng.normal(0.0, math.sqrt(dt), (1, b, n))
    batch = schemes.simulate_batch(cfg, CIR, dt, incr, record_every=1)
    for i in range(b):
        single = schemes.simulate_batch(cfg, CIR, dt, incr[:, i : i + 1, :], record_every=1)
        np.testing.assert_array_equal(batch.recorded[:, :, i], single.recorded[:, :, 0])


def test_record_every_keeps_every_sth_node():
    lat = bw.sample_lattice(77, 0, T=2.0, m=1, finest_n=4)
    cfg = schemes.StepperConfig(scheme_id="tamed_euler")
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=1.0, x0=0.5))
    incr = lat[:, None, :]
    every = schemes.simulate_batch(cfg, m, 0.5, incr, record_every=1)
    second = schemes.simulate_batch(cfg, m, 0.5, incr, record_every=2)
    np.testing.assert_array_equal(second.recorded, every.recorded[:, ::2])
    np.testing.assert_array_equal(second.terminal, every.recorded[:, -1])
    with pytest.raises(schemes.SchemeError, match="divide"):
        schemes.simulate_batch(cfg, m, 0.5, incr, record_every=3)


def test_config_validation_rules():
    # each alias selects its own config, and make_stepper runs no other: a
    # config that is no row is refused before any model rule is read
    assert len({entry.config for entry in schemes.SCHEMES.values()}) == len(schemes.SCHEMES)
    for scheme_id, options in (
        ("heun", {}),
        ("modified_euler", {}),
        ("modified_euler", {"extension": "reflect"}),
        ("explicit_euler", {"extension": "truncate"}),
        ("cir_implicit_sqrt_euler", {"extension": "absolute"}),
        ("cir_implicit_milstein", {"extension": "absolute"}),
        ("log_heston_composite", {"extension": "truncate"}),
    ):
        config = schemes.StepperConfig(scheme_id=scheme_id, **options)
        for model in (CIR, GBM):
            with pytest.raises(schemes.SchemeError, match="is no scheme; the schemes are euler,"):
                schemes.make_stepper(config, model)
    heston = models.get_preset("heston-mlmc").build()
    with pytest.raises(schemes.SchemeError, match="scalar noise"):
        schemes.make_stepper(schemes.StepperConfig(scheme_id="milstein"), heston)
    for implicit in ("split_step_backward_euler", "backward_euler"):
        with pytest.raises(schemes.SchemeError, match="scalar models"):
            schemes.make_stepper(schemes.StepperConfig(scheme_id=implicit), heston)
    cev = models.get_preset("cev-set-1").build()
    with pytest.raises(schemes.SchemeError, match="CIR models"):
        schemes.make_stepper(schemes.SCHEMES["truncated_euler"].config, cev)
    with pytest.raises(schemes.SchemeError, match="CIR models"):
        schemes.make_stepper(schemes.SCHEMES["truncated_euler"].config, AS)
    with pytest.raises(schemes.SchemeError, match="proper domain"):
        schemes.make_stepper(schemes.SCHEMES["symmetrized_euler"].config, cev)
    with pytest.raises(schemes.SchemeError, match="CIR"):
        schemes.make_stepper(
            schemes.StepperConfig(scheme_id="cir_implicit_milstein"), cev
        )
    with pytest.raises(schemes.SchemeError, match="log-Heston"):
        schemes.make_stepper(
            schemes.StepperConfig(scheme_id="log_heston_composite"), CIR
        )
