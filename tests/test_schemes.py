"""One-step maps: exact values, implicit equations, positivity, taming."""

import dataclasses
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
    with pytest.raises(schemes.SchemeError, match="square-root"):
        schemes._extended_cir(GBM, "truncate")


# --- reflection ----------------------------------------------------------------


def test_reflected_inside_matches_euler():
    x = np.array([0.05])
    dw = np.array([0.001])
    dt = 5.0 / 512.0
    ref = schemes.step_reflected(CIR, np.abs, x, dt, dw)
    np.testing.assert_array_equal(ref, schemes.step_explicit_euler(CIR, x, dt, dw))


def test_reflected_symmetrizes_negative_excursion():
    x = np.array([0.04])
    dt = 1.0 / 512.0
    dw = np.array([-0.7])  # drives the Euler step negative
    h = schemes.step_explicit_euler(CIR, x, dt, dw)
    assert h[0] < 0
    out = schemes.step_reflected(CIR, np.abs, x, dt, dw)
    assert out[0] == -h[0]


def test_reflected_constant_projection():
    const = lambda x: np.full_like(x, 0.07)
    out = schemes.step_reflected(
        CIR, const, np.array([0.04]), 1.0 / 512.0, np.array([-0.7])
    )
    assert out[0] == 0.07


# --- implicit solver ------------------------------------------------------------


def test_solve_linear_drift():
    x = schemes.solve_drift_implicit(lambda x: -x, np.array([1.0]), 1.0, False)
    assert abs(x[0] - 0.5) <= 1e-12


def test_lamperti_implicit_keeps_its_guard_for_direct_calls():
    # alpha < 0: the radicand goes negative for small |rhs|; the steppers
    # never see this regime untruncated, a direct call still rejects it
    lam = models.LampertiCir(alpha=-0.01, beta=-1.0, gamma=0.24, y0=0.3)
    with pytest.raises(models.DomainError, match="negative radicand"):
        models.lamperti_implicit(lam)(np.array([0.0, 1.0]), 0.01)
    out = models.lamperti_implicit(lam, truncate=True)(np.array([0.0, 1.0]), 0.01)
    assert out[0] == 0.0 and out[1] > 0


def test_lamperti_implicit_builds_each_dt_once(monkeypatch, rng):
    built, real = [], models.lamperti_root
    monkeypatch.setattr(
        models, "lamperti_root", lambda p, dt, truncate: built.append(dt) or real(p, dt, truncate)
    )
    solve = models.lamperti_implicit(LAM1)
    rhs = rng.normal(0.0, 0.5, 50)
    dts = (0.01, 0.02, np.array(0.01), 0.02)
    got = [solve(rhs, dt) for dt in dts]
    assert built == [0.01, 0.02]  # a 0-d dt finds the float's root
    for out, dt in zip(got, dts):
        np.testing.assert_array_equal(out, real(LAM1, float(dt))(rhs))


def test_lamperti_closed_form_matches_display(rng):
    dt = 5.0 / 512.0
    rhs = rng.normal(0.0, 0.5, 200)
    got = models.lamperti_implicit(LAM1)(rhs, dt)
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
    dt = 0.01
    for rhs in rng.uniform(0.1, 5.0, 20):
        got = schemes.solve_drift_implicit(AS.drift, np.array([rhs]), dt, AS.positive)[0]

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
    xs = schemes.solve_drift_implicit(AS.drift, x, dt, AS.positive, x_init=x)
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


def _isqrt_step(model, y, dt, dw, config=ISQRT):
    """One implicit square-root Euler step, in Lamperti coordinates, of the
    stepper that simulations use."""
    step = schemes.make_stepper(config, model)(dt).step
    return step(np.atleast_1d(y)[None], np.atleast_1d(dw)[None])[0]


def test_implicit_sqrt_degenerate_is_positive_part(rng):
    lam = models.LampertiCir(alpha=0.0, beta=0.0, gamma=0.24, y0=0.3)
    y = rng.uniform(-0.5, 0.5, 200)
    dw = rng.normal(0.0, 0.3, 200)
    # alpha = 0 runs only truncated; the radicand (rhs/2)^2 never needs it
    truncated = schemes.ALIASES["implicit_sqrt_truncated"]
    out = _isqrt_step(models.build_model("cir_lamperti", lam), y, 0.01, dw, truncated)
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
    k = int(res.first_bad[0])
    vals = res.recorded[0, :, 0]
    assert np.isfinite(vals[: k]).all()
    assert not np.isfinite(vals[k:]).any()
    assert not np.isfinite(res.terminal[0, 0])
    # paths that blow up at steps 6, 8 and 9, and two that stay finite:
    # first_bad is the node of the first non-finite recorded value
    x0 = np.array([[10.0, 5.0, 4.5, 4.2, 1.0]])
    start = schemes.BatchResult(  # zero steps taken: the paths at x0
        None, x0, x0, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=bool),
        np.full(5, -1), None, None, 0,
    )
    incr = np.zeros((1, 5, 14))
    whole = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1, carry=start)
    np.testing.assert_array_equal(whole.first_bad, [6, 8, 9, -1, -1])
    bad = ~np.isfinite(whole.recorded[0])
    np.testing.assert_array_equal(bad.argmax(axis=0)[:3], [6, 8, 9])
    assert not bad[:, 3:].any()
    # bookkeeping passes of 1, 2, 3 and 5 steps give the same results
    for span in (1, 2, 3, 5):
        monkeypatch.setattr(bw, "BUFFER_FLOATS", span * 5)
        res = schemes.simulate_batch(cfg, CUBIC, 0.1, incr, record_every=1, carry=start)
        np.testing.assert_array_equal(res.first_bad, whole.first_bad)
        np.testing.assert_array_equal(res.recorded, whole.recorded)
    # resumed in pieces, first_bad counts from the whole path's start and
    # keeps the earliest step; only the nodes cover each piece alone
    res, nodes = start, [x0[:, None]]
    for k0, k1 in [(0, 4), (4, 7), (7, 14)]:
        res = schemes.simulate_batch(
            cfg, CUBIC, 0.1, incr[:, :, k0:k1], record_every=1, carry=res
        )
        assert res.steps == k1 and res.recorded.shape[1] == k1 - k0 + 1
        nodes.append(res.recorded[:, 1:])
    np.testing.assert_array_equal(res.first_bad, whole.first_bad)
    np.testing.assert_array_equal(res.overflow, whole.overflow)
    np.testing.assert_array_equal(np.concatenate(nodes, axis=1), whole.recorded)


def _lattice_run(cfg, model, lat, T):
    """One recorded path on the lattice's finest grid."""
    return schemes.simulate_batch(
        cfg, model, T / lat.shape[-1], lat[:, None, :], record_every=1
    )


def test_symmetrized_euler_never_negative():
    lat = bw.sample_lattice(907, 0, T=5.0, m=1, finest_n=512)
    cfg = schemes.StepperConfig(scheme_id="reflected_euler", projection="abs")
    res = _lattice_run(cfg, CIR, lat, 5.0)
    assert res.negative_steps[0] == 0
    assert res.recorded.min() >= 0.0
    assert res.recorded[0, 0, 0] == SC1.x0


def test_modified_euler_agrees_with_explicit_on_clean_path():
    # pick a path that never leaves the domain; on it the extension is inert
    cfg_mod = schemes.StepperConfig(scheme_id="modified_euler", extension="truncate")
    for idx in range(20):
        lat = bw.sample_lattice(31, idx, T=5.0, m=1, finest_n=2048)
        path_mod = _lattice_run(cfg_mod, CIR, lat, 5.0)
        if path_mod.negative_steps[0] == 0:
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
    cfg, dt = schemes.ALIASES["euler"], 0.01
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
    cfg = schemes.StepperConfig(scheme_id="reflected_euler", projection="abs")
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
    with pytest.raises(schemes.SchemeError, match="unknown scheme"):
        schemes.StepperConfig(scheme_id="heun")
    with pytest.raises(schemes.SchemeError, match="needs extension"):
        schemes.StepperConfig(scheme_id="modified_euler")
    with pytest.raises(schemes.SchemeError, match="needs extension"):
        schemes.StepperConfig(scheme_id="modified_euler", extension="reflect")
    with pytest.raises(schemes.SchemeError, match="needs projection"):
        schemes.StepperConfig(scheme_id="reflected_euler")
    # every option the scheme does not read is rejected
    for scheme_id, option in (
        ("explicit_euler", {"extension": "truncate"}),
        ("explicit_euler", {"truncate_sqrt": True}),
        ("modified_euler", {"extension": "truncate", "projection": "abs"}),
    ):
        with pytest.raises(schemes.SchemeError, match="does not read it"):
            schemes.StepperConfig(scheme_id=scheme_id, **option)
    heston = models.get_preset("heston-mlmc").build()
    with pytest.raises(schemes.SchemeError, match="scalar noise"):
        schemes.make_stepper(schemes.StepperConfig(scheme_id="milstein"), heston)
    for implicit in ("split_step_backward_euler", "backward_euler"):
        with pytest.raises(schemes.SchemeError, match="scalar models"):
            schemes.make_stepper(schemes.StepperConfig(scheme_id=implicit), heston)
    cev = models.get_preset("cev-set-1").build()
    with pytest.raises(schemes.SchemeError, match="full space"):
        schemes.make_stepper(schemes.ALIASES["truncated_euler"], cev)
    with pytest.raises(schemes.SchemeError, match="square-root"):
        schemes.make_stepper(schemes.ALIASES["truncated_euler"], AS)
    with pytest.raises(schemes.SchemeError, match="proper domain"):
        schemes.make_stepper(schemes.ALIASES["symmetrized_euler"], cev)
    with pytest.raises(schemes.SchemeError, match="CIR"):
        schemes.make_stepper(
            schemes.StepperConfig(scheme_id="cir_implicit_milstein"), cev
        )
    with pytest.raises(schemes.SchemeError, match="log-Heston"):
        schemes.make_stepper(
            schemes.StepperConfig(scheme_id="log_heston_composite"), CIR
        )
