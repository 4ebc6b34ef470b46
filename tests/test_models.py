"""Model zoo: coefficient correctness, parameter guards, diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from sdelab import models, schemes


SC1 = models.CirParams(kappa=5.07, lam=0.0457, theta=0.48, x0=0.05)
SC2 = models.CirParams(kappa=2.0, lam=0.09, theta=1.0, x0=0.09)
AS = models.AitSahaliaParams(
    a_m1=1.0, a_0=1.0, a_1=1.0, a_2=1.0, sigma=0.5, r=2.0, rho=1.4, x0=1.0
)


def test_build_cir_scenario_1():
    m = models.build_model("cir", SC1)
    assert m.d == 1 and m.m == 1
    assert m.positive


def test_cev_gamma_out_of_range_rejected():
    with pytest.raises(models.ModelError, match="gamma"):
        models.CevParams(mu=0.1, sigma=0.3, gamma=0.3, s0=1.0)
    with pytest.raises(models.ModelError, match="gamma"):
        models.CevParams(mu=0.1, sigma=0.3, gamma=1.2, s0=1.0)


def test_cubic_drift_value():
    m = models.build_model("cubic_toy", models.CubicToyParams(sigma=1.0, x0=1.0))
    assert m.drift(np.array([10.0]))[0] == -1000.0


def test_gbm_requires_unit_gamma():
    with pytest.raises(models.ModelError, match="gamma"):
        models.build_model("gbm", models.CevParams(mu=0.1, sigma=0.3, gamma=0.75, s0=1.0))


def test_unknown_model_id():
    with pytest.raises(models.ModelError, match="unknown model"):
        models.build_model("ornstein", SC1)


def test_param_guards():
    with pytest.raises(models.ModelError):
        models.CirParams(kappa=-1.0, lam=0.1, theta=0.2, x0=1.0)
    with pytest.raises(models.ModelError):
        models.CirParams(kappa=1.0, lam=0.1, theta=0.2, x0=0.0)
    with pytest.raises(models.ModelError):
        models.HestonParams(mu=0.0, kappa=1.0, lam=0.1, theta=0.2, rho=1.0, s0=1.0, v0=0.1)
    with pytest.raises(models.ModelError):
        models.AitSahaliaParams(a_m1=1.0, a_0=1.0, a_1=1.0, a_2=1.0, sigma=0.5, r=1.0, rho=1.4, x0=1.0)
    with pytest.raises(models.ModelError):
        models.ThreeHalvesParams(c1=0.0, c2=0.8, c3=1.0, v0=0.5)
    with pytest.raises(models.ModelError):
        models.CubicToyParams(sigma=-0.5, x0=0.0)
    # sigma = 0 is a legal degenerate toy (pure ODE)
    models.CubicToyParams(sigma=0.0, x0=1.0)


def test_feller_ratio_values():
    assert abs(models.feller_ratio(SC1) - 2.011276) < 1e-6
    assert models.feller_ratio(SC2) == 0.36
    boundary = models.CirParams(kappa=2.0, lam=1.0, theta=2.0, x0=1.0)
    assert models.feller_ratio(boundary) == 1.0


def test_sup_moment_threshold():
    res = models.bbd_threshold(SC1, 1.0)
    assert abs(res.threshold - 52.387) < 1e-3
    assert not res.satisfied
    # branch where the kappa term dominates
    p = models.CirParams(kappa=1e6, theta=0.01, lam=1.0, x0=1.0)
    res = models.bbd_threshold(p, 1.0)
    expect = 1.0 + math.sqrt(8.0) * (math.sqrt(1e6) / 0.01) * math.sqrt(15.0)
    assert res.threshold == expect
    # branch where 16p-2 dominates
    p = models.CirParams(kappa=0.01, theta=10.0, lam=1.0, x0=1.0)
    res = models.bbd_threshold(p, 10.0)
    assert res.threshold == 1.0 + math.sqrt(8.0) * 158.0


@pytest.mark.parametrize("theta", [1e-300, 2.0**-1074])
def test_sup_moment_condition_holds_where_theta_squared_underflows(theta):
    # the Feller ratio grows as 1/theta^2 and the threshold as 1/theta, so the
    # condition holds as theta falls: at 1e-300 the ratio alone reads inf, at
    # 2^-1074 the threshold reads inf too
    p = models.CirParams(kappa=2.0, lam=0.09, theta=theta, x0=0.09)
    res = models.bbd_threshold(p, 2.0)
    assert models.feller_ratio(p) == math.inf
    assert math.isfinite(res.threshold) == (theta == 1e-300)
    assert res.satisfied


def test_sup_moment_condition_agrees_with_the_threshold_where_finite():
    for kappa in (0.1, 1.0, 5.07, 100.0):
        for theta in np.geomspace(1e-3, 10.0, 41):
            for moment_p in (0.25, 1.0, 2.0, 10.0):
                p = models.CirParams(kappa=kappa, lam=1.0, theta=theta, x0=1.0)
                res = models.bbd_threshold(p, moment_p)
                assert res.satisfied == (models.feller_ratio(p) > res.threshold)


def test_heston_moment_condition():
    hp = models.get_preset("heston-mlmc").params
    res = models.heston_moment_bound(hp, 2.0)
    assert res.satisfied
    assert abs(res.threshold - 4.574143218813454) < 1e-12
    # non-strict boundary counts as satisfied
    rhs = -math.sqrt(1.0) / math.sqrt(2.0) + 0.5 / (2.0 * 2.0)
    at_boundary = models.HestonParams(
        mu=0.0, kappa=0.5, lam=0.1, theta=2.0, rho=rhs, s0=1.0, v0=0.1
    )
    assert models.heston_moment_bound(at_boundary, 2.0).satisfied
    bad = models.HestonParams(
        mu=0.0, kappa=0.1, lam=0.1, theta=2.0, rho=0.9, s0=1.0, v0=0.1
    )
    assert not models.heston_moment_bound(bad, 4.0).satisfied


@pytest.mark.parametrize(
    "r,rho,strong,implicit",
    [(2.0, 1.4, True, True), (2.0, 1.5, False, False), (3.0, 1.9, True, True)],
)
def test_ait_sahalia_wellposedness_flags(r, rho, strong, implicit):
    p = models.AitSahaliaParams(
        a_m1=1.0, a_0=1.0, a_1=1.0, a_2=1.0, sigma=0.5, r=r, rho=rho, x0=1.0
    )
    flags = models.ait_sahalia_wellposed(p)
    assert flags.strong_solution_ok is strong
    assert flags.backward_euler_ok is implicit


def test_lamperti_coefficients():
    lam = models.lamperti_cir(SC1)
    assert abs(lam.alpha - 0.0870495) < 1e-7
    assert lam.beta == -2.535
    assert lam.gamma == 0.24
    assert lam.y0 == math.sqrt(0.05)
    # degenerate case: 4*kappa*lam == theta^2 kills the 1/y drift term
    flat = models.lamperti_cir(models.CirParams(kappa=1.0, lam=1.0, theta=2.0, x0=1.0))
    assert flat.alpha == 0.0
    # algebraic round trip back to the original parameters
    kappa = -2.0 * lam.beta
    theta = 2.0 * lam.gamma
    assert math.isclose(kappa, SC1.kappa, rel_tol=1e-15)
    assert math.isclose(theta, SC1.theta, rel_tol=1e-15)
    assert math.isclose(
        (8.0 * lam.alpha + theta * theta) / (4.0 * kappa), SC1.lam, rel_tol=1e-14
    )


def _zoo():
    """Every registered model with an interior sampler for test points."""
    cev = models.get_preset("cev-set-1").params
    th = models.get_preset("three-halves-mc").params
    hp = models.get_preset("heston-mlmc").params

    def positive(rng, lo=0.05, hi=5.0):
        return rng.uniform(lo, hi, 100)

    def away_from_zero(rng):
        x = rng.uniform(0.1, 3.0, 100)
        return x * rng.choice([-1.0, 1.0], 100)

    return [
        (models.build_model("cir", SC1), positive),
        (models.build_model("cev", cev), away_from_zero),
        (models.build_model("gbm", models.CevParams(mu=0.05, sigma=0.2, gamma=1.0, s0=1.0)), away_from_zero),
        (models.build_model("ait_sahalia", AS), positive),
        (models.build_model("three_halves_vol", th), positive),
        (models.build_model("cubic_toy", models.CubicToyParams(sigma=2.0, x0=0.0)), away_from_zero),
        (models.build_model("heston_log", hp), None),
        (models.build_model("heston", hp), None),
    ]


def test_diffusion_jacobian_matches_finite_differences(rng):
    for model, sampler in _zoo():
        if model.d > 1:
            # the Milstein schemes that read b' are scalar-only
            assert model.diffusion_jacobian == ()
            continue
        x = sampler(rng)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        for b, db in zip(model.diffusion, model.diffusion_jacobian):
            fd = (b(x + h) - b(x - h)) / (2.0 * h)
            an = db(x)
            err = np.abs(fd - an) / np.maximum(np.abs(an), 1e-8)
            assert err.max() < 1e-6, model.model_id


def test_cir_drift_is_affine(rng):
    m = models.build_model("cir", SC1)
    x = rng.uniform(0.0, 10.0, 1000)
    np.testing.assert_allclose(
        m.drift(x), SC1.kappa * SC1.lam - SC1.kappa * x, rtol=1e-13, atol=0.0
    )


def test_ait_sahalia_drift_coercive():
    m = models.build_model("ait_sahalia", AS)
    assert m.drift(np.array([1e-6]))[0] > 1e5
    assert m.drift(np.array([1e6]))[0] < -1e11


def test_lamperti_drift_one_sided_lipschitz(rng):
    # the volatility Y = sqrt(V) of the log-Heston system has the Lamperti
    # drift alpha/y + beta*y, one-sided Lipschitz with constant beta
    pre = models.get_preset("heston-mlmc")
    lam = models.lamperti_cir(pre.params.vol_cir())
    m = models.build_model("heston_log", pre.params)
    h = rng.normal(0.0, 1.0, 10_000)
    x = rng.uniform(1e-3, 10.0, 10_000)
    y = rng.uniform(1e-3, 10.0, 10_000)
    lhs = (x - y) * (m.drift(np.stack([h, x]))[1] - m.drift(np.stack([h, y]))[1])
    assert np.all(lhs <= lam.beta * (x - y) ** 2 + 1e-12)


def test_positive_flag():
    # square-root, Ait-Sahalia and Heston processes live on the positive
    # half-line or orthant; every other model lives on all of R^d
    heston = models.HestonParams(
        mu=0.05, kappa=2.0, lam=0.09, theta=0.3, rho=-0.5, s0=100.0, v0=0.09
    )
    gbm = models.CevParams(mu=0.1, sigma=0.3, gamma=1.0, s0=1.0)
    params = {
        "cir": SC1, "ait_sahalia": AS,
        "heston": heston, "heston_log": heston, "cev": gbm, "gbm": gbm,
        "three_halves_vol": models.ThreeHalvesParams(c1=1.2, c2=0.8, c3=1.0, v0=0.5),
        "cubic_toy": models.CubicToyParams(sigma=1.0, x0=1.0),
    }
    assert set(params) == set(models.MODEL_IDS)
    built = {mid: models.build_model(mid, p) for mid, p in params.items()}
    assert {mid for mid, m in built.items() if m.positive} == {
        "cir", "ait_sahalia", "heston",
    }
    # a coefficient evaluation needs the open half-line ...
    schemes._guard_domain_eval(built["cir"], np.array([[0.5]]), "stage")
    with pytest.raises(models.DomainError):
        schemes._guard_domain_eval(built["cir"], np.array([[0.0]]), "stage")
    schemes._guard_domain_eval(built["cev"], np.array([[-5.0]]), "stage")
    # ... while a path may touch 0 and only a negative state leaves the domain
    at_zero = dataclasses.replace(built["cir"], drift=np.zeros_like, state0=(0.0,))
    euler = schemes.StepperConfig("explicit_euler")
    res = schemes.simulate_batch(euler, at_zero, 0.1, np.ones((1, 3, 4)))
    assert (res.terminal == 0.0).all()
    with pytest.raises(models.DomainError):
        schemes.simulate_batch(euler, built["cir"], 0.1, np.full((1, 1, 1), -1.0))


def test_presets_build():
    for name in (
        "cir-scenario-1", "cir-scenario-2", "cev-set-1", "cev-set-2",
        "heston-mlmc", "three-halves-mc",
    ):
        pre = models.get_preset(name)
        model = pre.build()
        assert model.model_id == pre.model_id
        assert pre.T > 0
    assert models.get_preset("heston-mlmc").strike == 105.0
    with pytest.raises(models.ModelError, match="unknown preset"):
        models.get_preset("cir-scenario-3")


def test_heston_log_observable_exponentiates():
    m = models.get_preset("heston-mlmc").build()
    state = np.array([[0.0, 1.0], [0.3, 0.3]])
    np.testing.assert_allclose(m.observable(state), np.exp(state[0]))
