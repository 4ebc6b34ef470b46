"""End-to-end acceptance gate.

One test per contract item, each printing a single pass/fail line (run with
-s to see them live). Sample sizes are the real ones. The checks on the
study tables read the CSVs of the ``scripts/configs`` runs, which the
``study`` fixture makes once per session and ``test_tables.py`` byte-checks,
so no study runs twice; the replicated multilevel study and the two CIR
regressions dominate, everything else is seconds. Seeds are fixed; the
asserted bands are the contract bands, not seed-tuned.
"""

import dataclasses
import math

import numpy as np
import pytest

from sdelab import brownian as bw, convergence as cv, estimators as est
from sdelab import models, oracles as orc, schemes
from test_oracles import black_scholes_call


def _check(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


SC1 = models.get_preset("cir-scenario-1")
SC2 = models.get_preset("cir-scenario-2")
M1 = models.build_model(SC1.model_id, SC1.params)

EULER = schemes.StepperConfig(scheme_id="explicit_euler")


def _rows(path):
    """The data rows of a study CSV, as dicts of column name to cell text."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _slope(path):
    """The fitted order from a converge CSV's trailing regression comment."""
    (line,) = [
        line for line in path.read_text().splitlines()
        if line.startswith("# regression: slope = ")
    ]
    return float(line.split()[4])


# 1 -------------------------------------------------------------------------


def test_parameter_diagnostics():
    f1 = models.feller_ratio(SC1.params)
    f2 = models.feller_ratio(SC2.params)
    cases = [
        ((2.0, 1.4), (True, True)),
        ((2.0, 1.5), (False, False)),
        ((3.0, 1.9), (True, True)),
    ]
    as_ok = True
    for (r, rho), want in cases:
        p = models.AitSahaliaParams(
            a_m1=1.0, a_0=1.0, a_1=1.0, a_2=1.0, sigma=1.0, r=r, rho=rho, x0=1.0
        )
        w = models.ait_sahalia_wellposed(p)
        as_ok &= (w.strong_solution_ok, w.backward_euler_ok) == want
    _check(
        "parameter diagnostics",
        abs(f1 - 2.011276) <= 1e-6 and f2 == 0.36 and as_ok,
        f"feller: {f1:.7f}, {f2}",
    )


# 2 -------------------------------------------------------------------------


def test_cost_accounting():
    mlmc = tuple(est.mlmc_plan(2.0**-k, 1.0).total_steps for k in range(3, 9))
    std = tuple(est.mc_standard_pairing(2.0**-k, 1.0).total_steps for k in range(3, 9))
    _check(
        "cost accounting",
        mlmc == (1056, 7168, 43520, 245760, 1318912, 6815744)
        and std == (512, 4096, 32768, 262144, 2097152, 16777216),
        f"mlmc {mlmc}",
    )


# 3 -------------------------------------------------------------------------


def test_negativity_statistics(study):
    (avg1, frac1), (avg2, frac2) = (
        (float(row["avg_negative_steps"]), float(row["negative_path_fraction"]))
        for stem in ("negstats_scenario1", "negstats_scenario2")
        for row in _rows(study(stem) / "negstats.csv")
    )
    _check(
        "negativity statistics",
        0.86 <= avg1 <= 0.97
        and 0.48 <= frac1 <= 0.50
        and 70.0 <= avg2 <= 79.0
        and frac2 >= 0.995,
        f"truncated {avg1:.4f}/{frac1:.4f}, absolute {avg2:.4f}/{frac2:.4f}",
    )


# 4 -------------------------------------------------------------------------


def test_cev_orders(study):
    slopes = {}
    for name, lo, hi in (("cev_set1", 0.42, 0.57), ("cev_set2", 0.44, 0.58)):
        slope = _slope(study(f"converge_{name}") / "converge_euler.csv")
        slopes[name] = (slope, lo <= slope <= hi)
    _check(
        "cev convergence orders",
        all(ok for _, ok in slopes.values()),
        ", ".join(f"{k} {v:.4f}" for k, (v, _) in slopes.items()),
    )


# 5 -------------------------------------------------------------------------


@pytest.mark.slow
def test_cir_orders_feller_regime(study):
    out = study("converge_cir_scenario1")
    s_tr, s_is, s_di = (
        _slope(out / f"converge_{alias}.csv")
        for alias in ("truncated_euler", "implicit_sqrt", "dimp_milstein")
    )
    _check(
        "cir strong orders (feller regime)",
        0.45 <= s_tr <= 0.70 and 0.80 <= s_is <= 1.05 and 0.80 <= s_di <= 1.05,
        f"truncated {s_tr:.4f}, implicit-sqrt {s_is:.4f}, dimp {s_di:.4f}",
    )


@pytest.mark.slow
def test_cir_orders_degraded_regime(study):
    out = study("converge_cir_scenario2")
    slopes = tuple(
        _slope(out / f"converge_{alias}.csv")
        for alias in (
            "truncated_euler", "implicit_sqrt_truncated", "dimp_milstein_truncated"
        )
    )
    _check(
        "cir strong orders (degraded regime)",
        all(s < 0.45 for s in slopes),
        "slopes " + ", ".join(f"{s:.4f}" for s in slopes),
    )


# 6 -------------------------------------------------------------------------


def test_moment_explosion(study):
    T = models.get_preset("three-halves-mc").T
    value = {
        (round(T / float(row["delta"])), int(row["n_samples"])): float(row["estimate"])
        for row in _rows(study("explode_three_halves") / "explode.csv")
    }
    fine = value[4096, 1000]  # stepsize 2^-10
    coarse = value[4, 1000]  # stepsize 1
    inf_a = value[16, 10000]  # stepsize 2^-2
    inf_b = value[64, 10000]  # stepsize 2^-4
    _check(
        "moment explosion",
        0.53 <= fine <= 0.58
        and (coarse > 5.0 or math.isinf(coarse))
        and math.isinf(inf_a)
        and math.isinf(inf_b),
        f"fine {fine:.4f}, coarse {coarse:.3f}, mid ({inf_a}, {inf_b})",
    )


# 7 -------------------------------------------------------------------------


def test_fourier_oracle():
    pre = models.get_preset("heston-mlmc")
    p = pre.params
    price = orc.heston_call_price(p, 105.0, 1.0)
    at_zero = orc.heston_call_price(p, 0.0, 1.0)
    degen = dataclasses.replace(p, theta=1e-4, v0=p.lam)
    bs = black_scholes_call(p.s0, 105.0, math.sqrt(p.lam), 1.0, r=p.r)
    deg_price = orc.heston_call_price(degen, 105.0, 1.0)
    _check(
        "fourier oracle",
        abs(price - 7.46253) <= 5e-3
        and abs(at_zero - p.s0) <= 1e-6
        and abs(deg_price - bs) <= 1e-4,
        f"price {price:.6f}, zero-strike {at_zero}, degenerate gap "
        f"{abs(deg_price - bs):.2e}",
    )


# 8 -------------------------------------------------------------------------


@pytest.mark.slow
def test_mlmc_rmsq(study):
    # 200 replications per accuracy, measured against the Fourier price
    rmsq = {
        float(row["epsilon"]): float(row["rmsq_if_study"])
        for row in _rows(study("mlmc_heston_rmsq") / "mlmc.csv")
    }
    paper = {2**-4: 0.6853, 2**-5: 0.3528, 2**-6: 0.1814}
    vals = [rmsq[eps] for eps in paper]
    ok = all(abs(v / target - 1.0) <= 0.35 for v, target in zip(vals, paper.values()))
    r1, r2 = vals[0] / vals[1], vals[1] / vals[2]
    ok &= 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4
    _check(
        "mlmc rmsq",
        ok,
        "rmsq " + ", ".join(f"{v:.4f}" for v in vals) + f"; ratios {r1:.2f}, {r2:.2f}",
    )


# 9 -------------------------------------------------------------------------


def test_positivity_one_steps():
    rng = np.random.default_rng(7)
    isqrt = schemes.make_stepper(
        schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler"), M1
    )
    refl = schemes.make_stepper(
        schemes.StepperConfig(scheme_id="reflected_euler"), M1
    )
    violations = 0
    assert 4.0 * SC1.params.kappa * SC1.params.lam >= SC1.params.theta**2
    for dt in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0):
        x = rng.uniform(1e-6, 2.0, 10000)
        dw = rng.standard_normal(10000) * math.sqrt(dt)
        violations += int((isqrt(dt).step(np.sqrt(x)[None], dw[None]) <= 0).sum())
        violations += int((schemes.step_cir_implicit_milstein(SC1.params, x, dt, dw) <= 0).sum())
        violations += int((refl(dt).step(x[None, :], dw[None, :]) < 0).sum())
    _check("positivity one-steps", violations == 0, "10^5 draws per scheme")


def test_domination():
    n, b = 256, 10000
    dt = SC1.T / n
    z = bw.batch_standard_normals(9101, range(b), 0, n)
    incr = (z * math.sqrt(dt))[None, :, :]
    rx = schemes.simulate_batch(
        schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler"), M1, dt, incr,
        record_every=1,
    )
    rz = schemes.simulate_batch(
        schemes.StepperConfig(scheme_id="cir_implicit_milstein"), M1, dt, incr,
        record_every=1,
    )
    gap = float((rz.recorded - rx.recorded).min())
    _check("pathwise domination", gap >= -1e-12, f"worst gap {gap:.2e}")


def test_implicit_residuals():
    rng = np.random.default_rng(7)
    lam1 = models.lamperti_cir(SC1.params)
    isqrt = schemes.make_stepper(
        schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler"), M1
    )
    p1 = SC1.params
    worst = 0.0
    for dt in (0.001, 0.01, 0.1, 0.25):
        y = rng.uniform(0.02, 2.0, 10000)
        dw = rng.standard_normal(10000) * math.sqrt(dt)
        yp = isqrt(dt).step(y[None], dw[None])[0]
        res = yp - (y + lam1.gamma * dw) - (lam1.alpha / yp + lam1.beta * yp) * dt
        worst = max(worst, float(np.abs(res).max()))
        zin = rng.uniform(1e-4, 2.0, 10000)
        dwz = rng.standard_normal(10000) * math.sqrt(dt)
        zp = schemes.step_cir_implicit_milstein(p1, zin, dt, dwz)
        res = zp * (1 + p1.kappa * dt) - (
            zin + p1.kappa * p1.lam * dt
            + p1.theta * np.sqrt(zin) * dwz
            + 0.25 * p1.theta**2 * (dwz**2 - dt)
        )
        worst = max(worst, float(np.abs(res).max()))
    toy = models.build_model("cubic_toy", models.CubicToyParams(sigma=1.0, x0=1.0))
    for dt in (0.01, 0.1):
        x = rng.uniform(-3.0, 3.0, 10000)
        dw = rng.standard_normal(10000) * math.sqrt(dt)
        xp = schemes.step_backward_euler(toy, x, dt, dw)
        res = xp - (x + toy.diffusion[0](x) * dw) - toy.drift(xp) * dt
        worst = max(worst, float(np.abs(res).max()))
        xs = schemes.solve_drift_implicit(toy, x, dt, x_init=x)
        xfull = schemes.step_split_step_backward(toy, x, dt, dw)
        res_stage = xs - x - toy.drift(xs) * dt
        res_diff = xfull - (xs + toy.diffusion[0](xs) * dw)
        worst = max(worst, float(np.abs(res_stage).max()), float(np.abs(res_diff).max()))
    _check("implicit residuals", worst <= 1e-12, f"worst {worst:.3e}")


def test_conditional_mean_quadrature():
    p1 = SC1.params
    nodes, weights = np.polynomial.hermite.hermgauss(25)
    worst = 0.0
    for z in (0.01, 0.05, 0.5, 1.5):
        for dt in (0.01, 0.1, 0.5):
            dws = math.sqrt(2.0 * dt) * nodes
            vals = schemes.step_cir_implicit_milstein(p1, np.full_like(dws, z), dt, dws)
            mean = float(np.sum(weights * vals) / math.sqrt(math.pi))
            target = (z + p1.kappa * p1.lam * dt) / (1.0 + p1.kappa * dt)
            worst = max(worst, abs(mean - target))
    _check("conditional-mean quadrature", worst <= 1e-10, f"worst {worst:.2e}")


def test_cubic_toy_determinism():
    toy = models.build_model("cubic_toy", models.CubicToyParams(sigma=0.0, x0=10.0))
    incr = np.zeros((1, 1, 10))
    res = schemes.simulate_batch(EULER, toy, 0.1, incr, record_every=1)
    vals = res.recorded[0, :, 0]
    x = np.float64(10.0)
    direct = [float(x)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            x = x - np.float64(0.1) * x**3
            direct.append(float(x))
    tame = schemes.simulate_batch(
        schemes.StepperConfig(scheme_id="tamed_euler"), toy, 0.1, incr, record_every=1
    )
    tmax = float(np.abs(tame.recorded).max())
    _check(
        "cubic-toy determinism",
        abs(abs(vals[2]) - 72810.0) <= 1e-6 * 72810.0
        and abs(vals[3] - direct[3]) <= 1e-6 * abs(direct[3])
        and tmax < 100.0,
        f"nodes {vals[2]:.1f}, {vals[3]:.5e}; tamed max {tmax}",
    )


def test_gbm_oracle_orders():
    gbm = models.build_model(
        "gbm", models.CevParams(mu=0.05, sigma=0.2, gamma=1.0, s0=1.0)
    )
    mil = schemes.StepperConfig(scheme_id="milstein")
    reps = cv.strong_error_curves(
        [EULER, mil], gbm, T=1.0, seed=105,
        n_list=[2**k for k in range(4, 10)], n_samples=10000, p=1,
        reference="exact",
    )
    s_e = reps[0].regression.slope
    s_m = reps[1].regression.slope
    _check(
        "gbm oracle orders",
        abs(s_e - 0.5) <= 0.1 and abs(s_m - 1.0) <= 0.15,
        f"euler {s_e:.4f}, milstein {s_m:.4f}",
    )
