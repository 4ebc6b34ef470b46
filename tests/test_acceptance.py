"""End-to-end acceptance gate.

One test per contract item, each printing a single pass/fail line (run with
-s to see them live). Sample sizes are the real ones, so this file is the
slow part of the suite: the replicated multilevel study dominates at a few
minutes, everything else is seconds. Seeds are fixed; the asserted bands are
the contract bands, not seed-tuned.
"""

import dataclasses
import math

import numpy as np

from sdelab import brownian as bw, cli, convergence as cv, estimators as est
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
M2 = models.build_model(SC2.model_id, SC2.params)

EULER = schemes.StepperConfig(scheme_id="explicit_euler")


TRUNCATED = schemes.StepperConfig(scheme_id="modified_euler", extension="truncate")


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


def test_negativity_statistics():
    s1 = cv.negativity_stats(
        TRUNCATED, M1, T=SC1.T, seed=51, n=512, n_samples=100000
    )
    absolute = schemes.StepperConfig(scheme_id="modified_euler", extension="absolute")
    s2 = cv.negativity_stats(absolute, M2, T=SC2.T, seed=51, n=512, n_samples=100000)
    _check(
        "negativity statistics",
        0.86 <= s1.avg_negative_steps <= 0.97
        and 0.48 <= s1.negative_path_fraction <= 0.50
        and 70.0 <= s2.avg_negative_steps <= 79.0
        and s2.negative_path_fraction >= 0.995,
        f"truncated {s1.avg_negative_steps:.4f}/{s1.negative_path_fraction:.4f}, "
        f"absolute {s2.avg_negative_steps:.4f}/{s2.negative_path_fraction:.4f}",
    )


# 4 -------------------------------------------------------------------------


def test_cev_orders():
    slopes = {}
    for name, lo, hi in (("cev-set-1", 0.42, 0.57), ("cev-set-2", 0.44, 0.58)):
        pre = models.get_preset(name)
        m = models.build_model(pre.model_id, pre.params)
        rep = cv.strong_error_curves(
            [EULER], m, T=pre.T, seed=104,
            n_list=[2**k for k in range(4, 11)], n_samples=10000, p=1,
        )[0]
        slopes[name] = (rep.regression.slope, lo <= rep.regression.slope <= hi)
    _check(
        "cev convergence orders",
        all(ok for _, ok in slopes.values()),
        ", ".join(f"{k} {v:.4f}" for k, (v, _) in slopes.items()),
    )


# 5 -------------------------------------------------------------------------


def test_cir_orders_feller_regime():
    isqrt = schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler")
    dimp = schemes.StepperConfig(scheme_id="cir_implicit_milstein")
    reps = cv.strong_error_curves(
        [TRUNCATED, isqrt, dimp], M1, T=SC1.T, seed=205,
        n_list=[2**k for k in range(7, 14)], n_samples=10000, p=1, ref_n=2**15,
    )
    s_tr, s_is, s_di = (r.regression.slope for r in reps)
    _check(
        "cir strong orders (feller regime)",
        0.45 <= s_tr <= 0.70 and 0.80 <= s_is <= 1.05 and 0.80 <= s_di <= 1.05,
        f"truncated {s_tr:.4f}, implicit-sqrt {s_is:.4f}, dimp {s_di:.4f}",
    )


def test_cir_orders_degraded_regime():
    isqrt_t = schemes.StepperConfig(
        scheme_id="cir_implicit_sqrt_euler", truncate_sqrt=True
    )
    dimp_t = schemes.StepperConfig(
        scheme_id="cir_implicit_milstein", truncate_sqrt=True
    )
    reps = cv.strong_error_curves(
        [TRUNCATED, isqrt_t, dimp_t], M2, T=SC2.T, seed=206,
        n_list=[2**k for k in range(7, 14)], n_samples=10000, p=1, ref_n=2**15,
    )
    slopes = tuple(r.regression.slope for r in reps)
    _check(
        "cir strong orders (degraded regime)",
        all(s < 0.45 for s in slopes),
        "slopes " + ", ".join(f"{s:.4f}" for s in slopes),
    )


# 6 -------------------------------------------------------------------------


def test_moment_explosion():
    pre = models.get_preset("three-halves-mc")
    m = models.build_model(pre.model_id, pre.params)
    pay = est.PayoffSpec(phi="abs")

    def run(n, n_samples):
        return est.mc_estimate(
            EULER, m, pay, T=pre.T, seed=0, n=n, n_samples=n_samples
        )

    fine = run(4096, 1000)  # stepsize 2^-10
    coarse = run(4, 1000)  # stepsize 1
    inf_a = run(16, 10000)  # stepsize 2^-2
    inf_b = run(64, 10000)  # stepsize 2^-4
    _check(
        "moment explosion",
        0.53 <= fine.value <= 0.58
        and (coarse.value > 5.0 or math.isinf(coarse.value))
        and math.isinf(inf_a.value)
        and math.isinf(inf_b.value),
        f"fine {fine.value:.4f}, coarse {coarse.value:.3f}, "
        f"mid ({inf_a.value}, {inf_b.value})",
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


def test_mlmc_rmsq():
    pre = models.get_preset("heston-mlmc")
    m = models.build_model(pre.model_id, pre.params)
    cfg = schemes.StepperConfig(scheme_id="log_heston_composite")
    pay = est.PayoffSpec(phi="call", strike=pre.strike, discount=pre.params.r)
    paper = {2**-4: 0.6853, 2**-5: 0.3528, 2**-6: 0.1814}
    vals = []
    ok = True
    for eps, target in paper.items():
        study = est.rmsq_study(
            "mlmc", cfg, m, pay, T=pre.T, epsilon=eps,
            truth=7.46253, replications=200, seed=88,
        )
        vals.append(study.rmsq)
        ok &= abs(study.rmsq / target - 1.0) <= 0.35
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
    lam1 = models.lamperti_cir(SC1.params)
    refl = schemes.make_stepper(
        schemes.StepperConfig(scheme_id="reflected_euler", projection="abs"),
        M1,
    )
    violations = 0
    assert 4.0 * SC1.params.kappa * SC1.params.lam >= SC1.params.theta**2
    for dt in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0):
        x = rng.uniform(1e-6, 2.0, 10000)
        dw = rng.standard_normal(10000) * math.sqrt(dt)
        violations += int((schemes.step_cir_implicit_sqrt(lam1, np.sqrt(x), dt, dw) <= 0).sum())
        violations += int((schemes.step_cir_implicit_milstein(SC1.params, x, dt, dw) <= 0).sum())
        violations += int((refl.step(x[None, :], dw[None, :], dt) < 0).sum())
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
    p1 = SC1.params
    worst = 0.0
    for dt in (0.001, 0.01, 0.1, 0.25):
        y = rng.uniform(0.02, 2.0, 10000)
        dw = rng.standard_normal(10000) * math.sqrt(dt)
        yp = schemes.step_cir_implicit_sqrt(lam1, y, dt, dw)
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
        xs = schemes.solve_drift_implicit(
            toy.drift, x, dt, toy.positive, x_init=x, drift_prime=toy.drift_prime,
        )
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


# 10 ------------------------------------------------------------------------


def test_thread_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
[experiment]
kind = converge
seed = 17

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler, implicit_sqrt

[run]
n_list = 2^4, 2^5, 2^6
n_samples = 500
ref_n = 2^8
"""
    )
    outs = []
    for threads in (1, 3):
        d = tmp_path / f"t{threads}"
        rc = cli.main(
            ["converge", "--config", str(cfg), "--out", str(d), "--threads", str(threads)]
        )
        assert rc == 0
        outs.append(
            tuple(
                (p.name, p.read_bytes())
                for p in sorted(d.glob("*.csv"))
            )
        )
    capsys.readouterr()
    _check(
        "thread determinism",
        len(outs[0]) == 2 and outs[0] == outs[1],
        f"{len(outs[0])} files byte-compared",
    )
