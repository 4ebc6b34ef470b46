"""Monte Carlo estimators: payoffs, level plans, MLMC coupling, rmsq studies."""

import math
import tracemalloc

import numpy as np
import pytest

from sdelab import brownian as bw
from sdelab import estimators as est
from sdelab import models, schemes, util
from sdelab.estimators import EstimatorError, PayoffSpec

EULER = schemes.StepperConfig(scheme_id="explicit_euler")

GBM = models.build_model("gbm", models.CevParams(mu=0.05, sigma=0.2, gamma=1.0, s0=1.0))
FROZEN = models.build_model("gbm", models.CevParams(mu=0.0, sigma=0.0, gamma=1.0, s0=2.0))
CALL = PayoffSpec(phi="call", strike=1.0, discount=0.05)
IDENT = PayoffSpec(phi="identity")
ABS_T = PayoffSpec(phi="abs")


def _three_halves():
    preset = models.get_preset("three-halves-mc")
    return models.build_model(preset.model_id, preset.params)


# ---------------------------------------------------------------------------
# payoff specification


def test_payoff_validation():
    with pytest.raises(EstimatorError):
        PayoffSpec(phi="digital")
    with pytest.raises(EstimatorError):
        PayoffSpec(phi="call")  # no strike
    with pytest.raises(EstimatorError):
        PayoffSpec(phi="put", strike=-3.0)
    with pytest.raises(EstimatorError):
        PayoffSpec(phi="identity", lower=2.0, upper=1.0)


def test_payoff_evaluation():
    s = np.array([0.5, 1.0, 2.0])
    call = PayoffSpec(phi="call", strike=1.0)
    assert np.array_equal(call.evaluate(s, 1.0), [0.0, 0.0, 1.0])
    put = PayoffSpec(phi="put", strike=1.0)
    assert np.array_equal(put.evaluate(s, 1.0), [0.5, 0.0, 0.0])
    assert np.array_equal(ABS_T.evaluate(np.array([-2.0, 3.0]), 1.0), [2.0, 3.0])

    disc = PayoffSpec(phi="identity", discount=0.1)
    assert math.isclose(disc.evaluate(np.array([1.0]), 2.0)[0], math.exp(-0.2))


def test_barrier_payoff_uses_running_extrema():
    # a bound makes a payoff a barrier payoff
    assert not PayoffSpec(phi="identity").needs_extrema
    assert PayoffSpec(phi="identity", upper=2.0).needs_extrema
    spec = PayoffSpec(phi="identity", lower=0.5, upper=2.0)
    assert spec.needs_extrema
    s = np.array([1.0, 1.0, 1.0])
    rmin = np.array([0.6, 0.4, 0.6])
    rmax = np.array([1.5, 1.5, 2.5])
    out = spec.evaluate(s, 1.0, rmin, rmax)
    assert np.array_equal(out, [1.0, 0.0, 0.0])
    with pytest.raises(EstimatorError, match="extrema"):
        spec.evaluate(s, 1.0)


# ---------------------------------------------------------------------------
# level plans and cost formulas


def test_mlmc_plan_reproduces_cost_table():
    totals = {
        2**-3: 1056,
        2**-4: 7168,
        2**-5: 43520,
        2**-6: 245760,
        2**-7: 1318912,
        2**-8: 6815744,
    }
    for eps, total in totals.items():
        plan = est.mlmc_plan(eps, 1.0)
        assert plan.total_steps == total
        assert all(n >= 1 for n in plan.samples)
        assert plan.sample_span == sum(plan.samples)


def test_mlmc_plan_level_layout():
    plan = est.mlmc_plan(2**-3, 1.0)
    assert plan.levels == 3
    assert plan.samples == (192, 96, 48, 24)
    assert plan.level_steps == (1, 3, 6, 12)


def test_standard_pairing_reproduces_cost_column():
    costs = [512, 4096, 32768, 262144, 2097152, 16777216]
    for k, cost in zip(range(3, 9), costs):
        pairing = est.mc_standard_pairing(2.0**-k, 1.0)
        assert pairing.total_steps == cost
    assert est.mc_standard_pairing(2**-5, 1.0) == est.Plan(32, (1024,))


def test_plan_domains():
    with pytest.raises(EstimatorError):
        est.mlmc_plan(0.6, 1.0)  # no refinement level would exist
    with pytest.raises(EstimatorError):
        est.mlmc_plan(0.0, 1.0)
    with pytest.raises(EstimatorError):
        est.mc_standard_pairing(1.5, 1.0)
    with pytest.raises(EstimatorError):
        est.mc_standard_pairing(-0.1, 1.0)


# ---------------------------------------------------------------------------
# plain Monte Carlo


def test_mc_deterministic_model_is_exact():
    r = est.mc_estimate(EULER, FROZEN, IDENT, T=1.0, seed=1, n=8, n_samples=5)
    assert r.value == 2.0 and r.stderr == 0.0
    drift = models.build_model(
        "gbm", models.CevParams(mu=0.8, sigma=0.0, gamma=1.0, s0=2.0)
    )
    r = est.mc_estimate(EULER, drift, IDENT, T=1.0, seed=1, n=8, n_samples=3)
    assert math.isclose(r.value, 2.0 * 1.1**8, rel_tol=1e-13)
    assert r.stderr == 0.0
    assert r.total_steps == 8 * 3


def test_mc_three_halves_fine_grid_mean():
    # coarse-enough stepping is fine here: dt = 2^-10 keeps every path stable
    r = est.mc_estimate(
        EULER, _three_halves(), ABS_T, T=4.0, seed=60, n=2**12, n_samples=1000
    )
    assert r.n_overflow == 0
    assert 0.53 < r.value < 0.58  # true terminal absolute mean is 0.566217


def test_estimator_walk_holds_one_time_chunk_not_the_path():
    # 2048 paths of 4096 steps: the (1, 2048, 4096) increment block alone
    # takes 64 MiB; the estimator walks time in chunks, carrying each path
    model, kw = _three_halves(), dict(T=4.0, seed=60, n=2**12)
    est.mc_estimate(EULER, model, ABS_T, n_samples=2, **kw)  # loads modules
    tracemalloc.start()
    try:
        r = est.mc_estimate(EULER, model, ABS_T, n_samples=2048, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the same estimate as from the whole block, simulated here
    incr = next(bw.increment_chunks(60, range(2048), 1, 2**12, 4.0 / 2**12, 2**12))
    whole = schemes.simulate_batch(EULER, model, 4.0 / 2**12, incr)
    y = ABS_T.evaluate(model.observable(whole.terminal), 4.0)
    assert not whole.overflow.any() and r.value == util.sample_moments(y)[0]


def test_estimator_walk_builds_each_stepper_once(monkeypatch):
    # levels of 128, 256 and 512 fine steps walk 1, 2 and 4 chunks of 128;
    # each grid of a level (fine, and coarse for l >= 1) builds one stepper
    builds, calls = [], []
    make, simulate = schemes.make_stepper, est.simulate_batch

    def counting_make(config, model):
        builds.append(config.scheme_id)
        return make(config, model)

    def counting_simulate(*args, **kwargs):
        calls.append(args[2])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(schemes, "make_stepper", counting_make)
    monkeypatch.setattr(est, "simulate_batch", counting_simulate)
    plan = est.Plan(128, (2, 2, 2))
    est.mlmc_estimate(EULER, GBM, IDENT, plan, T=1.0, seed=4)
    assert len(calls) == 1 + 2 * 2 + 2 * 4
    assert len(builds) == 1 + 2 + 2


def test_mc_three_halves_coarse_grid_explodes():
    model = _three_halves()
    r = est.mc_estimate(EULER, model, ABS_T, T=4.0, seed=0, n=4, n_samples=1000)
    assert r.value > 5.0 or math.isinf(r.value)
    finer = est.mc_estimate(EULER, model, ABS_T, T=4.0, seed=0, n=16, n_samples=10_000)
    assert math.isinf(finer.value) and finer.n_overflow > 0


def test_discard_ball_radius_infinity_matches_plain():
    model = _three_halves()
    kw = dict(T=4.0, seed=60, n=4096, n_samples=300)
    plain = est.mc_estimate(EULER, model, ABS_T, **kw)
    ball = est.mc_estimate(EULER, model, ABS_T, radius=math.inf, **kw)
    assert ball.value == plain.value and ball.stderr == plain.stderr


def test_discard_ball_smaller_than_start_zeroes_everything():
    r = est.mc_estimate(
        EULER, _three_halves(), ABS_T, T=4.0, seed=60, n=4, n_samples=100, radius=0.1
    )
    assert r.value == 0.0


def test_discard_ball_stays_finite_where_plain_overflows():
    model = _three_halves()
    kw = dict(T=4.0, seed=61, n=64, n_samples=500)
    plain = est.mc_estimate(EULER, model, ABS_T, **kw)
    ball = est.mc_estimate(EULER, model, ABS_T, radius=1e3, **kw)
    assert math.isinf(plain.value) and plain.n_overflow > 0
    assert math.isfinite(ball.value) and math.isfinite(ball.stderr)
    assert ball.n_overflow == plain.n_overflow


def test_mc_guards():
    with pytest.raises(EstimatorError, match="policy"):
        est.mc_estimate(EULER, GBM, IDENT, T=1.0, seed=1, n=4, n_samples=2, policy="drop")
    with pytest.raises(EstimatorError):
        est.mc_estimate(EULER, GBM, IDENT, T=1.0, seed=1, n=4, n_samples=0)
    with pytest.raises(EstimatorError, match="radius"):
        est.mc_estimate(
            EULER, GBM, IDENT, T=1.0, seed=1, n=4, n_samples=2, radius=-1.0
        )
    heston = models.get_preset("heston-mlmc")
    hmodel = models.build_model(heston.model_id, heston.params)
    with pytest.raises(EstimatorError, match="scalar"):
        est.mc_estimate(
            schemes.StepperConfig(scheme_id="log_heston_composite"),
            hmodel,
            IDENT,
            T=1.0,
            seed=1,
            n=4,
            n_samples=2,
            radius=10.0,
        )


def test_mc_sample_indices_partition_cleanly():
    whole = est.mc_estimate(EULER, GBM, CALL, T=1.0, seed=5, n=16, n_samples=100)
    first = est.mc_estimate(EULER, GBM, CALL, T=1.0, seed=5, n=16, n_samples=50)
    second = est.mc_estimate(
        EULER, GBM, CALL, T=1.0, seed=5, n=16, n_samples=50, index_offset=50
    )
    merged = 0.5 * (first.value + second.value)
    assert math.isclose(whole.value, merged, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# multilevel estimator


def test_mlmc_constant_payoff_telescopes_exactly():
    r = est.mlmc_estimate(EULER, FROZEN, IDENT, est.mlmc_plan(2**-3, 1.0), T=1.0, seed=3)
    assert r.value == 2.0 and r.stderr == 0.0
    assert [ls.mean for ls in r.levels] == [2.0, 0.0, 0.0, 0.0]
    assert r.total_steps == est.mlmc_plan(2**-3, 1.0).total_steps


def test_mlmc_agrees_with_fine_level_mc():
    ml = est.mlmc_estimate(EULER, GBM, CALL, est.mlmc_plan(2**-3, 1.0), T=1.0, seed=70)
    mc = est.mc_estimate(EULER, GBM, CALL, T=1.0, seed=71, n=8, n_samples=4096)
    assert abs(ml.value - mc.value) <= 3.0 * (ml.stderr + mc.stderr)


def test_mlmc_correction_variance_decays_with_level():
    r = est.mlmc_estimate(EULER, GBM, CALL, est.mlmc_plan(2**-5, 1.0), T=1.0, seed=72)
    variances = [ls.variance for ls in r.levels]
    assert all(variances[i + 1] < variances[i] for i in range(1, len(variances) - 1))
    slope = np.polyfit(
        range(1, len(variances)), [math.log2(v) for v in variances[1:]], 1
    )[0]
    assert slope < -0.4
    assert r.total_steps == est.mlmc_plan(2**-5, 1.0).total_steps


def test_mlmc_overflow_propagates_or_excludes():
    # at eps = 2^-5 the coarse 3/2-model levels overflow on a few dozen paths
    model = _three_halves()
    eps, T, seed = 2**-5, 4.0, 1
    plan = est.mlmc_plan(eps, T)
    prop = est.mlmc_estimate(EULER, model, ABS_T, plan, T=T, seed=seed)
    excl = est.mlmc_estimate(EULER, model, ABS_T, plan, T=T, seed=seed, policy="exclude")
    # each level's overflowed paths, simulated here from the same increments
    counts, offset = [], 0
    for level, n_l in enumerate(plan.samples):
        n = 2**level
        idx = range(offset, offset + n_l)
        incr = next(bw.increment_chunks(seed, idx, 1, n, T / n, n))
        over = schemes.simulate_batch(EULER, model, T / n, incr).overflow
        if level:
            coarse = bw.aggregate_to(incr, n // 2)
            over = over | schemes.simulate_batch(EULER, model, 2 * T / n, coarse).overflow
        counts.append(int(over.sum()))
        offset += n_l
    assert sum(counts) > 0
    for r in (prop, excl):
        assert [ls.n_overflow for ls in r.levels] == counts
        assert r.n_overflow == sum(counts)
    assert math.isinf(prop.value) and math.isfinite(excl.value)
    assert prop.total_steps == excl.total_steps == plan.total_steps


def test_estimates_recompute_by_hand_from_the_plan():
    # level l: samples[l] paths on n0*2^l steps minus the coupled n0*2^(l-1)
    # grid; stream indices run on across levels; value = sum of level means
    T, seed = 1.0, 13
    for plan in (est.mlmc_plan(2**-1, T), est.mc_standard_pairing(2**-3, T)):
        means, errs, offset = [], [], 0
        for level, n_l in enumerate(plan.samples):
            n = plan.n0 * 2**level
            idx = range(offset, offset + n_l)
            incr = next(bw.increment_chunks(seed, idx, 1, n, T / n, n))
            fine = schemes.simulate_batch(EULER, GBM, T / n, incr)
            y = CALL.evaluate(GBM.observable(fine.terminal), T)
            if level:
                coarse = schemes.simulate_batch(
                    EULER, GBM, 2 * T / n, bw.aggregate_to(incr, n // 2)
                )
                y = y - CALL.evaluate(GBM.observable(coarse.terminal), T)
            mean, var = util.sample_moments(y)
            means.append(mean)
            errs.append(var / n_l)
            offset += n_l
        r = est.mlmc_estimate(EULER, GBM, CALL, plan, T=T, seed=seed)
        assert r.value == sum(means[1:], means[0])
        assert r.stderr == math.sqrt(sum(errs))
        assert (r.n_samples, r.total_steps) == (plan.sample_span, plan.total_steps)
    assert est.mlmc_plan(2**-1, T) == est.Plan(1, (4, 2))
    assert est.mc_standard_pairing(2**-3, T) == est.Plan(8, (64,))


def test_mlmc_radius_zeroes_each_grid_by_its_own_path():
    # a ball that holds every path changes nothing; one smaller than the
    # start zeroes the fine and the coarse payoff alike, so every level is 0
    plan = est.mlmc_plan(2**-3, 1.0)
    plain = est.mlmc_estimate(EULER, GBM, CALL, plan, T=1.0, seed=4)
    ball = est.mlmc_estimate(EULER, GBM, CALL, plan, T=1.0, seed=4, radius=math.inf)
    assert (ball.value, ball.stderr) == (plain.value, plain.stderr)
    tiny = est.mlmc_estimate(EULER, GBM, CALL, plan, T=1.0, seed=4, radius=0.5)
    assert [ls.mean for ls in tiny.levels] == [0.0] * (plan.levels + 1)


def test_mlmc_plan_never_yields_an_empty_level():
    # mlmc_estimate takes every level from mlmc_plan, so no level is empty
    for T in (0.25, 1.0, 4.0, 50.0):
        for eps in [T / 2, T / 3] + [T * 2.0**-k for k in range(2, 12)] + [T * 1e-3]:
            plan = est.mlmc_plan(eps, T)
            assert len(plan.samples) == plan.levels + 1
            assert min(plan.samples) >= 1, (eps, T, plan.samples)


# ---------------------------------------------------------------------------
# rmsq studies


def test_rmsq_of_exact_estimator_is_zero():
    plan = est.mc_standard_pairing(2**-3, 1.0)
    study = est.rmsq_study(
        EULER, FROZEN, IDENT, plan, T=1.0, truth=2.0, replications=3, seed=9
    )
    assert study.rmsq == 0.0
    assert study.estimates == (2.0, 2.0, 2.0)
    assert plan.total_steps == 512


def test_rmsq_equals_absolute_bias_for_deterministic_estimates():
    study = est.rmsq_study(
        EULER, FROZEN, IDENT, est.mc_standard_pairing(2**-3, 1.0), T=1.0,
        truth=1.5, replications=4, seed=9,
    )
    assert study.rmsq == 0.5


def test_rmsq_study_guards():
    with pytest.raises(EstimatorError, match="method"):
        est.plan_for("quasi", 0.25, 1.0)
    with pytest.raises(EstimatorError):
        est.rmsq_study(
            EULER, GBM, CALL, est.plan_for("mlmc", 0.25, 1.0), T=1.0,
            truth=0.1, replications=0, seed=1,
        )
