"""Error measurement: regression fits, node errors, coupled curves, negativity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdelab import brownian as bw
from sdelab import convergence as cv
from sdelab import models, schemes
from sdelab.convergence import MeasurementError

SC1 = models.CirParams(kappa=5.07, lam=0.0457, theta=0.48, x0=0.05)
GBM = models.build_model("gbm", models.CevParams(mu=0.05, sigma=0.2, gamma=1.0, s0=1.0))

EULER = schemes.StepperConfig(scheme_id="explicit_euler")


def _cir_sc1():
    return models.build_model("cir", SC1)


def _truncated_euler():
    return schemes.StepperConfig(scheme_id="modified_euler", extension="truncate")


def _block(values):
    """Recorded values as a (d, nodes, 1) block, as simulate_batch records them."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[None]
    return vals[:, :, None]


# ---------------------------------------------------------------------------
# fit_order


def test_fit_order_recovers_exact_power_law():
    steps = [2.0**-k for k in range(2, 7)]
    errs = [0.7 * dt**0.5 for dt in steps]
    reg = cv.fit_order(steps, errs)
    assert math.isclose(reg.slope, 0.5, rel_tol=1e-12)
    assert math.isclose(reg.intercept, math.log(0.7), rel_tol=1e-10)
    assert reg.residual_stderr < 1e-12


def test_fit_order_constant_errors_give_slope_zero():
    steps = [2.0**-k for k in range(1, 6)]
    reg = cv.fit_order(steps, [0.3] * len(steps))
    assert abs(reg.slope) < 1e-13


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_fit_order_recovers_random_power_law(q, c):
    steps = [2.0**-k for k in range(1, 5)]
    errs = [c * dt**q for dt in steps]
    reg = cv.fit_order(steps, errs)
    assert math.isclose(reg.slope, q, rel_tol=1e-9, abs_tol=1e-9)


def test_fit_order_rejects_bad_input():
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5], [0.1])
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5, 0.25], [0.1, 0.0])
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5, 0.25], [0.1, -0.2])
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5, 0.25], [0.1, math.inf])
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5, 0.0], [0.1, 0.05])
    with pytest.raises(MeasurementError):
        cv.fit_order([0.5, 0.25, 0.125], [0.1, 0.05])


# ---------------------------------------------------------------------------
# max node error


def test_max_node_error_identical_paths_is_exact_zero():
    a = _block([1.0, 1.1, 0.9, 1.3, 1.2])
    assert cv._dist_max(a, a.copy()).tolist() == [0.0]


def test_max_node_error_constant_offset():
    vals = np.linspace(1.0, 2.0, 5)
    assert math.isclose(
        cv._dist_max(_block(vals), _block(vals + 0.25))[0], 0.25, rel_tol=1e-15
    )


def test_max_node_error_uses_shared_nodes_only():
    # the curve at n compares against the reference at every (ref_n/n)-th
    # node; a one-sample curve at index_offset k runs on sample k's lattice
    (rep,) = cv.strong_error_curves(
        [EULER], GBM, T=1.0, seed=3, n_list=[8], n_samples=1, p=1,
        ref_config=EULER, ref_n=32, index_offset=5,
    )
    lat = bw.sample_lattice(3, 5, T=1.0, m=1, finest_n=32)
    ref = schemes.simulate_batch(
        EULER, GBM, 1.0 / 32, lat[:, None, :], record_every=1
    ).recorded[0, ::4, 0]
    approx = schemes.simulate_batch(
        EULER, GBM, 1.0 / 8, bw.increments_at(lat, 8)[:, None, :], record_every=1
    ).recorded[0, :, 0]
    assert rep.errors == (float(np.abs(ref - approx).max()),)
    assert rep.errors[0] > 0


def test_max_node_error_euclidean_distance():
    ref = np.zeros((2, 3))
    ref[:, 1] = (3.0, 4.0)
    assert cv._dist_max(_block(np.zeros((2, 3))), _block(ref)).tolist() == [5.0]


def test_max_node_error_rejects_incompatible_paths():
    # grids that do not nest dyadically in the reference share no node set
    for n_list, ref_n in ([6], 8), ([16], 8):
        with pytest.raises(MeasurementError, match="dyadically"):
            cv.strong_error_curves(
                [EULER], GBM, T=1.0, seed=1, n_list=n_list, n_samples=1, p=1,
                ref_n=ref_n,
            )


# ---------------------------------------------------------------------------
# report validation


def test_error_report_validates_fields():
    with pytest.raises(MeasurementError):
        cv.ErrorReport(stepsizes=(0.5, 0.25), errors=(0.1,), p=2, regression=None)
    with pytest.raises(MeasurementError):
        cv.ErrorReport(stepsizes=(0.25, 0.5), errors=(0.1, 0.2), p=2, regression=None)
    with pytest.raises(MeasurementError):
        cv.ErrorReport(stepsizes=(0.5, 0.0), errors=(0.1, 0.2), p=2, regression=None)
    with pytest.raises(MeasurementError):
        cv.ErrorReport(stepsizes=(0.5,), errors=(0.1,), p=0, regression=None)


def test_default_reference_selection():
    assert cv.default_reference_config(_truncated_euler(), _cir_sc1()).scheme_id == (
        "cir_implicit_sqrt_euler"
    )
    sc2 = models.build_model(
        "cir", models.CirParams(kappa=2.0, lam=0.09, theta=1.0, x0=0.09)
    )
    ref = cv.default_reference_config(EULER, sc2)
    assert ref.scheme_id == "modified_euler" and ref.extension is not None
    assert cv.default_reference_config(EULER, GBM) is EULER


# ---------------------------------------------------------------------------
# coupling: self-reference must be exactly zero


def test_strong_self_reference_error_is_exact_zero():
    rep = cv.strong_error_curves(
        [EULER],
        GBM,
        T=1.0,
        seed=7,
        n_list=[64],
        n_samples=50,
        ref_config=EULER,
        ref_n=64,
    )[0]
    assert rep.errors == (0.0,)
    assert rep.stderrs == (0.0,)
    assert rep.regression is None
    assert rep.valid and rep.overflow_counts == (0,)


def test_pathwise_self_comparison_is_zero():
    (rep,) = cv.strong_error_curves(
        [EULER],
        GBM,
        T=1.0,
        seed=7,
        n_list=[64],
        n_samples=1,
        p=1,
        ref_config=EULER,
        ref_n=64,
    )
    assert rep.errors == (0.0,)
    assert rep.p == 1


# ---------------------------------------------------------------------------
# pathwise curves


def test_pathwise_gbm_euler_against_exact_solution():
    # the order over many paths: a one-path slope is too noisy for the band
    (rep,) = cv.strong_error_curves(
        [EULER],
        GBM,
        T=1.0,
        seed=12,
        n_list=[2**k for k in range(4, 11)],
        n_samples=1000,
        p=1,
        reference="exact",
    )
    assert rep.reference == "exact"
    assert 0.35 < rep.regression.slope < 0.65


def test_pathwise_cir_milstein_beats_euler_on_one_path():
    # Scenario I, single driving path: the truncated Milstein scheme shows
    # roughly first-order decay while truncated Euler stays near one half.
    milstein = schemes.StepperConfig(scheme_id="modified_milstein", extension="truncate")
    mil, eul = cv.strong_error_curves(
        [milstein, _truncated_euler()],
        _cir_sc1(),
        T=5.0,
        seed=21,
        n_list=[2**k for k in range(8, 14)],
        n_samples=1,
        p=1,
        ref_config=schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler"),
        ref_n=2**15,
    )
    assert 0.8 < mil.regression.slope < 1.25
    assert 0.35 < eul.regression.slope < 0.65
    assert mil.regression.slope > eul.regression.slope


# ---------------------------------------------------------------------------
# strong curves


def test_zero_noise_strong_curve_has_first_order_slope():
    flat = models.build_model(
        "gbm", models.CevParams(mu=0.8, sigma=0.0, gamma=1.0, s0=1.0)
    )
    rep = cv.strong_error_curves(
        [EULER],
        flat,
        T=1.0,
        seed=5,
        n_list=[2**k for k in range(3, 9)],
        n_samples=2,
        reference="exact",
    )[0]
    assert 0.95 < rep.regression.slope < 1.05
    assert all(s == 0.0 for s in rep.stderrs)  # deterministic paths


def test_stderr_shrinks_with_sample_size():
    kw = dict(T=1.0, seed=33, n_list=[32], reference="exact")
    small = cv.strong_error_curves([EULER], GBM, n_samples=400, **kw)[0]
    large = cv.strong_error_curves([EULER], GBM, n_samples=1600, **kw)[0]
    ratio = small.stderrs[0] / large.stderrs[0]
    assert 1.6 < ratio < 2.4


def test_strong_errors_decrease_with_information():
    rep = cv.strong_error_curves(
        [_truncated_euler()],
        _cir_sc1(),
        T=5.0,
        seed=41,
        n_list=[2**k for k in range(4, 9)],
        n_samples=500,
        ref_config=schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler"),
        ref_n=2**11,
    )[0]
    assert rep.valid and all(c == 0 for c in rep.overflow_counts)
    assert all(math.isfinite(e) and e > 0 for e in rep.errors)
    for i in range(len(rep.errors) - 1):
        band = 2.33 * (rep.stderrs[i] + rep.stderrs[i + 1])
        assert rep.errors[i + 1] <= rep.errors[i] + band
    assert 0.4 < rep.regression.slope < 1.05


def test_overflow_policy_exclude_vs_propagate():
    preset = models.get_preset("three-halves-mc")
    model = models.build_model(preset.model_id, preset.params)
    tamed = schemes.StepperConfig(scheme_id="tamed_euler")
    kw = dict(
        T=preset.T,
        seed=777,
        n_list=[64],
        n_samples=2000,
        ref_config=tamed,
        ref_n=256,
    )
    keep = cv.strong_error_curves([EULER], model, policy="exclude", **kw)[0]
    prop = cv.strong_error_curves([EULER], model, policy="propagate", **kw)[0]
    # the same increments, simulated here: the overflowed paths and the
    # root-mean-square node deviation of the others
    incr = next(bw.increment_chunks(777, range(2000), 1, 256, preset.T / 256, 256))
    ref = schemes.simulate_batch(tamed, model, preset.T / 256, incr, record_every=4)
    euler = schemes.simulate_batch(
        EULER, model, preset.T / 64, bw.aggregate_to(incr, 64), record_every=1
    )
    bad = euler.overflow | ref.overflow
    dev = np.abs(euler.recorded[0][:, ~bad] - ref.recorded[0][:, ~bad]).max(axis=0)
    assert bad.any() and not ref.overflow.any()
    assert keep.overflow_counts == prop.overflow_counts == (int(bad.sum()),)
    assert math.isfinite(keep.errors[0])
    assert math.isclose(keep.errors[0], math.sqrt(np.mean(dev**2)), rel_tol=1e-12)
    assert prop.errors == (math.inf,)
    assert prop.regression is None
    assert keep.valid and prop.valid  # the reference itself never overflowed


def test_reference_overflow_invalidates_report():
    preset = models.get_preset("three-halves-mc")
    model = models.build_model(preset.model_id, preset.params)
    rep = cv.strong_error_curves(
        [schemes.StepperConfig(scheme_id="tamed_euler")],
        model,
        T=preset.T,
        seed=1,
        n_list=[16],
        n_samples=500,
        ref_config=EULER,
        ref_n=16,
    )[0]
    assert not rep.valid
    assert rep.errors == (math.inf,)
    assert rep.regression is None
    assert rep.overflow_counts[0] > 0


def test_overflow_in_scheme_and_reference_counts_the_path_once():
    # some of these 3/2-model paths overflow in both the Euler scheme and its
    # reference; each overflowed path counts once
    preset = models.get_preset("three-halves-mc")
    model = models.build_model(preset.model_id, preset.params)
    (rep,) = cv.strong_error_curves(
        [EULER], model, T=preset.T, seed=1865, n_list=[16], n_samples=2000, p=1,
        ref_n=64,
    )
    incr = next(bw.increment_chunks(1865, range(2000), 1, 64, preset.T / 64, 64))
    ref = schemes.simulate_batch(EULER, model, preset.T / 64, incr)
    euler = schemes.simulate_batch(EULER, model, preset.T / 16, bw.aggregate_to(incr, 16))
    assert (euler.overflow & ref.overflow).any()
    assert rep.overflow_counts == (int((euler.overflow | ref.overflow).sum()),)
    assert rep.errors == (math.inf,) and not rep.valid


def test_error_curves_hold_one_time_chunk_not_the_path():
    # cir_converge's shape: 256 paths on a 2^15-step reference.  Holding the
    # (1, 256, 2^15) increment block alone takes 64 MiB; the curves walk
    # time in chunks and keep no path records.
    model = _cir_sc1()
    configs = [schemes.StepperConfig(scheme_id="cir_implicit_sqrt_euler")]
    kw = dict(T=5.0, seed=7, n_list=[2**7, 2**8], p=1)
    cv.strong_error_curves(configs, model, n_samples=2, ref_n=2**9, **kw)  # loads modules
    tracemalloc.start()
    try:
        reps = cv.strong_error_curves(configs, model, n_samples=256, ref_n=2**15, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.valid and r.regression is not None for r in reps)
    assert peak < 16 * 2**20


def test_error_curve_walk_builds_each_stepper_once(monkeypatch):
    # one batch of 4 paths in 4 time chunks of 128 reference steps: the
    # reference and each (scheme, grid) pair build their stepper in the
    # first chunk and carry it through the other three
    builds, calls = [], []
    make, simulate = schemes.make_stepper, cv.simulate_batch

    def counting_make(config, model):
        builds.append(config.scheme_id)
        return make(config, model)

    def counting_simulate(*args, **kwargs):
        calls.append(args[0].scheme_id)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(schemes, "make_stepper", counting_make)
    monkeypatch.setattr(cv, "simulate_batch", counting_simulate)
    configs = [_truncated_euler(), schemes.ALIASES["dimp_milstein"]]
    cv.strong_error_curves(
        configs, _cir_sc1(), T=1.0, seed=3, n_list=[4, 8], n_samples=4, ref_n=512
    )
    pairs = len(configs) * 2
    assert len(calls) == 4 * (pairs + 1)
    assert len(builds) == pairs + 1


# ---------------------------------------------------------------------------
# input validation


def test_resolution_list_must_divide_reference_dyadically():
    for n_list, ref_n in ([48], 256), ([512], 256), ([64], 192):
        with pytest.raises(MeasurementError, match="dyadically"):
            cv.strong_error_curves(
                [EULER], GBM, T=1.0, seed=1, n_list=n_list, n_samples=2, ref_n=ref_n
            )
    with pytest.raises(MeasurementError):
        cv.strong_error_curves([EULER], GBM, T=1.0, seed=1, n_list=[], n_samples=2)


def test_reference_and_policy_guards():
    with pytest.raises(MeasurementError, match="gbm"):
        cv.strong_error_curves(
            [_truncated_euler()],
            _cir_sc1(),
            T=5.0,
            seed=1,
            n_list=[8],
            n_samples=2,
            reference="exact",
        )
    with pytest.raises(MeasurementError, match="policy"):
        cv.strong_error_curves(
            [EULER], GBM, T=1.0, seed=1, n_list=[8], n_samples=2, policy="drop"
        )
    with pytest.raises(MeasurementError, match="reference"):
        cv.strong_error_curves(
            [EULER], GBM, T=1.0, seed=1, n_list=[8], n_samples=1,
            reference="closed_form",
        )


# ---------------------------------------------------------------------------
# negativity statistics


def test_negativity_counts_truncated_euler():
    st_ = cv.negativity_stats(
        _truncated_euler(), _cir_sc1(), T=5.0, seed=51, n=512, n_samples=2000
    )
    assert 0.80 < st_.avg_negative_steps < 1.05
    assert 0.45 < st_.negative_path_fraction < 0.55


def test_negativity_symmetrized_scheme_is_exactly_zero():
    st_ = cv.negativity_stats(
        schemes.StepperConfig(scheme_id="reflected_euler", projection="abs"),
        _cir_sc1(),
        T=5.0,
        seed=51,
        n=512,
        n_samples=2000,
    )
    assert st_.avg_negative_steps == 0.0
    assert st_.negative_path_fraction == 0.0


def test_negativity_requires_scalar_noise():
    heston = models.build_model(
        "heston_log",
        models.HestonParams(
            mu=0.0319,
            kappa=5.07,
            lam=0.0457,
            theta=0.48,
            rho=-0.7,
            s0=100.0,
            v0=0.05,
            r=0.0319,
        ),
    )
    with pytest.raises(MeasurementError, match="scalar"):
        cv.negativity_stats(
            schemes.StepperConfig(scheme_id="log_heston_composite"),
            heston,
            T=1.0,
            seed=1,
            n=16,
            n_samples=4,
        )
