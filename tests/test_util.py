import math

import numpy as np

from sdelab.util import sample_moments


def test_sample_moments_of_no_values_is_infinite():
    assert sample_moments(np.array([])) == (math.inf, math.inf)


def test_sample_moments_of_one_value_has_zero_variance():
    assert sample_moments(np.array([3.25])) == (3.25, 0.0)


def test_sample_moments_of_a_non_finite_value_is_infinite():
    assert sample_moments(np.array([1.0, math.inf, 2.0])) == (math.inf, math.inf)
    assert sample_moments(np.array([1.0, math.nan])) == (math.inf, math.inf)


def test_sample_moments_of_constant_values_has_exactly_zero_variance():
    # 0.1 summed 7 times is not 0.7 in floating point, so the mean is off by
    # an ulp and deviations from it are not zero; the variance still is
    for value in (2.0, 0.1, 1e8 + 0.1, -3.7):
        mean, var = sample_moments(np.full(7, value))
        assert var == 0.0
        assert math.isclose(mean, value, rel_tol=1e-15)


def test_sample_moments_variance_does_not_cancel_at_large_offset():
    x = 1e8 + np.random.default_rng(4).standard_normal(10**4)
    # the one-pass E[x^2] - E[x]^2 loses every digit here
    one_pass = max((x * x).mean() - x.mean() ** 2, 0.0) * len(x) / (len(x) - 1)
    assert abs(one_pass - 1.0) > 0.5
    mean, var = sample_moments(x)
    assert abs(mean - 1e8) < 0.05
    assert abs(var - 1.0) < 0.05
    assert var == float(x.var(ddof=1))
