"""Brownian kernel: determinism, increment blocks, dyadic coupling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sdelab import brownian as bw


def test_derive_stream_is_pure():
    key = bw.StreamKey(seed=123, sample_index=7, substream=1)
    a = bw.derive_stream(key).standard_normal(100)
    b = bw.derive_stream(key).standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_sample_index_streams_decorrelated():
    k0 = bw.StreamKey(seed=5, sample_index=0, substream=0)
    k1 = bw.StreamKey(seed=5, sample_index=1, substream=0)
    x = bw.derive_stream(k0).standard_normal(10_000)
    y = bw.derive_stream(k1).standard_normal(10_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


def test_substreams_distinct():
    k0 = bw.StreamKey(seed=5, sample_index=0, substream=0)
    k1 = bw.StreamKey(seed=5, sample_index=0, substream=1)
    assert not np.array_equal(
        bw.derive_stream(k0).standard_normal(8),
        bw.derive_stream(k1).standard_normal(8),
    )


def test_batch_rows_equal_single_streams():
    idx = [0, 3, 17, 2**40]
    batch = bw.batch_standard_normals(99, idx, substream=2, count=37)
    assert batch.shape == (4, 37)
    for row, i in zip(batch, idx):
        key = bw.StreamKey(seed=99, sample_index=i, substream=2)
        np.testing.assert_array_equal(row, bw.derive_stream(key).standard_normal(37))


def test_increment_block_rows_are_scaled_substreams(monkeypatch):
    idx = np.array([4, 9, 2**50])
    block = bw.increment_block(99, idx, substream=3, m=2, n=5, dt=0.25)
    assert block.shape == (2, 3, 5)
    for j in range(2):
        want = bw.batch_standard_normals(99, idx, 3 + j, 5) * math.sqrt(0.25)
        np.testing.assert_array_equal(block[j], want)
    # batches cover the index range in order and do not change the values
    monkeypatch.setattr(bw, "_BATCH_FLOATS", 30)  # 3 paths of 2 x 5 per batch
    parts = list(bw.increment_batches(7, 8, 2, 5, 0.5, index_offset=10))
    assert [len(i) for i, _ in parts] == [3, 3, 2]
    idx = np.concatenate([i for i, _ in parts])
    np.testing.assert_array_equal(idx, np.arange(10, 18))
    np.testing.assert_array_equal(
        np.concatenate([b for _, b in parts], axis=1),
        bw.increment_block(7, idx, 0, 2, 5, 0.5),
    )


def test_stream_key_validation():
    with pytest.raises(ValueError):
        bw.StreamKey(seed=-1, sample_index=0, substream=0)
    with pytest.raises(ValueError):
        bw.StreamKey(seed=0, sample_index=-2, substream=0)


def test_lattice_rejects_non_power_of_two():
    key = bw.StreamKey(1, 0, 0)
    with pytest.raises(bw.LatticeError):
        bw.sample_lattice(key, T=1.0, m=1, finest_n=12)


def test_single_increment_variance():
    # T=4, one step: increments over many lattices should have variance ~4
    draws = bw.batch_standard_normals(7, range(100_000), 0, 1) * math.sqrt(4.0)
    var = draws.var()
    assert abs(var - 4.0) < 0.2  # 5%


def test_increment_mean_clt_bound():
    lat = bw.sample_lattice(bw.StreamKey(11, 0, 0), T=1.0, m=1, finest_n=2**20)
    sigma = math.sqrt(1.0 / 2**20)
    assert abs(lat.increments.mean()) < 4 * sigma / math.sqrt(2**20)


def test_dimensions_uncorrelated():
    lat = bw.sample_lattice(bw.StreamKey(13, 4, 0), T=1.0, m=2, finest_n=2**14)
    rho = np.corrcoef(lat.increments[0], lat.increments[1])[0, 1]
    assert abs(rho) < 0.05


def test_increments_at_identity_and_sums():
    lat = bw.sample_lattice(bw.StreamKey(3, 1, 0), T=2.0, m=1, finest_n=4)
    np.testing.assert_array_equal(bw.increments_at(lat, 4), lat.increments)
    coarse = bw.increments_at(lat, 2)
    np.testing.assert_array_equal(
        coarse, lat.increments[:, ::2] + lat.increments[:, 1::2]
    )
    # same W_T at every resolution: the pairwise tower makes the total sum
    # bit-identical no matter which level it is taken from
    w_T = bw.increments_at(lat, 1)
    for n in (2, 4):
        np.testing.assert_array_equal(bw.aggregate_to(bw.increments_at(lat, n), 1), w_T)
    with pytest.raises(bw.LatticeError):
        bw.increments_at(lat, 3)
    for n in (4, 5, 24):  # 12/4 = 3 is not a power of two
        with pytest.raises(bw.LatticeError):
            bw.aggregate_to(np.zeros((1, 12)), n)


@given(
    log_n=st.integers(min_value=0, max_value=8),
    log_k=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    base=st.sampled_from([1, 3, 5]),
)
@example(log_n=0, log_k=2, seed=0, base=3)  # 12 -> 3 is two halvings
def test_aggregation_tower_is_exact(log_n, log_k, seed, base):
    # aggregating in one hop or through any intermediate resolution is
    # bit-identical: coarse sums are pair-sums of pair-sums by construction;
    # only the ratio of the resolutions has to be a power of two
    n_fine = base * 2 ** (log_n + log_k)
    arr = np.random.default_rng(seed).standard_normal((2, n_fine))
    direct = bw.aggregate_to(arr, base * 2**log_n)
    staged = arr
    for _ in range(log_k):
        staged = bw.halve_pairs(staged)
    np.testing.assert_array_equal(direct, staged)


def test_brownian_path_endpoint_shared_across_resolutions():
    lat = bw.sample_lattice(bw.StreamKey(17, 2, 0), T=3.0, m=1, finest_n=64)
    # block sums agree bit-for-bit at every resolution
    w_T = bw.increments_at(lat, 1)[0, 0]
    for n in (1, 4, 16, 64):
        assert bw.aggregate_to(bw.increments_at(lat, n), 1)[0, 0] == w_T


def test_normalized_increments_pass_ks():
    lat = bw.sample_lattice(bw.StreamKey(41, 0, 0), T=2.0, m=1, finest_n=2**14)
    z = np.sort(lat.increments[0][:10_000] / math.sqrt(2.0 / 2**14))
    n = len(z)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    grid = np.arange(1, n + 1) / n
    d_stat = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
    crit = math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(n)
    assert d_stat < crit
