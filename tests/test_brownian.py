"""Brownian kernel: determinism, increment blocks, dyadic coupling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdelab import brownian as bw


def _block_normals(seed, index, substream, count):
    """The stream contract: sample i reads column i % 64 of the Philox stream
    keyed by [seed, (i // 64) << 8 | substream], laid out (count, 64)."""
    key = np.array([seed, (index // 64) << 8 | substream], dtype=np.uint64)
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(64 * count)
    return z.reshape(count, 64)[:, index % 64]


def test_sample_index_streams_decorrelated():
    x, y = bw.batch_standard_normals(5, [0, 1], 0, 10_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


def test_substreams_distinct():
    assert not np.array_equal(
        bw.batch_standard_normals(5, [0], 0, 8), bw.batch_standard_normals(5, [0], 1, 8)
    )


def test_batch_rows_equal_single_streams():
    idx = [0, 3, 17, 63, 64, 2**40, 2**56 - 1, 3]
    batch = bw.batch_standard_normals(2**64 - 1, idx, substream=255, count=37)
    assert batch.shape == (8, 37)
    for row, i in zip(batch, idx):
        np.testing.assert_array_equal(row, _block_normals(2**64 - 1, i, 255, 37))
    # 300 steps span three of the draw's 128-step chunks
    batch = bw.batch_standard_normals(99, np.array(idx), substream=2, count=300)
    for row, i in zip(batch, idx):
        np.testing.assert_array_equal(row, _block_normals(99, i, 2, 300))


@settings(derandomize=True, max_examples=60)
@given(
    offset=st.integers(min_value=64, max_value=2**40),
    picks=st.lists(st.integers(min_value=-64, max_value=255), min_size=1, max_size=40),
    counts=st.tuples(st.integers(1, 300), st.integers(1, 300)),
)
# rmsq_study's replication r starts at r*span; span = 10080 at eps = 2^-5 is
# 32 mod 64, so the end of one replication and the start of the next, drawn
# at different counts, share a block
@example(offset=10080, picks=list(range(-32, 32)), counts=(64, 1))
def test_rows_are_prefixes_of_one_aligned_draw(offset, picks, counts):
    # any subset, order or offset of indices, at any count, reads the rows of
    # one large block-aligned draw, cut to that count
    idx = offset + np.array(picks)
    lo = (offset - 64) // 64 * 64
    full = bw.batch_standard_normals(11, np.arange(lo, lo + 448), 4, max(counts))
    for count in counts:
        got = bw.batch_standard_normals(11, idx, 4, count)
        np.testing.assert_array_equal(got, full[idx - lo, :count])


def test_increment_block_rows_are_scaled_substreams(monkeypatch):
    idx = np.array([4, 9, 2**50])
    block = bw.increment_block(99, idx, substream=3, m=2, n=5, dt=0.25)
    assert block.shape == (2, 3, 5)
    for j in range(2):
        want = bw.batch_standard_normals(99, idx, 3 + j, 5) * math.sqrt(0.25)
        np.testing.assert_array_equal(block[j], want)
    # batches cover the index range in order and do not change the values,
    # whole or cut into chunks; a batch holds one chunk of each path
    monkeypatch.setattr(bw, "_BATCH_FLOATS", 30)  # 3 paths of 2 x 5 per batch
    monkeypatch.setattr(bw, "_CHUNK", 1)
    want = bw.increment_block(7, np.arange(10, 18), 0, 2, 5, 0.5)
    for chunk, widths in [(None, [3, 3, 2]), (5, [3, 3, 2]), (2, [7, 1]), (1, [8])]:
        parts = [
            (i, np.concatenate([c.copy() for c in chunks], axis=-1))
            for i, chunks in bw.increment_batches(7, 8, 2, 5, 0.5, 10, chunk)
        ]
        assert [len(i) for i, _ in parts] == widths
        np.testing.assert_array_equal(np.concatenate([i for i, _ in parts]), np.arange(10, 18))
        np.testing.assert_array_equal(np.concatenate([b for _, b in parts], axis=1), want)
    # chunks are rounded up to whole draws; one chunk over the budget is an error
    monkeypatch.setattr(bw, "_CHUNK", 4)
    _, chunks = next(bw.increment_batches(7, 1, 1, 40, 0.5, chunk=3))
    assert [c.shape[-1] for c in chunks] == [12, 12, 12, 4]
    with pytest.raises(bw.LatticeError, match="one path needs 16 steps x 2 noise"):
        next(bw.increment_batches(7, 8, 2, 40, 0.5, chunk=16))


def test_increment_chunks_concatenate_to_the_block():
    # every chunk length, over indices that span three blocks from an
    # unaligned start, with two noise dimensions and more steps than one
    # 128-step draw: the rows continue across chunks, whatever their length
    idx = 37 + np.arange(100)
    n, dt = 300, 0.5
    want = np.stack([
        [_block_normals(3, i, j, n) * math.sqrt(dt) for i in idx] for j in range(2)
    ])
    np.testing.assert_array_equal(bw.increment_block(3, idx, 0, 2, n, dt), want)
    for chunk in range(1, n + 1):
        parts = [c.copy() for c in bw.increment_chunks(3, idx, 2, n, dt, chunk)]
        assert [p.shape[-1] for p in parts[:-1]] == [chunk] * (len(parts) - 1)
        np.testing.assert_array_equal(np.concatenate(parts, axis=-1), want)


def test_increment_block_draws_in_place_in_small_chunks():
    # the normals go straight into the (m, b, n) result, at most 64 KiB at a
    # time: no (b, n) temporary, and none past glibc's 128 KiB mmap threshold
    dt = 1.0 / 2**15
    bw.increment_block(5, range(256), 0, 1, 4, dt)  # first call loads modules
    tracemalloc.start()
    try:
        out = bw.increment_block(5, range(256), 0, 1, 2**15, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024


def test_stream_key_validation():
    for seed, idx, sub in [
        (-1, [0], 0), (2**64, [0], 0), (0, [0, -2], 0), (0, [2**56], 0), (0, [0], 256),
    ]:
        with pytest.raises(bw.LatticeError):
            bw.batch_standard_normals(seed, idx, sub, 4)
    with pytest.raises(bw.LatticeError, match="substream"):  # row 1 is substream 256
        bw.increment_block(0, [0], substream=255, m=2, n=4, dt=1.0)


def test_lattice_rejects_non_power_of_two():
    with pytest.raises(bw.LatticeError):
        bw.sample_lattice(1, 0, T=1.0, m=1, finest_n=12)
    with pytest.raises(bw.LatticeError):
        bw.sample_lattice(1, 0, T=1.0, m=0, finest_n=4)


def test_sample_lattice_is_the_increment_block_row():
    lat = bw.sample_lattice(13, 4, T=3.0, m=2, finest_n=16)
    block = bw.increment_block(13, [2, 4, 9], 0, 2, 16, 3.0 / 16)
    np.testing.assert_array_equal(lat, block[:, 1])


def test_single_increment_variance():
    # T=4, one step: increments over many lattices should have variance ~4
    draws = bw.batch_standard_normals(7, range(100_000), 0, 1) * math.sqrt(4.0)
    var = draws.var()
    assert abs(var - 4.0) < 0.2  # 5%


def test_increment_mean_clt_bound():
    lat = bw.sample_lattice(11, 0, T=1.0, m=1, finest_n=2**20)
    sigma = math.sqrt(1.0 / 2**20)
    assert abs(lat.mean()) < 4 * sigma / math.sqrt(2**20)


def test_dimensions_uncorrelated():
    lat = bw.sample_lattice(13, 4, T=1.0, m=2, finest_n=2**14)
    rho = np.corrcoef(lat[0], lat[1])[0, 1]
    assert abs(rho) < 0.05


def test_increments_at_identity_and_sums():
    lat = bw.sample_lattice(3, 1, T=2.0, m=1, finest_n=4)
    np.testing.assert_array_equal(bw.increments_at(lat, 4), lat)
    coarse = bw.increments_at(lat, 2)
    np.testing.assert_array_equal(coarse, lat[:, ::2] + lat[:, 1::2])
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
    lat = bw.sample_lattice(17, 2, T=3.0, m=1, finest_n=64)
    # block sums agree bit-for-bit at every resolution
    w_T = bw.increments_at(lat, 1)[0, 0]
    for n in (1, 4, 16, 64):
        assert bw.aggregate_to(bw.increments_at(lat, n), 1)[0, 0] == w_T


def test_normalized_increments_pass_ks():
    lat = bw.sample_lattice(41, 0, T=2.0, m=1, finest_n=2**14)
    z = np.sort(lat[0][:10_000] / math.sqrt(2.0 / 2**14))
    n = len(z)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    grid = np.arange(1, n + 1) / n
    d_stat = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
    crit = math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(n)
    assert d_stat < crit
