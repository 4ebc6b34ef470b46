"""Brownian kernel: determinism, increment blocks, dyadic coupling."""

import math
import os
import threading
import time
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
    # across a block edge, and up to the last index
    for idx in (range(60, 70), range(2**56 - 5, 2**56)):
        batch = bw.batch_standard_normals(2**64 - 1, idx, substream=255, count=37)
        assert batch.shape == (len(idx), 37)
        for row, i in zip(batch, idx):
            np.testing.assert_array_equal(row, _block_normals(2**64 - 1, i, 255, 37))
        # 300 steps span three of the draw's 128-step chunks
        batch = bw.batch_standard_normals(99, np.array(idx), substream=2, count=300)
        for row, i in zip(batch, idx):
            np.testing.assert_array_equal(row, _block_normals(99, i, 2, 300))


@settings(derandomize=True, max_examples=60)
@given(
    offset=st.integers(min_value=0, max_value=2**40),
    length=st.integers(min_value=1, max_value=300),
    counts=st.tuples(st.integers(1, 300), st.integers(1, 300)),
)
# rmsq_study's replication r starts at r*span; span = 10080 at eps = 2^-5 is
# 32 mod 64, so the end of one replication and the start of the next, drawn
# at different counts, share a block
@example(offset=10048, length=64, counts=(64, 1))
def test_rows_are_prefixes_of_one_aligned_draw(offset, length, counts):
    # any range of indices, at any count, reads the rows of one large
    # block-aligned draw, cut to that count
    lo = offset // 64 * 64
    full = bw.batch_standard_normals(11, range(lo, lo + 448), 4, max(counts))
    for count in counts:
        got = bw.batch_standard_normals(11, range(offset, offset + length), 4, count)
        np.testing.assert_array_equal(got, full[offset - lo : offset - lo + length, :count])


@pytest.mark.parametrize("idx", [
    [5, 4], np.arange(9, -1, -1), [3, 3], [7, 7, 8], [0, 2], range(0, 10, 2),
    np.arange(64 * 3)[::-1], np.arange(6).reshape(2, 3), [[0, 1]], np.array([0.0, 1.0]),
])
def test_index_sets_other_than_one_ascending_range_are_rejected(idx):
    # descending, duplicated, gapped, 2-D and non-integer index sets
    with pytest.raises(bw.LatticeError, match="consecutive and ascending"):
        bw.batch_standard_normals(1, idx, 0, 4)
    with pytest.raises(bw.LatticeError, match="consecutive and ascending"):
        next(bw.increment_chunks(1, idx, 2, 4, 0.25, 4))


def _block(seed, sample_indices, m, n, dt):
    """The whole (m, b, n) increment block, drawn as one chunk."""
    return next(bw.increment_chunks(seed, sample_indices, m, n, dt, n))


def test_increment_block_rows_are_scaled_substreams(monkeypatch):
    idx = np.arange(2**50 - 2, 2**50 + 1)  # across a block edge
    block = _block(99, idx, m=2, n=5, dt=0.25)
    assert block.shape == (2, 3, 5)
    for j in range(2):
        want = bw.batch_standard_normals(99, idx, j, 5) * math.sqrt(0.25)
        np.testing.assert_array_equal(block[j], want)
    # batches cover the index range in order and do not change the values,
    # whole or cut into chunks; a batch holds one chunk of each path
    monkeypatch.setattr(bw, "_BATCH_FLOATS", 30)  # 3 paths of 2 x 5 per batch
    monkeypatch.setattr(bw, "_CHUNK", 1)
    want = _block(7, np.arange(10, 18), 2, 5, 0.5)
    for granule, widths in [(5, [3, 3, 2]), (2, [7, 1]), (1, [8])]:
        parts = [
            (i, np.concatenate([c.copy() for c in chunks], axis=-1))
            for i, chunks in bw.increment_batches(7, 8, 2, 5, 0.5, 10, granule=granule)
        ]
        assert [len(i) for i, _ in parts] == widths
        np.testing.assert_array_equal(np.concatenate([i for i, _ in parts]), np.arange(10, 18))
        np.testing.assert_array_equal(np.concatenate([b for _, b in parts], axis=1), want)
    # chunks are rounded up to whole draws; one chunk over the budget is an error
    monkeypatch.setattr(bw, "_CHUNK", 4)
    _, chunks = next(bw.increment_batches(7, 1, 1, 40, 0.5, granule=3))
    assert [c.shape[-1] for c in chunks] == [12, 12, 12, 4]
    with pytest.raises(bw.LatticeError, match="one path needs 16 steps x 2 noise"):
        next(bw.increment_batches(7, 8, 2, 40, 0.5, granule=16))


def test_increment_chunks_concatenate_to_the_block(monkeypatch):
    # over indices that span three blocks from an unaligned start, with two
    # noise dimensions and more steps than one 128-step draw; then, with
    # one-step draws, at every granule and so every chunk length: the rows
    # continue across chunks, whatever their length
    idx = 37 + np.arange(100)
    n, dt = 300, 0.5
    want = np.stack([
        [_block_normals(3, i, j, n) * math.sqrt(dt) for i in idx] for j in range(2)
    ])
    np.testing.assert_array_equal(_block(3, idx, 2, n, dt), want)
    monkeypatch.setattr(bw, "_CHUNK", 1)
    for granule in range(1, n + 1):
        parts = [c.copy() for c in bw.increment_chunks(3, idx, 2, n, dt, granule)]
        assert [p.shape[-1] for p in parts[:-1]] == [granule] * (len(parts) - 1)
        np.testing.assert_array_equal(np.concatenate(parts, axis=-1), want)


def test_increment_block_draws_in_place_in_small_chunks():
    # the normals go straight into the (m, b, n) result, at most 64 KiB at a
    # time: no (b, n) temporary, and none past glibc's 128 KiB mmap threshold
    dt = 1.0 / 2**15
    _block(5, range(256), 1, 4, dt)  # first call loads modules
    tracemalloc.start()
    try:
        out = _block(5, range(256), 1, 2**15, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024


def _parts(monkeypatch):
    """Record the number of runs each part of a walk holds (None for a
    one-chunk walk's parts, which rekey as they go), and whether the calling
    thread drew it, as (runs, on_caller) pairs."""
    parts, draw = [], bw._draw_part

    def recorded(part, *args):
        runs = len(part) if isinstance(part, list) else None
        parts.append((runs, threading.current_thread() is threading.main_thread()))
        return draw(part, *args)

    monkeypatch.setattr(bw, "_draw_part", recorded)
    return parts


def _walk(idx, n, granule, m=2):
    """The walk of ``idx`` over ``n`` steps at ``granule``."""
    return bw.increment_chunks(17, idx, m, n, 0.25, granule)


# index ranges of at least 16 blocks: 32 whole blocks; 25 blocks, which 2
# or 3 workers split unevenly; and 20 blocks, the first and last partial
WIDE_SETS = {
    "contiguous": np.arange(64 * 32),
    "odd": np.arange(10, 64 * 25),
    "mid-block": np.arange(64 * 3 + 17, 64 * 22 + 40),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", list(WIDE_SETS))
def test_draws_do_not_depend_on_the_worker_count(monkeypatch, workers, name):
    # a wide walk of two noise dimensions over 512 steps equals the serial
    # block draws, whether it draws a chunk ahead (granules 1, 2, 3 and 32
    # cut 128-step or 384-step chunks to 32 or 96 steps) or in whole chunks
    # (128 and 256)
    idx, n = WIDE_SETS[name], 512
    want = np.stack([bw.batch_standard_normals(17, idx, j, n) * 0.5 for j in range(2)])
    monkeypatch.setattr(bw, "_WORKERS", workers)
    parts = _parts(monkeypatch)
    blocks = len(np.unique(idx // 64))
    split = min(workers, blocks // 8)
    for granule, ahead, whole in [
        (1, 32, 128), (2, 32, 128), (3, 96, 384), (32, 32, 128), (128, 128, 128),
        (256, 256, 256),
    ]:
        parts.clear()
        chunks = [c.copy() for c in _walk(idx, n, granule)]
        np.testing.assert_array_equal(np.concatenate(chunks, axis=-1), want)
        length = ahead
        if split < 2:  # one part per chunk and noise dimension, on the caller
            assert parts == [(blocks, True)] * 2 * len(chunks)
            length = whole
        else:  # each chunk of each noise dimension in `split` parts
            sizes = [blocks * (p + 1) // split - blocks * p // split for p in range(split)]
            assert sorted(k for k, _ in parts) == sorted(sizes * 2 * len(chunks))
        assert [c.shape[-1] for c in chunks[:-1]] == [length] * (len(chunks) - 1)


def test_narrow_draws_never_start_the_pool(monkeypatch):
    def no_pool():
        raise AssertionError("a narrow draw started the pool")

    monkeypatch.setattr(bw, "_WORKERS", 3)
    monkeypatch.setattr(bw, "_pool", no_pool)
    # cir_converge's walk: 4 blocks in chunks of one 256-step coarsest step
    for _, chunks in bw.increment_batches(1, 256, 1, 2**12, 2.0**-12, granule=256):
        assert [c.shape[-1] for c in chunks] == [256] * 16
    # an mlmc level: one chunk of 64 steps, short of a whole draw
    for _, chunks in bw.increment_batches(1, 64 * 32, 2, 64, 2.0**-6, granule=2):
        assert [c.shape[-1] for c in chunks] == [64]
    # a draw outside a walk runs on the caller, however wide
    bw.batch_standard_normals(1, range(64 * 32), 0, 256)


def _plans(monkeypatch):
    """Count ``_runs`` calls and Philox generators built, as a dict."""
    made = {"runs": 0, "philox": 0}
    runs, philox = bw._runs, np.random.Philox

    def counted_runs(idx):
        made["runs"] += 1
        return runs(idx)

    def counted_philox(*args, **kwargs):
        made["philox"] += 1
        return philox(*args, **kwargs)

    monkeypatch.setattr(bw, "_runs", counted_runs)
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    return made


def test_a_walk_of_several_chunks_keys_each_block_once(monkeypatch):
    # cir_converge's shape: 256 paths in 4 blocks over 2^12 steps at
    # granule 256 plans once and keys one generator per block, which its 16
    # chunks continue
    monkeypatch.setattr(bw, "_WORKERS", 2)
    made = _plans(monkeypatch)
    ((idx, chunks),) = bw.increment_batches(1, 256, 1, 2**12, 2.0**-12, granule=256)
    got = np.concatenate([c.copy() for c in chunks], axis=-1)
    assert made == {"runs": 1, "philox": 4}
    want = bw.batch_standard_normals(1, idx, 0, 2**12) * 2.0**-6
    np.testing.assert_array_equal(got[0], want)


def test_a_walk_of_one_chunk_rekeys_one_generator_per_part(monkeypatch):
    # a one-chunk mlmc level: 2,048 paths over 64 steps at granule 2 with
    # two noise dimensions plans once and builds one generator for each of
    # its two parts, one per noise dimension, each drawn on the caller
    monkeypatch.setattr(bw, "_WORKERS", 2)
    parts = _parts(monkeypatch)
    made = _plans(monkeypatch)
    ((idx, chunks),) = bw.increment_batches(1, 64 * 32, 2, 64, 2.0**-6, granule=2)
    (chunk,) = [c.copy() for c in chunks]
    assert made == {"runs": 1, "philox": 2}
    assert parts == [(None, True)] * 2
    for j in range(2):
        want = bw.batch_standard_normals(1, idx, j, 64) * 2.0**-3
        np.testing.assert_array_equal(chunk[j], want)


def _slow_pool(monkeypatch, failing=None):
    """Replace a wide walk's part draw: a part on the pool sets ``started``
    and sleeps 0.2 s, one on the caller first waits for ``started``.  The
    part of the ``failing`` side ("caller" or "pool") then raises; any other
    draws and appends whether it ran on the caller to the returned list."""
    started, finished, draw = threading.Event(), [], bw._draw_part

    def part(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller:
            assert started.wait(10)
        else:
            started.set()
            time.sleep(0.2)
        if failing == ("caller" if on_caller else "pool"):
            raise RuntimeError("part failed")
        draw(*args)
        finished.append(on_caller)

    monkeypatch.setattr(bw, "_WORKERS", 2)
    monkeypatch.setattr(bw, "_draw_part", part)
    return finished


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_a_failing_part_raises_after_every_part_is_written(monkeypatch, failing):
    # one chunk of 16 blocks in two parts: the caller takes the second, the
    # pool the first; whichever fails, the error comes once both are done
    finished = _slow_pool(monkeypatch, failing)
    with pytest.raises(RuntimeError, match="part failed"):
        next(_walk(np.arange(64 * 16), 128, 128, m=1))
    assert finished == [failing == "pool"]


def test_closing_a_walk_waits_for_its_running_parts(monkeypatch):
    # after the first chunk the pool draws the second; closing the walk then
    # waits for the part already running and drops the one still queued
    writes = []
    finished = _slow_pool(monkeypatch)
    draw = bw._draw_part

    def part(part_runs, count, scale, out):
        writes.append(out)
        draw(part_runs, count, scale, out)

    monkeypatch.setattr(bw, "_draw_part", part)
    walk = _walk(np.arange(64 * 16), 256, 1, m=1)
    first = next(walk)
    for _ in range(1000):  # the pool has started on the second chunk
        if any(w.base is not first.base for w in writes):
            break
        time.sleep(0.01)
    ahead = [w for w in writes if w.base is not first.base]
    assert len(ahead) == 1
    running = len(finished)
    walk.close()
    assert len(finished) == running + 1  # the running part ended first
    snapshot = ahead[0].base.copy()
    time.sleep(0.3)
    assert len(writes) == 3 and len(finished) == running + 1
    np.testing.assert_array_equal(ahead[0].base, snapshot)


def test_a_walk_that_draws_ahead_holds_two_quarter_chunks(monkeypatch):
    # 10,000 paths over 4,096 steps at granule 2: two 32-step buffers, where
    # a walk on one CPU holds one of 128 steps.  The walk plans and allocates
    # on its first chunk; the batch's index array is the caller's
    monkeypatch.setattr(bw, "_WORKERS", 2)
    list(_walk(np.arange(64 * 16), 256, 2, m=1))  # loads modules, starts the pool
    ((idx, chunks),) = bw.increment_batches(3, 10_000, 1, 4096, 2.0**-12, granule=2)
    tracemalloc.start()
    try:
        for c in chunks:
            assert c.shape == (1, 10_000, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 32 * 10_000 * 8 + 256 * 1024


def test_workers_are_the_cpus_the_process_may_run_on():
    assert bw._WORKERS == len(os.sched_getaffinity(0))


def test_stream_key_validation():
    for seed, idx, sub in [
        (-1, [0], 0), (2**64, [0], 0), (0, [-2, -1], 0), (0, [2**56], 0), (0, [0], 256),
    ]:
        with pytest.raises(bw.LatticeError):
            bw.batch_standard_normals(seed, idx, sub, 4)
    with pytest.raises(bw.LatticeError, match="substream"):  # row 256 is substream 256
        _block(0, [0], m=257, n=4, dt=1.0)


def test_lattice_rejects_non_power_of_two():
    with pytest.raises(bw.LatticeError):
        bw.sample_lattice(1, 0, T=1.0, m=1, finest_n=12)
    with pytest.raises(bw.LatticeError):
        bw.sample_lattice(1, 0, T=1.0, m=0, finest_n=4)


def test_sample_lattice_is_the_increment_block_row():
    lat = bw.sample_lattice(13, 4, T=3.0, m=2, finest_n=16)
    block = _block(13, range(2, 10), 2, 16, 3.0 / 16)
    np.testing.assert_array_equal(lat, block[:, 2])


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
    for _ in range(log_k):  # one halving at a time
        staged = bw.aggregate_to(staged, staged.shape[-1] // 2)
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
