"""Reproducible Brownian increments on dyadic grids.

Every random number in the package is drawn by :func:`batch_standard_normals`
from counter-based Philox streams, one keyed by (seed, block, substream) for
each block of 64 sample indices and read time-major: sample i takes
positions i % 64 + 64*t.  A sample's normals are therefore a prefix of one
fixed sequence, whatever the count and whichever samples share the batch.
Streams are pure functions of their key: no global state, no wall-clock
seeding, and the draws are byte-identical across runs, machines with the
same numpy build, and numbers of CPUs: since each block is its own stream,
a wide draw splits its blocks over the CPUs the process may run on, each
part into its own rows, and nothing but those draws leaves the caller's thread.

Increments live on a dyadic lattice at a power-of-two resolution.  Coarser
resolutions are obtained by summing adjacent pairs, one halving at a time, so
that the family ``aggregate_to(incr, n)`` over all divisors ``n`` forms an
exactly consistent tower: aggregating any level reproduces the next one bit
for bit.  This is what makes coupled coarse/fine simulations (multilevel
estimators, reference-solution error curves) well defined.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Iterator, Sequence

import numpy as np

#: Identifier of the uniform-bits -> N(0,1) transform in use.  Recorded in
#: experiment metadata so archived results can be matched to the generator
#: that produced them.
GAUSSIAN_TRANSFORM = "philox4x64-ziggurat-block64"

_MAX_SUBSTREAM = 1 << 8
MAX_SAMPLE_INDEX = 1 << 56
_MAX_SEED = 1 << 64
_BLOCK = 64  # sample indices per Philox stream
#: Floats in one reused work buffer.  64 KiB stays under glibc's initial
#: 128 KiB mmap threshold, since freeing an mmapped temporary raises that
#: threshold and lets later arrays fragment the heap.  Draws and the
#: bookkeeping of ``schemes.simulate_batch`` both size their buffers by it.
BUFFER_FLOATS = 1 << 13
_CHUNK = BUFFER_FLOATS // _BLOCK  # steps per draw

#: Threads a wide draw splits over: the CPUs the process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_PART_BLOCKS = 8  # fewest blocks a thread draws

_BATCH_FLOATS = 1 << 23  # per-batch increment budget, keeps blocks ~64 MB
_WALK_FLOATS = 1 << 32  # work bound, ~13x the largest study's 10^4 x 2^15 steps


class LatticeError(ValueError):
    """Raised for invalid stream keys, lattice requests or aggregations."""


def batch_standard_normals(
    seed: int, sample_indices: Sequence[int], substream: int, count: int,
    out: np.ndarray | None = None, streams: dict | None = None, scale: float = 1.0,
) -> np.ndarray:
    """Draw ``count`` N(0,1) variates for each sample index, one row each.

    Indices are grouped in blocks of ``_BLOCK``: block ``k`` is one Philox
    stream keyed by the words ``[seed, k << 8 | substream]`` (the range
    checks make that packing injective), read time-major, so sample ``i``
    takes positions ``i % _BLOCK + _BLOCK * t``.  Each row is thus a prefix
    of a fixed sequence, whatever the count and the other indices drawn with
    it.  Blocks are drawn whole, ``_CHUNK`` steps at a time, and sliced.
    ``out`` receives the (len(sample_indices), count) result when given.
    ``streams``, a dict kept by the caller for one seed and substream, holds
    each block's generator state between calls, so that each call continues
    the rows where the previous call with that dict stopped.  Every normal is
    written times ``scale``.  A call of whole draws with at least
    ``_PART_BLOCKS`` blocks per CPU splits its blocks over the CPUs, and
    returns once every part is written, also when one raises.
    """
    seed, substream = int(seed), int(substream)
    idx = np.asarray(sample_indices)
    if not 0 <= seed < _MAX_SEED:
        raise LatticeError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if idx.size and not 0 <= idx.min() <= idx.max() < MAX_SAMPLE_INDEX:
        bad = idx.min() if idx.min() < 0 else idx.max()
        raise LatticeError(f"sample_index must lie in [0, 2**56), got {bad}")
    if not 0 <= substream < _MAX_SUBSTREAM:
        raise LatticeError(f"substream must lie in [0, 256), got {substream}")
    idx = idx.astype(np.int64)
    if out is None:
        out = np.empty((len(idx), count))
    # the runs of one block in sorted order, found once; a run whose rows and
    # columns both step by one is written as a slice, any other by index
    order = np.argsort(idx, kind="stable")
    block, col = np.divmod(idx[order], _BLOCK)
    starts = np.flatnonzero(np.diff(block, prepend=-1))
    ends = np.append(starts[1:], len(idx))
    jumps = np.cumsum((np.diff(order, prepend=0) != 1) | (np.diff(col, prepend=0) != 1))
    runs = []
    for k, s, e in zip(block[starts].tolist(), starts.tolist(), ends.tolist()):
        rows, cols = order[s:e], col[s:e]
        if jumps[e - 1] == jumps[s]:
            rows, cols = slice(rows[0], rows[0] + e - s), slice(cols[0], cols[0] + e - s)
        runs.append((k, rows, cols))
    # a wide draw of whole chunks splits its runs into contiguous parts, one
    # per CPU and at least _PART_BLOCKS blocks each: the caller draws the
    # first, the pool the others, into disjoint rows and stream keys
    whole = count >= _CHUNK and count % _CHUNK == 0
    parts = max(1, min(_WORKERS, len(runs) // _PART_BLOCKS)) if whole else 1
    cuts = [len(runs) * p // parts for p in range(parts + 1)]
    draw = functools.partial(_draw_runs, seed, substream, count, scale, out, streams)
    pending = [_pool().submit(draw, runs[a:b]) for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        draw(runs[: cuts[1]])
    finally:  # no part may still write into out once the call returns
        for f in pending:
            f.exception()
    for f in pending:
        f.result()
    return out


def _draw_runs(seed, substream, count, scale, out, streams, runs) -> None:
    """Draw the ``(block, rows, cols)`` runs of :func:`batch_standard_normals`
    into ``out``, times ``scale``, on a generator and buffer of their own."""
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    fresh = bg.state  # counter zero, buffer empty: only the key changes
    key = fresh["state"]["key"]
    buf = np.empty((_CHUNK, _BLOCK))
    for k, rows, cols in runs:
        key[1] = k << 8 | substream
        bg.state = fresh if streams is None else streams.get(k, fresh)
        for t in range(0, count, _CHUNK):
            chunk = buf[: min(_CHUNK, count - t)]
            gen.standard_normal(out=chunk)
            if isinstance(rows, slice):
                np.multiply(chunk[:, cols].T, scale, out=out[rows, t : t + len(chunk)])
            else:
                out[rows, t : t + len(chunk)] = chunk[:, cols].T * scale
        if streams is not None:
            streams[k] = bg.state


@functools.cache
def _pool():
    """The threads that draw the parts of split draws, started by the first."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="sdelab-draw")


def increment_chunks(
    seed: int, sample_indices: Sequence[int], m: int, n: int, dt: float,
    chunk: int, substream: int = 0,
) -> Iterator[np.ndarray]:
    """Yield the (m, b, n) increments over steps of length ``dt``, ``chunk``
    steps at a time (the last may be shorter), in memory O(m * b * chunk).
    Row j holds the normals of substream ``substream + j`` for each sample
    index, scaled by sqrt(dt), each chunk resuming the rows; every simulating
    experiment draws its noise here.  A chunk is a view of one time-major
    buffer, valid until the next chunk is drawn.
    """
    streams = [{} if chunk < n else None for _ in range(m)]  # None: one chunk
    buf = np.empty((m, min(chunk, n), len(sample_indices)))
    for t in range(0, n, chunk):
        out = buf[:, : min(chunk, n - t)].transpose(0, 2, 1)
        for j in range(m):
            batch_standard_normals(
                seed, sample_indices, substream + j, out.shape[-1], out=out[j],
                streams=streams[j], scale=math.sqrt(dt),
            )
        yield out


def check_work(floats: int, what: str) -> None:
    """LatticeError if ``what``, which draws ``floats`` increments, is over
    the work bound ``_WALK_FLOATS``."""
    if floats > _WALK_FLOATS:
        raise LatticeError(
            f"{what}: {floats} increments, more than the work bound of {_WALK_FLOATS}"
        )


def increment_batches(
    seed: int, n_samples: int, m: int, n: int, dt: float, index_offset: int = 0,
    *, chunk: int,
) -> Iterator[tuple[np.ndarray, Iterator[np.ndarray]]]:
    """Yield ``(sample_indices, chunks)`` over samples ``index_offset ..
    index_offset + n_samples - 1`` in index order; ``chunks`` is the batch's
    :func:`increment_chunks` of ``chunk`` steps rounded up to whole draws (at
    most ``n``), as many paths as fit one chunk each in ``_BATCH_FLOATS``
    increments.  LatticeError, raised by the call and not by the first batch,
    if one chunk does not, or the walk needs more than ``_WALK_FLOATS``.
    """
    chunk = min(n, math.lcm(chunk, _CHUNK))
    if chunk * m > _BATCH_FLOATS:
        raise LatticeError(
            f"one path needs {chunk} steps x {m} noise dimensions in a batch, "
            f"more than the {_BATCH_FLOATS} increments a batch may hold"
        )
    check_work(n_samples * n * m, f"{n_samples} paths x {n} steps x {m} noise dimensions")
    batch = min(n_samples, _BATCH_FLOATS // (chunk * m))

    def batches():
        for start in range(0, n_samples, batch):
            idx = np.arange(start, min(start + batch, n_samples)) + index_offset
            yield idx, increment_chunks(seed, idx, m, n, dt, chunk)

    return batches()


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def sample_lattice(
    seed: int, sample_index: int, T: float, m: int, finest_n: int
) -> np.ndarray:
    """Increments of shape (m, finest_n) of one sample's m-dimensional
    Brownian motion on [0, T]: that sample's row of :func:`increment_chunks`.

    Nothing in the package calls this or :func:`increments_at`; both stay
    because ``perfbench/tracer.py`` wraps them by name."""
    if not is_power_of_two(finest_n):
        raise LatticeError(f"finest_n must be a power of two, got {finest_n}")
    if m < 1:
        raise LatticeError(f"dimension m must be >= 1, got {m}")
    return next(increment_chunks(seed, [sample_index], m, finest_n, T / finest_n, finest_n))[:, 0]


def aggregate_to(arr: np.ndarray, n: int) -> np.ndarray:
    """Aggregate fine increments along the last axis down to n columns.

    Performed one halving at a time so results agree bit-for-bit with any
    other route through intermediate dyadic levels.
    """
    fine = arr.shape[-1]
    if n < 1 or fine % n != 0 or not is_power_of_two(fine // n):
        raise LatticeError(
            f"target resolution {n} must divide {fine} by a power of two"
        )
    out = arr
    while out.shape[-1] > n:  # sum adjacent pairs: one dyadic step
        out = out[..., 0::2] + out[..., 1::2]
    return out


def increments_at(increments: np.ndarray, n: int) -> np.ndarray:
    """Increments on the coarser n-step grid; the identity at full length."""
    return aggregate_to(increments, n)
