"""Reproducible Brownian increments on dyadic grids.

Every random number in the package is drawn by :func:`batch_standard_normals`
from counter-based Philox streams, one keyed by (seed, block, substream) for
each block of 64 sample indices and read time-major: sample i takes
positions i % 64 + 64*t.  A sample's normals are therefore a prefix of one
fixed sequence, whatever the count and whichever samples share the batch.
Streams are pure functions of their key: no global state, no wall-clock
seeding, and the draws are byte-identical across runs, machines with the
same numpy build, and numbers of CPUs: since each block is its own stream,
a wide walk of :func:`increment_chunks` splits its blocks over the CPUs the
process may run on, each part into its own rows, and draws one chunk ahead
while its caller steps the last; nothing but those draws leaves the
caller's thread.

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

from . import util

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

#: Threads a wide walk draws on: the CPUs the process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_PART_BLOCKS = 8  # fewest blocks a thread draws
#: Most blocks in one part of a wide walk's chunk.  The caller draws the
#: parts the pool has not started, so smaller parts leave either side less
#: idle while the other ends a chunk; each part costs a future and a buffer.
_PART_MAX_BLOCKS = 32

_BATCH_FLOATS = 1 << 23  # per-batch increment budget, keeps blocks ~64 MB
_WALK_FLOATS = 1 << 32  # a run's path-steps x m, ~13x the largest study's 10^4 x 2^15


class LatticeError(util.RunError, ValueError):
    """Raised for invalid stream keys, lattice requests or aggregations."""


def _keys(seed: int, sample_indices: Sequence[int], substream: int) -> range:
    """The sample indices as a range; LatticeError unless they are one
    consecutive ascending range (a ``range`` of step 1, or a 1-D integer
    array equal to one) and (seed, each index, substream) keys a stream."""
    idx = sample_indices
    if not (isinstance(idx, range) and idx.step == 1):
        arr = np.asarray(idx)
        if arr.ndim != 1 or arr.size and (arr.dtype.kind not in "iu" or (np.diff(arr) != 1).any()):
            raise LatticeError("sample indices must be consecutive and ascending")
        idx = range(int(arr[0]), int(arr[-1]) + 1) if arr.size else range(0)
    if not 0 <= seed < _MAX_SEED:
        raise LatticeError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= idx.start <= idx.start + len(idx) <= MAX_SAMPLE_INDEX:
        raise LatticeError(f"sample indices must lie in [0, 2**56), got {idx}")
    if not 0 <= substream < _MAX_SUBSTREAM:
        raise LatticeError(f"substream must lie in [0, 256), got {substream}")
    return idx


def _runs(idx: range) -> list[tuple]:
    """The ``(block, rows, cols)`` run of each block that ``idx`` meets, its
    rows and columns as slices."""
    lo, hi = idx.start, idx.start + len(idx)
    return [
        (k, slice(max(lo, k * _BLOCK) - lo, min(hi, k * _BLOCK + _BLOCK) - lo),
         slice(max(lo - k * _BLOCK, 0), min(hi - k * _BLOCK, _BLOCK)))
        for k in range(lo // _BLOCK, -(-hi // _BLOCK))
    ]


def batch_standard_normals(
    seed: int, sample_indices: Sequence[int], substream: int, count: int,
    out: np.ndarray | None = None, walk: _Walk | None = None,
) -> np.ndarray:
    """Draw ``count`` N(0,1) variates for each index of one consecutive
    ascending range, one row each; any other index set is a LatticeError.

    Indices are grouped in blocks of ``_BLOCK``: block ``k`` is one Philox
    stream keyed by the words ``[seed, k << 8 | substream]`` (the range
    checks make that packing injective), read time-major, so sample ``i``
    takes positions ``i % _BLOCK + _BLOCK * t``.  Each row is thus a prefix
    of a fixed sequence, whatever the count and the other indices drawn with
    it.  Blocks are drawn whole, ``_CHUNK`` steps at a time, and sliced.
    ``out`` receives the (len(sample_indices), count) result when given.
    A call on its own is a walk of one chunk, drawn on the calling thread.
    A walk of :func:`increment_chunks` passes itself as ``walk``, which then
    holds the indices and the scale: the call draws that walk's next chunk
    of noise dimension ``substream``, with a wide walk's parts on every CPU.
    """
    if walk is None:
        seed, substream = int(seed), int(substream)
        idx = _keys(seed, sample_indices, substream)
        if out is None:
            out = np.empty((len(idx), count))
        return _Walk(seed, _runs(idx), 1, substream, 1.0, [count]).draw(0, out)
    return walk.draw(substream, out)


def _fill(gen, rows, cols, count, scale, out, buf) -> None:
    """Write the next ``count`` normals of block generator ``gen``, columns
    ``cols``, times ``scale``, into ``out[rows]``, ``len(buf)`` steps at a
    time."""
    for t in range(0, count, len(buf)):
        chunk = buf[: min(len(buf), count - t)]
        gen.standard_normal(out=chunk)
        chunk *= scale
        out[rows, t : t + len(chunk)] = chunk[:, cols].T


def _draw_part(part, count, scale, out) -> None:
    """Draw one part of a :class:`_Walk` chunk: each ``(generator, rows,
    cols)`` run's next ``count`` normals into ``out``, on a buffer of its own."""
    buf = np.empty((min(count, _CHUNK), _BLOCK))
    for gen, rows, cols in part:
        _fill(gen, rows, cols, count, scale, out, buf)


def _rekeyed(seed, substream, runs) -> Iterator[tuple]:
    """Each ``(block, rows, cols)`` run as ``(generator, rows, cols)``: one
    generator for all of them, rekeyed to each block at its counter zero."""
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    fresh = bg.state  # counter zero, buffer empty: only the key changes
    key = fresh["state"]["key"]
    for k, rows, cols in runs:
        key[1] = k << 8 | substream
        bg.state = fresh
        yield gen, rows, cols


@functools.cache
def _pool():
    """The threads that draw the parts of wide walks, started by the first."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="sdelab-draw")


def _chunk(bufs: list[np.ndarray], counts: list[int], i: int) -> np.ndarray:
    """Chunk ``i`` of a walk: the (m, b, counts[i]) view of its time-major buffer."""
    return bufs[i % len(bufs)][:, : counts[i]].transpose(0, 2, 1)


def _settle(futures: list) -> None:
    """Cancel the futures not yet started, then wait for the others."""
    for f in futures:
        f.cancel()
    for f in futures:
        if not f.cancelled():
            f.exception()


class _Walk:
    """The draw plan of one walk, made once: its block runs cut into parts,
    each with its generators per noise dimension.  A wide walk has
    contiguous parts, at least one per CPU and at most ``_PART_MAX_BLOCKS``
    blocks each; any other has one, drawn on the caller.  A walk of several
    chunks keys one Philox generator per block, which each chunk continues;
    one of a single chunk rekeys one generator per part.  With two buffers
    a walk draws a chunk ahead: while the caller steps chunk i, the pool
    draws chunk i + 1 into the other buffer, queued only once every part of
    chunk i has finished, since a block's stream is sequential."""

    def __init__(self, seed, runs, m, substream, scale, counts, bufs=(), parts=1):
        def keyed(j, runs):  # noise dimension j's generator for each run
            if len(counts) == 1:
                return _rekeyed(seed, substream + j, runs)
            return [
                (np.random.Generator(np.random.Philox(
                    key=np.array([seed, k << 8 | substream + j], dtype=np.uint64)
                )), rows, cols)
                for k, rows, cols in runs
            ]

        parts = max(parts, -(-len(runs) // _PART_MAX_BLOCKS)) if parts > 1 else 1
        cuts = [len(runs) * p // parts for p in range(parts + 1)]
        self.parts = [[keyed(j, runs[a:b]) for a, b in zip(cuts, cuts[1:])] for j in range(m)]
        self.scale, self.bufs, self.counts = scale, bufs, counts
        self.queued = [[] for _ in range(m)]  # per noise dimension: its next chunk's parts
        self.taken = [0] * m  # chunks handed out per noise dimension

    def _queue(self, j: int, i: int, out: np.ndarray) -> list:
        return [
            _pool().submit(_draw_part, part, self.counts[i], self.scale, out)
            for part in self.parts[j]
        ]

    def draw(self, j: int, out: np.ndarray) -> np.ndarray:
        """Finish noise dimension ``j``'s part of the next chunk in ``out``:
        a single part on the caller; of several, those the pool has not
        started, from the tail, then wait for the others and raise a part's
        error only then.  A walk that draws ahead queues the next."""
        i, self.taken[j] = self.taken[j], self.taken[j] + 1
        if len(self.parts[j]) == 1:
            _draw_part(self.parts[j][0], self.counts[i], self.scale, out)
            return out
        futures = self.queued[j] or self._queue(j, i, out)
        self.queued[j] = []
        try:
            for f, part in reversed(list(zip(futures, self.parts[j]))):
                if f.cancel():
                    _draw_part(part, self.counts[i], self.scale, out)
        finally:  # no part may still write into out once the call returns
            _settle(futures)
        for f in futures:
            if not f.cancelled():
                f.result()
        if len(self.bufs) > 1 and i + 1 < len(self.counts):
            self.queued[j] = self._queue(j, i + 1, _chunk(self.bufs, self.counts, i + 1)[j])
        return out

    def close(self) -> None:
        """Drop the queued parts and wait for those already running."""
        for futures in self.queued:
            _settle(futures)


def _chunk_steps(n: int, granule: int) -> int:
    """Steps in one chunk of an ``n``-step walk at ``granule``."""
    return min(n, math.lcm(granule, _CHUNK))


def increment_chunks(
    seed: int, sample_indices: Sequence[int], m: int, n: int, dt: float, granule: int,
) -> Iterator[np.ndarray]:
    """Yield the (m, b, n) increments over steps of length ``dt`` of the b
    samples of one consecutive ascending index range, one chunk at a time
    (the last may be shorter), in memory O(m * b * chunk).  Row j holds the
    normals of substream j for each sample index, scaled by
    sqrt(dt), each chunk resuming the rows; every simulating experiment
    draws its noise here.  A chunk is ``granule`` rounded up to whole
    ``_CHUNK``-step draws, at most ``n``, and a view of a time-major buffer,
    valid until the next chunk is requested.

    The walk plans its draws once (:class:`_Walk`).  A walk of whole draws
    with at least ``_PART_BLOCKS`` blocks per CPU is wide and splits them
    over every CPU; if it is longer than one chunk and a multiple of
    ``granule`` fits in a quarter chunk, it yields the largest such multiple
    at a time and draws one chunk ahead of its caller, in two buffers that
    together hold half of one chunk.  No value depends on which way a walk
    draws; closing the generator waits for the draws in flight.
    """
    seed = int(seed)
    idx = _keys(seed, sample_indices, m - 1)
    runs, chunk = _runs(idx), _chunk_steps(n, granule)
    parts = min(_WORKERS, len(runs) // _PART_BLOCKS) if chunk % _CHUNK == 0 else 1
    ahead = parts > 1 and n > chunk and chunk // 4 >= granule
    length = chunk // 4 // granule * granule if ahead else chunk
    counts = [min(length, n - t) for t in range(0, n, length)]
    bufs = [np.empty((m, length, len(idx))) for _ in range(1 + ahead)]
    walk = _Walk(seed, runs, m, 0, math.sqrt(dt), counts, bufs, parts)
    try:
        for i, count in enumerate(counts):
            out = _chunk(bufs, counts, i)
            for j in range(m):
                batch_standard_normals(seed, idx, j, count, out=out[j], walk=walk)
            yield out
    finally:
        walk.close()


def increment_batches(
    seed: int, n_samples: int, m: int, n: int, dt: float, index_offset: int = 0,
    *, granule: int,
) -> Iterator[tuple[range, Iterator[np.ndarray]]]:
    """Yield ``(sample_indices, chunks)`` over samples ``index_offset ..
    index_offset + n_samples - 1`` in index order, each batch's indices a
    ``range``; ``chunks`` is the batch's
    :func:`increment_chunks` at ``granule``, and a batch holds as many paths
    as fit one chunk each in ``_BATCH_FLOATS`` increments.  LatticeError,
    raised by the call and not by the first batch, if one chunk does not
    fit.  The walk's length is its run's to bound (``_WALK_FLOATS``).
    """
    chunk = _chunk_steps(n, granule)
    if chunk * m > _BATCH_FLOATS:
        raise LatticeError(
            f"one path needs {chunk} steps x {m} noise dimensions in a batch, "
            f"more than the {_BATCH_FLOATS} increments a batch may hold"
        )
    batch = min(n_samples, _BATCH_FLOATS // (chunk * m))

    def batches():
        for start in range(0, n_samples, batch):
            idx = range(index_offset + start, index_offset + min(start + batch, n_samples))
            yield idx, increment_chunks(seed, idx, m, n, dt, granule)

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
    idx = range(sample_index, sample_index + 1)
    return next(increment_chunks(seed, idx, m, finest_n, T / finest_n, finest_n))[:, 0]


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
