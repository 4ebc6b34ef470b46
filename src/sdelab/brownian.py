"""Reproducible Brownian increments on dyadic grids.

Every random number in the package is drawn by :func:`batch_standard_normals`
from a counter-based Philox stream keyed by (seed, sample index, substream).
Streams are pure functions of that key: no global state, no wall-clock
seeding, and the draws of one key are byte-identical across runs, machines
with the same numpy build, and thread counts.

Increments live on a dyadic lattice at a power-of-two resolution.  Coarser
resolutions are obtained by summing adjacent pairs, one halving at a time, so
that the family ``aggregate_to(incr, n)`` over all divisors ``n`` forms an
exactly consistent tower: aggregating any level reproduces the next one bit
for bit.  This is what makes coupled coarse/fine simulations (multilevel
estimators, reference-solution error curves) well defined.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

#: Identifier of the uniform-bits -> N(0,1) transform in use.  Recorded in
#: experiment metadata so archived results can be matched to the generator
#: that produced them.
GAUSSIAN_TRANSFORM = "philox4x64-ziggurat"

_MAX_SUBSTREAM = 1 << 8
MAX_SAMPLE_INDEX = 1 << 56
_MAX_SEED = 1 << 64

_BATCH_FLOATS = 1 << 23  # per-batch increment budget, keeps blocks ~64 MB


class LatticeError(ValueError):
    """Raised for invalid stream keys, lattice requests or aggregations."""


def batch_standard_normals(
    seed: int, sample_indices: Sequence[int], substream: int, count: int
) -> np.ndarray:
    """Draw ``count`` N(0,1) variates for each sample index, one stream per row.

    Row ``r`` is the start of the Philox stream keyed by the words
    ``[seed, sample_indices[r] << 8 | substream]``; the range checks make
    that packing injective.  One bit generator is rekeyed per row, which is
    several times cheaper than building a Generator per sample.
    """
    seed, substream = int(seed), int(substream)
    idx = [int(i) for i in sample_indices]
    if not 0 <= seed < _MAX_SEED:
        raise LatticeError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if idx and not 0 <= min(idx) <= max(idx) < MAX_SAMPLE_INDEX:
        bad = min(idx) if min(idx) < 0 else max(idx)
        raise LatticeError(f"sample_index must lie in [0, 2**56), got {bad}")
    if not 0 <= substream < _MAX_SUBSTREAM:
        raise LatticeError(f"substream must lie in [0, 256), got {substream}")
    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = bg.state
    out = np.empty((len(idx), count))
    for r, i in enumerate(idx):
        state["state"]["key"] = np.array([seed, i << 8 | substream], dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bg.state = state
        gen.standard_normal(out=out[r])
    return out


def increment_block(
    seed: int, sample_indices: Sequence[int], substream: int, m: int, n: int, dt: float
) -> np.ndarray:
    """Brownian increments of shape (m, b, n) over steps of length ``dt``.

    Row j holds the normals of substream ``substream + j`` for each sample
    index, scaled by sqrt(dt).  Every simulating experiment draws its noise
    here, so this decides how the noise of a sample is addressed and scaled.
    """
    out = np.empty((m, len(sample_indices), n))
    scale = math.sqrt(dt)
    for j in range(m):
        out[j] = batch_standard_normals(seed, sample_indices, substream + j, n)
        out[j] *= scale
    return out


def increment_batches(
    seed: int, n_samples: int, m: int, n: int, dt: float, index_offset: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(sample_indices, increment_block)`` over samples
    ``index_offset .. index_offset + n_samples - 1`` in index order, in
    batches of at most ``_BATCH_FLOATS`` increments.  A path that alone
    exceeds the budget raises LatticeError.
    """
    if n * m > _BATCH_FLOATS:
        raise LatticeError(
            f"one path of {n} steps x {m} noise dimensions exceeds the "
            f"{_BATCH_FLOATS} increments a batch may hold"
        )
    batch = min(n_samples, _BATCH_FLOATS // (n * m))
    for start in range(0, n_samples, batch):
        idx = np.arange(start, min(start + batch, n_samples)) + index_offset
        yield idx, increment_block(seed, idx, 0, m, n, dt)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def sample_lattice(
    seed: int, sample_index: int, T: float, m: int, finest_n: int
) -> np.ndarray:
    """Increments of shape (m, finest_n) of one sample's m-dimensional
    Brownian motion on [0, T]: the ``increment_block`` row of that sample.

    Nothing in the package calls this or :func:`increments_at`; both stay
    because ``perfbench/tracer.py`` wraps them by name."""
    if not is_power_of_two(finest_n):
        raise LatticeError(f"finest_n must be a power of two, got {finest_n}")
    if m < 1:
        raise LatticeError(f"dimension m must be >= 1, got {m}")
    return increment_block(seed, [sample_index], 0, m, finest_n, T / finest_n)[:, 0]


def halve_pairs(arr: np.ndarray) -> np.ndarray:
    """Sum adjacent pairs along the last axis (one dyadic aggregation step)."""
    if arr.shape[-1] % 2 != 0:
        raise LatticeError(f"cannot halve odd length {arr.shape[-1]}")
    return arr[..., 0::2] + arr[..., 1::2]


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
    while out.shape[-1] > n:
        out = halve_pairs(out)
    return out


def increments_at(increments: np.ndarray, n: int) -> np.ndarray:
    """Increments on the coarser n-step grid; the identity at full length."""
    return aggregate_to(increments, n)
