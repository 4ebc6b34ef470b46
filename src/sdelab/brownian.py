"""Reproducible Brownian increments on dyadic grids.

Every random number in the package flows through a counter-based Philox
stream addressed by a :class:`StreamKey`.  Streams are pure functions of the
key: no global state, no wall-clock seeding, and samples drawn for key ``k``
are byte-identical across runs, machines with the same numpy build, and
thread counts.

Increments live on a dyadic lattice at a power-of-two resolution.  Coarser
resolutions are obtained by summing adjacent pairs, one halving at a time, so
that the family ``increments_at(lat, n)`` over all divisors ``n`` forms an
exactly consistent tower: aggregating any level reproduces the next one bit
for bit.  This is what makes coupled coarse/fine simulations (multilevel
estimators, reference-solution error curves) well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """Raised for invalid lattice construction or aggregation requests."""


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream.

    ``seed`` identifies the experiment, ``sample_index`` the Monte Carlo
    sample, and ``substream`` the noise dimension within a sample.  Distinct
    triples map to distinct Philox keys and therefore to statistically
    independent streams.
    """

    seed: int
    sample_index: int = 0
    substream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= int(self.sample_index) < MAX_SAMPLE_INDEX:
            raise ValueError(
                f"sample_index must lie in [0, 2**56), got {self.sample_index}"
            )
        if not 0 <= int(self.substream) < _MAX_SUBSTREAM:
            raise ValueError(f"substream must lie in [0, 256), got {self.substream}")

    def with_sample(self, sample_index: int) -> "StreamKey":
        return replace(self, sample_index=sample_index)

    def with_substream(self, substream: int) -> "StreamKey":
        return replace(self, substream=substream)


def _philox_words(key: StreamKey) -> np.ndarray:
    # Word 0 carries the seed, word 1 packs (sample_index, substream); the
    # packing is injective given the range checks in StreamKey.
    packed = (int(key.sample_index) << 8) | int(key.substream)
    return np.array([int(key.seed), packed], dtype=np.uint64)


def derive_stream(key: StreamKey) -> np.random.Generator:
    """Return the Generator for ``key``.  Pure: same key, same draws."""
    return np.random.Generator(np.random.Philox(key=_philox_words(key)))


class _StreamPool:
    """Reusable Philox instance for drawing from many keys in sequence.

    Rekeying one bit generator is ~5x cheaper than constructing a fresh
    ``Generator`` per sample, which matters when an estimator touches
    millions of (sample, substream) pairs.  Output is identical to
    :func:`derive_stream` for every key.
    """

    def __init__(self) -> None:
        self._bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state

    def fill_standard_normal(self, key: StreamKey, out: np.ndarray) -> None:
        tpl = self._template
        tpl["state"]["key"] = _philox_words(key)
        tpl["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        tpl["buffer_pos"] = 4
        tpl["has_uint32"] = 0
        tpl["uinteger"] = 0
        self._bg.state = tpl
        self._gen.standard_normal(out=out)


def batch_standard_normals(
    seed: int, sample_indices: Sequence[int], substream: int, count: int
) -> np.ndarray:
    """Draw ``count`` N(0,1) variates for each sample index, one stream per row.

    Row ``r`` equals ``derive_stream(StreamKey(seed, sample_indices[r],
    substream)).standard_normal(count)`` exactly.
    """
    pool = _StreamPool()
    out = np.empty((len(sample_indices), count))
    for r, idx in enumerate(sample_indices):
        pool.fill_standard_normal(StreamKey(seed, int(idx), substream), out[r])
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


@dataclass(frozen=True)
class BrownianLattice:
    """Increments of an m-dimensional Brownian motion at dyadic resolution.

    ``increments[j, k]`` is W^j(t_{k+1}) - W^j(t_k) on the grid with
    ``finest_n`` steps over [0, T].  ``key`` records the originating stream
    (substream ``key.substream + j`` drives dimension ``j``).
    """

    T: float
    m: int
    finest_n: int
    increments: np.ndarray
    key: StreamKey | None = None

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise LatticeError(f"horizon T must be positive, got {self.T}")
        if self.m < 1:
            raise LatticeError(f"dimension m must be >= 1, got {self.m}")
        if not is_power_of_two(self.finest_n):
            raise LatticeError(
                f"finest_n must be a power of two, got {self.finest_n}"
            )
        if self.increments.shape != (self.m, self.finest_n):
            raise LatticeError(
                f"increment array has shape {self.increments.shape}, "
                f"expected {(self.m, self.finest_n)}"
            )


def sample_lattice(key: StreamKey, T: float, m: int, finest_n: int) -> BrownianLattice:
    """Draw a fresh lattice; dimension j uses substream ``key.substream + j``."""
    if not is_power_of_two(finest_n):
        raise LatticeError(f"finest_n must be a power of two, got {finest_n}")
    if m < 1:
        raise LatticeError(f"dimension m must be >= 1, got {m}")
    scale = np.sqrt(T / finest_n)
    incr = np.empty((m, finest_n))
    for j in range(m):
        gen = derive_stream(key.with_substream(key.substream + j))
        incr[j] = gen.standard_normal(finest_n)
    incr *= scale
    return BrownianLattice(T=T, m=m, finest_n=finest_n, increments=incr, key=key)


def halve_pairs(arr: np.ndarray) -> np.ndarray:
    """Sum adjacent pairs along the last axis (one dyadic aggregation step)."""
    if arr.shape[-1] % 2 != 0:
        raise LatticeError(f"cannot halve odd length {arr.shape[-1]}")
    shape = arr.shape[:-1] + (arr.shape[-1] // 2, 2)
    return arr.reshape(shape).sum(axis=-1)


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


def increments_at(lattice: BrownianLattice, n: int) -> np.ndarray:
    """Increments of ``lattice`` on the coarser n-step grid (n | finest_n).

    At ``n == finest_n`` this is the identity (same array content).
    """
    if n == lattice.finest_n:
        return lattice.increments
    return aggregate_to(lattice.increments, n)
