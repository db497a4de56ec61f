"""Counter-based deterministic uniform stream on [-1, +1).

Draw k is a pure function of (seed, stream, k), so trials can run on any
number of workers, in any chunking, and still reproduce byte-for-byte.
The generator is SplitMix64 over a counter: fast, vectorizable, and good
enough statistically for Monte Carlo at desk scale.  `uniform_block` draws
the same values for many streams at once, one row per stream, and
`uniforms_at` any set of (stream, draw) cells (`unit_uniforms_at` maps them
to [0, 1) as (u + 1) / 2), `advance` moves a stream on by a number of
draws, and `first_indices` maps each stream's draw 0 to an index, as every
experiment draws its hidden shift.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# float64 bytes per sub-block of a chunk's array step; bounds peak memory.  A
# step's temporaries lie above glibc's default 128 KB mmap threshold, so each
# would be mapped and faulted in afresh: cli.main keeps freed heap for the next step
BLOCK_BYTES = 2**18


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


# uint64 array arithmetic wraps mod 2**64, which is exactly what SplitMix64
# needs; scalar numpy ints would warn, so the kernel stays on arrays.
_GOLDEN_U = np.uint64(_GOLDEN)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, in place on the uint64 array z, which it returns."""
    z ^= z >> _S30
    z *= _MIX1_U
    z ^= z >> _S27
    z *= _MIX2_U
    z ^= z >> _S31
    return z


def _splitmix_bits(base, idx: np.ndarray, drop=_S11) -> np.ndarray:
    """The SplitMix64 values behind draws idx - 1 of the streams whose bases
    are `base`, broadcast against the uint64 array idx (scaled in place),
    shifted right by the uint64 `drop`: at 11, the 53-bit integers z with
    draw = z * 2**-52 - 1."""
    idx *= _GOLDEN_U
    z = _mix64_array(base + idx)
    z >>= drop
    return z


def _splitmix_uniforms(base, idx: np.ndarray) -> np.ndarray:
    """Draws idx - 1 on [-1, +1), of _splitmix_bits' arguments."""
    # 2 * (z * 2**-53) - 1: both power-of-two scalings are exact
    u = _splitmix_bits(base, idx) * 2.0**-52
    u -= 1.0
    return u


def uniforms_at(bases, draws) -> np.ndarray:
    """Element i is draw draws[i] of the stream with base bases[i].  The index
    is a uint64 array first, as products of numpy scalars would warn."""
    idx = np.array(draws, dtype=np.uint64, ndmin=1) + np.uint64(1)
    return _splitmix_uniforms(np.asarray(bases, dtype=np.uint64), idx)


def unit_uniforms_at(bases, draws) -> np.ndarray:
    """(uniforms_at(bases, draws) + 1) / 2 to the bit, in [0, 1): z * 2**-53,
    as each step of that map is exact on the multiples of 2**-52 in [-1, 1)."""
    idx = np.array(draws, dtype=np.uint64, ndmin=1) + np.uint64(1)
    return _splitmix_bits(np.asarray(bases, dtype=np.uint64), idx) * 2.0**-53


def _unit_bins_at(bases, draws, bins: int) -> np.ndarray:
    """int(unit_uniforms_at(bases, draws) * bins) to the bit, as intp, for bins
    a power of two from 2 to 2**53: the top log2(bins) bits of each draw's
    integer, read without forming its float."""
    idx = np.array(draws, dtype=np.uint64, ndmin=1) + np.uint64(1)
    drop = np.uint64(65 - bins.bit_length())
    return _splitmix_bits(np.asarray(bases, dtype=np.uint64), idx, drop).view(np.intp)


def advance(bases, draws) -> np.ndarray:
    """Bases of the streams `bases` moved on by `draws` draws, broadcast: draw k
    of advance(b, d) is draw d + k of b, as each draw adds one fixed increment
    to the SplitMix64 counter."""
    return np.asarray(bases, dtype=np.uint64) + np.asarray(draws, dtype=np.uint64) * _GOLDEN_U


def _as_uint64(values) -> np.ndarray:
    """Integers modulo 2**64 as a uint64 array (the `& _MASK` of RandomStack)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)  # wraps negatives mod 2**64
    return np.array([int(v) & _MASK for v in values], dtype=np.uint64)


def stream_bases(seed: int, streams) -> np.ndarray:
    """SplitMix64 base of each stream: element i equals RandomStack(seed, streams[i])._base."""
    seed_u = np.uint64(int(seed) & _MASK)
    return _mix64_array(seed_u ^ _mix64_array(_as_uint64(streams) ^ _GOLDEN_U))


def uniform_block(bases: np.ndarray, start: int, count: int) -> np.ndarray:
    """(len(bases), count) block: row i holds draws start..start+count-1 of the
    stream with base bases[i], the values `count` pops of that stream return."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _splitmix_uniforms(np.asarray(bases, dtype=np.uint64)[:, None], idx)


def first_indices(bases, size: int) -> np.ndarray:
    """RandomStack.pop_index(size) as the first pop of each stream with base in
    `bases`, in int64 while every index is exact, else as Python ints."""
    scaled = np.floor((uniform_block(bases, 0, 1)[:, 0] + 1.0) / 2.0 * float(size))
    if size <= 2**53:  # every index, and its float, is exact in int64
        return np.minimum(scaled.astype(np.int64), size - 1)
    return np.array([min(int(v), size - 1) for v in scaled], dtype=object)


class RandomStack:
    """Infinite stack of uniforms on [-1, +1); pop() takes the top.

    Two stacks with equal (seed, stream) produce identical sequences.
    Distinct streams (e.g. one per trial) are statistically independent.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK
        self.stream = int(stream) & _MASK
        self.draw_index = 0
        self._base = _mix64(self.seed ^ _mix64(self.stream ^ _GOLDEN))

    def pop(self) -> float:
        """Pop one uniform from [-1, +1): uniform_block's draw, in Python ints."""
        self.draw_index = k = self.draw_index + 1
        return (_mix64(self._base + k * _GOLDEN) >> 11) * 2.0**-52 - 1.0

    def pop_index(self, size: int) -> int:
        """Pop one uniform and map it to an index in [0, size)."""
        return min(int((self.pop() + 1.0) / 2.0 * size), size - 1)

    def pop_batch(self, count: int) -> np.ndarray:
        """Pop `count` uniforms at once; identical values to `count` pops."""
        out = uniform_block([self._base], self.draw_index, count)[0]
        self.draw_index += count
        return out
