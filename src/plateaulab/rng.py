"""Counter-based deterministic uniform stream on [-1, +1).

Draw k is a pure function of (seed, stream, k), so trials can run on any
number of workers, in any chunking, and still reproduce byte-for-byte.
The generator is SplitMix64 over a counter: fast, vectorizable, and good
enough statistically for Monte Carlo at desk scale.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

_BUF_SIZE = 512


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


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
        self._buf: np.ndarray | None = None
        self._buf_start = 0

    def _uniforms(self, start: int, count: int) -> np.ndarray:
        # uint64 array arithmetic wraps mod 2**64, which is exactly what
        # SplitMix64 needs; scalar numpy ints would warn, so stay on arrays.
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z = np.uint64(self._base) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return 2.0 * u - 1.0

    def pop(self) -> float:
        """Pop one uniform from [-1, +1)."""
        k = self.draw_index
        buf = self._buf
        if buf is None or not (self._buf_start <= k < self._buf_start + len(buf)):
            self._buf = buf = self._uniforms(k, _BUF_SIZE)
            self._buf_start = k
        self.draw_index = k + 1
        return float(buf[k - self._buf_start])

    def pop_index(self, size: int) -> int:
        """Pop one uniform and map it to an index in [0, size)."""
        return min(int((self.pop() + 1.0) / 2.0 * size), size - 1)

    def pop_batch(self, count: int) -> np.ndarray:
        """Pop `count` uniforms at once; identical values to `count` pops."""
        out = self._uniforms(self.draw_index, count)
        self.draw_index += count
        return out
