"""Arithmetic on the n-torus (R/Z)^n and the 1/3-grid of hidden shifts."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

GRID_BASE = 3  # grid points per circle coordinate
NEAR_RADIUS = 1.0 / (2 * GRID_BASE)  # 1/6; distance >= this counts as FAR
N_MAX = int(math.log(np.finfo(np.float64).max, GRID_BASE))  # 646: float(3**n) is finite


def wrap01(v: float) -> float:
    """Wrap a real into [0, 1). Values that round to exactly 1.0 clamp to 0.
    v % 1.0 is v - floor(v) to the bit, but +0.0 where that is -0.0."""
    c = v % 1.0
    return 0.0 if c >= 1.0 else c


def wrap01_array(v: np.ndarray) -> np.ndarray:
    """wrap01 elementwise, to the bit: v - floor(v) with its one rounding, then the clamp."""
    c = np.floor(v, out=np.empty(np.shape(v)))  # an array even when v is 0-d
    np.subtract(v, c, out=c)
    c[c >= 1.0] = 0.0
    return c


def check_n(n: int) -> int:
    if not 1 <= n <= N_MAX:  # a front end's n: its hidden-shift draw scales by float(3**n)
        raise ValueError("n must be >= 1" if n < 1 else
                         f"n={n} exceeds {N_MAX}: 3^n shifts overflow a float")
    return n


@dataclass(frozen=True)
class TorusPoint:
    """A point of (R/Z)^n; coordinates stored in [0, 1)."""

    coords: tuple[float, ...]  # any sequence of reals, wrapped by __post_init__

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(wrap01(float(c)) for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64)

    def __sub__(self, other: "TorusPoint | GridShift") -> "TorusPoint":
        if isinstance(other, GridShift):
            other = other.to_point()
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return TorusPoint([a - b for a, b in zip(self.coords, other.coords)])


@dataclass(frozen=True)
class GridShift:
    """A hidden shift a in {0, 1/3, 2/3}^n, stored as trits."""

    trits: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(t, int) and 0 <= t < GRID_BASE for t in self.trits):
            raise ValueError(f"trits must be integers in [0, {GRID_BASE})")

    @property
    def n(self) -> int:
        return len(self.trits)

    def to_point(self) -> TorusPoint:
        return TorusPoint([t / GRID_BASE for t in self.trits])

    @property
    def index(self) -> int:
        """Trit-lexicographic index, little-endian (trit 0 least significant)."""
        return sum(t * GRID_BASE**j for j, t in enumerate(self.trits))

    @classmethod
    def from_index(cls, n: int, index: int) -> "GridShift":
        if not 0 <= index < GRID_BASE**n:
            raise ValueError("index out of range")
        return cls(tuple((index // GRID_BASE**j) % GRID_BASE for j in range(n)))

    @classmethod
    def zero(cls, n: int) -> "GridShift":
        return cls((0,) * n)

    @classmethod
    def all_shifts(cls, n: int) -> Iterator["GridShift"]:
        for i in range(GRID_BASE**n):
            yield cls.from_index(n, i)


def index_trits(idx: np.ndarray, n: int) -> np.ndarray:
    """(len(idx), n) int64 trits of idx mod 3**n: GridShift.from_index on arrays."""
    trits = np.empty((len(idx), n), dtype=np.int64)
    for j in range(n):
        idx, trits[:, j] = idx // GRID_BASE, idx % GRID_BASE
    return trits


def bohr_dist(u: float, v: float) -> float:
    """Circular distance on R/Z: min over integers k of |u - v + k|."""
    d = (u - v) % 1.0
    return d if d <= 0.5 else 1.0 - d


# Grid comparisons work in 3x-scaled space (circular distance of 3*x_j to
# the integer trit, modulo 3): the trits are then exact floats, so ties at
# the 1/6 boundary are detected exactly instead of drowning in the rounding
# error of 1/3 and 2/3.

def _scaled_grid_dist(c: float, trit: int) -> float:
    d = abs(c * GRID_BASE - trit)
    return d if d <= GRID_BASE / 2 else GRID_BASE - d


def round_to_grid(x: TorusPoint) -> tuple[GridShift, bool]:
    """Round each coordinate to the nearest grid trit.

    Ties (distance exactly 1/6 to two grid points) resolve to the smaller
    trit; tie_flag reports whether any coordinate was tied.
    """
    trits = []
    tie = False
    for c in x.coords:
        dists = [_scaled_grid_dist(c, t) for t in range(GRID_BASE)]
        best = min(range(GRID_BASE), key=lambda t: (dists[t], t))
        if sum(1 for d in dists if d == dists[best]) > 1:
            tie = True
        trits.append(best)
    return GridShift(tuple(trits)), tie


def hamming_d(a: GridShift, x: TorusPoint) -> int:
    """Count of FAR coordinates: bohr_dist(x_j, a_j) >= 1/6 (boundary FAR).

    Equals the coordinatewise disagreement count between a and
    round_to_grid(x) whenever no coordinate is tied.
    """
    if a.n != x.n:
        raise ValueError(f"dimension mismatch: shift has {a.n}, point has {x.n}")
    return sum(
        1
        for t, c in zip(a.trits, x.coords)
        if _scaled_grid_dist(c, t) >= GRID_BASE * NEAR_RADIUS
    )


def far_coords(points: np.ndarray, trits: np.ndarray) -> np.ndarray:
    """FAR flags of hamming_d on arrays: points (..., n), trits (n,) or one row per point.
    As 3 - d is exact for d = |3x - t| >= 3/2, min(d, 3 - d) >= 1/2 is 1/2 <= d <= 5/2."""
    d = points * GRID_BASE - trits
    np.abs(d, out=d)
    return (d >= GRID_BASE * NEAR_RADIUS) & (d <= GRID_BASE - GRID_BASE * NEAR_RADIUS)


def far_count_array(points: np.ndarray, trits: np.ndarray) -> np.ndarray:
    """hamming_d on arrays: far_coords summed (einsum: np.sum is slow on a short last axis)."""
    return np.einsum("...j->...", far_coords(points, trits), dtype=np.int64)
