"""Arithmetic on the n-torus (R/Z)^n and the 1/3-grid of hidden shifts, and
FAR decided on uniform draws' integers (near_cuts, far_bits)."""
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


def check_cap(name: str, value: int, cap: int, what: str, estimate: str) -> int:
    """The one size rule: refuse a value above its cap, before anything that grows
    with it is built, with the cost estimate in one ValueError form (exit 2)."""
    if value > cap:
        raise ValueError(f"{name}={value} exceeds {what} cap {cap}: {estimate}")
    return value


def check_n(n: int) -> int:
    if n < 1:  # a front end's n: its hidden-shift draw scales by float(3**n)
        raise ValueError("n must be >= 1")
    return check_cap("n", n, N_MAX, "float", "3^n shifts overflow a float")


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


def near_cuts(point_map=None) -> np.ndarray:
    """(2, 3) read-only uint64: column t is (L << 11, W << 11), where the z in
    [0, 2**53) whose point point_map(z * 2**-53) (by default z * 2**-53, a
    uniform draw's point) far_coords calls NEAR trit t are [L, L + W) mod 2**53.
    far_coords reads d = fl(fl(3x) - t) against +-1/2 and +-5/2, and rounding is
    monotone, so d rises with z and NEAR flips only where d crosses one of them:
    within an integer of z = 2**53 * k / 6 for odd k.  Each cut is the one flip
    (asserted) within 64 integers of such a z; a bisection over [0, 2**53) would
    miss t = 1's, as its z run FAR, NEAR, FAR.  A map must keep d monotone but
    for wraps that no NEAR flip meets, and its flips in those windows, as
    wrap01(x + 1/3) does."""
    k = np.array([[1], [3], [5]])
    z = (2**53 * k + 3) // 6 + np.arange(-64, 65)  # (window, z), int64
    x = z * 2.0**-53  # exact: z < 2**53
    near = ~far_coords((x if point_map is None else point_map(x))[..., None], np.arange(3))
    rise, fall = near[:, 1:] & ~near[:, :-1], near[:, :-1] & ~near[:, 1:]  # (window, z, t)
    assert ((rise | fall).sum(axis=1) <= 1).all()  # at most one flip per window
    assert (rise.sum(axis=(0, 1)) == 1).all() and (fall.sum(axis=(0, 1)) == 1).all()
    lo, end = ((z[:, 1:, None] * flip).sum(axis=(0, 1)) for flip in (rise, fall))
    cuts = np.array([lo, (end - lo) % 2**53], dtype=np.uint64) << np.uint64(11)
    cuts.flags.writeable = False
    return cuts


NEAR_CUTS = near_cuts()  # the NEAR intervals of uniform draws' own points


def far_bits(v: np.ndarray, cuts: np.ndarray, trits) -> np.ndarray:
    """far_coords(point_map(x), trits) for the points x = z * 2**-53 of the
    uint64 SplitMix values v, z = v >> 11, where cuts = near_cuts(point_map)
    (v is overwritten): (v - L << 11) mod 2**64 < W << 11 exactly when (z - L)
    mod 2**53 < W, whatever v's 11 low bits, so no z or float x is formed."""
    lo, width = cuts.take(trits, axis=1)  # faster than cuts[:, trits]
    v -= lo
    return v >= width
