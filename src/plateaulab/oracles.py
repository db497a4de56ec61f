"""The two query models: exact evaluation and +-1 sampling.

A sample query pops one shared uniform R from the stack and answers +1
iff R < f(x), so the outcome has mean f(x).  Coupled runs answer two
functions against the same R; they disagree exactly when R lands between
the two values, with probability |f(x) - fbar(x)| / 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .rng import RandomStack
from .torus import TorusPoint

__all__ = [
    "RandomStack",
    "Transcript",
    "ClampedFunction",
    "eval_query",
    "sample_query",
    "coupled_sample",
]


@dataclass
class Transcript:
    """Ordered record of (query point, +-1 outcome) pairs."""

    entries: list[tuple[TorusPoint, int]] = field(default_factory=list)

    def append(self, x: TorusPoint, outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError("outcome must be +1 or -1")
        self.entries.append((x, outcome))

    def points(self) -> list[TorusPoint]:
        return [x for x, _ in self.entries]


@dataclass(frozen=True)
class ClampedFunction:
    """Piecewise function: constant eta on the region, the base elsewhere."""

    base: object  # callable on a TorusPoint, with .n
    region: object  # PlateauRegion-like: .n and .contains(x)
    eta: float

    def __post_init__(self):
        if self.region.n != self.base.n:
            raise ValueError("region dimension must match function dimension")
        if not -1.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return self.base.n

    def __call__(self, x: TorusPoint) -> float:
        if self.region.contains(x):
            return self.eta
        return self.base(x)


def _check_dim(f, x: TorusPoint) -> None:
    if len(x) != f.n:
        raise ValueError(f"dimension mismatch: expected {f.n}, got {len(x)}")


def eval_query(f, x: TorusPoint) -> float:
    """Evaluation query: the exact value f(x); consumes no randomness."""
    _check_dim(f, x)
    return f(x)


def sample_query(f, x: TorusPoint, stack: RandomStack) -> int:
    """Sample query: pop R, return +1 iff R < f(x); P(+1) = (1 + f(x))/2."""
    _check_dim(f, x)
    r = stack.pop()
    return 1 if r < f(x) else -1


def coupled_sample(f, fbar, x: TorusPoint, shared: RandomStack) -> tuple[int, int, bool]:
    """One shared pop answers both functions; diverged iff outcomes differ."""
    _check_dim(f, x)
    _check_dim(fbar, x)
    r = shared.pop()
    out_f = 1 if r < f(x) else -1
    out_fbar = 1 if r < fbar(x) else -1
    return out_f, out_fbar, out_f != out_fbar
