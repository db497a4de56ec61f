"""Streams whose draws land on chosen 53-bit integers, through the inverse of
the SplitMix64 finaliser: random seeds almost never put a draw within an ulp
of a table's cut, so the tests build such streams."""
import numpy as np

from plateaulab.rng import _GOLDEN, _MASK, _MIX1, _MIX2, _mix64


def unmix64(z):
    """The inverse of rng._mix64: its steps undone in reverse order."""
    def unshift(z, s):  # x ^ x >> s becomes x ^ x >> 2s, then 4s, then 8s >= 64
        for k in (s, 2 * s, 4 * s):
            z ^= z >> k
        return z

    z = unshift(z, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) & _MASK, 27)
    return unshift(z * pow(_MIX1, -1, 2**64) & _MASK, 30)


def edge_bases(edges, low=0, draws=0):
    """Bases of the streams whose draw draws[i] (one draw for all, or one per
    edge) has 53-bit integer z = edges[i], with `low` in the 11 bits of its
    SplitMix64 value below z."""
    draws = np.broadcast_to(draws, (len(edges),))
    return np.array([(unmix64(int(z) << 11 | low) - (int(k) + 1) * _GOLDEN) & _MASK
                     for z, k in zip(edges, draws)], dtype=np.uint64)


def edge_seed(base):
    """The seed whose stream 0 has SplitMix64 base `base`."""
    return unmix64(int(base)) ^ _mix64(_GOLDEN)


def cut_edges(*tables):
    """(cuts, 3) int64: row i is the 53-bit integers cut - 1, cut and cut + 1
    for each cut (an end of a NEAR interval) of the torus.near_cuts tables."""
    lo, width = np.concatenate(tables, axis=1) >> np.uint64(11)
    ends = np.concatenate([lo, (lo + width) % np.uint64(2**53)]).astype(np.int64)
    return np.add.outer(ends, [-1, 0, 1]) % 2**53
