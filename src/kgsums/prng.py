"""Deterministic 64-bit PRNG used for all reproducible weight generation.

The generator is SplitMix64, fixed here bit-for-bit so that sweeps produce
identical weights on any platform or Python build:

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = state
    z       = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  = z ^ (z >> 31)

The state after k steps is seed + k * 0x9E3779B97F4A7C15 mod 2^64, so output
k is mix(seed + k * gamma) with no dependence on earlier outputs: SplitMix64
is counter-based (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
Generators", OOPSLA 2014).  :func:`splitmix64_block` draws a whole stream, or
the streams of several seeds, in one wrapping uint64 numpy pass; the
sequential :class:`SplitMix64` is the reference it is tested against.

``uniform01`` maps the top 53 output bits onto [0, 1).  Per-modulus streams
for sweeps are derived via :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Sequential SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform01(self) -> float:
        # top 53 bits -> dyadic rational in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


#: the stream's constants as uint64 scalars, for :func:`splitmix64_block`
_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX1, _U64_MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64_block(seed, n: int) -> np.ndarray:
    """Outputs 1..n of ``SplitMix64(seed)`` as one uint64 array.

    ``seed`` may also be a sequence of S seeds: the block then has shape
    (S, n), row s the outputs of ``SplitMix64(seed[s])``.  Every entry takes
    the same wrapping uint64 operations (numpy arrays wrap without a
    warning), so each row is bit for bit the block of its seed alone.
    """
    one = isinstance(seed, (int, np.integer))
    seeds = np.array([int(s) & _MASK64 for s in ([seed] if one else seed)], dtype=np.uint64)
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _U64_GAMMA
    z = z + seeds[:, None]
    z ^= z >> _U64_30
    z *= _U64_MIX1
    z ^= z >> _U64_27
    z *= _U64_MIX2
    z ^= z >> _U64_31
    return z[0] if one else z


def derive_seed(seed: int, salt: int) -> int:
    """Per-instance seed for sweeps: first output of SplitMix64 seeded with
    ``seed XOR ((salt * 0x9E3779B97F4A7C15) mod 2^64)``."""
    return SplitMix64((seed ^ ((salt * _GAMMA) & _MASK64)) & _MASK64).next_u64()
