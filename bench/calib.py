"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by a third or more over minutes, the same for this
loop as for the program.  The child times :func:`calibrate` right after
its imports and after every step of the workload, and the runner reports
each time in *reference seconds*: the raw time scaled by
``NOMINAL_NS / calibration time``.  A step's calibration is the mean of the
loops just before and after it; the start-up's is the loop right after the
imports.  Drift slower than a step cancels; a change to the program does
not, because the loop calls none of it.  Raw wall-clock medians are
printed beside the reference figures.

The loop mixes what the workloads spend their time on: interpreted
integer arithmetic and list/dict traffic; many numpy calls on tiny arrays,
as in the character and conductor loops; and numpy gathers, modular
arithmetic and FFTs on arrays of 2^16 entries (small enough not to raise
the children's peak RSS).
"""

from __future__ import annotations

import time

import numpy as np

#: the loop's time at the reference speed; reference seconds are scaled to it
NOMINAL_NS = 100_000_000

#: the loop runs this many rounds; each round takes about 20 ms
ROUNDS = 6

_SIZE = 1 << 16
_PRIME = 65537


def _interpreted(n: int) -> int:
    table = {}
    out = []
    acc = 1
    for i in range(1, n):
        acc = acc * 48271 % _PRIME
        key = acc & 1023
        table[key] = table.get(key, 0) + i
        out.append(pow(acc, 3, _PRIME))
    return sum(out) + len(table)


def _small_arrays(n: int) -> int:
    hits = 0
    for i in range(n):
        a = np.zeros(8, dtype=np.int64)
        a[i & 7] = i
        hits += bool(np.all(a * 3 % 7 >= 0)) + int(a.sum() & 1)
    return hits


def _arrays(x: np.ndarray, perm: np.ndarray) -> float:
    y = x * x % _PRIME
    z = y[perm]
    g = np.gcd(z, 720720)
    f = np.fft.fft(z * (g == 1))
    return float(np.abs(f).sum())


def calibrate() -> int:
    """Run the reference loop once; returns its wall time in ns."""
    x = np.arange(_SIZE, dtype=np.int64)
    perm = np.random.default_rng(0).permutation(_SIZE)
    start = time.perf_counter_ns()
    for _ in range(ROUNDS):
        _interpreted(10000)
        _small_arrays(600)
        _arrays(x, perm)
    return time.perf_counter_ns() - start


def to_reference(ns: float, cal_ns: float) -> float:
    """``ns`` of wall time, in ns at the reference speed."""
    return ns * NOMINAL_NS / cal_ns
