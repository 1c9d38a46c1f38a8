"""Exact counting of reciprocal-sum and product congruence solutions.

Counts the 2r-tuples from {x <= K : gcd(x, q) = 1} whose r-fold inverse
sums (or r-fold products) agree mod q, plus the integer-equation analogues
over [1, K] without a modulus.  The folded route moves the count vector by
every base residue and sums the results with whole-vector numpy calls:
rotations (sums) are read from a sliding window over the vector written
twice, a block of about ``_FOLD_BLOCK`` entries per gather; unit
permutations (products) are scattered into one reused buffer.  All
arithmetic is exact: the fold tables hold machine integers while provably
below the int64 overflow line and Python ints in object-dtype arrays
otherwise; final tallies are Python ints.  Exhaustive tuple enumeration is
kept alongside every folded route as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimit
from .modmath import Modulus, inverse_table

#: exhaustive oracles refuse beyond this many tuple comparisons
EXHAUSTIVE_TUPLE_CAP = 10**8

#: folded (convolution) route caps
CONVOLUTION_Q_CAP = 10**6
CONVOLUTION_R_CAP = 4

#: equation counters refuse beyond this many enumerated r-tuples
EQUATION_TUPLE_CAP = 2 * 10**7

_INT64_SAFE = 1 << 62

#: entries of rotated count vectors gathered per numpy call in a fold step
_FOLD_BLOCK = 1 << 14


@dataclass(frozen=True)
class CountTable:
    """Dense distribution of r-fold sums or products over residues mod q.

    ``counts[s]`` is the number of r-tuples folding to residue s; the total
    mass is always base_size ** depth.
    """

    modulus: Modulus
    counts: tuple[int, ...]
    depth: int
    base_size: int

    def total(self) -> int:
        return sum(self.counts)

    def check_mass(self) -> bool:
        return self.total() == self.base_size**self.depth


def _admissible(q: Modulus, K: int) -> np.ndarray:
    if not 1 <= K <= q.q:
        raise ValueError(f"K must lie in [1, q] = [1, {q.q}], got {K}")
    xs = np.arange(1, K + 1, dtype=np.int64)
    return xs[np.gcd(xs, q.q) == 1]


def _rotation_sum(
    vec: np.ndarray, shifts: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Sum over i of weights[i] * np.roll(vec, shifts[i]) (unweighted if None).

    Row q - s of the sliding window over ``vec`` written twice is ``vec``
    rotated by s (0 <= s < q), so a block of about _FOLD_BLOCK entries of
    rotations is one gather with no modular arithmetic, summed in one call.
    Rows too long for 16 of them to fit a block are added one view at a
    time instead: their per-row call overhead is small, and a gather would
    cost a pass over memory.
    """
    q = vec.size
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate([vec, vec]), q)
    rows = q - shifts
    out = np.zeros_like(vec)
    step = _FOLD_BLOCK // q
    if step < 16:
        for i, row in enumerate(rows.tolist()):
            out += window[row] if weights is None else weights[i] * window[row]
        return out
    for start in range(0, rows.size, step):
        block = window[rows[start : start + step]]
        out += block.sum(axis=0) if weights is None else weights[start : start + step] @ block
    return out


def _permutation_sum(vec: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Sum over s in ``units`` of ``vec`` moved by t -> t*s mod q.

    One scatter per unit into a reused buffer: the index arithmetic costs
    more than the add, so blocking the rows saves nothing here.
    """
    q = vec.size
    idx = np.arange(q, dtype=np.int64)
    ts, quo = np.empty_like(idx), np.empty_like(idx)
    out = np.zeros_like(vec)
    moved = np.empty_like(vec)
    for s in units.tolist():
        # s is a unit, so t -> t*s mod q permutes the residues.  The mod is
        # t*s - (t*s // q) * q in preallocated buffers: numpy divides by a
        # scalar faster than it takes %, and fresh length-q temporaries can
        # cost a page fault per page on every unit.
        np.multiply(idx, s, out=ts)
        np.floor_divide(ts, q, out=quo)
        quo *= q
        ts -= quo
        moved[ts] = vec
        out += moved
    return out


def _fold(q: int, base: np.ndarray, r: int, moved_sum) -> list[int]:
    """Counts of r-fold sums or products of ``base`` residues mod q, exact.

    Each fold step is ``moved_sum(acc, base)``, the sum of the count vector
    moved by every residue of ``base``: `_rotation_sum` for sums,
    `_permutation_sum` for products.  Counts are at most len(base)**r, so
    they are int64 below the overflow line and Python ints in an object
    array above it.
    """
    dtype = np.int64 if base.size**r < _INT64_SAFE else object
    acc = np.bincount(base, minlength=q).astype(dtype)
    for _ in range(r - 1):
        acc = moved_sum(acc, base)
    return acc.tolist()


def _check_convolution_caps(q: Modulus, r: int) -> None:
    if q.q > CONVOLUTION_Q_CAP or r > CONVOLUTION_R_CAP:
        raise ResourceLimit(
            f"convolution route capped at q <= {CONVOLUTION_Q_CAP}, "
            f"r <= {CONVOLUTION_R_CAP}; got q = {q.q}, r = {r}"
        )


def _exhaustive_pair_count(vals: np.ndarray, q: int, r: int, op: np.ufunc) -> int:
    """Literal 2r-tuple enumeration: fold r-tuples with ``op`` (np.add or
    np.multiply) mod q directly, compare all pairs."""
    n = int(vals.size)
    if n**(2 * r) > EXHAUSTIVE_TUPLE_CAP:
        raise ResourceLimit(
            f"exhaustive oracle needs {n ** (2 * r)} tuple comparisons, "
            f"cap is {EXHAUSTIVE_TUPLE_CAP}"
        )
    folded = vals.copy()
    for _ in range(r - 1):
        folded = op.outer(folded, vals).reshape(-1) % q
    total = 0
    chunk = max(1, 10**7 // max(folded.size, 1))
    for start in range(0, folded.size, chunk):
        block = folded[start : start + chunk]
        total += int(np.sum(block[:, None] == folded[None, :]))
    return total


def reciprocal_table(q: "Modulus | int", K: int, r: int) -> CountTable:
    """Distribution of r-fold inverse sums of admissible x <= K."""
    mod = Modulus.of(q)
    base = _admissible(mod, K)
    counts = _fold(mod.q, inverse_table(mod)[base], r, _rotation_sum)
    return CountTable(modulus=mod, counts=tuple(counts), depth=r, base_size=base.size)


def product_table(q: "Modulus | int", K: int, r: int) -> CountTable:
    """Distribution of r-fold products of admissible x <= K."""
    mod = Modulus.of(q)
    base = _admissible(mod, K)
    counts = _fold(mod.q, base, r, _permutation_sum)
    return CountTable(modulus=mod, counts=tuple(counts), depth=r, base_size=base.size)


def _congruence_count(q: "Modulus | int", K: int, r: int, method: str, reciprocal: bool) -> int:
    """Pairs of r-tuples of admissible x <= K whose inverse sums
    (``reciprocal``) or products agree mod q."""
    mod = Modulus.of(q)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    base = _admissible(mod, K)
    if method == "convolution":
        _check_convolution_caps(mod, r)
        table = reciprocal_table(mod, K, r) if reciprocal else product_table(mod, K, r)
        return sum(c * c for c in table.counts)
    if method == "exhaustive":
        if reciprocal:
            return _exhaustive_pair_count(inverse_table(mod)[base], mod.q, r, np.add)
        return _exhaustive_pair_count(base, mod.q, r, np.multiply)
    raise ValueError(f"method must be 'convolution' or 'exhaustive', got {method!r}")


def jr_congruence(q: "Modulus | int", K: int, r: int, method: str = "convolution") -> int:
    """Solutions of 1/x_1 + .. + 1/x_r = 1/x_{r+1} + .. + 1/x_{2r} mod q
    with 1 <= x_i <= K and gcd(x_i, q) = 1 (inverses require coprimality).
    """
    return _congruence_count(q, K, r, method, reciprocal=True)


def rr_congruence(q: "Modulus | int", K: int, r: int, method: str = "convolution") -> int:
    """Solutions of x_1 * .. * x_r = x_{r+1} * .. * x_{2r} mod q with
    1 <= x_i <= K and gcd(x_i, q) = 1.
    """
    return _congruence_count(q, K, r, method, reciprocal=False)


def _equation_count(vals: list[int], r: int, op: np.ufunc, wide: bool) -> int:
    """Sum of squared multiplicities of the r-fold sums or products of vals.

    The r-tuples are enumerated in int64, or as Python ints in an object
    array when ``wide`` (a tighter cap: big ints are wide).
    """
    if wide and len(vals) ** r > EQUATION_TUPLE_CAP // 10:
        raise ResourceLimit(
            f"big-integer equation path capped at K^r <= {EQUATION_TUPLE_CAP // 10}"
        )
    arr = np.array(vals, dtype=object if wide else np.int64)
    folded = arr
    for _ in range(r - 1):
        folded = op.outer(folded, arr).reshape(-1)
    _, counts = np.unique(folded, return_counts=True)
    return sum(int(c) * int(c) for c in counts)


def jr_equation(K: int, r: int) -> int:
    """Solutions of the reciprocal-sum equation over the integers [1, K].

    Sums 1/x are scaled by lcm(1..K) so every value is an exact integer;
    the count is the sum of squared multiplicities of the r-fold sums.
    """
    if K < 1 or r < 1:
        raise ValueError("K and r must be >= 1")
    if K**r > EQUATION_TUPLE_CAP:
        raise ResourceLimit(f"K^r = {K ** r} exceeds cap {EQUATION_TUPLE_CAP}")
    L = math.lcm(*range(1, K + 1))
    scaled = [L // x for x in range(1, K + 1)]
    return _equation_count(scaled, r, np.add, wide=r * L >= _INT64_SAFE)


def rr_equation(K: int, r: int) -> int:
    """Solutions of x_1..x_r = x_{r+1}..x_{2r} over the integers [1, K]."""
    if K < 1 or r < 1:
        raise ValueError("K and r must be >= 1")
    if K**r > EQUATION_TUPLE_CAP:
        raise ResourceLimit(f"K^r = {K ** r} exceeds cap {EQUATION_TUPLE_CAP}")
    return _equation_count(list(range(1, K + 1)), r, np.multiply, wide=K**r >= _INT64_SAFE)


def dyadic_average(
    Q: int, K: int, r: int, kind: str = "reciprocal"
) -> tuple[Fraction, dict[int, int]]:
    """Per-q counts over q in [Q, 2Q] and their (1/Q)-normalized mean.

    ``kind`` selects reciprocal-sum or product congruences.  The per-q map
    is returned in full so exceptional moduli can be inspected.
    """
    if kind not in ("reciprocal", "product"):
        raise ValueError(f"kind must be 'reciprocal' or 'product', got {kind!r}")
    if not 1 <= K <= Q:
        raise ValueError(f"need 1 <= K <= Q, got K = {K}, Q = {Q}")
    counter = jr_congruence if kind == "reciprocal" else rr_congruence
    per_q = {q: counter(q, K, r, method="convolution") for q in range(Q, 2 * Q + 1)}
    mean = Fraction(sum(per_q.values()), Q)
    return mean, per_q


def j2_reference_ratio(q: "Modulus | int", K: int) -> float:
    """Observed J_2(q; K) divided by K^(7/2) q^(-1/2) + K^2.

    Used by the regression grid; only frozen baselines are asserted since
    the comparison formula carries an unspecified sub-polynomial factor.
    """
    mod = Modulus.of(q)
    count = jr_congruence(mod, K, 2, method="convolution")
    return count / (K**3.5 / math.sqrt(mod.q) + K**2)
