"""Weighted bilinear forms over Kloosterman and Gauss sums.

The double sum over (weight support) x (interval) admits three routes:

* ``naive``       - literal double sum calling the scalar sum per pair.
                    O(M * N * phi(q)); capped, exists purely as an oracle.
* ``transformed`` - swap summation order and substitute x -> x^-1, giving
                    sum_x f(x^-1) * gamma_x with f(t) = sum_m alpha_m e_q(mt)
                    and gamma_x the closed-form geometric interval sum.
                    f is the character-sum kernel shared with Gauss: it
                    reads e_q(m x^-1) from a table of roots of unity.
                    O(phi(q) * M).
* ``fast``        - same shape, but f is one length-q DFT of the dense
                    weight vector followed by the inversion permutation.
                    O(q log q + q).

:func:`bilinear_kloosterman` takes the kernel power k of e_q(m x^-k + n x);
k = 1 is Kloosterman, and the naive oracle runs at k = 1 only.

Weights are built from arrays and stored as arrays: :class:`WeightVector`
takes strictly increasing residues with aligned values and holds an int64
support with aligned complex128 coefficients; :class:`CharWeightVector`
does the same with its characters' exponent rows.  Both are read-only.
Each public constructor checks its keys once, whatever the values, first;
``_from_columns`` builds a vector per column of an (M, S) block on keys read
off the modulus's tables, checked by construction.  Zeros are dropped last.

One core, :func:`_bilinear_sums`, takes several weight vectors on one
modulus, one interval and one route, and returns one :class:`SumResult`
per vector, bit for bit what the vector gives alone: the vectors share
gamma_x and, on the fast route, one batched DFT, whose Bluestein scratch
grows with the vectors (at q = 1000003, M = N = 1000, a run peaks at
176 MB with 1 seed, 255 MB with 2 and 289 MB with 5).  Both routes hand
their inner sums to one 2-D tail, :func:`_outer_sums`, as an (S, phi(q))
array.  The public functions, which the CLI and `verify` call, are the
core's one-vector case; the experiment harness calls the core itself for
every number of seeds.  All routes must agree within the sum of their
error bounds; the cross-check is enforced by the experiment harness and the
test suite.  Evaluation is pure and sequential with numpy's deterministic
pairwise reduction, so results are reproducible bit for bit; the x-loop
partitions cleanly if a caller wants to parallelize by range.

The interval sums gamma_x, one kernel for a residue or for every unit, are
localized by the dyadic scale of the representative r in (-q/2, q/2]
(:func:`dyadic_scale`); on scale i the magnitude of gamma_x is at most
C * exp(-i) * N with C = e/2 (GAMMA_SCALE_C).  The 2r-th moment identity
lives in :mod:`kgsums.counting`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainRestriction,
    InvalidWeight,
    ModulusMismatch,
    ResourceLimit,
)
from .expsums import (
    SumResult,
    angle_numerators,
    conductors,
    dft_entry_error,
    gauss,
    kloosterman,
    roots_of_unity,
    rows_in_range,
    _sum_rows,
    _sum_terms,
)
from .modmath import (
    MACHINE_EPS,
    TWO_PI,
    Modulus,
    _shared,
    floor_mod,
    inverse_table,
    pow_mod,
    unit_residues,
)
from .prng import splitmix64_block

#: C in |gamma_x| <= C * exp(-i) * N at the dyadic scale i of x (dyadic_scale):
#: at i = 0, |gamma_x| <= N <= (e/2) * N; at i >= 1, |r| > e^(i-1) * q/N, so
#: |gamma_x| <= q / (2|r|) < (e/2) * e^(-i) * N
GAMMA_SCALE_C = math.e / 2

#: naive double-sum oracle cap on M * N * phi(q)
NAIVE_COST_CAP = 10**9


@dataclass(frozen=True)
class Interval:
    """Block of N consecutive integers {L+1, ..., L+N} inside [1, q-1]."""

    L: int
    N: int
    modulus: Modulus

    def __post_init__(self):
        q = self.modulus.q
        if self.N < 1:
            raise ValueError(f"interval length must be >= 1, got {self.N}")
        if self.L < 0 or self.L + self.N > q - 1:
            raise ValueError(
                f"interval [{self.L + 1}, {self.L + self.N}] not inside [1, {q - 1}]"
            )

    @classmethod
    def of(cls, q: "Modulus | int", L: int, N: int) -> "Interval":
        return cls(L=L, N=N, modulus=Modulus.of(q))

    def values(self) -> range:
        return range(self.L + 1, self.L + self.N + 1)


def _check_order(keys: np.ndarray, order: np.ndarray) -> None:
    """Refuse ``keys`` unless ``order``, one int per key, strictly increases,
    naming the first key that does not exceed the one before it."""
    bad = order[1:] <= order[:-1]
    if bad.any():
        i = int(bad.argmax()) + 1
        raise InvalidWeight(f"weight keys must strictly increase: {keys[i].tolist()} "
                            f"follows {keys[i - 1].tolist()}")


def _norms(coeffs: np.ndarray) -> list[tuple[float, float, float]]:
    """The three norms of each row of the (S, M) ``coeffs``.

    np.hypot rounds as abs() does (np.abs on complex128 can differ in the
    last bit); fsum reads each row's floats through a memoryview, no list.
    An exact zero adds nothing to any of the three, so a row's norms are
    those of its nonzero entries.
    """
    mags = np.hypot(coeffs.real, coeffs.imag)
    return [
        (math.fsum(memoryview(row)), math.sqrt(math.fsum(memoryview(squares))), peak)
        for row, squares, peak in zip(mags, mags * mags, mags.max(-1, initial=0.0).tolist())
    ]


def _norm(i: int, doc: str) -> property:
    return property(lambda self: self._norm_values[i], doc=doc)


def _weight_values(n: int, values) -> np.ndarray:
    """``values`` as a complex128 vector, checked to hold one weight for each of ``n`` keys."""
    values = np.asarray(values, dtype=np.complex128).reshape(-1)
    if values.size != n:
        raise ValueError(f"{n} weight keys but {values.size} values")
    return values


def _fill(vectors: list, modulus: Modulus, keys: np.ndarray, values: np.ndarray) -> None:
    """Give each of ``vectors`` its row of ``values``, an (S, M) block of
    weights on the M checked ``keys`` (a new array that nothing else holds).

    The norms of every row come from one pass over the block.  A row with
    no zero weight keeps ``keys`` and its row of the block, read-only and
    shared; any other row keeps the keys and weights where it is nonzero.
    Both are in key order, which the keys' check or source has ensured.
    """
    keys = _shared(keys)
    coeffs = _shared(values + 0j)  # a -0.0 part becomes +0.0
    for w, row, whole, norms in zip(vectors, coeffs, coeffs.all(-1).tolist(), _norms(coeffs)):
        if whole:
            w._support, w._coeffs = keys, row
        else:
            kept = row != 0
            w._support, w._coeffs = _shared(keys[kept]), _shared(row[kept])
        w.modulus, w._norm_values = modulus, norms


class _SortedWeights:
    """Weights stored as sorted distinct keys and aligned coefficients.

    Built in two steps: one check of the keys alone (``_checked_keys``), then
    :func:`_fill`, which drops each vector's zero weights and takes its
    norms; :meth:`_from_columns` is the second step alone, for S vectors.
    Both arrays are read-only and the norms are computed once, at
    construction, so an instance is immutable in practice.
    """

    __slots__ = ("modulus", "_support", "_coeffs", "_norm_values")

    @classmethod
    def _from_columns(cls, modulus: Modulus, keys: np.ndarray, values: np.ndarray) -> list:
        """One vector per column of ``values``, a complex128 (M, S) block, vector s bit for bit
        ``cls(modulus, keys, values[:, s])``, on M keys taken as checked: units or primitive
        rows in increasing order, as ``experiments._support_keys`` reads them off the tables."""
        vectors = [cls.__new__(cls) for _ in range(values.shape[1])]
        _fill(vectors, modulus, np.array(keys, dtype=np.int64), values.T)
        return vectors

    @property
    def support_size(self) -> int:
        return len(self._coeffs)

    def support(self) -> np.ndarray:
        return self._support

    def coefficients(self) -> np.ndarray:
        return self._coeffs


class WeightVector(_SortedWeights):
    """Sparse complex weights on residues coprime to q.

    Built from residues ``keys`` with aligned ``values``.  Keys are reduced
    mod q, must be units of ``modulus.mask`` (so a vector with keys and q
    above TABLE_Q_CAP raises ResourceLimit) and must strictly increase,
    whatever their values; exact zeros are dropped, so ``support()``
    (sorted int64) and ``coefficients()`` (complex128) hold the true support.
    """

    __slots__ = ()

    def __init__(self, modulus: Modulus, keys=(), values=()):
        modulus = Modulus.of(modulus)
        keys, values = self._checked_keys(modulus, keys, values)
        _fill([self], modulus, keys, values[None])

    @staticmethod
    def _checked_keys(modulus: Modulus, keys, values):
        """The keys reduced mod q into a new int64 vector, checked to be units
        that strictly increase, and the values as :func:`_weight_values` gives them."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        values = _weight_values(keys.size, values)
        reduced = floor_mod(keys, modulus.q)
        if keys.size and not (unit := modulus.mask[reduced]).all():  # empty: no capped mask
            i = int(np.argmin(unit))
            g = math.gcd(int(reduced[i]), modulus.q)
            raise InvalidWeight(f"weight key {keys[i]} is not a unit mod {modulus.q} (gcd = {g})")
        _check_order(reduced, reduced)
        return reduced, values

    norm1 = _norm(0, "sum of |w|")
    norm2 = _norm(1, "sqrt of the sum of |w|^2")
    norm_inf = _norm(2, "max of |w|")


class CharWeightVector(_SortedWeights):
    """Sparse complex weights on primitive characters mod q; storage as in WeightVector.

    Built from exponent ``rows``, shape (M, number of generators), with
    aligned ``values``.  Every row must lie in range and have conductor q
    by :func:`conductors`, and the rows must strictly increase in the order
    of :func:`primitive_characters`, whatever their values.
    """

    __slots__ = ()

    def __init__(self, modulus: Modulus, rows=(), values=()):
        modulus = Modulus.of(modulus)
        rows, values = self._checked_keys(modulus, rows, values)
        _fill([self], modulus, rows, values[None])

    @staticmethod
    def _checked_keys(modulus: Modulus, rows, values):
        """The rows copied into a new int64 matrix, checked to be primitive and to
        strictly increase by their index in :func:`characters` (lexicographic
        order on rows in range), and the values as :func:`_weight_values` gives them."""
        values = _weight_values(len(rows), values)
        orders = modulus.group.orders
        rows = np.array(rows, dtype=np.int64).reshape(len(values), len(orders))
        primitive = rows_in_range(modulus, rows) & (conductors(modulus, rows) == modulus.q)
        bad = np.flatnonzero(~primitive)
        if bad.size:
            raise InvalidWeight(
                f"exponent row {tuple(rows[bad[0]].tolist())} is not a primitive character "
                f"mod {modulus.q} (generator orders {orders})"
            )
        strides = [math.prod(orders[j + 1 :]) for j in range(len(orders))]
        _check_order(rows, rows @ np.array(strides, dtype=np.int64))
        return rows, values

    norm1 = _norm(0, "sum of |w|")
    norm2 = _norm(1, "sqrt of the sum of |w|^2")
    norm_inf = _norm(2, "max of |w|")


WEIGHT_KINDS = ("const", "pm1", "unit")


def make_weights(keys, kind: str, seed) -> np.ndarray:
    """Deterministic complex128 weight values for the given ordered keys.

    Kinds: ``const`` (all 1), ``pm1`` (random signs from the top bit),
    ``unit`` (random points on the unit circle, angle 2 pi times the top
    53 bits over 2^53).  Value i comes from output i+1 of one SplitMix64
    stream seeded with ``seed``, so every run is reproducible cross-platform.

    ``seed`` may also be a sequence of S seeds, drawn as one SplitMix64
    block: the values then have shape (len(keys), S), one row per key as
    for one seed, and column s is bit for bit the values of ``seed[s]``.
    """
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")
    one = isinstance(seed, (int, np.integer))
    shape = (len(keys),) if one else (len(seed), len(keys))
    if kind == "const":
        values = np.ones(shape, dtype=np.complex128)
    else:
        bits = splitmix64_block(seed, len(keys))
        if kind == "pm1":
            values = np.where(bits >> np.uint64(63), -1.0, 1.0).astype(np.complex128)
        else:
            angles = TWO_PI * ((bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)))
            values = np.exp(1j * angles)
    return values if one else values.T


# ---------------------------------------------------------------------------
# Interval sums gamma_x and their dyadic scales
# ---------------------------------------------------------------------------


#: per-value rounding budget multiplier: |computed - exact| <= this * eps * N
GAMMA_EVAL_ERR = 32.0


def _centered(v, m: int):
    """v mod m in (-m/2, m/2], for a Python int or elementwise on an int64 array."""
    h = (m - 1) // 2
    t = floor_mod(v + h, m)
    t -= h
    return t


def _gamma_at(q: int, L, N, r, out=None):
    """gamma_x over {L+1, ..., L+N} mod q at centered representatives r != 0 of x.

    Python ints, or int64 arrays that broadcast (N as a column gives a row
    per length); each entry is the same elementwise arithmetic at any shape.
    Angles are integer multiples of pi/q reduced exactly into (-q, q], so the
    rounding error stays below GAMMA_EVAL_ERR * eps * N uniformly in x (an
    unreduced phase N*x*pi/q would lose ~eps*q*N near x = q).  ``out``, when
    given, receives the values.
    """
    num_t = _centered(N * r, 2 * q)
    # a numpy value even for a scalar: Python's complex division by q rounds
    # differently from numpy's, so a scalar would drift from the array values
    phase_t = np.asarray(_centered((2 * L + N + 1) * r, 2 * q))
    ratio = np.sin(np.pi * num_t / q) / np.sin(np.pi * r / q)
    return np.multiply(np.exp(1j * np.pi * phase_t / q), ratio, out=out)


def _gamma_over_units(J: Interval) -> np.ndarray:
    """gamma_x for every unit x, aligned with unit_residues(q): bit for bit
    :func:`_gamma_at` at their centered representatives, evaluated on half.

    For q > 2 the ascending units pair off as x and q - x: those of the
    first half lie below q/2 and are their own representatives r, those of
    the second half are -r in reverse order.  At -r both reduced numerators of :func:`_gamma_at`
    change sign, and gamma_{-r} = conj(gamma_r) bit for bit, given that
    numpy's sin is odd and exp(conj(z)) = conj(exp(z)) (both hold for numpy
    2.4; the digests of ``tests/test_bit_identity.py`` pin the values).
    So the mirror half is one conjugate of the first half read backwards.
    A numerator at 0 or q mod 2q keeps its sign at -r, and there the
    conjugate differs (in a zero's sign, or exp(i*pi) at both r and -r).
    The length numerator N*r is never 0 mod q, since r is a unit and
    0 < N < q; the phase numerator (2L + N + 1)*r is, at every unit at once,
    when q divides 2L + N + 1.  Those intervals take the direct call, and
    so does q = 2, whose one interval {1} is among them.
    """
    q, units = J.modulus.q, unit_residues(J.modulus)
    if (2 * J.L + J.N + 1) % q == 0:
        return _gamma_at(q, J.L, J.N, _centered(units, q))
    half = units.size // 2
    gam = np.empty(units.size, dtype=np.complex128)
    _gamma_at(q, J.L, J.N, units[:half], out=gam[:half])
    np.conjugate(gam[half - 1 :: -1], out=gam[half:])
    return gam


def dyadic_scale(q: int, N, x):
    """Dyadic scale index of x's centered representative r in (-q/2, q/2].

    0 where |r| <= q/N, else ceil(ln(|r| * N / q)), so scale i >= 1 holds
    e^(i-1) * q/N < |r| <= e^i * q/N and every residue has exactly one
    scale, at most ceil(ln(N/2)) since |r| <= q/2.  Python ints or int64
    arrays that broadcast as in :func:`_gamma_at` (N as a column gives a
    row per length); N must lie in [1, q-1].
    """
    N = np.asarray(N, dtype=np.int64)
    bad = (N < 1) | (N > q - 1)
    if np.any(bad):
        raise ValueError(f"N must lie in [1, {q - 1}], got {np.extract(bad, N)[0]}")
    r = np.abs(_centered(np.asarray(x, dtype=np.int64), q))
    # r * N <= q gives ln(1) = 0 exactly, and no log of 0 at r = 0
    return np.ceil(np.log(np.maximum(r * N, q) / q)).astype(np.int64)


# ---------------------------------------------------------------------------
# Bilinear evaluation paths
# ---------------------------------------------------------------------------

_KLOOSTERMAN_METHODS = ("naive", "transformed", "fast")
_GAUSS_METHODS = ("naive", "transformed")

#: a tile of the character-sum kernel holds max(2, _BLOCK_ENTRIES // M) units for M
#: weights; a tile of the outer sums holds max(1, _BLOCK_ENTRIES // phi(q)) rows
_BLOCK_ENTRIES = 1 << 18


def _inverse_powers(mod: Modulus, inv_power: int) -> np.ndarray:
    """(x^-1)^k mod q for every unit x, aligned with unit_residues(q)."""
    inv = inverse_table(mod)[unit_residues(mod)]
    return inv if inv_power == 1 else pow_mod(inv, inv_power, mod.q)


def _fast_values(vectors: list, inv_power: int) -> np.ndarray:
    """f((x^-1)^k) for every unit x, one row per weight vector, the inner sums
    done by one DFT over the rows: an (S, phi(q)) array for S vectors.

    Each row of the batched transform, scaled in place, is byte for byte the
    1-D ``q * ifft(row)``, so a vector's row does not depend on the others.
    """
    mod = vectors[0].modulus
    dense = np.zeros((len(vectors), mod.q), dtype=np.complex128)
    for row, A in zip(dense, vectors):
        row[A.support()] = A.coefficients()
    np.fft.ifft(dense, axis=-1, out=dense)
    dense *= mod.q  # dense[s, t] = sum_m alpha_m e_q(m t) for vector s
    return np.take(dense, _inverse_powers(mod, inv_power), axis=-1)


def _outer_sums(J: Interval, f_vals: np.ndarray, entry_errs: list) -> list[SumResult]:
    """sum over units x of f_vals[s] * gamma_x for each row s of ``f_vals``,
    with the inner rounding propagated.

    Every row is aligned with unit_residues(q), and each entry of row s
    carries at most ``entry_errs[s]``; each gamma value carries
    GAMMA_EVAL_ERR * eps * N.  gamma and its l1 norm are computed once for
    all rows.  The rows go in tiles of max(1, _BLOCK_ENTRIES // phi(q)): a
    tile takes one product with gamma, and its sums and l1 norms run along
    the rows (:func:`_sum_rows`), bit for bit those of each row alone, so
    the tail's scratch is one tile, one row at a large modulus.
    """
    gam = _gamma_over_units(J)
    gam_norm1 = np.sum(np.abs(gam))
    height = max(1, _BLOCK_ENTRIES // gam.size)
    results = []
    for start in range(0, len(f_vals), height):
        tile = f_vals[start : start + height]
        f_norm1 = np.sum(np.abs(tile), axis=-1).tolist()
        for outer, f1, entry_err in zip(_sum_rows(tile * gam), f_norm1, entry_errs[start:]):
            err_inner = float(entry_err * gam_norm1 + GAMMA_EVAL_ERR * MACHINE_EPS * J.N * f1)
            results.append(
                SumResult(
                    value=outer.value,
                    error_bound=outer.error_bound + err_inner,
                    terms=outer.terms,
                )
            )
    return results


def _character_sums(weights, numerators, roots: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(x) = sum_i w_i psi_i(x) for every unit x, aligned with unit_residues(q),
    written into the phi(q) entries of ``out`` and returned.

    ``numerators(keys, tile)`` gives the angle numerators, reduced mod
    len(roots), of every support key at the units in the slice ``tile`` of
    unit_residues(q), one row per key; psi_i(x) is ``roots`` read at them.
    A tile holds max(2, _BLOCK_ENTRIES // M) units for M weights (all of
    them if fewer), and its values fill one M-row buffer.  The weight is the
    left operand, and one reduction over axis 0 adds the rows in support
    order, from zero, into the tile's part of the result: bit for bit the
    sequential sum of w_i * psi_i, for Gauss weights the sum of
    ``w * char_values(q, row)``.  A one-column reduction would be pairwise,
    so no tile is narrower than two units: the last one ends at phi(q) and
    may recompute units of the one before, to the same bits.
    """
    phi = weights.modulus.phi
    keys, coeffs = weights.support(), weights.coefficients()
    width = min(max(2, _BLOCK_ENTRIES // coeffs.size), phi)
    psi = np.empty((coeffs.size, width), dtype=np.complex128)
    for start in range(0, phi, width):
        lo = min(start, phi - width)
        tile = slice(lo, lo + width)
        # t < len(roots) already; "wrap" avoids a buffer
        np.take(roots, numerators(keys, tile), out=psi, mode="wrap")
        np.multiply(coeffs[:, None], psi, out=psi)
        np.add.reduce(psi, axis=0, out=out[tile], initial=0)
    return out


def _naive_double_sum(weights, J: Interval, scalar) -> SumResult:
    """Literal double sum of w * scalar(q, k, n) over supp(weights) x J.

    ``scalar`` is :func:`kloosterman` or :func:`gauss`, and k is a support
    entry as ``support().tolist()`` gives it: a residue, or an exponent row
    as a list.  The support is walked in sorted order beside
    ``coefficients()``.  Exists purely as an oracle.
    """
    mod = J.modulus
    cost = weights.support_size * J.N * mod.phi
    if cost > NAIVE_COST_CAP:
        raise ResourceLimit(
            f"naive double sum cost M*N*phi = {cost} exceeds cap {NAIVE_COST_CAP}"
        )
    pairs = zip(weights.support().tolist(), weights.coefficients().tolist())
    sums = [(w, scalar(mod, k, n)) for k, w in pairs for n in J.values()]
    outer = _sum_terms(np.array([w * s.value for w, s in sums]))
    err = math.fsum(abs(w) * s.error_bound for w, s in sums)
    return SumResult(value=outer.value, error_bound=outer.error_bound + err, terms=outer.terms)


def _bilinear_sums(
    family: str, vectors: list, J: Interval, method: str, k: int = 1
) -> list[SumResult]:
    """The weighted double sums of several weight vectors over one interval by one route.

    ``family`` is "kloosterman" (WeightVector weights, kernel power k) or
    "gauss" (CharWeightVector weights, k = 1).  Every vector must share J's
    modulus.  The vectors share gamma_x over the units, its l1 norm and,
    on the fast route, one batched DFT; each keeps its own inner sums, its
    own outer sum and its own budget.  The i-th result is bit for bit what
    ``vectors[i]`` gives alone, which is how :func:`bilinear_kloosterman`
    and :func:`bilinear_gauss` call it.
    """
    methods = _KLOOSTERMAN_METHODS if family == "kloosterman" else _GAUSS_METHODS
    if k < 1:
        raise ValueError(f"kernel power k must be >= 1, got {k}")
    if method not in methods:
        raise ValueError(f"method must be one of {methods}, got {method!r}")
    if method == "naive" and k != 1:
        raise DomainRestriction(f"the naive route needs k = 1, got k = {k}")
    mod = J.modulus
    for w in vectors:
        if w.modulus.q != mod.q:
            raise ModulusMismatch(f"weights mod {w.modulus.q} but interval mod {mod.q}")
    live = [w for w in vectors if w.support_size]
    if not live:
        sums = []
    elif method == "naive":
        scalar = kloosterman if family == "kloosterman" else gauss
        sums = [_naive_double_sum(w, J, scalar) for w in live]
    elif method == "fast":
        # each DFT entry carries dft_entry_error(q, ||A||_1)
        errs = [dft_entry_error(mod.q, A.norm1) for A in live]
        sums = _outer_sums(J, _fast_values(live, k), errs)
    else:
        if family == "kloosterman":
            powers, roots = _inverse_powers(mod, k), roots_of_unity(mod.q)

            def numerators(ms: np.ndarray, tile: slice) -> np.ndarray:  # m (x^-1)^k mod q
                return floor_mod(ms[:, None] * powers[tile], mod.q)  # below q^2 <= 2^46

        else:
            logs, roots = mod.logs[unit_residues(mod)], roots_of_unity(mod.carmichael)

            def numerators(rows: np.ndarray, tile: slice) -> np.ndarray:
                return angle_numerators(mod, rows, logs[tile])

        # each direct inner sum carries (M + 4) eps * ||w||_1
        errs = [(w.support_size + 4) * MACHINE_EPS * w.norm1 for w in live]
        f_vals = np.empty((len(live), mod.phi), dtype=np.complex128)
        for w, row in zip(live, f_vals):
            _character_sums(w, numerators, roots, row)
        sums = _outer_sums(J, f_vals, errs)
    sums = iter(sums)
    return [
        next(sums) if w.support_size else SumResult(value=0j, error_bound=0.0, terms=0)
        for w in vectors
    ]


def bilinear_kloosterman(
    A: WeightVector, J: Interval, method: str = "fast", k: int = 1
) -> SumResult:
    """Weighted double sum over supp(A) x J of the kernel sum_x e_q(m * x^-k + n * x).

    k = 1 is the Kloosterman sum K_q(m, n); every k >= 1 has the
    ``transformed`` and ``fast`` routes, and the ``naive`` oracle runs at
    k = 1 only.
    """
    return _bilinear_sums("kloosterman", [A], J, method, k)[0]


def bilinear_gauss(W: CharWeightVector, J: Interval, method: str = "transformed") -> SumResult:
    """Weighted double sum of Gauss sums over supp(W) x J.

    The transformed route evaluates sum_x (sum_chi w_chi chi(x)) * gamma_x
    by the Kloosterman route's kernel; no inversion permutation appears
    because the character already sits on the summation variable.
    """
    return _bilinear_sums("gauss", [W], J, method)[0]
