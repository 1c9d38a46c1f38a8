"""Complete Kloosterman sums, Dirichlet characters, and Gauss sums.

Two evaluation routes exist for each family: a direct summation over the
unit group and a DFT-based row evaluation.  The direct route is the
correctness anchor; the row route is gated by entrywise agreement with it.

A character mod q is its exponent row: an int64 array with one entry per
generator of the unit group, entry j in [0, order_j).  :func:`characters`
returns all phi(q) rows, :func:`primitive_characters` those that
:func:`conductors`, the one conductor rule, maps to q.  A row carries no
modulus, so each reader takes q beside it and checks the row by :func:`character`.

Error accounting
----------------
Every scalar sum is returned as a :class:`SumResult` whose ``error_bound``
uses the fixed formula

    error_bound = (terms + 4) * MACHINE_EPS * sum_i |a_i|

where the a_i are the summands.  Each summand is a unit-modulus exponential
scaled by a weight and is computed to within ~4 eps relative error; naive or
pairwise accumulation of ``terms`` values adds at most terms * eps * L1
since every partial sum is bounded by L1 = sum |a_i|.  Sums of 1024 or more
terms are correctly rounded from the exact sum (:func:`exact_sums`, equal to
math.fsum bit for bit), which only tightens the true error; the reported
bound keeps the uniform formula.  Several sums of one length share one
pass (:func:`_sum_rows`), each row bit for bit what it gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .modmath import (
    MACHINE_EPS,
    TWO_PI,
    Modulus,
    floor_mod,
    inverse_table,
    unit_residues,
)

#: sums of this many terms or more are taken exactly and rounded once (exact_sums)
_EXACT_SUM_THRESHOLD = 1024


@dataclass(frozen=True)
class SumResult:
    """A complex sum value with its accumulated rounding budget.

    ``error_bound`` follows the documented formula
    (terms + 4) * eps * sum|summands|; it always dominates
    terms * eps * (max partial magnitude) because every partial sum of the
    summands is bounded by their total absolute mass.
    """

    value: complex
    error_bound: float
    terms: int


#: entries per block of :func:`exact_sums`: as many whole rows as fit, or this many
#: columns of one longer row
_EXACT_BLOCK = 1 << 15

#: widest span, in bits, of a block of a row before :func:`exact_sums` defers to math.fsum
_EXACT_SPAN = 512


def exact_sums(rows) -> list[float]:
    """The sum of each of several float64 rows of one length, correctly
    rounded: row for row the value (or the exception) of ``math.fsum``.

    ``rows`` is a 2-D array or a sequence of 1-D arrays, views included.
    They go in blocks of at most ``_EXACT_BLOCK`` entries: as many whole
    rows as fit, or that many columns of one longer row.  Each block of a
    row is made an exact integer sum.  Its nonzero entries are integer
    multiples of 2^lo, where lo is the row's smallest entry exponent in the
    block less 53, so ``ldexp(x, -lo)`` is exact and integer-valued, and
    below 2^span with span = (largest exponent) - lo.  Each row keeps its
    own lo, so a row of large entries does not widen the span of a row of
    small ones.  Splitting off w bits at a time with ``floor`` and
    power-of-two scaling is exact too: ceil(span / w) limbs for a row, and
    every row of the block takes as many as the widest, the lower ones in
    [0, 2^w), the top one in [-2^w, 2^w].  Each limb is summed along the
    row as int64: for B columns, w = min(53, 62 - bit_length(B)) keeps
    every limb sum below 2^62 and every lower limb an integer below 2^53,
    which a double holds (w = 51 at 2002 columns, 46 at 2^15).  Python
    integers combine the limbs and then the blocks.  The one rounding is
    CPython's correctly rounded int true division by 2^-lo (a float
    conversion when lo >= 0), round half to even: the value math.fsum
    returns, a sum of -0.0 entries included (both give 0.0).

    A row with non-finite entries, or entries of 2^960 or more, where
    math.fsum can raise, goes to math.fsum, rows in order, so the first
    such row that raises is the one whose exception propagates.  So does a
    row whose block spans more than ``_EXACT_SPAN`` bits: from there on
    math.fsum is as fast at 1024 terms (at 10^5 terms this route stays
    six times faster), and the route data spans about 100.
    """
    count = len(rows)
    n = len(rows[0]) if count else 0
    fallback = np.zeros(count, dtype=bool)
    blocks = [[] for _ in range(count)]  # (integer sum, lo) of each block of each row
    height = max(1, _EXACT_BLOCK // max(n, 1))
    for first in range(0, count, height):
        chunk = rows[first : first + height]
        fell = fallback[first : first + len(chunk)]
        for start in range(0, n, _EXACT_BLOCK):
            cols = slice(start, start + _EXACT_BLOCK)
            # several rows are stacked into a new array, scaled in place below; a long
            # row is read where it lies
            copied = len(chunk) > 1
            block = np.stack([row[cols] for row in chunk]) if copied else chunk[0][None, cols]
            width = min(53, 62 - block.shape[-1].bit_length())
            mags = np.abs(block)
            top = mags.max(axis=-1)
            low = mags.min(axis=-1, initial=np.inf, where=mags != 0)
            lo = np.frexp(low)[1] - 53  # int32, as ldexp takes it fastest; -53 for a row of zeros
            span = np.frexp(top)[1] - lo
            fell |= ~(top < 2.0**960) | (span > _EXACT_SPAN)  # also NaN and inf
            live = (top > 0) & ~fell
            if not live.all():
                if not live.any():
                    continue
                block, lo, span, copied = block[live], lo[live], span[live], True
            r = np.ldexp(block, -lo[:, None], out=block if copied else None)
            sums = np.empty((-(-int(span.max()) // width), lo.size), dtype=np.int64)
            high = np.empty_like(r)
            for k in range(len(sums) - 1):
                np.floor(np.multiply(r, 2.0**-width, out=high), out=high)
                r -= high * 2.0**width
                sums[k] = r.astype(np.int64).sum(axis=-1)
                r, high = high, r
            sums[-1] = r.astype(np.int64).sum(axis=-1)
            at = (np.flatnonzero(live) + first).tolist()
            for i, b, limb_sums in zip(at, lo.tolist(), sums.T.tolist()):
                blocks[i].append((sum(s << (width * k) for k, s in enumerate(limb_sums)), b))
    out = []
    for row, parts, fell in zip(rows, blocks, fallback.tolist()):
        if fell:
            out.append(math.fsum(row))
        elif parts:
            lo = min(b for _, b in parts)
            total = sum(t << (b - lo) for t, b in parts)
            out.append(total / (1 << -lo) if lo < 0 else float(total << lo))
        else:
            out.append(0.0)
    return out


def _sum_rows(terms: np.ndarray) -> list[SumResult]:
    """Sum each row of a 2-D array of complex summands with the documented
    error bound, one :class:`SumResult` per row.

    A row's value and l1 norm are numpy's pairwise sums along the row, bit
    for bit those of the row alone.  From 1024 terms on, the real and
    imaginary parts of every row are each correctly rounded from their
    exact sums by one :func:`exact_sums` pass, the values math.fsum gives.
    """
    rows, n = terms.shape
    if n == 0:
        return [SumResult(value=0j, error_bound=0.0, terms=0)] * rows
    l1 = np.sum(np.abs(terms), axis=-1).tolist()
    if n >= _EXACT_SUM_THRESHOLD:
        # the real and the imaginary part of every row, in row order
        parts = iter(exact_sums([p for row in terms for p in (row.real, row.imag)]))
        values = [complex(re, im) for re, im in zip(parts, parts)]
    else:
        values = np.sum(terms, axis=-1).tolist()
    return [
        SumResult(value=v, error_bound=(n + 4) * MACHINE_EPS * a, terms=n)
        for v, a in zip(values, l1)
    ]


def _sum_terms(terms: np.ndarray) -> SumResult:
    """Sum a 1-D array of complex summands: the one-row case of :func:`_sum_rows`."""
    return _sum_rows(terms[None])[0]


def _unit_angles(q: int, coeff: int, residues: np.ndarray) -> np.ndarray:
    """exp(2*pi*i * coeff*residues / q) for int64 residues in [0, q), with
    exact integer reduction; bit for bit ``np.exp(2j * np.pi * red / q)``.

    numpy forms that argument by a complex product and a complex division
    whose imaginary part is exactly (2*pi*red) * (1/q) and whose real part
    is +0, so the angles are written as reals into a zeroed complex array
    and exponentiated in place.  coeff = 1 mod q needs no reduction.
    """
    c = coeff % q
    red = residues if c == 1 else floor_mod(c * residues, q)
    z = np.zeros(red.shape, dtype=np.complex128)
    np.multiply(TWO_PI * red, 1.0 / q, out=z.imag)
    return np.exp(z, out=z)


def kloosterman(q: "Modulus | int", m: int, n: int) -> SumResult:
    """Complete sum of exp(2*pi*i*(m*x + n*x^-1)/q) over units x mod q.

    The value is real up to rounding (terms pair off conjugately under
    x -> -x) but is reported as a complex :class:`SumResult`.
    """
    mod = Modulus.of(q)
    units = unit_residues(mod)
    inv = inverse_table(mod)
    phase = floor_mod((m % mod.q) * units + (n % mod.q) * inv[units], mod.q)
    return _sum_terms(_unit_angles(mod.q, 1, phase))


def kloosterman_row(q: "Modulus | int", n: int) -> np.ndarray:
    """All q values K_q(m, n) for m = 0..q-1 as one complex vector.

    Computed as the length-q inverse DFT of the unit-supported sequence
    x -> exp(2*pi*i*n*x^-1/q); numpy handles arbitrary (mixed-radix)
    lengths, so the cost is O(q log q) for every q.  Entries agree with
    :func:`kloosterman` to within q * 2^-45.
    """
    mod = Modulus.of(q)
    units = unit_residues(mod)
    inv = inverse_table(mod)
    a = np.zeros(mod.q, dtype=np.complex128)
    a[units] = _unit_angles(mod.q, n, inv[units])
    np.fft.ifft(a, out=a)  # in place: no second and third length-q array
    a *= mod.q
    return a


def dft_entry_error(q: int, norm1: float) -> float:
    """Rounding budget (4 log2 q + 8) eps * norm1 of one entry of a length-q
    DFT whose input has l1 norm ``norm1``; a row entry has norm1 = phi(q)."""
    return (4.0 * math.log2(q) + 8.0) * MACHINE_EPS * norm1


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


#: cap on the int64 entries of an exponent-row array, phi(q) * number of generators
EXPONENT_ROWS_CAP = 1 << 25


def rows_in_range(mod: Modulus, rows: np.ndarray) -> np.ndarray:
    """Whether entry j of each exponent row lies in [0, order_j), one bool per row."""
    orders = np.array(mod.group.orders, dtype=np.int64)
    return np.all((rows >= 0) & (rows < orders), axis=1)


def conductors(mod: Modulus, rows: np.ndarray) -> np.ndarray:
    """Conductors of the characters mod q whose exponent rows are ``rows``, as int64.

    ``rows`` has shape (R, number of generators) with entry j in
    [0, order_j).  The conductor is the product over the prime-power
    components p^e of a closed-form local conductor.  For a cyclic
    component (odd p^e, or 4) with exponent k it is 1 if k = 0, else
    p^(e - min(v_p(k), e - 1)).  For 2^e with e >= 3 and exponents (a, b)
    on the generators (-1, 3) it is 1 for (0, 0), 8 for b = 0 and a = 1, 4
    for (1, 2^(e-3)), and otherwise 2^(e - min(v_2(b), e - 3)).  Each
    min(v_p(k), cap) takes cap masked passes over the column.  Conductors
    divide q and are held as int64, so q >= 2**63 is refused.
    """
    if mod.q >= 1 << 63:
        raise ResourceLimit(f"int64 conductors need q < 2**63, got q = {mod.q}")
    rows = np.asarray(rows, dtype=np.int64)
    cond = np.ones(len(rows), dtype=np.int64)
    col = 0
    for comp in mod.group.components:
        p, e, n_g = comp.prime, comp.exponent, len(comp.orders)
        if n_g == 0:  # units mod 2: only the trivial character
            continue
        k = rows[:, col + n_g - 1]  # the cyclic exponent, or b on (-1, 3)
        cap = e - 1 if n_g == 1 else e - 3
        v = np.zeros(len(rows), dtype=np.int64)
        for i in range(1, cap + 1):
            v += floor_mod(k, p**i) == 0
        local = p ** (e - v)
        if n_g == 1:
            local = np.where(k == 0, 1, local)
        else:
            a = rows[:, col]
            local = np.where(k == 0, np.where(a == 0, 1, 8), local)
            local[(a == 1) & (k == 1 << (e - 3))] = 4
        cond *= local
        col += n_g
    return cond


def angle_numerators(mod: Modulus, rows, logs: np.ndarray) -> np.ndarray:
    """Angle numerators of exponent rows k at log rows, shape rows[:-1] + logs[:-1].

    T = sum_j log_j(x) * k_j * lambda(q) // order_j mod lambda(q), so that
    chi_k(x) = exp(2*pi*i * T / lambda(q)) at a unit x whose row of
    :attr:`Modulus.logs` is log(x).  One row or a block of rows meets one
    log row or many in ``rows @ logs.T``, measured faster than ``logs @
    rows.T`` for one row against every x; int64 is exact (terms below q * q).
    """
    orders = np.array(mod.group.orders, dtype=np.int64)
    weights = np.asarray(rows, dtype=np.int64) * (mod.carmichael // orders)
    return floor_mod(weights @ logs.T, mod.carmichael)


def roots_of_unity(lam: int) -> np.ndarray:
    """exp(2*pi*i * k / lam) for k in [0, lam): the values every character takes."""
    return _unit_angles(lam, 1, np.arange(lam, dtype=np.int64))


def character(q: "Modulus | int", exponents) -> np.ndarray:
    """The exponent row of one character mod q as a new int64 array, checked to
    have one entry per generator of q with entry j in [0, order_j)."""
    mod = Modulus.of(q)
    row = np.array(exponents, dtype=np.int64)
    if row.shape != (len(mod.group.orders),) or not rows_in_range(mod, row[None])[0]:
        raise ValueError(
            f"exponent row {tuple(row.reshape(-1).tolist())} is not a character mod {mod.q} "
            f"(generator orders {mod.group.orders})"
        )
    return row


def characters(q: "Modulus | int") -> np.ndarray:
    """All phi(q) exponent rows mod q, lexicographic with the last generator fastest.

    Raises :class:`ResourceLimit` before allocating when the rows would
    hold more than EXPONENT_ROWS_CAP entries.
    """
    mod = Modulus.of(q)
    orders = mod.group.orders
    if mod.phi * len(orders) > EXPONENT_ROWS_CAP:
        raise ResourceLimit(
            f"exponent rows mod {mod.q} need phi(q) * {len(orders)} = "
            f"{mod.phi * len(orders)} entries, above the cap {EXPONENT_ROWS_CAP}"
        )
    return np.indices(orders, dtype=np.int64).reshape(len(orders), mod.phi).T


def character_at(q: "Modulus | int", index: int) -> np.ndarray:
    """Row ``index`` of :func:`characters`, without enumerating.

    ``index`` is read as a mixed-radix number over the generator orders with
    the last generator fastest, the C order of :func:`characters`.
    """
    mod = Modulus.of(q)
    if not 0 <= index < mod.phi:
        raise ValueError(f"character index {index} outside [0, {mod.phi})")
    return character(mod, np.unravel_index(index, mod.group.orders))


def primitive_characters(q: "Modulus | int") -> np.ndarray:
    """Exponent rows of the primitive characters mod q, in enumeration order.

    The rows of :func:`characters` with conductor q, shape
    (count, number of generators); empty for q = 2 mod 4.
    """
    mod = Modulus.of(q)
    rows = characters(mod)
    return rows[conductors(mod, rows) == mod.q]


def primitive_count(q: "Modulus | int") -> int:
    """Number of primitive characters mod q, the row count of `primitive_characters`.

    Multiplicative over the prime powers p^e of q: p - 2 for e = 1 and
    p^(e-2) (p - 1)^2 for e >= 2 (for p = 2: 0, 1, 2, then 2^(e-2)).
    """
    return math.prod(
        p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2 for p, e in Modulus.of(q).factors
    )


def char_values(q: "Modulus | int", chi) -> np.ndarray:
    """chi(x) for x = 0..q-1 as a new read-only complex vector (0 at non-units); uncached.

    ``chi`` is an exponent row mod q, checked by :func:`character`.
    """
    mod = Modulus.of(q)
    t = angle_numerators(mod, character(mod, chi), mod.logs)
    vals = roots_of_unity(mod.carmichael)[t]
    vals[~mod.mask] = 0.0
    vals.flags.writeable = False  # read-only, like every table the package hands out
    return vals


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss(q: "Modulus | int", chi, n: int) -> SumResult:
    """Direct O(phi(q)) evaluation of sum_x chi(x) exp(2*pi*i*n*x/q), chi an exponent row.

    The twisting relation (for primitive chi and gcd(n, q) = 1 this equals
    conj(chi)(n) times the n = 1 value) is used as a cross-check in tests,
    never as the evaluation path.
    """
    mod = Modulus.of(q)
    units = unit_residues(mod)
    vals = char_values(mod, chi)
    terms = vals[units] * _unit_angles(mod.q, n, units)
    return _sum_terms(terms)


def gauss_row(q: "Modulus | int", chi) -> np.ndarray:
    """All q Gauss sum values over n = 0..q-1 via one length-q inverse DFT.

    Entry n agrees with :func:`gauss` within q * 2^-45 (same gate as the
    Kloosterman row).
    """
    mod = Modulus.of(q)
    return mod.q * np.fft.ifft(char_values(mod, chi))
