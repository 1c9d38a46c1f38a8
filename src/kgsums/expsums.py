"""Complete Kloosterman sums, Dirichlet characters, and Gauss sums.

Two evaluation routes exist for each family: a direct summation over the
unit group and a DFT-based row evaluation.  The direct route is the
correctness anchor; the row route is gated by entrywise agreement with it.

Characters are exponent rows: int64 arrays with one column per generator of
the unit group.  :func:`conductors` is the one conductor rule, vectorized
over rows; :func:`primitive_exponents` keeps the rows it maps to q, and
:func:`characters` / :func:`primitive_characters` are
:class:`DirichletCharacter` object views over the same rows.

Error accounting
----------------
Every scalar sum is returned as a :class:`SumResult` whose ``error_bound``
uses the fixed formula

    error_bound = (terms + 4) * MACHINE_EPS * sum_i |a_i|

where the a_i are the summands.  Each summand is a unit-modulus exponential
scaled by a weight and is computed to within ~4 eps relative error; naive or
pairwise accumulation of ``terms`` values adds at most terms * eps * L1
since every partial sum is bounded by L1 = sum |a_i|.  Sums of 1024 or more
terms are correctly rounded from the exact sum (:func:`exact_sum`, equal to
math.fsum bit for bit), which only tightens the true error; the reported
bound keeps the uniform formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceLimit
from .modmath import (
    MACHINE_EPS,
    Modulus,
    inverse_table,
    unit_residues,
)

#: sums of this many terms or more are taken exactly and rounded once (exact_sum)
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

    def __abs__(self) -> float:
        return abs(self.value)


#: elements per block of :func:`exact_sum`; block limb sums stay far below 2**63
_EXACT_BLOCK = 1 << 15

#: most 32-bit limbs a block may need before :func:`exact_sum` defers to math.fsum
_EXACT_LIMBS = 16


def exact_sum(x: np.ndarray) -> float:
    """The sum of a float64 array, correctly rounded; equal to ``math.fsum(x)``.

    Each block of at most ``_EXACT_BLOCK`` entries is made an exact integer
    sum.  Its nonzero entries are integer multiples of 2^lo, where lo is the
    smallest entry exponent less 53, so ``ldexp(x, -lo)`` is exact and
    integer-valued, and below 2^span with span = (largest exponent) - lo.
    Splitting off 32 bits at a time with ``floor`` and power-of-two scaling
    is exact too, giving ceil(span / 32) limbs: the lower ones in [0, 2^32),
    the top one in [-2^32, 2^32].  Each limb is summed as int64, exact for
    fewer than 2^31 entries and so for any block, and Python integers
    combine the limbs and then the blocks.  The one rounding is CPython's
    correctly rounded int true division by 2^-lo (a float conversion when
    lo >= 0), round half to even: the value math.fsum returns, a sum of
    -0.0 entries included (both give 0.0).

    Non-finite entries, and entries of 2^960 or more, where math.fsum can
    raise, go to math.fsum.  So does a block needing more than
    ``_EXACT_LIMBS`` limbs: at 1024 terms math.fsum is faster from about 12
    limbs on, at 10^5 terms and more this route stays faster past 30, and
    the route data needs 3 or 4.
    """
    blocks = []
    for start in range(0, x.size, _EXACT_BLOCK):
        block = x[start : start + _EXACT_BLOCK]
        mags = np.abs(block)
        top = float(mags.max())
        if not top:
            continue
        if not top < 2.0**960:  # also NaN and inf
            return math.fsum(x)
        lo = math.frexp(float(mags.min(initial=top, where=mags != 0)))[1] - 53
        limbs = -(-(math.frexp(top)[1] - lo) // 32)
        if limbs > _EXACT_LIMBS:
            return math.fsum(x)
        r = np.ldexp(block, -lo)
        total = 0
        for k in range(limbs - 1):
            high = np.floor(r * 2.0**-32)
            r -= high * 2.0**32
            total += int(r.astype(np.int64).sum()) << (32 * k)
            r = high
        total += int(r.astype(np.int64).sum()) << (32 * (limbs - 1))
        blocks.append((total, lo))
    if not blocks:
        return 0.0
    lo = min(b for _, b in blocks)
    total = sum(t << (b - lo) for t, b in blocks)
    return total / (1 << -lo) if lo < 0 else float(total << lo)


def _sum_terms(terms: np.ndarray) -> SumResult:
    """Sum an array of complex summands with the documented error bound.

    From 1024 terms on, the real and imaginary parts are each correctly
    rounded from their exact sums by :func:`exact_sum`, the same values
    math.fsum gives.
    """
    n = int(terms.size)
    if n == 0:
        return SumResult(value=0j, error_bound=0.0, terms=0)
    l1 = float(np.sum(np.abs(terms)))
    if n >= _EXACT_SUM_THRESHOLD:
        value = complex(exact_sum(terms.real), exact_sum(terms.imag))
    else:
        value = complex(np.sum(terms))
    return SumResult(value=value, error_bound=(n + 4) * MACHINE_EPS * l1, terms=n)


def _unit_angles(q: int, coeff: int, residues: np.ndarray) -> np.ndarray:
    """exp(2*pi*i * coeff*residues / q) with exact integer reduction."""
    red = (coeff % q) * residues % q
    return np.exp(2j * np.pi * red / q)


def kloosterman(q: "Modulus | int", m: int, n: int) -> SumResult:
    """Complete sum of exp(2*pi*i*(m*x + n*x^-1)/q) over units x mod q.

    The value is real up to rounding (terms pair off conjugately under
    x -> -x) but is reported as a complex :class:`SumResult`.
    """
    mod = Modulus.of(q)
    units = unit_residues(mod)
    inv = inverse_table(mod)
    phase = ((m % mod.q) * units + (n % mod.q) * inv[units]) % mod.q
    return _sum_terms(np.exp(2j * np.pi * phase / mod.q))


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
    return mod.q * np.fft.ifft(a)


def dft_entry_error(q: int, norm1: float) -> float:
    """Rounding budget (4 log2 q + 8) eps * norm1 of one entry of a length-q
    DFT whose input has l1 norm ``norm1``; a row entry has norm1 = phi(q)."""
    return (4.0 * math.log2(q) + 8.0) * MACHINE_EPS * norm1


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q in exponent form against the fixed generators.

    ``exponents`` is flattened across the prime-power components in factor
    order; entry j lies in [0, order_j).  The conductor is precomputed at
    construction; the character is primitive exactly when conductor == q.
    """

    modulus: Modulus
    exponents: tuple[int, ...]
    conductor: int

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus.q

    @property
    def is_principal(self) -> bool:
        return all(k == 0 for k in self.exponents)


#: cap on the int64 entries of an exponent-row array, phi(q) * number of generators
EXPONENT_ROWS_CAP = 1 << 25

#: characters built per chunk of rows by :func:`characters`
_CHUNK = 1 << 12


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
            v += k % p**i == 0
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
    return weights @ logs.T % mod.carmichael


def roots_of_unity(lam: int) -> np.ndarray:
    """exp(2*pi*i * k / lam) for k in [0, lam): the values every character takes."""
    return np.exp(2j * np.pi * np.arange(lam, dtype=np.int64) / lam)


def character(q: "Modulus | int", exponents: tuple[int, ...]) -> DirichletCharacter:
    """Build the character with the given exponent tuple (validated)."""
    mod = Modulus.of(q)
    orders = mod.group.orders
    exponents = tuple(int(k) for k in exponents)
    if len(exponents) != len(orders):
        raise ValueError(
            f"expected {len(orders)} exponents for q={mod.q}, got {len(exponents)}"
        )
    for k, o in zip(exponents, orders):
        if not 0 <= k < o:
            raise ValueError(f"exponent {k} outside [0, {o})")
    cond = int(conductors(mod, np.array([exponents], dtype=np.int64))[0])
    return DirichletCharacter(modulus=mod, exponents=exponents, conductor=cond)


def _exponent_rows(mod: Modulus) -> np.ndarray:
    """All phi(q) exponent rows, lexicographic with the last generator fastest.

    Raises :class:`ResourceLimit` before allocating when the rows would
    hold more than EXPONENT_ROWS_CAP entries.
    """
    orders = mod.group.orders
    if mod.phi * len(orders) > EXPONENT_ROWS_CAP:
        raise ResourceLimit(
            f"exponent rows mod {mod.q} need phi(q) * {len(orders)} = "
            f"{mod.phi * len(orders)} entries, above the cap {EXPONENT_ROWS_CAP}"
        )
    return np.indices(orders, dtype=np.int64).reshape(len(orders), mod.phi).T


def characters(q: "Modulus | int") -> Iterator[DirichletCharacter]:
    """All phi(q) characters mod q, in lexicographic exponent order.

    Objects over :func:`_exponent_rows`, with conductors from one
    :func:`conductors` call; rows become Python tuples a chunk at a time,
    so memory stays near the two arrays.
    """
    mod = Modulus.of(q)
    rows = _exponent_rows(mod)
    conds = conductors(mod, rows)
    for start in range(0, len(rows), _CHUNK):
        chunk = zip(rows[start : start + _CHUNK].tolist(), conds[start : start + _CHUNK].tolist())
        for exps, cond in chunk:
            yield DirichletCharacter(modulus=mod, exponents=tuple(exps), conductor=cond)


def character_at(q: "Modulus | int", index: int) -> DirichletCharacter:
    """The character at position ``index`` of :func:`characters`, without enumerating.

    ``index`` is read as a mixed-radix number over the generator orders with
    the last generator fastest, the C order of :func:`_exponent_rows`.
    """
    mod = Modulus.of(q)
    if not 0 <= index < mod.phi:
        raise ValueError(f"character index {index} outside [0, {mod.phi})")
    return character(mod, np.unravel_index(index, mod.group.orders))


def primitive_exponents(q: "Modulus | int") -> np.ndarray:
    """Exponent rows of the primitive characters mod q, in enumeration order.

    The rows of :func:`_exponent_rows` with conductor q, shape
    (count, number of generators); empty for q = 2 mod 4.
    """
    mod = Modulus.of(q)
    rows = _exponent_rows(mod)
    return rows[conductors(mod, rows) == mod.q]


def primitive_count(q: "Modulus | int") -> int:
    """Number of primitive characters mod q, the row count of `primitive_exponents`.

    Multiplicative over the prime powers p^e of q: p - 2 for e = 1 and
    p^(e-2) (p - 1)^2 for e >= 2 (for p = 2: 0, 1, 2, then 2^(e-2)).
    """
    return math.prod(
        p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2 for p, e in Modulus.of(q).factors
    )


def primitive_characters(q: "Modulus | int") -> list[DirichletCharacter]:
    """The characters with conductor q, in enumeration order.

    :class:`DirichletCharacter` objects over :func:`primitive_exponents`.
    """
    mod = Modulus.of(q)
    return [
        DirichletCharacter(modulus=mod, exponents=tuple(exps), conductor=mod.q)
        for exps in primitive_exponents(mod).tolist()
    ]


def char_values(chi: DirichletCharacter) -> np.ndarray:
    """chi(x) for x = 0..q-1 as a new read-only complex vector (0 at non-units); uncached."""
    mod = chi.modulus
    t = angle_numerators(mod, chi.exponents, mod.logs)
    vals = roots_of_unity(mod.carmichael)[t]
    vals[~mod.mask] = 0.0
    vals.flags.writeable = False  # read-only, like every table the package hands out
    return vals


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss(q: "Modulus | int", chi: DirichletCharacter, n: int) -> SumResult:
    """Direct O(phi(q)) evaluation of sum_x chi(x) exp(2*pi*i*n*x/q).

    The twisting relation (for primitive chi and gcd(n, q) = 1 this equals
    conj(chi)(n) times the n = 1 value) is used as a cross-check in tests,
    never as the evaluation path.
    """
    mod = Modulus.of(q)
    if chi.modulus.q != mod.q:
        raise ValueError(f"character modulus {chi.modulus.q} != {mod.q}")
    units = unit_residues(mod)
    vals = char_values(chi)
    terms = vals[units] * _unit_angles(mod.q, n, units)
    return _sum_terms(terms)


def gauss_row(q: "Modulus | int", chi: DirichletCharacter) -> np.ndarray:
    """All q Gauss sum values over n = 0..q-1 via one length-q inverse DFT.

    Entry n agrees with :func:`gauss` within q * 2^-45 (same gate as the
    Kloosterman row).
    """
    mod = Modulus.of(q)
    if chi.modulus.q != mod.q:
        raise ValueError(f"character modulus {chi.modulus.q} != {mod.q}")
    return mod.q * np.fft.ifft(char_values(chi))
