"""Modular arithmetic substrate.

Factorization, modular inverses, unit-group generators, the additive
character exp(2*pi*i*z/q), and the wrap-around distance to the nearest
multiple of q.  Everything is pure.  Per-modulus structures are memoized
with ``functools.cache``, keyed by the integer q; two threads racing on a
new q may both build it, with equal results, and later calls share one
value.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NotAUnit

#: float64 machine epsilon, the unit of every accumulated rounding budget.
MACHINE_EPS = float(np.finfo(np.float64).eps)

TWO_PI = 2.0 * math.pi


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization by trial division.

    Deterministic and exact; intended for desk-scale inputs (up to ~1e7,
    cost grows like sqrt(n)).
    """
    if n < 2:
        raise ValueError(f"factorize requires an integer >= 2, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


@dataclass(frozen=True)
class Modulus:
    """A modulus q >= 2 with its factorization and unit-group order.

    Construct through :meth:`Modulus.of`, which caches instances per q.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    phi: int

    @classmethod
    def of(cls, q: "Modulus | int") -> "Modulus":
        if isinstance(q, Modulus):
            return q
        return _modulus(int(q))

    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def __int__(self) -> int:
        return self.q


@functools.cache
def _modulus(q: int) -> Modulus:
    factors = tuple(factorize(q))
    phi = 1
    for p, e in factors:
        phi *= p ** (e - 1) * (p - 1)
    return Modulus(q=q, factors=factors, phi=phi)


def mod_inv(x: int, q: "Modulus | int") -> int:
    """Multiplicative inverse of x modulo q, reported in [1, q-1].

    Raises :class:`NotAUnit` (with the offending gcd) when gcd(x, q) > 1.
    """
    mod = Modulus.of(q)
    r = x % mod.q
    g = math.gcd(r, mod.q)
    if g != 1:
        raise NotAUnit(x, mod.q, g)
    return pow(r, -1, mod.q)


def eq_exp(z: int, q: "Modulus | int") -> complex:
    """The additive character exp(2*pi*i*z/q).

    The argument is reduced mod q first, so the angle stays in [0, 2*pi) and
    results for congruent arguments are bit-identical; |result| = 1 within a
    couple of machine epsilons.
    """
    mod = Modulus.of(q)
    r = z % mod.q
    if r == 0:
        return complex(1.0, 0.0)
    return cmath.exp(complex(0.0, TWO_PI * r / mod.q))


def dist_q(u: int, q: "Modulus | int") -> int:
    """Distance from u to the nearest multiple of q; always in [0, q/2]."""
    mod = Modulus.of(q)
    r = u % mod.q
    return min(r, mod.q - r)


@dataclass(frozen=True)
class UnitGroupComponent:
    """Generators of the units modulo one prime-power factor."""

    prime_power: int
    prime: int
    exponent: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]


@dataclass(frozen=True)
class UnitGroupStructure:
    """CRT decomposition of the unit group with per-component generators."""

    modulus: int
    components: tuple[UnitGroupComponent, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for c in self.components for o in c.orders)


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    targets = [(p - 1) // f for f, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, t, p) != 1 for t in targets):
            return g
    raise AssertionError(f"no primitive root found for {p}")


def _component_generators(p: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pe = p**e
    if p == 2:
        if e == 1:
            return (), ()
        if e == 2:
            return (3,), (2,)
        # units mod 2^e, e >= 3: <-1> x <3>, orders 2 and 2^(e-2)
        return (pe - 1, 3), (2, 1 << (e - 2))
    g = _primitive_root(p)
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return (g,), (pe // p * (p - 1),)


def unit_group(q: "Modulus | int") -> UnitGroupStructure:
    """Generators and orders of the unit group, one component per prime power.

    Odd prime powers get a single cyclic generator (the smallest valid one);
    2^e with e >= 3 gets the pair (2^e - 1, 3) of orders (2, 2^(e-2)).
    Computed lazily and memoized.
    """
    return _unit_group(Modulus.of(q).q)


@functools.cache
def _unit_group(q: int) -> UnitGroupStructure:
    comps = []
    for p, e in Modulus.of(q).factors:
        gens, orders = _component_generators(p, e)
        comps.append(
            UnitGroupComponent(
                prime_power=p**e, prime=p, exponent=e, generators=gens, orders=orders
            )
        )
    return UnitGroupStructure(modulus=q, components=tuple(comps))


def _crt_idempotents(struct: UnitGroupStructure) -> list[int]:
    """e_i with e_i = 1 mod (p_i^e_i) and 0 mod the other components."""
    q = struct.modulus
    out = []
    for comp in struct.components:
        m = q // comp.prime_power
        out.append(m * pow(m, -1, comp.prime_power) % q)
    return out


def iter_unit_exponents(q: "Modulus | int") -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (unit, exponent tuple) pairs, one per unit of Z_q^*.

    The exponent tuple is flattened across components in factor order; tuples
    are enumerated lexicographically, so iteration order is reproducible.
    """
    struct = unit_group(q)
    idem = _crt_idempotents(struct)
    per_comp: list[list[tuple[int, tuple[int, ...]]]] = []
    for comp in struct.components:
        local: list[tuple[int, tuple[int, ...]]] = []
        for exps in itertools.product(*(range(o) for o in comp.orders)):
            r = 1
            for g, a in zip(comp.generators, exps):
                r = r * pow(g, a, comp.prime_power) % comp.prime_power
            local.append((r, exps))
        per_comp.append(local)
    qv = struct.modulus
    for combo in itertools.product(*per_comp):
        x = 0
        exps: tuple[int, ...] = ()
        for (r, e), em in zip(combo, idem):
            x = (x + r * em) % qv
            exps = exps + e
        yield x, exps


@functools.cache
def _unit_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units ascending, inverse table over [0, q), unit mask over [0, q))."""
    mod = Modulus.of(q)
    idx = np.arange(q, dtype=np.int64)
    if mod.is_prime():
        mask = idx > 0
        inv = np.zeros(q, dtype=np.int64)
        inv[1] = 1
        for i in range(2, q):
            inv[i] = (q - (q // i) * inv[q % i]) % q
    else:
        g = np.gcd(idx, q)
        mask = g == 1
        inv = np.zeros(q, dtype=np.int64)
        for x in idx[mask]:
            inv[x] = pow(int(x), -1, q)
    units = idx[mask]
    tables = (units, inv, mask)
    for arr in tables:
        arr.flags.writeable = False  # shared by every caller
    return tables


def unit_residues(q: "Modulus | int") -> np.ndarray:
    """Units of Z_q^* in [1, q), ascending (read-only int64 array)."""
    return _unit_tables(Modulus.of(q).q)[0]


def inverse_table(q: "Modulus | int") -> np.ndarray:
    """Read-only array inv of length q with inv[x] = x^-1 mod q for units, else 0."""
    return _unit_tables(Modulus.of(q).q)[1]


def unit_mask(q: "Modulus | int") -> np.ndarray:
    """Read-only boolean array over [0, q) marking residues coprime to q."""
    return _unit_tables(Modulus.of(q).q)[2]
