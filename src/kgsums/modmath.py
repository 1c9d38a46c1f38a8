"""Modular arithmetic substrate.

Factorization, modular inverses, unit-group generators and the additive
character exp(2*pi*i*z/q).  Everything is pure.  All per-modulus state lives on
:class:`Modulus`: ``Modulus.of`` hands out one live instance per integer q
for as long as any caller holds it, and the unit group, unit tables and
discrete logs are read-only cached properties of that instance, each built
on first use by a single vectorized path for every q.  An instance no caller
holds is freed with its tables, so a sweep over many moduli keeps only the
ones it is working on.  The module functions below are short reads of that
state.
"""

from __future__ import annotations

import cmath
import functools
import math
import weakref
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NotAUnit, ResourceLimit

#: float64 machine epsilon, the unit of every accumulated rounding budget.
MACHINE_EPS = float(np.finfo(np.float64).eps)

TWO_PI = 2.0 * math.pi

#: largest q with tables over [0, q): one q ~ 10^6 experiment peaks near 207 MB,
#: about 200 bytes per q, so q = 2**23 needs about 1.7 GB
TABLE_Q_CAP = 1 << 23

#: largest trial divisor of factorize, so that every n <= 2**44 factors exactly
TRIAL_DIVISION_BOUND = 1 << 22


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization by trial division up to TRIAL_DIVISION_BOUND.

    Exact for every n <= 2**44; a cofactor above 2**44 with no divisor up to
    the bound raises :class:`ResourceLimit`, for n = 2**61 - 1 after about
    0.4 s (2 vCPU, Python 3.11).
    """
    if n < 2:
        raise ValueError(f"factorize requires an integer >= 2, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    d = 2
    while d * d <= m:
        if d > TRIAL_DIVISION_BOUND:
            raise ResourceLimit(f"factorize({n}) would trial-divide past {TRIAL_DIVISION_BOUND}")
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

    Construct through :meth:`Modulus.of`, which returns the live instance
    of q while any caller holds one and builds a new one otherwise.
    Everything else known about q (unit group, unit tables, discrete logs)
    is a read-only cached property, built on first use and freed with its
    instance; a rebuilt instance builds the same tables again.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    phi: int

    @classmethod
    def of(cls, q: "Modulus | int") -> "Modulus":
        if isinstance(q, Modulus):
            return q
        q = int(q)
        mod = _live.get(q)
        if mod is None:
            factors = tuple(factorize(q))
            phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factors)
            mod = _live[q] = cls(q=q, factors=factors, phi=phi)
        return mod

    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def _table_length(self) -> int:
        """q, the length of every table over [0, q), once it is safe to build.

        q above TABLE_Q_CAP is refused before any length-q array is
        allocated.  The cap also keeps the tables' int64 products of two
        residues exact, since q * q <= 2**46 < 2**63.
        """
        if self.q > TABLE_Q_CAP:
            raise ResourceLimit(
                f"tables over [0, q) are capped at q <= {TABLE_Q_CAP}, got q = {self.q}"
            )
        return self.q

    @functools.cached_property
    def group(self) -> "UnitGroupStructure":
        """Generators and orders of the units, one component per prime power."""
        comps = tuple(
            UnitGroupComponent(p**e, p, e, *_component_generators(p, e)) for p, e in self.factors
        )
        return UnitGroupStructure(modulus=self.q, components=comps)

    @functools.cached_property
    def carmichael(self) -> int:
        """lambda(q), the exponent of the unit group (lcm of the generator orders)."""
        return math.lcm(*self.group.orders)

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """Boolean array over [0, q) marking residues coprime to q."""
        mask = np.ones(self._table_length(), dtype=bool)
        for p, _ in self.factors:
            mask[::p] = False
        return _shared(mask)

    @functools.cached_property
    def units(self) -> np.ndarray:
        """Units of Z_q^* in [1, q), ascending, as int64."""
        return _shared(np.flatnonzero(self.mask).astype(np.int64, copy=False))

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """inv over [0, q): inv[x] = x^-1 mod q at units, else 0.

        Built from power tables, with no modular exponentiation.  Let a be
        the largest prime-power factor of q.  Modulo a the units are g^k
        (and -g^k when a = 2^e, e >= 3, with g = 3), so the inverse
        (+-g^k)^-1 = +-g^(o-k) is the power table of g read backwards
        (:func:`_prime_power_inverse`).  When q = a*b with b > 1, the inverse
        mod b is the table of the cofactor ``Modulus.of(b)``, built the same
        way and kept by :func:`_cofactor`, and the Chinese remainder theorem
        joins the two: with the idempotents e_a = b*(b^-1 mod a) and
        e_b = a*(a^-1 mod b),

            inv[x] = e_a * inv_a[x mod a] + e_b * inv_b[x mod b]  (mod q)

        is the one class that is x^-1 both mod a and mod b.  The inverse of
        a unit is unique, so every entry equals x^(lambda(q) - 1) mod q, the
        square-and-multiply definition this replaces.  The int64 arithmetic
        is exact: each product is below q * max(a, b) and their sum below
        q * (a + b) <= q * q < 2**63 (:meth:`_table_length`).  Building the
        table also keeps ``Modulus.of(b)`` and its table, b <= q/2 entries
        (and so on down the cofactors), for the life of the process.
        """
        q = self._table_length()
        top = max(self.group.components, key=lambda c: c.prime_power)
        a = top.prime_power
        inv_a = _prime_power_inverse(top)
        if a == q:
            return _shared(inv_a)
        b = q // a
        inv = np.empty(q, dtype=np.int64)
        # x = i*b + j sits at [i, j] of the (a, b) view, so x mod b is its column
        np.multiply(_cofactor(b).inverse, a * pow(a, -1, b), out=inv.reshape(a, b))
        by_a = inv.reshape(b, a)  # ... and x mod a is the column of the (b, a) view
        by_a += inv_a * (b * pow(b, -1, a))
        floor_mod(inv, q, out=inv)
        inv *= self.mask
        return _shared(inv)

    @functools.cached_property
    def logs(self) -> np.ndarray:
        """Discrete logs: row x holds the exponents of x on the flattened generators.

        Shape (q, number of generators).  Column j at x is the exponent of
        generator j in the component of x modulo its prime power; rows of
        non-units hold meaningless values and must be masked by callers.
        Each component's local table over [0, p^e) is written through the
        (q/p^e, p^e) view, whose column is x mod p^e, as in :attr:`inverse`.
        A composite q reads them from the cache :func:`_component_logs` (each a
        proper divisor's, at most q/2 rows); a prime power's is freed with it.
        """
        logs = np.empty((self._table_length(), len(self.group.orders)), dtype=np.int64)
        local_logs = _component_logs.__wrapped__ if len(self.factors) == 1 else _component_logs
        col = 0
        for comp in self.group.components:
            if comp.generators:  # units mod 2, the trivial group, have none
                pe, n_g = comp.prime_power, len(comp.orders)
                logs.reshape(self.q // pe, pe, -1)[:, :, col : col + n_g] = local_logs(comp)
                col += n_g
        return _shared(logs)


def _shared(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False  # cached: every caller shares this array
    return arr


def floor_mod(v, m: int, out=None):
    """v mod m in [0, m) for m >= 1: the one int64 remainder of the package.

    A Python int goes through ``%``.  An int64 array gets v - (v // m) * m,
    into ``out`` when given (``out=v`` is allowed), else into the quotient's
    buffer, so one new array.  numpy divides int64 by a scalar with a
    multiply and a shift, while its ``%`` divides every entry: on 10^6
    entries this takes about 2.2 ms against 3.7 ms for ``%`` (2 vCPU, numpy
    2.4).  The result equals ``v % m`` for every int64 v: the quotient is
    floor(v / m), and where its product with m wraps, the difference wraps
    back to the exact remainder, which lies in [0, m).
    """
    if isinstance(v, int):
        return v % m
    t = v // m
    t *= m
    return np.subtract(v, t, out=t if out is None else out)


def pow_mod(x: np.ndarray, k: int, q: int) -> np.ndarray:
    """x**k mod q elementwise for k >= 0 by square-and-multiply.

    Exact for entries in [0, q) while q * q < 2**63.
    """
    out = np.ones_like(x)
    base = floor_mod(x, q)
    while k:
        if k & 1:
            out *= base
            floor_mod(out, q, out=out)
        k >>= 1
        if k:
            base *= base
            floor_mod(base, q, out=base)
    return out


def _geometric(r: int, n: int, m: int) -> np.ndarray:
    """r^j mod m for j = 0..n-1, by a Python integer loop."""
    steps = accumulate(range(n - 1), lambda t, _: t * r % m, initial=1)
    return np.array(list(steps), dtype=np.int64)


def _powers(g: int, n: int, m: int) -> np.ndarray:
    """g^a mod m for a = 0..n-1.

    With c = ceil(sqrt(n)), row i, column j of the outer product of the
    giant steps g^(c*i) and the baby steps g^j is g^(c*i + j), so the rows
    read in order list the powers.  The two step lists take about 2*sqrt(n)
    Python multiplications, and the product is one vectorized pass.  Exact
    while m * m < 2**63.
    """
    c = math.isqrt(n - 1) + 1
    giant = _geometric(pow(g, c, m), -(-n // c), m)
    return floor_mod(giant[:, None] * _geometric(g, c, m), m).reshape(-1)[:n]


def _prime_power_inverse(comp: "UnitGroupComponent") -> np.ndarray:
    """inv over [0, p^e) for one component: x^-1 mod p^e at units, else 0.

    The units are g^k for k < o, where g is the component's last generator
    and o its order, times +-1 when p^e = 2^e with e >= 3 (generators -1
    and 3).  (g^k)^-1 = g^(o-k), so the inverses of the listed powers are
    the same list reversed after its leading 1, and (-y)^-1 = -(y^-1).
    """
    pe = comp.prime_power
    inv = np.zeros(pe, dtype=np.int64)
    inv[1] = 1
    if comp.generators:
        pw = _powers(comp.generators[-1], comp.orders[-1], pe)
        inv[pw[1:]] = pw[:0:-1]
        if len(comp.generators) == 2:
            inv[pe - pw] = pe - inv[pw]
    return inv


@functools.cache  # later composites of a sweep share the prime powers, so they stay built
def _component_logs(comp: "UnitGroupComponent") -> np.ndarray:
    """The read-only (p^e, n_g) logs of one component over [0, p^e) on its n_g generators."""
    pe = comp.prime_power
    # local units as products of generator powers, in mesh order
    res = np.ones(1, dtype=np.int64)
    for g, o in zip(comp.generators, comp.orders):
        res = floor_mod(res[:, None] * _powers(g, o, pe)[None, :], pe).reshape(-1)
    n_g = len(comp.orders)
    local = np.zeros((pe, n_g), dtype=np.int64)
    local[res] = np.indices(comp.orders).reshape(n_g, -1).T
    return _shared(local)


#: the instance of each q that some caller still holds
_live: "weakref.WeakValueDictionary[int, Modulus]" = weakref.WeakValueDictionary()


@functools.cache  # later moduli of a sweep share the cofactors, so they stay built
def _cofactor(b: int) -> Modulus:
    return Modulus.of(b)


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

    @functools.cached_property
    def orders(self) -> tuple[int, ...]:
        """Orders of the flattened generators, in factor order."""
        return tuple(o for c in self.components for o in c.orders)


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    targets = [(p - 1) // f for f, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, t, p) != 1 for t in targets):
            return g
    raise AssertionError(f"no primitive root found for {p}")


@functools.cache  # the cofactor moduli of inverse tables repeat the prime powers of q
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
    return Modulus.of(q).group


def unit_residues(q: "Modulus | int") -> np.ndarray:
    """Units of Z_q^* in [1, q), ascending (read-only int64 array)."""
    return Modulus.of(q).units


def inverse_table(q: "Modulus | int") -> np.ndarray:
    """Read-only array inv of length q with inv[x] = x^-1 mod q for units, else 0."""
    return Modulus.of(q).inverse


def unit_mask(q: "Modulus | int") -> np.ndarray:
    """Read-only boolean array over [0, q) marking residues coprime to q."""
    return Modulus.of(q).mask
