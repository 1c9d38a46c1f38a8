"""Weighted bilinear forms over Kloosterman and Gauss sums.

The double sum over (weight support) x (interval) admits three routes:

* ``naive``       - literal double sum calling the scalar sum per pair.
                    O(M * N * phi(q)); capped, exists purely as an oracle.
* ``transformed`` - swap summation order and substitute x -> x^-1, giving
                    sum_x f(x^-1) * gamma_x with f(t) = sum_m alpha_m e_q(mt)
                    and gamma_x the closed-form geometric interval sum.
                    O(phi(q) * M).
* ``fast``        - same shape, but f is one length-q DFT of the dense
                    weight vector followed by the inversion permutation.
                    O(q log q + q).

All routes return a :class:`SumResult` and must agree within the sum of
their error bounds; the cross-check is enforced by the experiment harness
and the test suite.  Evaluation is pure and sequential with numpy's
deterministic pairwise reduction, so results are reproducible bit for bit;
the x-loop partitions cleanly (see the dyadic decomposition) if a caller
wants to parallelize by range.

The interval sums gamma_x are localized by a dyadic-scale partition of the
unit representatives in (-q/2, q/2]; on scale i the magnitude of gamma_x is
at most C * exp(-i) * N with the documented constant C = e * pi / 2 (the
tight constant is e/2 for i >= 1 and 1 for i = 0; the larger C keeps one
uniform, empirically asserted value).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .counting import _rotation_sum
from .errors import (
    DomainRestriction,
    InvalidWeight,
    ModulusMismatch,
    ResourceLimit,
)
from .expsums import (
    DirichletCharacter,
    SumResult,
    char_values,
    gauss,
    kloosterman,
    _sum_terms,
)
from .modmath import (
    MACHINE_EPS,
    TWO_PI,
    Modulus,
    inverse_table,
    pow_mod,
    unit_residues,
)
from .prng import SplitMix64

#: documented uniform constant in |gamma_x| <= GAMMA_SCALE_C * exp(-i) * N
GAMMA_SCALE_C = math.e * math.pi / 2

#: naive double-sum oracle cap on M * N * phi(q)
NAIVE_COST_CAP = 10**9

#: exhaustive moment-identity enumeration cap on |X|^(2r)
MOMENT_TUPLE_CAP = 10**8


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


def _norms(values: Iterable[complex]) -> tuple[float, float, float]:
    mags = [abs(v) for v in values]
    if not mags:
        return 0.0, 0.0, 0.0
    return float(math.fsum(mags)), math.sqrt(math.fsum(m * m for m in mags)), max(mags)


@dataclass(frozen=True)
class WeightVector:
    """Sparse complex weights on residues coprime to q.

    Keys are reduced mod q and must be units; exact-zero values are dropped
    so the stored support is the true support.  The norms are computed once,
    at construction.  Treat instances as immutable.
    """

    modulus: Modulus
    entries: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        q = self.modulus.q
        clean: dict[int, complex] = {}
        for m, a in self.entries.items():
            r = int(m) % q
            g = math.gcd(r, q)
            if g != 1:
                raise InvalidWeight(
                    f"weight key {m} is not a unit mod {q} (gcd = {g})"
                )
            a = complex(a)
            if a != 0:
                clean[r] = clean.get(r, 0j) + a
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_norm_values", _norms(clean.values()))

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def norm1(self) -> float:
        return self._norm_values[0]

    @property
    def norm2(self) -> float:
        return self._norm_values[1]

    @property
    def norm_inf(self) -> float:
        return self._norm_values[2]

    def support(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=np.int64)

    def coefficients(self) -> np.ndarray:
        return np.array([self.entries[m] for m in sorted(self.entries)], dtype=np.complex128)

    def scaled(self, c: complex) -> "WeightVector":
        return WeightVector(self.modulus, {m: c * a for m, a in self.entries.items()})

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if other.modulus.q != self.modulus.q:
            raise ModulusMismatch("cannot add weight vectors with different moduli")
        merged = dict(self.entries)
        for m, a in other.entries.items():
            merged[m] = merged.get(m, 0j) + a
        return WeightVector(self.modulus, merged)


@dataclass(frozen=True)
class CharWeightVector:
    """Sparse complex weights on primitive characters mod q; norms as in WeightVector."""

    modulus: Modulus
    entries: dict[DirichletCharacter, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[DirichletCharacter, complex] = {}
        for chi, w in self.entries.items():
            if chi.modulus.q != self.modulus.q:
                raise ModulusMismatch(
                    f"character modulus {chi.modulus.q} != {self.modulus.q}"
                )
            if not chi.is_primitive:
                raise InvalidWeight(
                    f"character with conductor {chi.conductor} < {self.modulus.q} "
                    "cannot carry weight"
                )
            w = complex(w)
            if w != 0:
                clean[chi] = clean.get(chi, 0j) + w
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_norm_values", _norms(clean.values()))

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def norm1(self) -> float:
        return self._norm_values[0]

    @property
    def norm2(self) -> float:
        return self._norm_values[1]

    @property
    def norm_inf(self) -> float:
        return self._norm_values[2]


WEIGHT_KINDS = ("const", "pm1", "unit", "zero")


def make_weights(keys: list, kind: str, seed: int) -> list[complex]:
    """Deterministic weight values for the given ordered keys.

    Kinds: ``const`` (all 1), ``pm1`` (random signs), ``unit`` (random
    points on the unit circle), ``zero`` (all 0, for trivial-case tests).
    Values are drawn sequentially in key order from one SplitMix64 stream
    seeded with ``seed``, so every run is reproducible cross-platform.
    """
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")
    rng = SplitMix64(seed)
    out: list[complex] = []
    for _ in keys:
        if kind == "const":
            out.append(1.0 + 0j)
        elif kind == "pm1":
            out.append(complex(rng.sign(), 0.0))
        elif kind == "unit":
            out.append(cmath.exp(complex(0.0, TWO_PI * rng.uniform01())))
        else:
            out.append(0j)
    return out


# ---------------------------------------------------------------------------
# Interval sums gamma_x and the dyadic-scale partition
# ---------------------------------------------------------------------------


#: per-value rounding budget multiplier: |computed - exact| <= this * eps * N
GAMMA_EVAL_ERR = 32.0


def gamma_sum(J: Interval, x: int) -> complex:
    """Closed-form geometric sum of e_q(n*x) over n in J.

    Magnitude satisfies |gamma_x| <= min(N, q / (2 * dist_q(x))) by the
    sine bound sin(pi*t) >= 2*t on [0, 1/2].

    All angles are exact integer multiples of pi/q, reduced symmetrically
    mod 2q against the symmetric representative of x, so every trig
    argument lies in (-pi, pi] and the rounding error stays below
    GAMMA_EVAL_ERR * eps * N uniformly in x (an unreduced phase N*x*pi/q
    would lose ~eps*q*N near x = q).
    """
    q = J.modulus.q
    r = x % q
    if r == 0:
        raise DomainRestriction("gamma_sum is undefined for x = 0 mod q")
    if 2 * r > q:
        r -= q  # symmetric representative in (-q/2, q/2]

    def sym2q(v: int) -> int:  # reduce into (-q, q] so angles stay in (-pi, pi]
        t = v % (2 * q)
        return t - 2 * q if t > q else t

    num_t = sym2q(J.N * r)
    phase_t = sym2q((2 * J.L + J.N + 1) * r)
    ratio = math.sin(math.pi * num_t / q) / math.sin(math.pi * r / q)
    return cmath.exp(complex(0.0, math.pi * phase_t / q)) * ratio


def _gamma_over_units(J: Interval) -> np.ndarray:
    """gamma_x for every unit x, aligned with unit_residues(q).

    Same reduced-angle evaluation as :func:`gamma_sum`.
    """
    q = J.modulus.q
    xs = unit_residues(J.modulus).astype(np.int64)
    r = np.where(2 * xs > q, xs - q, xs)

    def sym2q(v: np.ndarray) -> np.ndarray:
        t = v % (2 * q)
        return np.where(t > q, t - 2 * q, t)

    num_t = sym2q(J.N * r)
    phase_t = sym2q((2 * J.L + J.N + 1) * r)
    ratio = np.sin(np.pi * num_t / q) / np.sin(np.pi * r / q)
    return np.exp(1j * np.pi * phase_t / q) * ratio


@dataclass(frozen=True)
class DyadicSet:
    """Integers at one signed dyadic scale of the representative range.

    Scale 0 holds 0 < +/-x <= q/N; scale i >= 1 holds
    e^(i-1)*q/N < +/-x <= min(q/2, e^i*q/N).  Members are restricted to the
    representative range (-q/2, q/2], the lower bound is strict (boundary
    points belong to the higher scale), and all integers in range are kept,
    units or not.
    """

    index: int
    sign: str  # "+" or "-"
    members: tuple[int, ...]


def dyadic_partition(q: "Modulus | int", N: int) -> list[DyadicSet]:
    """All dyadic sets for scales i = 0..ceil(log(N/2)), both signs.

    The signed sets tile (-q/2, q/2] minus zero, so every unit
    representative lands in exactly one set.
    """
    mod = Modulus.of(q)
    if not 1 <= N <= mod.q - 1:
        raise ValueError(f"N must lie in [1, {mod.q - 1}], got {N}")
    I = max(0, math.ceil(math.log(N / 2.0))) if N >= 2 else 0
    half = mod.q / 2.0
    bounds = [mod.q / N]
    for i in range(1, I + 1):
        bounds.append(math.exp(i) * mod.q / N)
    out: list[DyadicSet] = []
    lo = 0.0
    for i in range(I + 1):
        hi = min(bounds[i], half)
        lo_int = math.floor(lo)  # strict lower bound: members start at lo_int + 1
        hi_int = math.floor(hi)
        pos = tuple(range(lo_int + 1, hi_int + 1))
        neg = tuple(-x for x in reversed(pos) if 2 * x != mod.q)
        out.append(DyadicSet(index=i, sign="+", members=pos))
        out.append(DyadicSet(index=i, sign="-", members=neg))
        lo = bounds[i]
    return out


def representative(x: int, q: "Modulus | int") -> int:
    """The representative of x mod q in (-q/2, q/2]."""
    mod = Modulus.of(q)
    r = x % mod.q
    return r if 2 * r <= mod.q else r - mod.q


# ---------------------------------------------------------------------------
# Bilinear evaluation paths
# ---------------------------------------------------------------------------

_KLOOSTERMAN_METHODS = ("naive", "transformed", "fast")
_GAUSS_METHODS = ("naive", "transformed")
_GENERALIZED_METHODS = ("transformed", "fast")

#: entries of the phase matrix built per block of the transformed inner product
_BLOCK_ENTRIES = 1 << 22


def _check_shared_modulus(weights, J: Interval) -> Modulus:
    if weights.modulus.q != J.modulus.q:
        raise ModulusMismatch(
            f"weights mod {weights.modulus.q} but interval mod {J.modulus.q}"
        )
    return J.modulus


def _inner_exp_sums(q: int, targets: np.ndarray, ms: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """f(t) = sum_m alpha_m e_q(m t) for each t in targets, blockwise.

    A block holds max(1, _BLOCK_ENTRIES // |ms|) targets, so its phase
    matrix stays near _BLOCK_ENTRIES entries whatever the support size.
    """
    out = np.empty(targets.shape, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // max(ms.size, 1))
    for start in range(0, targets.size, rows):
        block = targets[start : start + rows]
        phases = block[:, None] * ms[None, :] % q
        out[start : start + block.size] = np.exp(2j * np.pi * phases / q) @ alphas
    return out


def _inverse_powers(mod: Modulus, inv_power: int) -> np.ndarray:
    """(x^-1)^k mod q for every unit x, aligned with unit_residues(q)."""
    inv = inverse_table(mod)[unit_residues(mod)]
    return inv if inv_power == 1 else pow_mod(inv, inv_power, mod.q)


def _transformed_values(A: WeightVector, inv_power: int = 1) -> np.ndarray:
    """f((x^-1)^k) for every unit x, aligned with unit_residues(q), by direct inner sums."""
    targets = _inverse_powers(A.modulus, inv_power)
    return _inner_exp_sums(A.modulus.q, targets, A.support(), A.coefficients())


def _fast_values(A: WeightVector, inv_power: int) -> np.ndarray:
    """f((x^-1)^k) for every unit x, with the inner sums done by one length-q DFT."""
    mod = A.modulus
    dense = np.zeros(mod.q, dtype=np.complex128)
    dense[A.support()] = A.coefficients()
    f_all = mod.q * np.fft.ifft(dense)  # f_all[t] = sum_m alpha_m e_q(m t)
    return f_all[_inverse_powers(mod, inv_power)]


def _outer_sum(J: Interval, f_vals: np.ndarray, entry_err: float) -> SumResult:
    """sum over units x of f_vals * gamma_x, with the inner rounding propagated.

    ``f_vals`` is aligned with unit_residues(q) and each entry carries at
    most ``entry_err``; each gamma value carries GAMMA_EVAL_ERR * eps * N.
    """
    gam = _gamma_over_units(J)
    outer = _sum_terms(f_vals * gam)
    err_inner = float(
        entry_err * np.sum(np.abs(gam))
        + GAMMA_EVAL_ERR * MACHINE_EPS * J.N * np.sum(np.abs(f_vals))
    )
    return SumResult(
        value=outer.value,
        error_bound=outer.error_bound + err_inner,
        terms=outer.terms,
    )


def _transformed_sum(A: WeightVector, J: Interval, inv_power: int) -> SumResult:
    """Transformed route: each direct inner sum carries (M + 4) eps * ||A||_1."""
    entry_err = (A.support_size + 4) * MACHINE_EPS * A.norm1
    return _outer_sum(J, _transformed_values(A, inv_power), entry_err)


def _fast_sum(A: WeightVector, J: Interval, inv_power: int) -> SumResult:
    """Fast route: each DFT entry carries (4 log2 q + 8) eps * ||A||_1."""
    entry_err = (4.0 * math.log2(A.modulus.q) + 8.0) * MACHINE_EPS * A.norm1
    return _outer_sum(J, _fast_values(A, inv_power), entry_err)


_ROUTES = {"transformed": _transformed_sum, "fast": _fast_sum}


def _naive_double_sum(weights, J: Interval, scalar, key=None) -> SumResult:
    """Literal double sum of w * scalar(q, k, n) over supp(weights) x J.

    ``scalar`` is :func:`kloosterman` or :func:`gauss`; the support is
    walked in ``sorted(..., key=key)`` order.  Exists purely as an oracle.
    """
    mod = _check_shared_modulus(weights, J)
    cost = weights.support_size * J.N * mod.phi
    if cost > NAIVE_COST_CAP:
        raise ResourceLimit(
            f"naive double sum cost M*N*phi = {cost} exceeds cap {NAIVE_COST_CAP}"
        )
    total = 0j
    err = 0.0
    l1 = 0.0
    count = 0
    for k in sorted(weights.entries, key=key):
        w = weights.entries[k]
        for n in J.values():
            s = scalar(mod, k, n)
            term = w * s.value
            total += term
            err += abs(w) * s.error_bound
            l1 += abs(term)
            count += 1
    return SumResult(
        value=total,
        error_bound=err + (count + 4) * MACHINE_EPS * l1,
        terms=count,
    )


def bilinear_kloosterman(A: WeightVector, J: Interval, method: str = "fast") -> SumResult:
    """Weighted double sum of Kloosterman values over supp(A) x J."""
    if method not in _KLOOSTERMAN_METHODS:
        raise ValueError(f"method must be one of {_KLOOSTERMAN_METHODS}, got {method!r}")
    _check_shared_modulus(A, J)
    if A.support_size == 0:
        return SumResult(value=0j, error_bound=0.0, terms=0)
    if method == "naive":
        return _naive_double_sum(A, J, kloosterman)
    return _ROUTES[method](A, J, 1)


def bilinear_generalized(
    A: WeightVector, J: Interval, k: int, method: str = "transformed"
) -> SumResult:
    """Bilinear form with kernel e_q(m * x^-k + n * x).

    ``method`` is ``transformed`` or ``fast``; k = 1 reduces to the same
    route of :func:`bilinear_kloosterman`.
    """
    if k < 1:
        raise ValueError(f"kernel power k must be >= 1, got {k}")
    if method not in _GENERALIZED_METHODS:
        raise ValueError(f"method must be one of {_GENERALIZED_METHODS}, got {method!r}")
    _check_shared_modulus(A, J)
    if A.support_size == 0:
        return SumResult(value=0j, error_bound=0.0, terms=0)
    return _ROUTES[method](A, J, k)


def bilinear_gauss(W: CharWeightVector, J: Interval, method: str = "transformed") -> SumResult:
    """Weighted double sum of Gauss sums over supp(W) x J.

    The transformed route evaluates sum_x (sum_chi w_chi chi(x)) * gamma_x;
    no inversion permutation appears because the character already sits on
    the summation variable.
    """
    if method not in _GAUSS_METHODS:
        raise ValueError(f"method must be one of {_GAUSS_METHODS}, got {method!r}")
    mod = _check_shared_modulus(W, J)
    if W.support_size == 0:
        return SumResult(value=0j, error_bound=0.0, terms=0)
    if method == "naive":
        return _naive_double_sum(W, J, gauss, key=lambda c: c.exponents)
    combined = np.zeros(mod.q, dtype=np.complex128)
    for chi in sorted(W.entries, key=lambda c: c.exponents):
        combined += W.entries[chi] * char_values(chi)
    entry_err = (W.support_size + 4) * MACHINE_EPS * W.norm1
    return _outer_sum(J, combined[unit_residues(mod)], entry_err)


# ---------------------------------------------------------------------------
# Moment identity
# ---------------------------------------------------------------------------


def moment_check(
    q: "Modulus | int",
    X: Iterable[int],
    gamma: Mapping[int, complex],
    r: int,
    method: str = "auto",
) -> tuple[float, float]:
    """Both sides of the exact 2r-th moment identity over the full ring.

    lhs = sum over all residues m of |sum_{x in X} gamma_x e_q(m x^-1)|^(2r);
    rhs = q * sum over 2r-tuples from X whose first-r and last-r inverse sums
    agree mod q of the product gamma_{x_1}..gamma_{x_r} *
    conj(gamma_{x_{r+1}}..gamma_{x_2r}), real part.  With m ranging over the
    whole ring this is an equality, which makes it a sharp cross-check of
    the transformed machinery.

    ``method`` selects the rhs route: ``exhaustive`` enumerates all
    |X|^(2r) tuples (capped), ``convolution`` folds the gamma-weighted
    inverse indicator r times, each fold a gamma-weighted sum of |X|
    rotations (cost (r-1)*|X|*q, capped); ``auto`` picks by size.  Both caps
    are checked before any length-q array is built.
    """
    mod = Modulus.of(q)
    if r < 1:
        raise ValueError(f"moment order r must be >= 1, got {r}")
    xs = sorted({int(x) % mod.q for x in X})
    for x in xs:
        if math.gcd(x, mod.q) != 1:
            raise DomainRestriction(f"moment_check requires X inside Z_{mod.q}^*")
    if not xs:
        return 0.0, 0.0
    n_tuples = len(xs) ** (2 * r)
    if method == "auto":
        method = "exhaustive" if n_tuples <= 250_000 else "convolution"
    if method == "exhaustive":
        if n_tuples > MOMENT_TUPLE_CAP:
            raise ResourceLimit(
                f"|X|^(2r) = {n_tuples} exceeds exhaustive cap {MOMENT_TUPLE_CAP}"
            )
    elif method == "convolution":
        cost = (r - 1) * len(xs) * mod.q
        if cost > NAIVE_COST_CAP:
            raise ResourceLimit(
                f"convolution rhs cost (r-1)*|X|*q = {cost} exceeds cap {NAIVE_COST_CAP}"
            )
    else:
        raise ValueError(f"unknown moment method {method!r}")

    g = np.array([complex(gamma[x]) for x in xs], dtype=np.complex128)
    inv = inverse_table(mod)
    xbars = inv[np.array(xs, dtype=np.int64)]
    h = np.zeros(mod.q, dtype=np.complex128)  # h[x^-1] = gamma_x
    h[xbars] = g
    # q * ifft(h)[m] = sum_x gamma_x e_q(m x^-1)
    lhs = float(np.sum(np.abs(mod.q * np.fft.ifft(h)) ** (2 * r)))

    if method == "exhaustive":
        sums = xbars.astype(np.int64)
        prods = g.copy()
        for _ in range(r - 1):
            sums = (sums[:, None] + xbars[None, :]).reshape(-1) % mod.q
            prods = (prods[:, None] * g[None, :]).reshape(-1)
        match = (sums[:, None] - sums[None, :]) % mod.q == 0
        rhs_c = mod.q * np.sum(match * (prods[:, None] * np.conj(prods)[None, :]))
        return lhs, float(rhs_c.real)
    # cyclic convolution with h: H <- sum_x gamma_x * (H rotated by x^-1)
    H = h
    for _ in range(r - 1):
        H = _rotation_sum(H, xbars, g)
    return lhs, float(mod.q * np.sum(np.abs(H) ** 2))


# ---------------------------------------------------------------------------
# Dyadic decomposition of the transformed sum
# ---------------------------------------------------------------------------


def dyadic_decomposition(
    A: WeightVector, J: Interval
) -> tuple[list[DyadicSet], list[complex], complex, bool]:
    """Per-scale partial sums of the transformed route plus a coverage check.

    The transformed summands f(x^-1) * gamma_x are computed once and each
    unit is routed to its dyadic set by representative.  Partials and total
    are compensated sums (math.fsum), correctly rounded from the exact sums
    of those float summands.  The exact partials add up to the exact total
    precisely when every unit lies in exactly one set; the returned flag
    reports that coverage.

    Returns (sets, partial_sums, total, covered).
    """
    mod = _check_shared_modulus(A, J)
    q = mod.q
    xs = unit_residues(mod)
    terms = _transformed_values(A) * _gamma_over_units(J)

    sets = dyadic_partition(mod, J.N)
    owner = np.full(q, -1, dtype=np.int64)
    hits = np.zeros(q, dtype=np.int64)
    for idx, ds in enumerate(sets):
        members = np.array(ds.members, dtype=np.int64) % q
        owner[members] = idx
        np.add.at(hits, members, 1)
    covered = bool(np.all(hits[xs] == 1))
    owner = owner[xs]

    def fsum(t: np.ndarray) -> complex:
        return complex(math.fsum(t.real), math.fsum(t.imag))

    partials = [fsum(terms[owner == idx]) for idx in range(len(sets))]
    return sets, partials, fsum(terms), covered
