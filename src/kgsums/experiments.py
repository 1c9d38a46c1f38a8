"""Seeded experiments binding bilinear evaluation to bound evaluation.

An experiment fixes (q, M, N, L, weight kind, seed), generates the weights
deterministically, evaluates the bilinear form by every requested method,
cross-checks the methods against each other and against the exact trivial
bound, then emits one record per applicable bound formula.

Support convention: the weights sit on the first M units of Z_q^* in
ascending order (or the first M primitive characters in enumeration order
for the Gauss family); the seed drives only the weight values, so two seeds
share bound values and differ in the measured sum.

One pass per modulus: the seeds of one (q, M, N, L) share everything but their
weight values, so :func:`run_experiments` runs them together.  It reads the
support keys once off the modulus's tables, checked by construction (the public
weight constructors check theirs), and draws every seed's values in one
SplitMix64 block; each route evaluates all their weight vectors in one call
(``bilinear._bilinear_sums``: one gamma_x table, one batched DFT, one outer-sum
pass over tiles of their rows), and each seed keeps its own weights,
cross-check, trivial-bound assert and records, equal to what
:func:`run_experiment` gives it alone.  The bound-ratio grid makes one such call
per prime.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bilinear import (
    CharWeightVector,
    Interval,
    WeightVector,
    _bilinear_sums,
    make_weights,
)
from .bounds import BoundSpec, bound_value
from .counting import j2_reference_ratios
from .errors import VerificationError
from .expsums import (
    SumResult,
    dft_entry_error,
    kloosterman_row,
    primitive_characters,
    primitive_count,
)
from .modmath import MACHINE_EPS, TABLE_Q_CAP, Modulus, unit_residues
from .prng import derive_seed

FAMILIES = ("kloosterman", "gauss")

_DEFAULT_METHODS = {"kloosterman": ("fast",), "gauss": ("transformed",)}

#: the regression grids run over the primes in [GRID_PRIME_LO, GRID_PRIME_HI]
GRID_PRIME_LO, GRID_PRIME_HI = 101, 2003

#: weight seeds of the bound-ratio regression grid
GRID_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class ExperimentRecord:
    """One (experiment, bound) row of the CSV schema.

    ``ratio`` is abs_sum / bound_value; an empty-support run has every norm,
    bound value, and ratio equal to 0 by convention.  ``wall_time_seconds``
    is the elapsed time of weight generation, evaluation and checks; a
    call that runs several seeds (:func:`run_experiments`) splits its
    elapsed time evenly over them, so every record of that call carries
    the same value.
    """

    q: int
    M: int
    N: int
    L: int
    seed: int
    weight_kind: str
    norm1: float
    norm2: float
    norm_inf: float
    abs_sum: float
    error_bound: float
    bound_name: str
    bound_value: float
    ratio: float
    wall_time_seconds: float


def max_kloosterman_abs(q: "Modulus | int") -> float:
    """max over m in [1, q-1] of |K_q(m, 1)|, memoized per q.

    By the substitutions m -> 1, n -> m*n this also dominates |K_q(m, n)|
    for every unit m and every n in [1, q-1], which is exactly the range a
    weighted form can touch; it feeds the exact trivial bound.  It is read
    from the whole length-q row `kloosterman_row(q, 1)`, so
    :func:`run_experiments` computes it only when a record reports the
    trivial bound or :func:`max_kloosterman_floor` cannot settle the assert.
    """
    return _max_kloosterman_abs(Modulus.of(q).q)


@functools.cache
def _max_kloosterman_abs(q: int) -> float:
    return float(np.max(np.abs(kloosterman_row(q, 1)[1:])))


def max_kloosterman_floor(q: "Modulus | int") -> float:
    """A lower bound on :func:`max_kloosterman_abs`, in closed form, with no table.

    Plancherel on the row gives sum_{m=0}^{q-1} |K_q(m, 1)|^2 = q * phi(q),
    and K_q(0, 1) = c_q(1) = mu(q), so the maximum over m in [1, q-1] is at
    least the root mean square sqrt((q phi(q) - mu(q)^2) / (q - 1)).  The
    computed maximum can sit below the exact one by the row's rounding: per
    entry at most `dft_entry_error(q, phi(q))` for the DFT (the fast
    route's budget, with ||a||_1 = phi(q)), plus a few eps phi(q) for the
    phases, the modulus and this formula.  The floor is the root mean
    square less that budget and 24 eps phi(q), a relative margin of about
    4 log2(q) eps sqrt(phi(q)).  At q = 2 the maximum equals the root mean
    square; above it the maximum exceeds it far beyond the margin.
    """
    mod = Modulus.of(q)
    mu_sq = int(all(e == 1 for _, e in mod.factors))
    rms = math.sqrt((mod.q * mod.phi - mu_sq) / (mod.q - 1))
    return rms - dft_entry_error(mod.q, mod.phi) - 24.0 * MACHINE_EPS * mod.phi


def cross_check(methods: tuple[str, ...], results: list[SumResult], q: int) -> None:
    """Raise VerificationError unless every pair of routes agrees within its budgets."""
    for (m1, r1), (m2, r2) in itertools.combinations(zip(methods, results), 2):
        gap = abs(r1.value - r2.value)
        budget = r1.error_bound + r2.error_bound
        if not gap <= budget:  # a NaN gap or budget fails too
            raise VerificationError(
                f"methods {m1} and {m2} differ by {gap:.3e} "
                f"with combined budget {budget:.3e} (q={q})"
            )


def primes_in_range(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(lo, hi + 1) if sieve[p]]


def _default_bounds(family: str, prime: bool) -> list[BoundSpec]:
    if family == "gauss":
        return [BoundSpec("trivial"), BoundSpec("thm23")]
    specs = [BoundSpec("trivial"), BoundSpec("thm21"), BoundSpec("simple21")]
    if prime:
        specs += [
            BoundSpec("fkm"),
            BoundSpec("bfkmm"),
            BoundSpec("shpzha"),
            BoundSpec("combined"),
        ]
    return specs


def _support_keys(mod: Modulus, M: int, family: str) -> np.ndarray:
    """The first M units in ascending order (Kloosterman family) or the first
    M primitive characters in enumeration order (Gauss family)."""
    keys = unit_residues(mod) if family == "kloosterman" else primitive_characters(mod)
    if not 0 <= M <= len(keys):
        raise ValueError(f"support size M must lie in [0, {len(keys)}] for q = {mod.q}, got {M}")
    return keys[:M]


def build_weight_vector(
    q: "Modulus | int", M: int, weight_kind: str, seed: int
) -> WeightVector:
    """Weights on the first M units in ascending order."""
    mod = Modulus.of(q)
    keys = _support_keys(mod, M, "kloosterman")
    return WeightVector(mod, keys, make_weights(keys, weight_kind, seed))


def build_char_weight_vector(
    q: "Modulus | int", M: int, weight_kind: str, seed: int
) -> CharWeightVector:
    """Weights on the first M primitive characters in enumeration order."""
    mod = Modulus.of(q)
    keys = _support_keys(mod, M, "gauss")
    return CharWeightVector(mod, keys, make_weights(keys, weight_kind, seed))


def run_experiment(
    q: "Modulus | int",
    M: int,
    N: int,
    L: int = 0,
    weight_kind: str = "const",
    seed: int = 0,
    methods: tuple[str, ...] | None = None,
    family: str = "kloosterman",
    bounds: list[BoundSpec] | None = None,
) -> list[ExperimentRecord]:
    """Run one seeded experiment; returns one record per bound formula.

    The one-seed case of :func:`run_experiments`, which documents the checks.
    """
    return run_experiments(
        q, M, N, L, weight_kind, (seed,), methods=methods, family=family, bounds=bounds
    )[0]


def run_experiments(
    q: "Modulus | int",
    M: int,
    N: int,
    L: int = 0,
    weight_kind: str = "const",
    seeds: tuple[int, ...] = (0,),
    methods: tuple[str, ...] | None = None,
    family: str = "kloosterman",
    bounds: list[BoundSpec] | None = None,
) -> list[list[ExperimentRecord]]:
    """Run one experiment per seed on one modulus in one pass; returns one
    record list per seed, in order, with one record per bound formula.

    For each seed, all requested methods are evaluated and must agree
    within the sum of their error bounds; the reported value comes from the
    first method.  The exact trivial bound is asserted unconditionally.
    For the Kloosterman family its max|K_q| comes from the length-q row
    only when a ``trivial`` record reports it or the sum misses the
    closed-form :func:`max_kloosterman_floor`, evaluated once per call,
    which lies below that maximum; the verdict is the same either way.
    The seeds share the support keys, checked by construction
    (``_from_columns``), one SplitMix64 draw of their weight values
    (:func:`bilinear.make_weights`), the interval and each route's pass
    (:func:`bilinear._bilinear_sums`); each seed's vector keeps its own values
    and norms, and each seed's records equal what it gives alone, but for
    ``wall_time_seconds``: the call's elapsed time split evenly over its seeds.
    """
    mod = Modulus.of(q)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if not seeds:
        raise ValueError("an experiment needs at least one seed")
    methods = tuple(methods) if methods else _DEFAULT_METHODS[family]
    J = Interval.of(mod, L, N)

    specs = bounds if bounds is not None else _default_bounds(family, mod.is_prime())
    weight_class = WeightVector if family == "kloosterman" else CharWeightVector
    start = time.perf_counter()
    keys = _support_keys(mod, M, family)
    # every seed's values from one draw, on keys the tables give in order
    vectors = weight_class._from_columns(mod, keys, make_weights(keys, weight_kind, seeds))
    by_method = [_bilinear_sums(family, vectors, J, m) for m in methods]
    # the closed-form floor, for every seed, when no record reads the maximum
    floor = (
        max_kloosterman_floor(mod)
        if family == "kloosterman" and all(spec.name != "trivial" for spec in specs)
        else None
    )
    max_terms = []
    for weights, results in zip(vectors, zip(*by_method)):
        cross_check(methods, list(results), mod.q)
        primary = results[0]
        abs_sum = abs(primary.value)
        if family == "gauss":
            max_term = math.sqrt(mod.q)
        elif floor is not None and abs_sum <= weights.norm1 * N * floor + primary.error_bound:
            # the floor is below the computed maximum, so the assert below would
            # pass too, and no record reads the maximum; a sum that misses the
            # floor, or a NaN, takes the exact row
            max_term = None
        else:
            max_term = max_kloosterman_abs(mod)
        if max_term is not None:
            trivial_value = weights.norm1 * N * max_term
            if not abs_sum <= trivial_value + primary.error_bound:  # so does a NaN sum
                raise VerificationError(
                    f"|sum| = {abs_sum:.6e} exceeds the exact trivial bound "
                    f"{trivial_value:.6e} beyond the error budget (q={mod.q})"
                )
        max_terms.append(max_term)
    wall = (time.perf_counter() - start) / len(seeds)

    outcomes = []
    for seed, weights, primary, max_term in zip(seeds, vectors, by_method[0], max_terms):
        abs_sum = abs(primary.value)
        norm1, norm2, norm_inf = weights.norm1, weights.norm2, weights.norm_inf
        records = []
        for spec in sorted(specs, key=lambda s: s.name):
            bv = bound_value(spec, mod.q, M, N, norm1, norm2, norm_inf, max_term=max_term)
            records.append(
                ExperimentRecord(
                    q=mod.q,
                    M=M,
                    N=N,
                    L=L,
                    seed=seed,
                    weight_kind=weight_kind,
                    norm1=norm1,
                    norm2=norm2,
                    norm_inf=norm_inf,
                    abs_sum=abs_sum,
                    error_bound=primary.error_bound,
                    bound_name=spec.name,
                    bound_value=bv,
                    ratio=abs_sum / bv if bv > 0 else 0.0,
                    wall_time_seconds=wall,
                )
            )
        outcomes.append(records)
    return outcomes


def average_sweep(
    Q: int,
    N: int,
    r: int,
    epsilon: float,
    weight_kind: str = "pm1",
    seed: int = 0,
    family: str = "kloosterman",
) -> tuple[list[ExperimentRecord], int]:
    """Sweep q over [Q, 2Q] against the averaged bound with parameters (r, eps).

    Per-q weights are regenerated from ``derive_seed(seed, q)`` on full
    support (every unit, or every primitive character).  A modulus is
    exceptional when its ratio exceeds 1 under the constants-as-1
    convention; the count of exceptional moduli is returned alongside the
    records for comparison with Q^(1 - 2*r*eps); an epsilon at which that
    count underflows to 0.0 raises ValueError before any modulus runs.
    """
    if Q < 16:
        raise ValueError(f"sweeps require Q >= 16, got {Q}")
    if not 1 <= N <= Q - 1:
        raise ValueError(f"N must lie in [1, Q-1], got {N}")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    spec = BoundSpec("thm22" if family == "kloosterman" else "thm24", r=r, epsilon=epsilon)
    # a positive count has (2 r eps - 1) ln Q < 745, so with Q >= 16 and r >= 2,
    # eps ln(2Q) < 233 + ln(2Q) / 4 and every q**eps stays finite; past
    # TABLE_Q_CAP no modulus runs, and Q may not even convert to a float
    if Q <= TABLE_Q_CAP and exceptional_budget(Q, r, epsilon) == 0.0:
        raise ValueError(f"Q^(1-2*r*eps) underflows to 0 at Q={Q}, r={r}, epsilon={epsilon}")
    records: list[ExperimentRecord] = []
    exceptional = 0
    for q in range(Q, 2 * Q + 1):
        mod = Modulus.of(q)
        M = mod.phi if family == "kloosterman" else primitive_count(mod)
        recs = run_experiment(
            mod,
            M,
            N,
            L=0,
            weight_kind=weight_kind,
            seed=derive_seed(seed, q),
            family=family,
            bounds=[spec],
        )
        records.extend(recs)
        if recs[0].ratio > 1.0:
            exceptional += 1
    return records, exceptional


def exceptional_budget(Q: int, r: int, epsilon: float) -> float:
    """The reference count Q^(1 - 2*r*epsilon) an averaged sweep reports against."""
    return Q ** (1.0 - 2.0 * r * epsilon)


def bound_ratio_grid(bounds: list[BoundSpec] | None = None) -> Iterator[list[ExperimentRecord]]:
    """The bound-ratio regression grid: the records of one experiment per
    grid prime p and seed in GRID_SEEDS, with M = N = ceil(sqrt(p)) and pm1
    weights, reporting ``bounds`` (None: the defaults) as :func:`run_experiments`
    does.  The frozen baseline is the largest thm21 ratio."""
    for p in primes_in_range(GRID_PRIME_LO, GRID_PRIME_HI):
        m = n = min(math.isqrt(p - 1) + 1, p - 2)
        yield from run_experiments(p, M=m, N=n, weight_kind="pm1", seeds=GRID_SEEDS, bounds=bounds)


def grid_ks(q: int) -> list[int]:
    """The J_2 grid's K for modulus q: ceil of q^(1/4), q^(1/2) and q^(3/4), and q."""
    return sorted({math.ceil(q**0.25), math.ceil(q**0.5), math.ceil(q**0.75), q})


def j2_ratio_grid() -> Iterator[float]:
    """The J_2 regression grid: `j2_reference_ratios` at every grid prime for
    its `grid_ks`, one call (one FFT pass) per prime.  The frozen baseline
    is the largest ratio."""
    for p in primes_in_range(GRID_PRIME_LO, GRID_PRIME_HI):
        yield from j2_reference_ratios(p, grid_ks(p))
