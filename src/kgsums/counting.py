"""Exact counting of reciprocal-sum and product congruence solutions.

Counts the 2r-tuples from {x <= K : gcd(x, q) = 1} whose r-fold inverse
sums (or r-fold products) agree mod q, plus the integer-equation analogues
over [1, K] without a modulus, and the 2r-th moment identity
(`moment_check`), whose rhs is the same count weighted by gamma.  Three
routes give the congruence counts:

* ``"fft"``, the certified group DFT: the r-th power of the base set's
  transform on the lattice Z/o_1 x .. x Z/o_k it lives on (`_lattice`:
  Z/q for inverse sums, the unit group through its discrete logs for
  products), rounded only under an a priori bound on the rounding error
  (see `_convolution_power`) and checked against the exact mass.  The
  padding depends on the lattice and r alone, so several point sets of one
  modulus (several K) share one pass: they are stacked on a leading batch
  axis, and each keeps its own certificate, mass check and sum(T**2).
* ``"convolution"``, the exact fold on the same lattice: it rotates the
  count array by every base point and sums the results with whole-array
  numpy calls (`_rotation_sum`).  Its (r - 1) * |X| * q adds, each a
  rotation of at most q entries, are capped before any table is built.
  The fold tables hold machine integers while provably below the int64
  overflow line and Python ints in object-dtype arrays otherwise.
* ``"exhaustive"``, the oracle: literal enumeration of the tuples.

By default the FFT route runs wherever its certificate holds and its
padded lattice fits ``FFT_SIZE_CAP``, and the fold runs otherwise.  Every
rule is arithmetic on the inputs and on |X| (by inclusion-exclusion),
decided before anything is allocated.  Final tallies are Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DomainRestriction, ResourceLimit, VerificationError
from .modmath import MACHINE_EPS, Modulus, floor_mod, inverse_table

#: the exhaustive oracle (counts and moment rhs) refuses past this many comparisons
EXHAUSTIVE_TUPLE_CAP = 10**8

#: the fold and moment_check build length-q tables; they refuse larger q
CONVOLUTION_Q_CAP = 10**6

#: the fold, which moment_check's convolution rhs runs weighted by gamma,
#: refuses more than this many adds, (r - 1) * |X| * q: every step rotates
#: an array of at most q entries once per base point
FOLD_COST_CAP = 10**9

#: the FFT route refuses padded lattices of more entries than this, which
#: admits Z/q at r = 2 for every q up to the fold's cap (its work arrays
#: peaked at about 90 MB for q = 1000003)
FFT_SIZE_CAP = 1 << 21

#: c in the FFT route's rounding certificate c * r * log2(n) * eps * |X|**r < 1/4
_FFT_ERR_C = 8.0

#: equation counters refuse beyond this many enumerated r-tuples
EQUATION_TUPLE_CAP = 2 * 10**7

_INT64_SAFE = 1 << 62


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


def _admissible_count(mod: Modulus, K: int) -> int:
    """|X| for X = {x <= K : gcd(x, q) = 1}, by inclusion-exclusion over the
    primes of q; arithmetic only, so refusals can be decided before X is built."""
    if not 1 <= K <= mod.q:
        raise ValueError(f"K must lie in [1, q] = [1, {mod.q}], got {K}")
    terms = [(1, 1)]  # (squarefree d | q with d <= K, mobius(d))
    for p, _ in mod.factors:
        terms += [(d * p, -mu) for d, mu in terms if d * p <= K]
    return sum(mu * (K // d) for d, mu in terms)


def _admissible(mod: Modulus, K: int) -> np.ndarray:
    """X as an int64 array, read from the cached unit mask (K <= q, and q is
    never a unit); callers size it with `_admissible_count` first."""
    return np.flatnonzero(mod.mask[1 : K + 1]) + 1


def _rotation_sum(
    vec: np.ndarray, shifts: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Sum over i of weights[i] * ``vec`` rotated by shifts[i] (unweighted if None).

    ``vec`` is a count array on a cyclic lattice, one dimension per axis,
    and row i of ``shifts`` moves it along every axis.  On one axis, row
    q - s of the sliding window over ``vec`` written twice is ``vec``
    rotated by s (0 <= s < q), so each rotation is added as a view, with no
    modular arithmetic and no gather; on more axes each is one ``np.roll``.
    """
    if vec.ndim == 1:
        q = vec.size
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate([vec, vec]), q)
        moved = (window[row] for row in (q - shifts.ravel()).tolist())
    else:
        axes = tuple(range(vec.ndim))
        moved = (np.roll(vec, shift, axes) for shift in shifts.tolist())
    out = np.zeros_like(vec)
    for i, view in enumerate(moved):
        out += view if weights is None else weights[i] * view
    return out


def _check_depth(r: int) -> None:
    """Refuse a depth r < 1: every table, count and moment needs r >= 1."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")


def _check_q_cap(q: int) -> None:
    """Refuse a length-q table route (the fold, moment_check) above CONVOLUTION_Q_CAP.

    Arithmetic on q only, so it runs before any table is built, whatever
    the route's cost (a fold at r = 1 costs 0 adds).
    """
    if q > CONVOLUTION_Q_CAP:
        raise ResourceLimit(
            f"length-q table routes capped at q <= {CONVOLUTION_Q_CAP}, got q = {q}"
        )


def _check_fold_cost(q: int, size: int, r: int) -> None:
    """Refuse a depth-r fold of ``size`` residues mod q above FOLD_COST_CAP adds.

    Arithmetic on the arguments only, so it runs before any table is built.
    """
    cost = (r - 1) * size * q
    if cost > FOLD_COST_CAP:
        raise ResourceLimit(f"fold cost (r-1)*|X|*q = {cost} exceeds cap {FOLD_COST_CAP}")


def _lattice(mod: Modulus, reciprocal: bool) -> tuple[tuple[int, ...], Callable]:
    """The shape of the cyclic lattice on which r-fold inverse sums
    (``reciprocal``) or products of units mod q add up, and ``place``, which
    maps residues to their points on it, one row each.

    Sums live on Z/q at the inverses, products on the unit group
    Z/o_1 x .. x Z/o_k at `Modulus.logs` (units mod 2 on a one-point axis).
    The shape is arithmetic on q; ``place`` reads a length-q table.
    """
    if reciprocal:
        return (mod.q,), lambda xs: inverse_table(mod)[xs][:, None]
    if not mod.group.orders:  # units mod 2: the trivial group
        return (1,), lambda xs: np.zeros((len(xs), 1), dtype=np.int64)
    return mod.group.orders, lambda xs: mod.logs[xs]


def _fold(
    points: np.ndarray, shape: tuple[int, ...], r: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Counts of the r-fold sums of distinct ``points`` on the lattice ``shape``, exact.

    Each fold step is `_rotation_sum` of the count array by every point.
    Counts are at most len(points)**r, so they are int64 below the overflow
    line and Python ints in an object array above it.  With complex
    ``weights`` aligned with the points, an r-tuple adds the product of its
    weights instead of 1, in complex128.
    """
    counts = np.int64 if len(points) ** r < _INT64_SAFE else object
    acc = np.zeros(shape, dtype=counts if weights is None else np.complex128)
    acc[tuple(points.T)] = 1 if weights is None else weights
    for _ in range(r - 1):
        acc = _rotation_sum(acc, points, weights)
    return acc


def _energy(table: np.ndarray, mass: int) -> int:
    """sum(T**2) of a count table T of total ``mass``: an int64 dot while max(T) * mass,
    which bounds it, is below the overflow line, and a Python-int dot above."""
    flat = table.ravel()
    if int(flat.max()) * mass >= _INT64_SAFE:
        flat = flat[flat != 0].astype(object)
    return int(flat @ flat)


def _fft_padding(shape: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Per-axis powers of two >= r*(o - 1) + 1: room for the linear r-fold sum."""
    return tuple(1 << (r * (o - 1)).bit_length() for o in shape)


def _fft_refusal(shape: tuple[int, ...], r: int, size: int) -> str | None:
    """Why the FFT route may not run for ``size`` points on ``shape`` at depth r.

    None when it may.  Arithmetic on the arguments only, so it is decided
    before anything is allocated.
    """
    n = math.prod(_fft_padding(shape, r))
    if n > FFT_SIZE_CAP:
        return f"FFT route needs a padded lattice of {n} entries, cap is {FFT_SIZE_CAP}"
    # the integer size**r meets the float limit in an exact comparison, so a
    # large power cannot overflow on the way
    limit = 0.25 / (_FFT_ERR_C * r * max(1, n.bit_length() - 1) * MACHINE_EPS)
    if size**r >= limit:
        return (
            f"FFT rounding certificate fails: |X|**r = {size}**{r} needs to stay "
            f"below {limit:.3e} on a padded lattice of {n} entries"
        )
    return None


def _convolution_power(
    point_sets: list[np.ndarray], shape: tuple[int, ...], r: int
) -> list[tuple[np.ndarray, int]]:
    """The exact r-fold cyclic self-convolution T of each point set, and sum(T**2).

    Each entry of ``point_sets`` holds one row of coordinates per distinct
    point of the lattice Z/o_1 x .. x Z/o_k with ``shape`` (o_1, .., o_k),
    as `_lattice` places them.  Each axis is zero-padded to a power of two
    >= r*(o_j - 1) + 1, so ``irfftn(rfftn(a) ** r)`` is the linear r-fold
    sum; it is rounded, each axis is wrapped mod o_j, and the mass
    sum(T) = |X|**r of each set is checked exactly.  The padding depends on
    the shape and r only, so the sets share it: they are stacked on a
    leading batch axis and transformed together, at most
    FFT_SIZE_CAP // (padded size) sets per pass, and each entry of the
    batch is what its set gives alone.

    Rounding certificate, a priori (Percival, "Rapid multiplication modulo
    the sum and difference of highly composite numbers", Math. Comp. 72,
    2003, section 2).  Let u = eps/2 and k = log2(n) for the padded size n;
    the axes' radix-2 levels add up to k however the transform splits into
    1-D passes.  Every output of a power-of-two FFT is a sum over its
    inputs in which each input passes at most k additions (relative error
    u) and k products by a stored root (sqrt(5) u for the product, Brent,
    Percival & Zimmermann, and up to 2u for the root).  So an output of the
    forward transform of v errs by at most g * ||v||_1 with
    g = (1 + u)^k (1 + (sqrt(5) + 2) u)^k - 1, about 5.24 k u.  The
    indicator has ||a||_1 = |X|, so its transform is at most |X|(1 + g) in
    size; the r - 1 products forming the power add (r - 1) sqrt(5) u
    relatively, leaving each entry of the power at most |X|^r (r g +
    (r - 1) sqrt(5) u) off.  The inverse transform is a mean of those
    entries (1/n is a power of two, so exact) and adds g |X|^r.  To first
    order,
        |T~ - T| <= |X|^r ((r + 1) g + (r - 1) sqrt(5) u)
                 <= 12.7 r k u |X|^r = 6.4 r k eps |X|^r
    for r, k >= 1, using r + 1 <= 2r.  ``FFT_SIZE_CAP`` keeps k <= 21, so
    k u < 3e-15 and the second-order terms are far below the first-order
    ones; c = ``_FFT_ERR_C`` = 8 covers them.
    With k replaced by max(k, 1) (the r - 1 products still round when
    n = 1), the result is accepted only when c r k eps |X|^r < 1/4; the
    observed distance from the integers is never consulted.  Under the
    certificate |X|^r < 2^47, so the rounded counts fit int64.  The bound
    is per set: a batched transform is the same transform of each set.

    sum(T**2) is `_energy`'s.  The caller has checked `_fft_refusal` for
    every set before building it.
    """
    padded = _fft_padding(shape, r)
    axes = tuple(range(1, len(shape) + 1))
    per_pass = max(1, FFT_SIZE_CAP // math.prod(padded))
    results = []
    for start in range(0, len(point_sets), per_pass):
        batch = point_sets[start : start + per_pass]
        a = np.zeros((len(batch),) + padded)
        for i, points in enumerate(batch):
            a[(i, *points.T)] = 1.0
        spec = np.fft.rfftn(a, axes=axes)
        del a  # work arrays reach 2^21 entries: each is freed once it is spent
        power = spec
        for _ in range(r - 1):
            power = power * spec  # the r - 1 products the certificate counts
        approx = np.fft.irfftn(power, s=padded, axes=axes)
        del spec, power
        counts = np.rint(approx, out=approx).astype(np.int64)
        del approx
        for axis, o in enumerate(shape, start=1):
            # wrap the axis mod o: zero-fill it to whole periods, add the periods
            periods = -(-counts.shape[axis] // o)
            whole = counts.shape[:axis] + (periods * o,) + counts.shape[axis + 1 :]
            folded = np.zeros(whole, dtype=np.int64)
            folded[tuple(map(slice, counts.shape))] = counts
            counts = folded.reshape(whole[:axis] + (-1, o) + whole[axis + 1 :]).sum(axis)
        for points, table in zip(batch, counts):
            size, mass = len(points), int(table.sum())
            if mass != size**r:
                raise VerificationError(
                    f"FFT counts have mass {mass}, expected |X|**r = {size ** r}"
                )
            results.append((table, _energy(table, mass)))
    return results


def _check_tuple_cap(size: int, r: int) -> None:
    """Refuse the 2r-tuples of ``size`` values past EXHAUSTIVE_TUPLE_CAP, before any table."""
    if size ** (2 * r) > EXHAUSTIVE_TUPLE_CAP:
        raise ResourceLimit(
            f"exhaustive oracle needs {size ** (2 * r)} tuple comparisons, "
            f"cap is {EXHAUSTIVE_TUPLE_CAP}"
        )


def _exhaustive_pair_count(vals: np.ndarray, q: int, r: int, op: np.ufunc, weights=None):
    """Literal 2r-tuple enumeration: fold the r-tuples of ``vals`` with ``op``
    (np.add or np.multiply) mod q and compare every pair, in blocks of about
    10**6 comparisons.  Returns the number of agreeing pairs, or with complex
    ``weights`` aligned with ``vals`` the sum over them of
    w_1 .. w_r * conj(w_{r+1} .. w_{2r}).  Callers check `_check_tuple_cap` first.
    """
    folded, prods = vals, weights
    for _ in range(r - 1):
        folded = floor_mod(op.outer(folded, vals).reshape(-1), q)
        if weights is not None:
            prods = np.multiply.outer(prods, weights).reshape(-1)
    conj = None if weights is None else np.conj(prods)
    total = 0
    rows = max(1, 10**6 // folded.size)
    for start in range(0, folded.size, rows):
        match = folded[start : start + rows, None] == folded[None, :]
        if weights is None:
            total += int(np.count_nonzero(match))
        else:
            total += prods[start : start + rows] @ (match @ conj)
    return total


def _table(q: "Modulus | int", K: int, r: int, reciprocal: bool) -> CountTable:
    """The fold's distribution of r-fold inverse sums or products of admissible x <= K."""
    _check_depth(r)
    mod = Modulus.of(q)
    _check_q_cap(mod.q)
    _check_fold_cost(mod.q, _admissible_count(mod, K), r)
    shape, place = _lattice(mod, reciprocal)
    base = _admissible(mod, K)
    counts = folded = _fold(place(base), shape, r)  # on Z/q the point of s is s
    if not reciprocal:  # a unit's count sits at its logs; non-units are never reached
        counts = np.zeros(mod.q, dtype=folded.dtype)
        counts[mod.units] = folded[tuple(place(mod.units).T)]
    return CountTable(modulus=mod, counts=tuple(counts.tolist()), depth=r, base_size=base.size)


def reciprocal_table(q: "Modulus | int", K: int, r: int) -> CountTable:
    """Distribution of r-fold inverse sums of admissible x <= K."""
    return _table(q, K, r, reciprocal=True)


def product_table(q: "Modulus | int", K: int, r: int) -> CountTable:
    """Distribution of r-fold products of admissible x <= K."""
    return _table(q, K, r, reciprocal=False)


_COUNT_METHODS = ("fft", "convolution", "exhaustive")


def _congruence_counts(
    q: "Modulus | int", Ks: list[int], r: int, method: str | None, reciprocal: bool
) -> list[int]:
    """For each K in ``Ks``, the pairs of r-tuples of admissible x <= K whose
    inverse sums (``reciprocal``) or products agree mod q.

    ``method`` None runs "fft" for every K that `_fft_refusal` lets it, all
    of them in one `_convolution_power` call on the shared lattice, and
    "convolution" for the others.  Every K's route and caps are decided
    before anything is allocated.
    """
    _check_depth(r)
    mod = Modulus.of(q)
    if method not in (None, *_COUNT_METHODS):
        raise ValueError(f"method must be one of {_COUNT_METHODS} or None, got {method!r}")
    sizes = [_admissible_count(mod, K) for K in Ks]
    if method == "exhaustive":
        for size in sizes:
            _check_tuple_cap(size, r)
        op = np.add if reciprocal else np.multiply
        counts = []
        for K in Ks:
            # its own residues and inverses: independent of the routes' tables
            xs = [x for x in range(1, K + 1) if math.gcd(x, mod.q) == 1]
            vals = [pow(x, -1, mod.q) for x in xs] if reciprocal else xs
            counts.append(_exhaustive_pair_count(np.array(vals, dtype=np.int64), mod.q, r, op))
        return counts
    shape, place = _lattice(mod, reciprocal)
    reasons = [_fft_refusal(shape, r, size) for size in sizes]
    refused = next(filter(None, reasons), None)
    if method == "fft" and refused:
        raise ResourceLimit(refused)
    by_fft = [method != "convolution" and not reason for reason in reasons]
    for size, fft in zip(sizes, by_fft):
        if not fft:
            _check_q_cap(mod.q)
            _check_fold_cost(mod.q, size, r)
    sets = [place(_admissible(mod, K)) for K, fft in zip(Ks, by_fft) if fft]
    energies = iter([energy for _, energy in _convolution_power(sets, shape, r)])
    # the fold's lattice holds one point per unit, so sum(T**2) reads off it
    return [
        next(energies) if fft else _energy(_fold(place(_admissible(mod, K)), shape, r), size**r)
        for K, size, fft in zip(Ks, sizes, by_fft)
    ]


def jr_congruence(q: "Modulus | int", K: int, r: int, method: str | None = None) -> int:
    """Solutions of 1/x_1 + .. + 1/x_r = 1/x_{r+1} + .. + 1/x_{2r} mod q
    with 1 <= x_i <= K and gcd(x_i, q) = 1 (inverses require coprimality).

    ``method`` is "fft", "convolution" or "exhaustive"; None picks "fft"
    where its certificate holds and "convolution" otherwise.  An explicit
    "fft" that cannot be certified raises ResourceLimit.
    """
    return _congruence_counts(q, [K], r, method, reciprocal=True)[0]


def rr_congruence(q: "Modulus | int", K: int, r: int, method: str | None = None) -> int:
    """Solutions of x_1 * .. * x_r = x_{r+1} * .. * x_{2r} mod q with
    1 <= x_i <= K and gcd(x_i, q) = 1.

    ``method`` as for :func:`jr_congruence`; the FFT route runs on the unit
    group Z/o_1 x .. x Z/o_k, with each x placed at its discrete logs.
    """
    return _congruence_counts(q, [K], r, method, reciprocal=False)[0]


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
    the transformed machinery; gamma = 1 on the admissible x <= K gives
    rhs = q * `jr_congruence`.

    ``method`` selects the rhs route: ``exhaustive``, the counts' oracle
    weighted by gamma; ``convolution``, the counts' `_fold` on Z/q weighted
    by gamma (cost (r-1)*|X|*q); ``auto`` picks by size.  The method is
    checked first, and the route's cap and CONVOLUTION_Q_CAP, which the lhs
    needs as well, before any length-q array is built.
    """
    _check_depth(r)
    if method not in ("auto", "exhaustive", "convolution"):
        raise ValueError(f"unknown moment method {method!r}")
    mod = Modulus.of(q)
    xs = sorted({int(x) % mod.q for x in X})
    for x in xs:
        if math.gcd(x, mod.q) != 1:
            raise DomainRestriction(f"moment_check requires X inside Z_{mod.q}^*")
    if not xs:
        return 0.0, 0.0
    if method == "auto":
        method = "exhaustive" if len(xs) ** (2 * r) <= 250_000 else "convolution"
    if method == "exhaustive":
        _check_tuple_cap(len(xs), r)
    else:
        _check_fold_cost(mod.q, len(xs), r)
    _check_q_cap(mod.q)

    g = np.array([complex(gamma[x]) for x in xs], dtype=np.complex128)
    xbars = inverse_table(mod)[np.array(xs, dtype=np.int64)]
    h = _fold(xbars[:, None], (mod.q,), 1, g)  # h[x^-1] = gamma_x
    # q * ifft(h)[m] = sum_x gamma_x e_q(m x^-1)
    lhs = float(np.sum(np.abs(mod.q * np.fft.ifft(h)) ** (2 * r)))

    if method == "exhaustive":
        return lhs, float((mod.q * _exhaustive_pair_count(xbars, mod.q, r, np.add, g)).real)
    # the r-fold cyclic self-convolution of h, weighted by gamma
    H = _fold(xbars[:, None], (mod.q,), r, g)
    return lhs, float(mod.q * np.sum(np.abs(H) ** 2))


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
    per_q = {q: counter(q, K, r) for q in range(Q, 2 * Q + 1)}
    mean = Fraction(sum(per_q.values()), Q)
    return mean, per_q


def j2_reference_ratios(q: "Modulus | int", Ks: list[int]) -> list[float]:
    """Observed J_2(q; K) divided by K^(7/2) q^(-1/2) + K^2, for each K in ``Ks``.

    Used by the regression grid, which asks for all its K of a modulus in
    one call, so they share one FFT pass; only frozen baselines are
    asserted since the comparison formula carries an unspecified
    sub-polynomial factor.
    """
    mod = Modulus.of(q)
    counts = _congruence_counts(mod, Ks, 2, None, reciprocal=True)
    return [count / (K**3.5 / math.sqrt(mod.q) + K**2) for K, count in zip(Ks, counts)]


def j2_reference_ratio(q: "Modulus | int", K: int) -> float:
    """The one-K case of :func:`j2_reference_ratios`."""
    return j2_reference_ratios(q, [K])[0]
