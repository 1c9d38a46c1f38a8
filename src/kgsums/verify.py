"""The structural invariants, each defined once, behind the ``verify`` CLI command.

Every check is a function of the grid it runs on (a required argument) and
returns a `Check`: its name, the verdict and a detail line, which states
the quantity the check measures.  Its tolerance is stated once, inside it.
``kgsums verify`` runs each check on its condensed grid in
`CONDENSED_GRIDS`; the acceptance and unit tests run the same functions on
their full grids.
"""

from __future__ import annotations

import itertools
import math
import tempfile
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bilinear import (
    GAMMA_SCALE_C,
    Interval,
    WeightVector,
    _centered,
    _gamma_at,
    bilinear_kloosterman,
    dyadic_scale,
    make_weights,
)
from .bounds import REGION_VERTICES, improvement_region
from .counting import jr_congruence, moment_check, rr_congruence
from .csvio import emit_csv, parse_csv, render_csv
from .experiments import (
    ExperimentRecord,
    max_kloosterman_abs,
    max_kloosterman_floor,
    primes_in_range,
    run_experiment,
)
from .expsums import (
    dft_entry_error,
    gauss,
    gauss_row,
    kloosterman_row,
    primitive_characters,
    roots_of_unity,
)
from .modmath import Modulus, floor_mod, inverse_table, mod_inv, unit_residues
from .prng import SplitMix64


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_inverses(qs: Sequence[int]) -> Check:
    """`mod_inv` equals `inverse_table` at every unit x mod each q, x * x^-1 = 1
    mod q, and inversion is an involution.  Measures the units checked."""
    name = "inverse involution"
    pairs = 0
    for q in qs:
        mod = Modulus.of(q)
        units = unit_residues(mod)
        for x, xb in zip(units.tolist(), inverse_table(mod)[units].tolist()):
            if mod_inv(x, mod) != xb or x * xb % q != 1 or mod_inv(xb, mod) != x:
                return Check(name, False, f"failed at q={q}, x={x}")
            pairs += 1
    return Check(name, True, f"{pairs} units")


def check_identity(primes: Sequence[int]) -> Check:
    """K_p(m, n) = K_p(mn, 1) for every unit n and m in [1, p-1], within 1e-9.
    Measures the largest deviation."""
    worst, ok = 0.0, True
    for p in primes:
        row1 = kloosterman_row(p, 1)
        ms = np.arange(1, p)
        for n in range(1, p):
            row_n = kloosterman_row(p, n)
            dev = float(np.max(np.abs(row_n[1:] - row1[floor_mod(ms * n, p)])))
            worst = max(worst, dev)
            ok = ok and dev <= 1e-9
    detail = f"max deviation {worst:.2e}"
    return Check("multiplicative shift identity", ok, detail)


def check_row_consistency(qs: Sequence[int]) -> Check:
    """The DFT row K_q(m, 1) equals the direct double sum over units at every
    m, within q * 2**-45 for each q.  Measures the largest gap."""
    worst, ok = 0.0, True
    for q in qs:
        mod = Modulus.of(q)
        units = unit_residues(mod)
        roots = roots_of_unity(q)  # e_q(t) at t = 0 .. q-1
        exps = floor_mod(np.outer(np.arange(q), units), q)
        direct = roots[exps] @ roots[inverse_table(mod)[units]]
        gap = float(np.max(np.abs(kloosterman_row(mod, 1) - direct)))
        worst = max(worst, gap)
        ok = ok and gap <= q * 2**-45
    return Check("row vs direct sums", ok, f"max gap {worst:.2e}")


def check_weil(qs: Sequence[int]) -> Check:
    """`max_kloosterman_floor(q)` <= max |K_q(m, 1)| <= tau(q) sqrt(q) for each
    q, the maximum over m in [1, q-1] read from `max_kloosterman_abs(q)` as
    trivial records read it; the upper side gets the row's per-entry budget
    `dft_entry_error(q, phi(q))`.  Measures the largest max |K| / (tau(q) sqrt(q)).

    The upper bound holds for odd q by Weil and Estermann ("On Kloosterman's
    sum", Mathematika 8, 1961): |K_q(m, n)| <= tau(q) sqrt(q) for n a unit.
    K is twisted multiplicative, a product over coprime factors of sums
    whose second argument stays a unit, so a power of 2 needs the same bound
    on its own.  For 2^e with e <= 4 the trivial bound 2^(e-1) is below
    (e+1) 2^(e/2).  For e >= 5 put j = ceil(e/2) and x = y + 2^j z with y a
    unit mod 2^j and z mod 2^(e-j); then x^-1 = y^-1 - 2^j z y^-2 mod 2^e,
    so the sum over z is 2^(e-j) where m y^2 = n mod 2^(e-j) and 0
    elsewhere.  A unit has at most 4 square roots mod 2^(e-j), each lifting
    to 2^(2j-e) values of y, so |K| <= 4 * 2^j <= 4 sqrt(2) 2^(e/2), below
    (e+1) 2^(e/2)."""
    worst, ok = 0.0, True
    for q in qs:
        mod = Modulus.of(q)
        top = max_kloosterman_abs(mod)
        cap = math.prod(e + 1 for _, e in mod.factors) * math.sqrt(q)
        worst = max(worst, top / cap)
        ok = ok and max_kloosterman_floor(mod) <= top <= cap + dft_entry_error(q, mod.phi)
    return Check("Weil bound", ok, f"max |K| / (tau(q) sqrt(q)) = {worst:.5f}")


def check_gauss_modulus(qs: Sequence[int]) -> Check:
    """|G(chi, n)| = sqrt(q) within 1e-8 at every unit n for every primitive
    chi mod q, and the Gauss row equals the direct sum within 1e-9 at one
    unit per character.  Measures the largest magnitude defect."""
    worst = spot = 0.0
    checked, ok = 0, True
    for q in qs:
        mod = Modulus.of(q)
        units = unit_residues(mod)
        root = math.sqrt(q)
        for chi in primitive_characters(mod):
            row = gauss_row(mod, chi)
            dev = float(np.max(np.abs(np.abs(row[units]) - root)))
            checked += units.size
            n0 = int(units[checked % units.size])
            gap = abs(row[n0] - gauss(mod, chi, n0).value)
            worst, spot = max(worst, dev), max(spot, gap)
            ok = ok and dev <= 1e-8 and gap <= 1e-9
    detail = f"max | |G| - sqrt(q) | = {worst:.2e} over {checked} values"
    if spot > 1e-9:
        detail += f"; row off the direct sum by {spot:.2e}"
    return Check("primitive Gauss magnitude", ok, detail)


def check_paths(seed: int, count: int) -> Check:
    """The transformed and fast routes agree within their summed budgets on
    ``count`` random instances drawn from ``seed``, and the naive route agrees
    with both wherever M * N * phi(q) <= 150,000.  Measures the largest
    gap/budget ratio."""
    rng = SplitMix64(seed)
    worst, ok = 0.0, True
    naive = 0
    for i in range(count):
        small = i % 3 == 0  # keep a third of the grid inside the naive cap
        q = 3 + rng.next_u64() % (120 if small else 1998)
        mod = Modulus.of(q)
        units = unit_residues(mod)
        m_cap = units.size if i % 10 == 0 else min(192, units.size)
        M = 1 + rng.next_u64() % m_cap
        N = 1 + rng.next_u64() % (q - 2)
        if small:
            N = min(N, 24)
        keys = sorted({int(units[rng.next_u64() % units.size]) for _ in range(M)})
        kind = ("const", "pm1", "unit")[i % 3]
        w = WeightVector(mod, keys, make_weights(keys, kind, rng.next_u64()))
        J = Interval.of(mod, 0, N)
        results = [bilinear_kloosterman(w, J, m) for m in ("transformed", "fast")]
        if w.support_size * N * mod.phi <= 150_000:
            results.append(bilinear_kloosterman(w, J, "naive"))
            naive += 1
        for a, b in itertools.combinations(results, 2):
            gap, budget = abs(a.value - b.value), a.error_bound + b.error_bound
            worst = max(worst, gap / budget)
            ok = ok and gap <= budget
    detail = f"{count} instances, naive checked on {naive}, max gap/budget {worst:.3f}"
    return Check("bilinear path agreement", ok, detail)


#: gamma values (lengths x units) per kernel call of `check_gamma_dyadic`
_GAMMA_BLOCK_ENTRIES = 1 << 16


def check_gamma_dyadic(qs: Sequence[int]) -> Check:
    """|gamma_x| <= min(N, q / (2 |x|_q)) and, at the dyadic scale i of x,
    |gamma_x| <= GAMMA_SCALE_C * e^-i * N, each within 1e-9, for every unit
    x and N in [1, q-1], q in ``qs``.  Measures the largest excess over the
    first bound; each kernel call evaluates a block of lengths at every
    unit, about ``_GAMMA_BLOCK_ENTRIES`` values."""
    worst = ratio = 0.0
    ok = True
    for q in qs:
        xs = unit_residues(q)
        far = q / (2.0 * np.minimum(xs, q - xs).astype(float))
        step = max(1, _GAMMA_BLOCK_ENTRIES // xs.size)
        for start in range(1, q, step):
            lengths = np.arange(start, min(start + step, q), dtype=np.int64)[:, None]
            mags = np.abs(_gamma_at(q, 0, lengths, _centered(xs, q)))
            caps = np.minimum(lengths.astype(float), far)
            decay = np.exp(-dyadic_scale(q, lengths, xs)) * lengths  # e^-i * N
            worst = max(worst, float(np.max(mags - caps)))
            ratio = max(ratio, float(np.max(mags / decay)))
            within = (mags <= caps + 1e-9) & (mags <= GAMMA_SCALE_C * decay + 1e-9)
            ok = ok and bool(np.all(within))
    detail = f"max excess over the bound {worst:.2e}, max |gamma| e^i / N = {ratio:.4f}"
    return Check("gamma bound per dyadic scale", ok, detail)


def check_moment(qs: Sequence[int], max_size: int, seed: int, count: int) -> Check:
    """Both sides of the 2r-th moment identity, r in {1, 2}, agree within a
    relative 1e-6: exhaustively for every unit set X of at most ``max_size``
    units mod each q, and on ``count`` random instances from ``seed``
    (q in [32, 431], the rhs route picked by size).  Measures the largest
    relative gap."""
    worst, ok = 0.0, True
    cases = 0
    for q in qs:
        mod = Modulus.of(q)
        units = [int(u) for u in unit_residues(mod)]
        gamma = {x: complex(1.0, 0.5 * (x % 3)) for x in units}
        for size in range(1, max_size + 1):
            for X in itertools.combinations(units, size):
                for r in (1, 2):
                    lhs, rhs = moment_check(mod, X, gamma, r, method="exhaustive")
                    rel = abs(lhs - rhs) / max(1.0, abs(lhs))
                    worst = max(worst, rel)
                    ok = ok and rel <= 1e-6
                    cases += 1
    rng = SplitMix64(seed)
    for _ in range(count):
        mod = Modulus.of(32 + rng.next_u64() % 400)
        units = unit_residues(mod)
        size = 2 + rng.next_u64() % 5
        X = sorted({int(units[rng.next_u64() % units.size]) for _ in range(size)})
        gm = {x: complex(rng.uniform01() * 2 - 1, rng.uniform01() * 2 - 1) for x in X}
        r = 1 + rng.next_u64() % 2
        lhs, rhs = moment_check(mod, X, gm, r)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, rel)
        ok = ok and rel <= 1e-6
        cases += 1
    detail = f"max rel gap {worst:.2e} over {cases} cases"
    return Check("moment identity", ok, detail)


def check_counting(qs: Sequence[int], k_max: int) -> Check:
    """The fft, fold and exhaustive routes give the same J_r and R_r
    congruence counts, r in {1, 2}, for each q and K in [1, min(k_max, q)].
    Measures the counts compared."""
    name = "counting oracle equivalence"
    cases = 0
    for q in qs:
        for K in range(1, min(k_max, q) + 1):
            for r in (1, 2):
                for count in (jr_congruence, rr_congruence):
                    if len({count(q, K, r, m) for m in ("exhaustive", "convolution", "fft")}) != 1:
                        return Check(name, False, f"{count.__name__} q={q}, K={K}, r={r}")
                    cases += 1
    return Check(name, True, f"{cases} counts equal on fft, fold and exhaustive")


def check_region(points: Sequence[tuple[tuple[float, float], str]]) -> Check:
    """`improvement_region` gives each ((mu, nu), label) point its label.
    Measures the points checked."""
    name = "improvement region"
    for (mu, nu), label in points:
        got = improvement_region(mu, nu)
        if got != label:
            return Check(name, False, f"({mu}, {nu}) is {got}, expected {label}")
    labels = Counter(label for _, label in points)
    return Check(name, True, ", ".join(f"{n} {label}" for label, n in labels.items()))


def check_csv_roundtrip(records: Sequence[ExperimentRecord]) -> Check:
    """The CSV of the records parses back to records that render the same
    text, one row per record, ordered by (q, bound name).  Measures the
    records written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        emit_csv(records, path)
        text = path.read_text(encoding="ascii")
        parsed = parse_csv(path)
    keys = [(rec.q, rec.bound_name) for rec in parsed]
    ok = render_csv(parsed) == text and len(parsed) == len(records) and keys == sorted(keys)
    return Check("CSV round trip", ok, f"{len(records)} records")


#: ``kgsums verify``'s grid for each check, smaller than the tests' full grids
CONDENSED_GRIDS = {
    check_inverses: (range(2, 201),),
    check_identity: (primes_in_range(2, 31),),
    check_row_consistency: (range(2, 129),),
    check_weil: (range(2, 257),),
    check_gauss_modulus: (range(3, 51),),
    check_paths: (20240405, 20),
    check_gamma_dyadic: ((7, 9, 23, 24, 30, 97, 100),),
    check_moment: (range(2, 14), 2, 333, 4),
    check_counting: ((5, 7, 9, 12, 25), 8),
    check_region: (
        [(v, "boundary") for v in REGION_VERTICES]
        + [((0.5, 0.5), "interior"), ((0.1, 0.1), "outside")],
    ),
    # records are computed when the check runs, not at import
    check_csv_roundtrip: lambda: (run_experiment(13, 4, 5, L=1, weight_kind="pm1", seed=3),),
}


def run_verify() -> list[Check]:
    return [
        check(*(grid() if callable(grid) else grid)) for check, grid in CONDENSED_GRIDS.items()
    ]
