"""Self-contained invariant suite behind the ``verify`` CLI command.

Runs a condensed version of every structural invariant (the pytest suite
carries the full-scale versions) and reports one pass/fail line per check.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from .bilinear import (
    Interval,
    WeightVector,
    bilinear_kloosterman,
    dyadic_partition,
    gamma_sum,
    moment_check,
)
from .bounds import REGION_VERTICES, improvement_region
from .counting import jr_congruence, rr_congruence
from .csvio import parse_csv, emit_csv, render_csv
from .experiments import run_experiment
from .expsums import characters, gauss, kloosterman, kloosterman_row
from .modmath import Modulus, dist_q, mod_inv, unit_residues
from .prng import SplitMix64

Check = tuple[str, bool, str]


def _check_inverses() -> Check:
    rng = SplitMix64(7)
    for _ in range(200):
        q = 2 + rng.next_u64() % 400
        mod = Modulus.of(q)
        units = unit_residues(mod)
        x = int(units[rng.next_u64() % units.size])
        if mod_inv(mod_inv(x, mod), mod) != x:
            return ("inverse involution", False, f"failed at q={q}, x={x}")
    return ("inverse involution", True, "200 random (q, x) pairs")


def _check_orthogonality() -> Check:
    worst = 0.0
    for q in range(2, 51):
        t = np.arange(q)
        for m in range(q):
            s = np.sum(np.exp(2j * np.pi * (m * t % q) / q))
            if m == 0:
                worst = max(worst, abs(s - q))
            else:
                worst = max(worst, abs(s))
    ok = worst <= 50 * 2**-40
    return ("additive orthogonality", ok, f"max defect {worst:.2e} for q <= 50")


def _check_identity() -> Check:
    worst = 0.0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        row1 = kloosterman_row(p, 1)
        for n in range(1, p):
            row_n = kloosterman_row(p, n)
            perm = row1[np.arange(p) * n % p]
            worst = max(worst, float(np.max(np.abs(row_n - perm))))
    ok = worst <= 1e-9
    return ("multiplicative shift identity", ok, f"max deviation {worst:.2e}, p <= 31")


def _check_row_consistency() -> Check:
    worst = 0.0
    for q in range(2, 129):
        row = kloosterman_row(q, 1)
        for m in range(0, q, max(1, q // 8)):
            direct = kloosterman(q, m, 1).value
            worst = max(worst, abs(row[m] - direct))
    ok = worst <= 128 * 2**-45
    return ("row vs direct sums", ok, f"max gap {worst:.2e}, q <= 128")


def _check_gauss_modulus() -> Check:
    worst = 0.0
    for q in range(3, 51):
        mod = Modulus.of(q)
        for chi in characters(mod):
            if not chi.is_primitive:
                continue
            g = gauss(mod, chi, 1)
            worst = max(worst, abs(abs(g.value) - math.sqrt(q)))
    ok = worst <= 1e-8
    return ("primitive Gauss magnitude", ok, f"max | |G| - sqrt(q) | = {worst:.2e}")


def _check_paths() -> Check:
    rng = SplitMix64(11)
    for _ in range(20):
        q = 5 + rng.next_u64() % 295
        mod = Modulus.of(q)
        units = unit_residues(mod)
        M = 1 + rng.next_u64() % min(10, units.size)
        N = 1 + rng.next_u64() % (q - 2) if q > 2 else 1
        keys = [int(units[rng.next_u64() % units.size]) for _ in range(M)]
        weights = WeightVector(mod, {k: 1.0 for k in keys})
        J = Interval.of(mod, 0, N)
        a = bilinear_kloosterman(weights, J, "transformed")
        b = bilinear_kloosterman(weights, J, "fast")
        if abs(a.value - b.value) > a.error_bound + b.error_bound:
            return ("bilinear path agreement", False, f"q={q}, M={M}, N={N}")
    return ("bilinear path agreement", True, "20 random instances, q <= 300")


def _check_gamma_dyadic() -> Check:
    for q in (7, 24, 97, 100):
        mod = Modulus.of(q)
        units = unit_residues(mod)
        for N in (1, 2, q // 3 or 1, q - 1):
            if not 1 <= N <= q - 1:
                continue
            J = Interval.of(mod, 0, N)
            for x in units:
                g = abs(gamma_sum(J, int(x)))
                cap = min(N, q / (2 * dist_q(int(x), mod)))
                if g > cap + 1e-9:
                    return ("gamma bound and partition", False, f"q={q}, N={N}, x={x}")
            members = [
                m % q for ds in dyadic_partition(mod, N) for m in ds.members
                if math.gcd(m, q) == 1
            ]
            if sorted(members) != [int(u) for u in units]:
                return ("gamma bound and partition", False, f"partition broke at q={q}, N={N}")
    return ("gamma bound and partition", True, "q in {7, 24, 97, 100}")


def _check_moment() -> Check:
    for q in (5, 7, 11, 13):
        mod = Modulus.of(q)
        units = [int(u) for u in unit_residues(mod)[:3]]
        gamma = {x: complex(1.0, 0.5) for x in units}
        for r in (1, 2):
            lhs, rhs = moment_check(mod, units, gamma, r)
            if abs(lhs - rhs) > 1e-6 * max(1.0, abs(lhs)):
                return ("moment identity", False, f"q={q}, r={r}")
    return ("moment identity", True, "q <= 13, |X| = 3, r <= 2")


def _check_counting() -> Check:
    for q in (5, 7, 9, 12, 25):
        for K in (2, 4, min(8, q)):
            for r in (1, 2):
                for count in (jr_congruence, rr_congruence):
                    routes = {count(q, K, r, m) for m in ("fft", "convolution", "exhaustive")}
                    if len(routes) != 1:
                        return ("counting oracle equivalence", False, f"q={q}, K={K}, r={r}")
    return ("counting oracle equivalence", True, "fft, fold, exhaustive; q <= 25, K <= 8, r <= 2")


def _check_region() -> Check:
    for v in REGION_VERTICES:
        if improvement_region(*v) != "boundary":
            return ("improvement region", False, f"vertex {v} not boundary")
    if improvement_region(0.5, 0.5) != "interior":
        return ("improvement region", False, "(1/2, 1/2) not interior")
    if improvement_region(0.1, 0.1) != "outside":
        return ("improvement region", False, "(0.1, 0.1) not outside")
    return ("improvement region", True, "vertices, center, outside point")


def _check_csv_roundtrip() -> Check:
    records = run_experiment(13, M=4, N=5, L=1, weight_kind="pm1", seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        emit_csv(records, path)
        again = parse_csv(path)
        ok = render_csv(again) == render_csv(records)
    return ("CSV round trip", ok, f"{len(records)} records")


ALL_CHECKS = (
    _check_inverses,
    _check_orthogonality,
    _check_identity,
    _check_row_consistency,
    _check_gauss_modulus,
    _check_paths,
    _check_gamma_dyadic,
    _check_moment,
    _check_counting,
    _check_region,
    _check_csv_roundtrip,
)


def run_verify() -> list[Check]:
    return [check() for check in ALL_CHECKS]
