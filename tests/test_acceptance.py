"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria with inherently unfalsifiable scale factors assert frozen
regression baselines recorded in baselines.json; everything else asserts
exact oracles or stated tolerances directly.
"""

import cmath
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kgsums import (
    BoundSpec,
    Interval,
    Modulus,
    WeightVector,
    average_sweep,
    bilinear_kloosterman,
    characters,
    derive_seed,
    dyadic_decomposition,
    dyadic_partition,
    exceptional_budget,
    gauss,
    gauss_row,
    improvement_region,
    inverse_table,
    jr_congruence,
    jr_equation,
    kloosterman_row,
    make_weights,
    max_kloosterman_abs,
    moment_check,
    rr_congruence,
    run_experiment,
    unit_residues,
)
from kgsums.experiments import primes_in_range
from kgsums.prng import SplitMix64

BASELINES = json.loads((Path(__file__).parent / "baselines.json").read_text())


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for p in primes_in_range(2, 101):
        row1 = kloosterman_row(p, 1)
        ms = np.arange(1, p)
        for n in range(1, p):
            row_n = kloosterman_row(p, n)
            worst = max(worst, float(np.max(np.abs(row_n[1:] - row1[ms * n % p]))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 01 identity suite: PASS (max deviation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_weil_suite():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for p in primes_in_range(2, 499):
        units = unit_residues(p)
        inv = inverse_table(p)
        # rows n (units) x columns x, then DFT each row over x to get all m
        phases = units[:, None] * inv[units][None, :] % p
        a = np.zeros((units.size, p), dtype=np.complex128)
        a[:, units] = np.exp(2j * np.pi * phases / p)
        K = p * np.fft.ifft(a, axis=1)
        mags = np.abs(K[:, units])  # unit m columns only
        cap = 2.0 * math.sqrt(p)
        assert float(np.max(mags)) <= cap + 1e-6, f"p={p}"
        worst_ratio = max(worst_ratio, float(np.max(mags)) / cap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 02 weil suite: PASS (max |K|/(2 sqrt p) = {worst_ratio:.6f}, {elapsed:.1f}s)")


def test_criterion_03_gauss_modulus_suite():
    worst = 0.0
    checked = 0
    spot = 0.0
    for q in range(2, 201):
        mod = Modulus.of(q)
        units = unit_residues(mod)
        root = math.sqrt(q)
        for chi in characters(mod):
            if not chi.is_primitive:
                continue
            row = gauss_row(mod, chi)
            worst = max(worst, float(np.max(np.abs(np.abs(row[units]) - root))))
            checked += units.size
            # keep the row route honest against the direct sum
            n0 = int(units[checked % units.size])
            direct = gauss(mod, chi, n0)
            spot = max(spot, abs(row[n0] - direct.value))
    assert worst <= 1e-8
    assert spot <= 1e-9
    print(
        f"\nACCEPTANCE 03 gauss modulus suite: PASS "
        f"(max | |G| - sqrt(q) | = {worst:.2e} over {checked} values)"
    )


def test_criterion_04_path_equivalence():
    rng = SplitMix64(20240405)
    checked_naive = 0
    for i in range(200):
        small = i % 3 == 0  # keep a third of the grid inside the naive cap
        q = 3 + rng.next_u64() % (120 if small else 1998)
        mod = Modulus.of(q)
        units = unit_residues(mod)
        full_range = i % 10 == 0
        m_cap = units.size if full_range else min(192, units.size)
        M = 1 + rng.next_u64() % m_cap
        N = 1 + rng.next_u64() % (q - 2) if q > 2 else 1
        if small:
            N = min(N, 24)
        keys = sorted({int(units[rng.next_u64() % units.size]) for _ in range(M)})
        kind = ("const", "pm1", "unit")[i % 3]
        w = WeightVector(mod, dict(zip(keys, make_weights(keys, kind, rng.next_u64()))))
        J = Interval.of(mod, 0, N)
        rt = bilinear_kloosterman(w, J, "transformed")
        rf = bilinear_kloosterman(w, J, "fast")
        assert abs(rt.value - rf.value) <= rt.error_bound + rf.error_bound, f"q={q}"
        if w.support_size * N * mod.phi <= 150_000:
            rn = bilinear_kloosterman(w, J, "naive")
            assert abs(rn.value - rt.value) <= rn.error_bound + rt.error_bound
            assert abs(rn.value - rf.value) <= rn.error_bound + rf.error_bound
            checked_naive += 1

    # closed form: full support, constant weights, J = [1, p-1] gives p - 1
    for p in (3, 5, 7, 11, 13):
        mod = Modulus.of(p)
        w = WeightVector(mod, {int(u): 1.0 for u in unit_residues(mod)})
        J = Interval.of(mod, 0, p - 1)
        for method in ("naive", "transformed", "fast"):
            res = bilinear_kloosterman(w, J, method)
            assert abs(res.value - (p - 1)) <= res.error_bound + 1e-9

    # p = 3 by literal hand enumeration, independent of the library
    def e3(z):
        return cmath.exp(2j * math.pi * (z % 3) / 3)

    hand = 0j
    for m in (1, 2):
        for n in (1, 2):
            hand += e3(m * 1 + n * 1) + e3(m * 2 + n * 2)  # x in {1, 2}, xbar = x
    assert abs(hand - 2) < 1e-12
    w3 = WeightVector(Modulus.of(3), {1: 1.0, 2: 1.0})
    res3 = bilinear_kloosterman(w3, Interval.of(3, 0, 2), "fast")
    assert abs(res3.value - hand) <= res3.error_bound + 1e-12
    print(
        f"\nACCEPTANCE 04 path equivalence: PASS "
        f"(200 instances, naive checked on {checked_naive}, closed form = p-1)"
    )


def test_criterion_05_moment_identity():
    worst_rel = 0.0
    count = 0
    for q in range(2, 32):
        mod = Modulus.of(q)
        units = [int(u) for u in unit_residues(mod)]
        gamma = {x: complex(1.0, 0.5 * (x % 3)) for x in units}
        for size in range(1, 5):
            for X in itertools.combinations(units, size):
                gm = {x: gamma[x] for x in X}
                for r in (1, 2):
                    lhs, rhs = moment_check(mod, X, gm, r, method="exhaustive")
                    rel = abs(lhs - rhs) / max(1.0, abs(lhs))
                    worst_rel = max(worst_rel, rel)
                    count += 1
    assert worst_rel <= 1e-6

    rng = SplitMix64(333)
    for _ in range(20):
        q = 32 + rng.next_u64() % 400
        mod = Modulus.of(q)
        units = unit_residues(mod)
        size = 2 + rng.next_u64() % 5
        X = sorted({int(units[rng.next_u64() % units.size]) for _ in range(size)})
        gm = {x: complex(rng.uniform01() * 2 - 1, rng.uniform01() * 2 - 1) for x in X}
        r = 1 + rng.next_u64() % 2
        lhs, rhs = moment_check(mod, X, gm, r)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst_rel = max(worst_rel, rel)
        count += 1
    assert worst_rel <= 1e-6
    print(f"\nACCEPTANCE 05 moment identity: PASS (max rel gap {worst_rel:.2e} over {count} cases)")


def test_criterion_06_counting_oracles():
    for q in range(2, 51):
        for K in range(1, min(12, q) + 1):
            for r in (1, 2):
                jr = jr_congruence(q, K, r, "exhaustive")
                rr = rr_congruence(q, K, r, "exhaustive")
                for method in ("convolution", "fft"):
                    assert jr_congruence(q, K, r, method) == jr, f"jr {method} q={q} K={K} r={r}"
                    assert rr_congruence(q, K, r, method) == rr, f"rr {method} q={q} K={K} r={r}"
    assert jr_congruence(5, 2, 2) == 6
    assert rr_congruence(5, 2, 2) == 6
    assert jr_equation(3, 2) == 15
    print("\nACCEPTANCE 06 counting oracles: PASS (grid q<=50, K<=12, r<=2 exact)")


def test_criterion_07_gamma_and_dyadic():
    from kgsums.bilinear import _gamma_over_units

    # magnitude bound over every q <= 500, every N, every unit x
    for q in range(2, 501):
        mod = Modulus.of(q)
        xs = unit_residues(mod)
        dist = np.minimum(xs, q - xs).astype(float)
        for N in range(1, q):
            mags = np.abs(_gamma_over_units(Interval.of(mod, 0, N)))
            caps = np.minimum(float(N), q / (2.0 * dist))
            assert np.all(mags <= caps + 1e-9), f"q={q}, N={N}"

    # partition exactness on a representative sub-grid
    for q in range(2, 501, 7):
        units = sorted(int(u) for u in unit_residues(q))
        for N in sorted({1, 2, 3, q // 3, q // 2, q - 1} - {0}):
            if not 1 <= N <= q - 1:
                continue
            seen = sorted(
                x % q
                for ds in dyadic_partition(q, N)
                for x in ds.members
                if math.gcd(x, q) == 1
            )
            assert seen == units, f"q={q}, N={N}"

    # per-scale partial sums cover every unit exactly once, so they reassemble
    for q, M, N in ((47, 7, 11), (120, 16, 59), (499, 31, 250)):
        mod = Modulus.of(q)
        keys = [int(u) for u in unit_residues(mod)[:M]]
        w = WeightVector(mod, dict(zip(keys, make_weights(keys, "unit", 77))))
        _, partials, total, covered = dyadic_decomposition(w, Interval.of(mod, 0, N))
        assert covered
    print("\nACCEPTANCE 07 gamma and dyadic suite: PASS (bound, partition, reassembly)")


def test_criterion_08_region_geometry():
    vertices = ((0.25, 0.5), (1 / 3, 2 / 3), (1.0, 1.0), (1.0, 2 / 3), (9 / 14, 3 / 7))
    for vtx in vertices:
        assert improvement_region(*vtx) == "boundary", vtx
    assert improvement_region(0.5, 0.5) == "interior"

    def slacks(mu, nu):  # inlined, independent of the library helper
        return (
            2 * mu + 7 * nu - 4,
            2 * mu + 11 * nu - 6,
            1 + mu - 2 * nu,
            3 * nu - 2 * mu,
            2 * mu - nu,
        )

    rng = SplitMix64(808)
    produced = 0
    while produced < 1000:
        mu, nu = rng.uniform01(), rng.uniform01()
        if min(slacks(mu, nu)) < -1e-6:  # violates at least one inequality
            assert improvement_region(mu, nu) == "outside", (mu, nu)
            produced += 1
    print("\nACCEPTANCE 08 region geometry: PASS (5 vertices, interior point, 1000 outside)")


def test_criterion_09_bound_ratio_regression():
    worst = 0.0
    instances = 0
    for p in primes_in_range(101, 2003):
        side = math.isqrt(p - 1)
        m = n = min(side if side * side >= p else side + 1, p - 2)
        for seed in (1, 2, 3, 4, 5):
            recs = run_experiment(p, M=m, N=n, weight_kind="pm1", seed=seed)
            by_name = {r.bound_name: r for r in recs}
            thm21 = by_name["thm21"]
            trivial = by_name["trivial"]
            # exact trivial bound with the computed max |K_q|
            assert trivial.abs_sum <= trivial.bound_value + trivial.error_bound
            assert trivial.bound_value == pytest.approx(
                trivial.norm1 * n * max_kloosterman_abs(p), rel=1e-12
            )
            worst = max(worst, thm21.ratio)
            instances += 1
    assert worst <= BASELINES["thm21_ratio_limit"]
    assert worst == pytest.approx(BASELINES["thm21_ratio_observed_max"], rel=1e-9)
    print(
        f"\nACCEPTANCE 09 bound-ratio regression: PASS "
        f"(max thm21 ratio {worst:.6f} <= {BASELINES['thm21_ratio_limit']} "
        f"over {instances} instances)"
    )


def test_criterion_10_average_sweep():
    t0 = time.perf_counter()
    Q, N, r, eps, seed = 256, 16, 2, 0.1, 1
    records, exceptional = average_sweep(Q, N, r, eps, weight_kind="pm1", seed=seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert len(records) == Q + 1
    spec = BoundSpec("thm22", r=r, epsilon=eps)
    for rec in records:
        again = run_experiment(
            rec.q,
            M=rec.M,
            N=N,
            weight_kind="pm1",
            seed=derive_seed(seed, rec.q),
            bounds=[spec],
        )[0]
        assert again.abs_sum == rec.abs_sum  # bit-identical recomputation
        assert again.bound_value == rec.bound_value
    budget = exceptional_budget(Q, r, eps)
    fraction = exceptional / budget
    assert exceptional == sum(1 for rec in records if rec.ratio > 1.0)
    print(
        f"\nACCEPTANCE 10 average sweep: PASS (Q={Q}, {elapsed:.1f}s, "
        f"exceptional {exceptional} vs Q^(1-2r*eps) = {budget:.2f}, fraction {fraction:.3f})"
    )
