"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria with inherently unfalsifiable scale factors assert frozen
regression baselines recorded in baselines.json; everything else asserts
exact oracles or stated tolerances directly.
"""

import cmath
import json
import math
import time
from pathlib import Path

import pytest

from kgsums import (
    BoundSpec,
    Interval,
    Modulus,
    WeightVector,
    average_sweep,
    bilinear_kloosterman,
    derive_seed,
    exceptional_budget,
    jr_congruence,
    jr_equation,
    max_kloosterman_abs,
    rr_congruence,
    run_experiment,
    unit_residues,
)
from kgsums.experiments import bound_ratio_grid, primes_in_range
from kgsums.prng import SplitMix64
from kgsums.verify import (
    check_counting,
    check_gamma_dyadic,
    check_gauss_modulus,
    check_identity,
    check_moment,
    check_paths,
    check_region,
    check_weil,
)

BASELINES = json.loads((Path(__file__).parent / "baselines.json").read_text())


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    res = check_identity(primes_in_range(2, 101))
    elapsed = time.perf_counter() - t0
    assert res.passed, res.detail
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 01 identity suite: PASS ({res.detail}, {elapsed:.1f}s)")


def test_criterion_02_weil_suite():
    t0 = time.perf_counter()
    res = check_weil(range(2, 500))
    elapsed = time.perf_counter() - t0
    assert res.passed, res.detail
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 02 weil suite: PASS ({res.detail}, {elapsed:.1f}s)")


def test_criterion_03_gauss_modulus_suite():
    res = check_gauss_modulus(range(2, 201))
    assert res.passed, res.detail
    print(f"\nACCEPTANCE 03 gauss modulus suite: PASS ({res.detail})")


def test_criterion_04_path_equivalence():
    paths = check_paths(20240405, 200)
    assert paths.passed, paths.detail

    # closed form: full support, constant weights, J = [1, p-1] gives p - 1
    for p in (3, 5, 7, 11, 13):
        mod = Modulus.of(p)
        units = unit_residues(mod)
        w = WeightVector(mod, units, [1.0] * units.size)
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
    w3 = WeightVector(Modulus.of(3), [1, 2], [1.0, 1.0])
    res3 = bilinear_kloosterman(w3, Interval.of(3, 0, 2), "fast")
    assert abs(res3.value - hand) <= res3.error_bound + 1e-12
    print(f"\nACCEPTANCE 04 path equivalence: PASS ({paths.detail}, closed form = p-1)")


def test_criterion_05_moment_identity():
    res = check_moment(range(2, 32), 4, 333, 20)
    assert res.passed, res.detail
    print(f"\nACCEPTANCE 05 moment identity: PASS ({res.detail})")


def test_criterion_06_counting_oracles():
    res = check_counting(range(2, 51), 12)
    assert res.passed, res.detail
    assert jr_congruence(5, 2, 2) == 6
    assert rr_congruence(5, 2, 2) == 6
    assert jr_equation(3, 2) == 15
    print("\nACCEPTANCE 06 counting oracles: PASS (grid q<=50, K<=12, r<=2 exact)")


def test_criterion_07_gamma_and_dyadic():
    # magnitude and per-scale bounds over every q <= 500, every N, every unit x
    res = check_gamma_dyadic(range(2, 501))
    assert res.passed, res.detail
    print(f"\nACCEPTANCE 07 gamma and dyadic suite: PASS ({res.detail})")


def test_criterion_08_region_geometry():
    vertices = ((0.25, 0.5), (1 / 3, 2 / 3), (1.0, 1.0), (1.0, 2 / 3), (9 / 14, 3 / 7))

    def slacks(mu, nu):  # inlined, independent of the library helper
        return (
            2 * mu + 7 * nu - 4,
            2 * mu + 11 * nu - 6,
            1 + mu - 2 * nu,
            3 * nu - 2 * mu,
            2 * mu - nu,
        )

    rng = SplitMix64(808)
    outside = []
    while len(outside) < 1000:
        mu, nu = rng.uniform01(), rng.uniform01()
        if min(slacks(mu, nu)) < -1e-6:  # violates at least one inequality
            outside.append(((mu, nu), "outside"))
    points = [(vtx, "boundary") for vtx in vertices] + [((0.5, 0.5), "interior")]
    res = check_region(points + outside)
    assert res.passed, res.detail
    print("\nACCEPTANCE 08 region geometry: PASS (5 vertices, interior point, 1000 outside)")


def test_criterion_09_bound_ratio_regression():
    worst = 0.0
    instances = 0
    for recs in bound_ratio_grid():
        by_name = {r.bound_name: r for r in recs}
        thm21 = by_name["thm21"]
        trivial = by_name["trivial"]
        # exact trivial bound with the computed max |K_q|
        assert trivial.abs_sum <= trivial.bound_value + trivial.error_bound
        assert trivial.bound_value == pytest.approx(
            trivial.norm1 * trivial.N * max_kloosterman_abs(trivial.q), rel=1e-12
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
