import functools
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsums.counting as counting
from kgsums import (
    Modulus,
    ResourceLimit,
    SplitMix64,
    VerificationError,
    dyadic_average,
    inverse_table,
    j2_reference_ratio,
    j2_reference_ratios,
    jr_congruence,
    jr_equation,
    moment_check,
    product_table,
    reciprocal_table,
    rr_congruence,
    rr_equation,
)
from kgsums.experiments import GRID_PRIME_LO, grid_ks, j2_ratio_grid, primes_in_range

BASELINES = json.loads((Path(__file__).parent / "baselines.json").read_text())


def _admissible(q, K):
    return [x for x in range(1, K + 1) if math.gcd(x, q) == 1]


def test_admissible_set_equals_the_gcd_filter():
    # read from the unit mask: every K in [1, q] for q <= 300, a few K beyond
    for q in range(2, 301):
        mod, full = Modulus.of(q), _admissible(q, q)
        for K in range(1, q + 1):
            got = counting._admissible(mod, K)
            assert got.dtype == np.int64 and got.tolist() == [x for x in full if x <= K], (q, K)
    for q in (720720, 2**20):
        for K in (1, 2, 1000, q // 2 + 1, q - 1, q):
            xs = np.arange(1, K + 1, dtype=np.int64)
            assert np.array_equal(counting._admissible(Modulus.of(q), K), xs[np.gcd(xs, q) == 1])


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_jr_examples():
    assert jr_congruence(7, 4, 1) == 4  # inversion is injective, diagonal only
    assert jr_congruence(5, 2, 2) == 6  # inverse sums {2,4,4,1} -> 1+4+1
    v = jr_congruence(5, 4, 2, method="exhaustive")
    assert jr_congruence(5, 4, 2, method="convolution") == v
    # a prime modulus near 10^9 factors below the trial-division bound
    assert jr_congruence(1000000007, 5, 2, "exhaustive") == 45


def test_jr_equation_examples():
    assert jr_equation(3, 1) == 3
    assert jr_equation(3, 2) == 15  # multiset {2:1, 3/2:2, 4/3:2, 1:1, 5/6:2, 2/3:1}
    assert jr_equation(1, 5) == 1


def test_rr_examples():
    assert rr_congruence(5, 2, 2) == 6  # products {1,2,2,4} -> 1+4+1
    assert rr_congruence(7, 3, 1) == 3
    v = rr_congruence(9, 4, 2, method="exhaustive")  # base {1, 2, 4}
    assert rr_congruence(9, 4, 2, method="convolution") == v
    # literal 81-tuple oracle for q=9, K=4
    base = _admissible(9, 4)
    brute = sum(
        1
        for a in base
        for b in base
        for c in base
        for d in base
        if a * b % 9 == c * d % 9
    )
    assert v == brute


def test_rr_equation_examples():
    assert rr_equation(2, 2) == 6
    assert rr_equation(2, 1) == 2
    # literal 81-tuple enumeration over [1,3]^4 with equal pair products
    brute = sum(
        1
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for c in (1, 2, 3)
        for d in (1, 2, 3)
        if a * b == c * d
    )
    assert rr_equation(3, 2) == brute == 15


def test_count_tables_mass():
    for q, K, r in ((7, 4, 2), (12, 9, 3), (30, 11, 2)):
        for table in (reciprocal_table(q, K, r), product_table(q, K, r)):
            assert sum(table.counts) == table.base_size**table.depth
            assert all(c >= 0 for c in table.counts)
            assert len(table.counts) == q


# ---------------------------------------------------------------------------
# oracle equivalence and structural properties
# ---------------------------------------------------------------------------


def test_random_spot_checks_larger():
    rng = SplitMix64(99)
    for _ in range(50):
        q = 51 + rng.next_u64() % 400
        K = 2 + rng.next_u64() % 13
        r = 1 + rng.next_u64() % 2
        assert jr_congruence(q, K, r, "convolution") == jr_congruence(
            q, K, r, "exhaustive"
        )
        assert rr_congruence(q, K, r, "convolution") == rr_congruence(
            q, K, r, "exhaustive"
        )


def test_monotone_in_K():
    for q in (11, 24, 50):
        prev_j = prev_r = 0
        for K in range(1, q + 1):
            j = jr_congruence(q, K, 2)
            rr = rr_congruence(q, K, 2)
            assert j >= prev_j
            assert rr >= prev_r
            prev_j, prev_r = j, rr


@given(
    q=st.integers(2, 60),
    K=st.integers(1, 12),
    r=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_diagonal_lower_bounds(q, K, r):
    K = min(K, q)
    kp = len(_admissible(q, K))
    j = jr_congruence(q, K, r)
    rr = rr_congruence(q, K, r)
    assert j >= kp**r
    assert rr >= kp**r
    if r == 2:
        assert j >= 2 * kp * kp - kp  # swapped diagonal pairs all solve


def test_wide_paths_match_int64_and_oracle(monkeypatch):
    # lowering the overflow line sends every fold and equation down the
    # object-dtype (Python int) path, which no realistic input reaches
    cases = ((7, 4, 2), (12, 9, 3), (25, 10, 2), (31, 6, 3))
    narrow = {
        c: (reciprocal_table(*c), product_table(*c), jr_congruence(*c), rr_congruence(*c))
        for c in cases
    }
    equations = {(K, r): (jr_equation(K, r), rr_equation(K, r)) for K, r in ((6, 2), (10, 3))}
    monkeypatch.setattr(counting, "_INT64_SAFE", 2)
    for c in cases:
        rt, pt, jr, rr = narrow[c]
        assert reciprocal_table(*c) == rt
        assert product_table(*c) == pt
        assert jr_congruence(*c) == jr == jr_congruence(*c, method="exhaustive")
        assert rr_congruence(*c) == rr == rr_congruence(*c, method="exhaustive")
    for (K, r), (jr, rr) in equations.items():
        assert (jr_equation(K, r), rr_equation(K, r)) == (jr, rr)


def _enumerated_table(vals, q, r, op):
    """Distribution of r-fold sums or products mod q by listing every r-tuple."""
    hits = Counter(functools.reduce(op, t) % q for t in itertools.product(vals, repeat=r))
    return tuple(hits[s] for s in range(q))


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
def test_fold_block_edges(monkeypatch, wide):
    # the fold tables, on int64 and on Python-int counts, must match tuple
    # enumeration and the exhaustive pair count
    cases = ((31, 31, 2), (31, 20, 3), (45, 45, 2), (63, 35, 3))
    if wide:
        monkeypatch.setattr(counting, "_INT64_SAFE", 2)
    for q, K, r in cases:
        base = _admissible(q, K)
        recip = _enumerated_table([pow(x, -1, q) for x in base], q, r, operator.add)
        prod = _enumerated_table(base, q, r, operator.mul)
        assert reciprocal_table(q, K, r).counts == recip
        assert product_table(q, K, r).counts == prod
        assert sum(c * c for c in recip) == jr_congruence(q, K, r, method="exhaustive")
        assert sum(c * c for c in prod) == rr_congruence(q, K, r, method="exhaustive")


def _permutation_sum(vec, units):
    """Sum over s in ``units`` of ``vec`` moved by t -> t*s mod q: a fold step
    by residue multiplication, with no discrete logs."""
    q = vec.size
    out = np.zeros_like(vec)
    moved = np.empty_like(vec)
    for s in units.tolist():
        moved[np.arange(q) * s % q] = vec
        out += moved
    return out


# (q, K, r): a prime, 2 * 3^11, 2^16, 5040 and 720720 (five and seven
# axes), q = 2 (no axes) and Python-int counts (32^13 >= 2^62)
PRODUCT_ORACLE_CASES = (
    (101, 100, 3),
    (2 * 3**11, 20, 2),
    (65536, 30, 3),
    (5040, 200, 3),
    (720720, 40, 2),
    (2, 2, 3),
    (64, 64, 13),
)


@pytest.mark.parametrize(
    "q, K, r", PRODUCT_ORACLE_CASES, ids=["-".join(map(str, c)) for c in PRODUCT_ORACLE_CASES]
)
def test_product_table_matches_multiplication_fold(q, K, r):
    # the fold rotates on the unit-group lattice at the logs; the oracle
    # permutes the residues by multiplying them mod q
    base = np.array(_admissible(q, K), dtype=np.int64)
    acc = np.bincount(base, minlength=q).astype(np.int64 if base.size**r < 2**62 else object)
    for _ in range(r - 1):
        acc = _permutation_sum(acc, base)
    assert product_table(q, K, r).counts == tuple(acc.tolist())


def test_fold_route_counts_equal_the_tables_energy():
    # the fold route reads sum(T**2) off its lattice: Z/q for inverse sums,
    # the unit group at the logs for products, one point per unit, so it is
    # sum(c**2) over the tables' counts on Z/q
    for q in range(2, 61):
        for K in sorted({1, 2, q // 3 + 1, q // 2 + 1, q}):
            for r in (1, 2, 3):
                pairs = ((jr_congruence, reciprocal_table), (rr_congruence, product_table))
                for count, table in pairs:
                    energy = sum(c * c for c in table(q, K, r).counts)
                    assert count(q, K, r, "convolution") == energy, (q, K, r, count)
    # 32**13 >= 2**62: Python-int counts in an object array
    energy = sum(c * c for c in product_table(64, 64, 13).counts)
    assert rr_congruence(64, 64, 13, "convolution") == energy > 2**63


def test_fold_cost_refusal_precedes_tables(monkeypatch):
    # the 60 units <= 60 mod 101 at depth 3: (r - 1) * |X| * q = 12120 adds
    monkeypatch.setattr(counting, "FOLD_COST_CAP", 12120)
    assert jr_congruence(101, 60, 3, "convolution") == jr_congruence(101, 60, 3, "fft")
    monkeypatch.setattr(counting, "FOLD_COST_CAP", 12119)

    def no_tables(mod):
        raise AssertionError("an inverse table was built before the cost cap")

    monkeypatch.setattr(counting, "inverse_table", no_tables)
    for count in (jr_congruence, rr_congruence):
        with pytest.raises(ResourceLimit, match="12120"):
            count(101, 60, 3, method="convolution")
    for table in (reciprocal_table, product_table):
        with pytest.raises(ResourceLimit, match="12120"):
            table(101, 60, 3)


def test_q_cap_refuses_length_q_routes_before_tables(monkeypatch):
    # at r = 1 a fold costs 0 adds and moment_check's exhaustive rhs 4
    # comparisons, so only the q cap stands between them and length-q tables
    def no_tables(*args):
        raise AssertionError("a table was built before the q cap")

    monkeypatch.setattr(counting, "inverse_table", no_tables)
    monkeypatch.setattr(counting, "_admissible", no_tables)
    q = 3_000_017
    assert q > counting.CONVOLUTION_Q_CAP
    for method in ("exhaustive", "convolution"):
        with pytest.raises(ResourceLimit, match="capped at q"):
            moment_check(q, [1, 2], {1: 1.0, 2: 1.0}, 1, method=method)
    for table in (reciprocal_table, product_table):
        with pytest.raises(ResourceLimit, match="capped at q"):
            table(q, 10, 1)


# ---------------------------------------------------------------------------
# the certified FFT route
# ---------------------------------------------------------------------------

# (q, K, depths): q = 2 (the unit group has no generators, so the lattice
# has no axes), q = 2 mod 4 (the factor 2 adds no axis), powers of two (a
# Z/2 axis beside a long one) and groups of four and five axes
FFT_SHAPE_CASES = (
    (2, 2, (1, 2, 3)),
    (6, 5, (1, 2, 3)),
    (30, 29, (1, 2, 3)),
    (4094, 200, (1, 2, 3)),
    (4, 3, (1, 2, 3)),
    (64, 63, (1, 2, 3)),
    (1024, 300, (1, 2, 3)),
    (720, 300, (1, 2, 3)),
    (5040, 400, (1, 2, 3)),
)


@pytest.mark.parametrize("q, K, depths", FFT_SHAPE_CASES, ids=[str(c[0]) for c in FFT_SHAPE_CASES])
def test_fft_tables_match_fold_on_group_shapes(q, K, depths):
    mod = Modulus.of(q)
    base = np.array(_admissible(q, K), dtype=np.int64)
    for r in depths:
        recips = [inverse_table(mod)[base][:, None]]
        [(recip, energy)] = counting._convolution_power(recips, (q,), r)
        assert tuple(recip.tolist()) == reciprocal_table(q, K, r).counts
        assert energy == jr_congruence(q, K, r, method="convolution")
        # the lattice table read at the logs of every unit is the fold's table
        shape, place = counting._lattice(mod, reciprocal=False)
        [(prod, energy)] = counting._convolution_power([place(base)], shape, r)
        assert prod.shape == (mod.group.orders or (1,))  # q = 2: one point
        folded = np.array(product_table(q, K, r).counts)
        assert np.all(prod[tuple(place(mod.units).T)] == folded[mod.units])
        assert energy == rr_congruence(q, K, r, method="convolution")
        if len(base) ** (2 * r) <= 10**6:
            assert energy == rr_congruence(q, K, r, method="exhaustive")
        assert jr_congruence(q, K, r) == jr_congruence(q, K, r, method="fft")
        assert rr_congruence(q, K, r) == rr_congruence(q, K, r, method="fft")


def test_fft_route_on_many_axes_and_past_the_fold_cap():
    # 720720 = 2^4 3^2 5 7 11 13: seven axes.  Z/q fits the padded-size cap
    # at r = 2, the unit-group lattice only at r = 1; past the cap the
    # default is the fold and an explicit "fft" is refused
    q, K = 720720, 40
    for r in (1, 2):
        assert jr_congruence(q, K, r, "fft") == jr_congruence(q, K, r, "convolution")
    assert rr_congruence(q, K, 1, "fft") == rr_congruence(q, K, 1, "convolution")
    assert "cap" in counting._fft_refusal(Modulus.of(q).group.orders, 2, 1)
    assert rr_congruence(q, K, 2) == rr_congruence(q, K, 2, "convolution")
    with pytest.raises(ResourceLimit):
        rr_congruence(q, K, 2, method="fft")
    # above the fold's q cap, against closed forms over all of (Z/p)^*:
    # pairs with sum s number p-1 at s = 0 and p-2 elsewhere, pairs with
    # product s number p-1 for every unit s
    p = 1000003
    assert jr_congruence(p, p - 1, 2) == (p - 1) ** 2 + (p - 1) * (p - 2) ** 2
    assert rr_congruence(p, p - 1, 2) == (p - 1) ** 3


@pytest.mark.parametrize("knob, value", [("FFT_SIZE_CAP", 0), ("_FFT_ERR_C", 1e30)])
def test_fft_refusal_precedes_any_transform(monkeypatch, knob, value):
    # a failing certificate or size cap sends the default to the fold and
    # makes an explicit "fft" raise, both before any transform is taken
    cases = ((101, 60, 2), (720, 300, 2), (2, 2, 3))
    folds = {
        c: (jr_congruence(*c, method="convolution"), rr_congruence(*c, method="convolution"))
        for c in cases
    }
    monkeypatch.setattr(counting, knob, value)

    def no_transform(*args, **kwargs):
        raise AssertionError("an FFT ran after the route was refused")

    monkeypatch.setattr(np.fft, "rfftn", no_transform)
    for c in cases:
        assert (jr_congruence(*c), rr_congruence(*c)) == folds[c]
        for count in (jr_congruence, rr_congruence):
            with pytest.raises(ResourceLimit):
                count(*c, method="fft")


def test_fft_mass_check_is_live():
    # a repeated point has mass 1 on the lattice, not |X|**r = 4, alone or
    # stacked after a set whose mass is right: each set is checked
    good, repeated = np.array([[1], [2]]), np.array([[3], [3]])
    assert counting._convolution_power([good], (7,), 2)[0][1] == 6
    for stack in ([repeated], [good, repeated]):
        with pytest.raises(VerificationError):
            counting._convolution_power(stack, (7,), 2)


def _count_transforms(monkeypatch):
    """Patch np.fft.rfftn to count its calls; returns the list it appends to."""
    calls = []
    real = np.fft.rfftn

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    return calls


def test_grid_counts_batched_equal_one_k_at_a_time(monkeypatch):
    # each grid prime's K share one FFT pass and give the counts and ratios
    # of one K at a time
    for p in primes_in_range(GRID_PRIME_LO, 401):
        Ks = grid_ks(p)
        alone = [jr_congruence(p, K, 2) for K in Ks]
        ratios = [j2_reference_ratio(p, K) for K in Ks]
        with monkeypatch.context() as patch:
            calls = _count_transforms(patch)
            assert counting._congruence_counts(p, Ks, 2, None, True) == alone, p
            assert j2_reference_ratios(p, Ks) == ratios, p
        assert [shape[0] for shape in calls] == [len(Ks)] * 2, p


@pytest.mark.parametrize(
    "q, r, Ks, refused",
    [(720, 6, [10, 100, 390, 720], [720]), (5040, 3, [10, 300, 2000, 5040], [])],
)
def test_rr_counts_batched_on_many_axes(monkeypatch, q, r, Ks, refused):
    # the K the FFT refuses takes the fold, and the others stay in one pass;
    # with the padded-size cap at one set's padding, each set takes its own
    mod = Modulus.of(q)
    shape, _ = counting._lattice(mod, reciprocal=False)
    sizes = {K: counting._admissible_count(mod, K) for K in Ks}
    assert [K for K in Ks if counting._fft_refusal(shape, r, sizes[K])] == refused
    folds = [rr_congruence(q, K, r, "convolution") for K in Ks]
    assert [rr_congruence(q, K, r) for K in Ks] == folds
    padded = math.prod(counting._fft_padding(shape, r))
    batched = len(Ks) - len(refused)
    for cap, passes in ((counting.FFT_SIZE_CAP, [batched]), (padded, [1] * batched)):
        with monkeypatch.context() as patch:
            patch.setattr(counting, "FFT_SIZE_CAP", cap)
            calls = _count_transforms(patch)
            assert counting._congruence_counts(q, Ks, r, None, False) == folds
        assert [shape[0] for shape in calls] == passes
    if refused:
        with pytest.raises(ResourceLimit):
            counting._congruence_counts(q, Ks, r, "fft", False)


def test_jr_equation_big_integer_path():
    # lcm(1..45) * 2 exceeds the int64 line; count 1/a + 1/b = 1/c + 1/d exactly
    K = 45
    sums: dict[Fraction, int] = {}
    for a in range(1, K + 1):
        for b in range(1, K + 1):
            s = Fraction(1, a) + Fraction(1, b)
            sums[s] = sums.get(s, 0) + 1
    assert jr_equation(K, 2) == sum(c * c for c in sums.values())


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        jr_congruence(5, 6, 2)  # K > q
    with pytest.raises(ValueError):
        jr_congruence(5, 2, 0)
    with pytest.raises(ValueError):
        jr_congruence(5, 2, 2, method="fourier")
    with pytest.raises(ResourceLimit):
        jr_congruence(997, 900, 3, method="exhaustive")
    with pytest.raises(ResourceLimit):
        jr_congruence(2_000_000, 10, 2)
    with pytest.raises(ResourceLimit):
        jr_equation(100, 5)
    with pytest.raises(ResourceLimit):
        rr_equation(100, 5)
    # the method is checked before anything else, an empty X included
    for X in ([1, 2], []):
        with pytest.raises(ValueError, match="unknown moment method"):
            moment_check(7, X, {1: 1.0, 2: 1.0}, 2, method="bogus")


def test_admissible_count_by_inclusion_exclusion():
    for q in (2, 12, 30, 97, 210, 1001, 2310):
        count = 0
        for K in range(1, q + 1):
            count += math.gcd(K, q) == 1
            assert counting._admissible_count(Modulus.of(q), K) == count


def test_refusals_precede_the_admissible_set(monkeypatch):
    # |X| comes from q's primes, so a count the caps refuse allocates nothing
    # (at K = q = 10^9 + 7, X alone is 8 GB), and the exhaustive oracle
    # enumerates and inverts its own residues without the routes' tables
    def no_tables(*args):
        raise AssertionError("a table was built before the caps decided")

    monkeypatch.setattr(counting, "_admissible", no_tables)
    monkeypatch.setattr(counting, "inverse_table", no_tables)
    q = 1_000_000_007
    for count in (jr_congruence, rr_congruence):
        with pytest.raises(ResourceLimit):
            count(q, q, 2)
        with pytest.raises(ResourceLimit):
            count(q, q, 2, method="fft")
        with pytest.raises(ResourceLimit):
            count(q, 10**4, 2, method="exhaustive")
    assert jr_congruence(q, 5, 2, "exhaustive") == jr_equation(5, 2) == 45


@pytest.mark.parametrize("table", [reciprocal_table, product_table])
@pytest.mark.parametrize("r", [0, -1])
def test_tables_refuse_depth_below_one(monkeypatch, table, r):
    # a table's mass is base_size ** depth only for r >= 1; the refusal comes
    # before the admissible set or any table is built
    def no_tables(*args):
        raise AssertionError("a table was built before the depth was checked")

    monkeypatch.setattr(counting, "_admissible", no_tables)
    with pytest.raises(ValueError, match="r must be >= 1"):
        table(7, 3, r)


def test_moment_identity_counts_with_unit_gamma():
    # gamma = 1 on the admissible x <= K turns the moment identity's rhs into
    # q * J_r(q; K), by both rhs routes and exactly
    cases = 0
    for q in range(3, 61):
        for K in range(1, min(8, q - 1) + 1):
            X = _admissible(q, K)
            gamma = dict.fromkeys(X, 1.0)
            for r in (1, 2, 3):
                count = q * jr_congruence(q, K, r)
                for method in ("exhaustive", "convolution"):
                    assert moment_check(q, X, gamma, r, method)[1] == count, (q, K, r, method)
                    cases += 1
    assert cases == 2658


def _moment_by_rotation_loop(q, X, gamma, r):
    """Both sides of the moment identity by the convolution route's own loop:
    h[x^-1] = gamma_x, the lhs from its DFT, and the rhs from r - 1 rotation
    sums of h by every x^-1, weighted by gamma_x."""
    mod = Modulus.of(q)
    xs = sorted({x % q for x in X})
    g = np.array([complex(gamma[x]) for x in xs], dtype=np.complex128)
    xbars = inverse_table(mod)[np.array(xs, dtype=np.int64)]
    h = np.zeros(q, dtype=np.complex128)
    h[xbars] = g
    lhs = float(np.sum(np.abs(q * np.fft.ifft(h)) ** (2 * r)))
    H = h
    for _ in range(r - 1):
        H = counting._rotation_sum(H, xbars, g)
    return lhs, float(q * np.sum(np.abs(H) ** 2))


def test_moment_convolution_equals_the_rotation_loop_bytewise():
    # moment_check builds h and its rhs with the counts' weighted fold; both
    # sides must be the loop's floats bit for bit
    rng = SplitMix64(30)
    cases = 0
    for q in (3, 7, 12, 31, 60, 64, 97):
        units = _admissible(q, q)
        for size in sorted({1, min(3, len(units)), len(units) // 2, len(units)}):
            X = units[:: max(1, len(units) // size)][:size]
            gamma = {x: complex(rng.uniform01() - 0.5, rng.uniform01() - 0.5) for x in X}
            for r in (1, 2, 3, 4):
                got = moment_check(q, X, gamma, r, method="convolution")
                want = _moment_by_rotation_loop(q, X, gamma, r)
                assert [v.hex() for v in got] == [v.hex() for v in want], (q, size, r)
                cases += 1
    assert cases == 100


# ---------------------------------------------------------------------------
# dyadic averages
# ---------------------------------------------------------------------------


def test_dyadic_average_diagonal_by_hand():
    mean, per_q = dyadic_average(10, 2, 1, "reciprocal")
    # r=1 counts just the diagonal: #admissible x <= 2 is 1 for even q, 2 for odd
    for q, count in per_q.items():
        assert count == len(_admissible(q, 2))
    assert mean == Fraction(16, 10)


def test_dyadic_average_self_consistency():
    for kind, single in (("reciprocal", jr_congruence), ("product", rr_congruence)):
        mean, per_q = dyadic_average(16, 4, 2, kind)
        assert set(per_q) == set(range(16, 33))
        for q in range(16, 33):
            assert per_q[q] == single(q, 4, 2)
        assert mean == Fraction(sum(per_q.values()), 16)


def test_dyadic_average_validation():
    with pytest.raises(ValueError):
        dyadic_average(10, 11, 1)
    with pytest.raises(ValueError):
        dyadic_average(10, 2, 1, kind="mixed")


# ---------------------------------------------------------------------------
# frozen regression baseline for the J_2 reference ratio
# ---------------------------------------------------------------------------


def test_j2_reference_ratio_grid_baseline():
    # documented grid: primes 101..2003, K in the four power scales of q.
    # Only the frozen baseline is asserted; the comparison formula hides a
    # sub-polynomial factor that cannot be falsified at fixed scale.
    worst = max(j2_ratio_grid())
    assert worst <= BASELINES["j2_ratio_limit"]
    # the frozen observation should stay reproducible
    assert worst == pytest.approx(BASELINES["j2_ratio_observed_max"], rel=1e-9)
