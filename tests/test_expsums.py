import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsums.expsums as expsums
from kgsums import (
    Modulus,
    ResourceLimit,
    WeightVector,
    char_values,
    character,
    character_at,
    characters,
    conductors,
    gauss,
    gauss_row,
    inverse_table,
    kloosterman,
    kloosterman_row,
    primitive_characters,
    primitive_count,
    unit_mask,
    unit_residues,
)
from kgsums.verify import check_row_consistency


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------


def test_kloosterman_examples():
    assert abs(kloosterman(3, 1, 1).value - (-1)) < 1e-12
    assert abs(kloosterman(3, 1, 2).value - 2) < 1e-12
    expected = 2 + 2 * math.cos(4 * math.pi / 5)
    assert abs(kloosterman(5, 1, 1).value - expected) < 1e-12
    assert abs(kloosterman(5, 1, 1).value - 0.3819660) < 1e-6


def test_cached_arrays_read_only():
    before = kloosterman(13, 1, 1).value
    chi = primitive_characters(13)[0]
    shared = (unit_residues(13), inverse_table(13), unit_mask(13), Modulus.of(13).logs)
    weights = WeightVector(Modulus.of(13), [1, 2, 5], [1.0, -1.0, 2j])
    for arr in shared + (char_values(13, chi), weights.support(), weights.coefficients()):
        with pytest.raises(ValueError):
            arr[1] = arr[2]
    assert kloosterman(13, 1, 1).value == before


def test_character_at_matches_enumeration():
    for q in (2, 8, 12, 45, 64):  # q = 2: no generators, one empty exponent row
        rows = characters(q)
        assert rows.dtype == np.int64
        assert rows.shape == (Modulus.of(q).phi, len(Modulus.of(q).group.orders))
        at = np.array([character_at(q, i) for i in range(len(rows))])
        assert at.dtype == np.int64 and np.array_equal(at, rows)
        for bad in (-1, len(rows)):
            with pytest.raises(ValueError):
                character_at(q, bad)
    rows = characters(5040)  # five generators
    phi = len(rows)
    for i in (0, 1, phi // 2, phi - 1):
        assert np.array_equal(character_at(5040, i), rows[i])


def test_group_orders_cached():
    for q in (64, 105, 128):
        mod = Modulus.of(q)
        assert mod.group.orders is mod.group.orders


def test_kloosterman_real_within_budget():
    for q in (7, 12, 36, 101):
        for m, n in ((1, 1), (2, 5), (3, 1)):
            res = kloosterman(q, m, n)
            assert abs(res.value.imag) <= res.error_bound


def test_error_bound_formula():
    res = kloosterman(101, 1, 1)
    eps = np.finfo(float).eps
    assert res.terms == 100
    assert res.error_bound == pytest.approx((100 + 4) * eps * 100, rel=1e-12)


def test_symmetry_in_m_and_n():
    # K(m, n) = K(n, m) for every pair: build the full value matrix per q
    # (row n holds all m via one DFT) and compare with its transpose.
    from kgsums import inverse_table, unit_residues

    for q in range(2, 201):
        units = unit_residues(q)
        inv = inverse_table(q)
        a = np.zeros((q, q), dtype=np.complex128)
        phases = np.arange(q)[:, None] * inv[units][None, :] % q
        a[:, units] = np.exp(2j * np.pi * phases / q)
        K = q * np.fft.ifft(a, axis=1)  # K[n, m]
        assert float(np.max(np.abs(K - K.T))) <= q * 2**-42, f"q={q}"


def test_row_consistency_every_q_to_512():
    res = check_row_consistency(range(2, 513))
    assert res.passed, res.detail


def test_row_examples():
    assert abs(kloosterman_row(3, 1)[1] - (-1)) < 1e-12
    assert abs(kloosterman_row(3, 1)[0] - 2 * math.cos(2 * math.pi / 3)) < 1e-12
    assert abs(kloosterman_row(5, 1)[1] - 0.3819660) < 1e-6
    assert abs(kloosterman_row(4, 1)[0]) < 1e-12  # e_4(1) + e_4(3) = 0


def test_sum_result_dominates_partial_sums():
    # error_bound must be at least terms * eps * (largest running partial)
    eps = np.finfo(float).eps
    for q, m, n in ((17, 1, 1), (360, 7, 11), (1031, 2, 5)):
        from kgsums import eq_exp, inverse_table, unit_residues

        res = kloosterman(q, m, n)
        inv = inverse_table(q)
        partial, worst = 0j, 0.0
        for x in unit_residues(q):
            partial += eq_exp(m * int(x) + n * int(inv[x]), q)
            worst = max(worst, abs(partial))
        assert res.error_bound >= res.terms * eps * worst


@pytest.mark.parametrize("q", [13, 720720, 1000003])
def test_unit_angles_match_the_complex_division(q):
    # the angles written as reals give the bytes of numpy's complex product
    # and division, on the units and on their inverses (the row's input)
    units = unit_residues(q)
    for residues in (units, inverse_table(q)[units]):
        for coeff in (1, 2, q - 1, 10**12 + 3):
            red = (coeff % q) * residues % q
            old = np.exp(2j * np.pi * red / q)
            assert expsums._unit_angles(q, coeff, residues).tobytes() == old.tobytes(), coeff


@given(
    q=st.integers(2, 300),
    m=st.integers(-500, 500),
    n=st.integers(-500, 500),
)
@settings(max_examples=60, deadline=None)
def test_kloosterman_argument_reduction(q, m, n):
    a = kloosterman(q, m, n)
    b = kloosterman(q, m % q, n % q)
    assert a.value == b.value


# ---------------------------------------------------------------------------
# exact_sums: bit for bit the value (or the exception) of math.fsum, row by row
# ---------------------------------------------------------------------------

FSUM = math.fsum  # the oracle, kept before any test patches math.fsum


def _exact_sum(x):
    return expsums.exact_sums([x])[0]


def _outcome(fn, xs):
    try:
        return "value", struct.pack("<d", fn(np.array(xs, dtype=np.float64)))
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc)


def _assert_matches_fsum(xs):
    want = _outcome(FSUM, xs)
    assert _outcome(_exact_sum, xs) == want
    with pytest.MonkeyPatch.context() as mp:  # many blocks: per-block exponents combined
        mp.setattr(expsums, "_EXACT_BLOCK", 7)
        assert _outcome(_exact_sum, xs) == want


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200))
@settings(max_examples=200, deadline=None)
def test_exact_sum_matches_fsum_any_finite(xs):
    _assert_matches_fsum(xs)


@given(st.lists(st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-80, 80)),
                max_size=200))
@settings(max_examples=200, deadline=None)
def test_exact_sum_matches_fsum_within_limb_budget(xs):
    # spans of at most 53 + 160 bits: the limb route, never the fallback
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(math, "fsum", lambda _: pytest.fail("fell back to math.fsum"))
        got = _outcome(_exact_sum, xs)
    assert got == _outcome(FSUM, xs)


_rng = np.random.default_rng(11)
_cancel = _rng.standard_normal(4096) * 10.0 ** _rng.integers(-12, 12, 4096)

EXACT_SUM_CASES = {
    "cancel-to-zero": [3.0, 1e-20, -3.0, -1e-20] * 300,
    "cancel-shuffled": list(_rng.permutation(np.concatenate([_cancel, -_cancel]))),
    "tie-to-even-down": [1.0, 2**-53],
    "tie-broken-up": [1.0, 2**-53, 2**-106],
    "tie-to-even-up": [1.0 + 2**-52, 2**-53],
    "tie-negative": [-1.0, -(2**-53), 2**-200],
    "subnormals": [5e-324, -0.0, 0.0, 2.5e-323, -5e-324, 1e-310],
    "normal-subnormal-edge": [2.2250738585072014e-308, -5e-324],
    "negative-zeros": [-0.0, -0.0],
    "zeros-and-tiny": [0.0, -0.0, 5e-324, -5e-324],
    "large-exponents": [2.0**900, 3.0 * 2.0**850, -(2.0**900), 2.0**700],  # lo >= 0
    "past-limb-budget": [1e150, 1e-150, -1e150, 3.0],
    "intermediate-overflow": [1e308, 1e308, -1e308],
    "nan": [1.0, float("nan"), 2.0],
    "inf": [1.0, float("inf"), 2.0],
    "neg-inf": [float("-inf"), -1.0, float("-inf")],
    "inf-minus-inf": [float("inf"), 1.0, float("-inf")],
}


#: the cases exact_sums hands to math.fsum
FSUM_FALLBACK = {
    "past-limb-budget", "intermediate-overflow", "nan", "inf", "neg-inf", "inf-minus-inf",
}


@pytest.mark.parametrize("name", sorted(EXACT_SUM_CASES))
def test_exact_sum_adversarial(name, monkeypatch):
    _assert_matches_fsum(EXACT_SUM_CASES[name])
    calls = []
    monkeypatch.setattr(math, "fsum", lambda x: calls.append(x) or FSUM(x))
    _outcome(_exact_sum, EXACT_SUM_CASES[name])
    assert bool(calls) == (name in FSUM_FALLBACK)


def test_exact_sum_route_data_stays_off_fsum(monkeypatch):
    # the outer sum of a fast-route experiment takes the limb route
    from kgsums.bilinear import _gamma_over_units, _fast_values
    from kgsums import Interval, WeightVector

    q = 10007
    rng = np.random.default_rng(3)
    keys = range(1, 101)
    A = WeightVector(q, keys, [float(rng.choice([-1.0, 1.0])) for _ in keys])
    terms = _fast_values([A], 1)[0] * _gamma_over_units(Interval.of(q, 0, 100))
    want = (FSUM(terms.real), FSUM(terms.imag))
    monkeypatch.setattr(math, "fsum", lambda _: pytest.fail("fell back to math.fsum"))
    got = expsums.exact_sums([terms.real, terms.imag])
    assert struct.pack("<2d", *got) == struct.pack("<2d", *want)
    got = expsums._sum_terms(terms).value  # both parts in one pass, as views of the pairs
    assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", *want)


#: the cases on which math.fsum raises; any row of them makes exact_sums raise
FSUM_RAISES = {"intermediate-overflow", "inf-minus-inf"}


def _rows(names):
    """The named cases as the rows of one array, each padded with +0.0."""
    rows = np.zeros((len(names), max(len(EXACT_SUM_CASES[n]) for n in names)))
    for row, name in zip(rows, names):
        row[: len(EXACT_SUM_CASES[name])] = EXACT_SUM_CASES[name]
    return rows


@pytest.mark.parametrize("block", [None, 7])
def test_exact_sums_of_rows_equal_fsum_of_each_row(block, monkeypatch):
    # every case is one row among the others; blocks of 7 give many blocks per row
    if block is not None:
        monkeypatch.setattr(expsums, "_EXACT_BLOCK", block)
    names = sorted(set(EXACT_SUM_CASES) - FSUM_RAISES)
    rows = _rows(names)
    calls = []
    monkeypatch.setattr(math, "fsum", lambda x: calls.append(np.array(x)) or FSUM(x))
    got = expsums.exact_sums(rows)
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", FSUM(r)) for r in rows]
    fell_back = [n for n, r in zip(names, rows)
                 if any(np.array_equal(r, c, equal_nan=True) for c in calls)]
    assert len(calls) == len(fell_back) and set(fell_back) == FSUM_FALLBACK - FSUM_RAISES
    for name in sorted(FSUM_RAISES):  # a raising row raises what math.fsum raises
        want = _outcome(FSUM, EXACT_SUM_CASES[name])
        assert want[0] == "raises"
        with pytest.raises(want[1]):
            expsums.exact_sums(_rows(names[:3] + [name] + names[3:]))


@pytest.mark.parametrize("block", [None, 7])
def test_exact_sums_keep_an_exponent_per_row(block, monkeypatch):
    # rows 2^600 apart: one shared exponent would need some 20 limbs and fall
    # back; each row's own exponent keeps every row on the limb route
    if block is not None:
        monkeypatch.setattr(expsums, "_EXACT_BLOCK", block)
    rng = np.random.default_rng(7)
    scales = 2.0 ** np.array([[300, -300], [0, 120], [-20, 500]])
    z = rng.standard_normal((3, 2, 2000))
    terms = (z * scales[:, :, None]).transpose(0, 2, 1).copy().view(np.complex128)[..., 0]
    parts = terms.view(np.float64).reshape(3, 2000, 2).transpose(0, 2, 1)  # (row, part, n)
    want = [[FSUM(p) for p in row] for row in parts]
    monkeypatch.setattr(math, "fsum", lambda _: pytest.fail("fell back to math.fsum"))
    assert expsums.exact_sums([p for row in parts for p in row]) == sum(want, [])
    assert [r.value for r in expsums._sum_rows(terms)] == [complex(*w) for w in want]


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def test_character_counts():
    assert len(characters(5)) == 4
    assert len(primitive_characters(5)) == 3  # p - 2 for prime p
    assert len(characters(3)) == 2
    assert len(primitive_characters(3)) == 1
    assert len(characters(8)) == 4
    assert len(characters(2)) == 1
    assert primitive_characters(8).dtype == np.int64


def test_character_counts_match_phi_grid():
    for q in range(2, 120):
        assert len(characters(q)) == Modulus.of(q).phi


def test_char_values_examples():
    principal = next(c for c in characters(5) if not c.any())  # the all-zero row
    assert char_values(5, principal)[3] == 1
    quadratic = character(5, (2,))
    assert abs(char_values(5, quadratic)[2] - (-1)) < 1e-12
    for q in (5, 8, 12):
        for chi in characters(q):
            vals = char_values(q, chi)
            assert vals[1] == 1
            assert vals[q % q] == 0  # chi(q) is entry 0; gcd(q, q) > 1


def test_char_multiplicative_exhaustive():
    for q in (3, 5, 8, 9, 12, 15, 16, 24):
        units = [int(u) for u in unit_residues(q)]
        for chi in characters(q):
            vals = char_values(q, chi)
            for x in units:
                for y in units:
                    assert abs(vals[x] * vals[y] - vals[x * y % q]) < 1e-10


def test_char_vanishes_off_units():
    for q in (8, 12, 30):
        mask = unit_mask(q)
        for chi in characters(q):
            vals = char_values(q, chi)
            assert np.all(vals[~mask] == 0)


def test_char_orthogonality_grid():
    for q in range(2, 201):
        mod = Modulus.of(q)
        V = np.array([char_values(mod, c) for c in characters(mod)])
        gram = V.T @ np.conj(V)  # gram[x, y] = sum_chi chi(x) conj(chi(y))
        mask = unit_mask(mod)
        expected = np.zeros((q, q), dtype=complex)
        for x in range(q):
            if mask[x]:
                expected[x, x] = mod.phi
        assert float(np.max(np.abs(gram - expected))) <= 1e-8 * max(q, 10)


def test_conductor_agrees_with_bruteforce():
    # smallest d | q such that chi is constant on classes mod d (over units)
    for q in list(range(2, 61)) + [64, 72, 81, 90, 96, 128]:
        units = [int(u) for u in unit_residues(q)]
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        rows = characters(q)
        for chi, conductor in zip(rows, conductors(Modulus.of(q), rows).tolist()):
            vals = char_values(q, chi)
            cond = None
            for d in divisors:
                if all(
                    abs(vals[x] - vals[y]) < 1e-9
                    for x in units
                    for y in units
                    if (x - y) % d == 0
                ):
                    cond = d
                    break
            assert conductor == cond


def test_primitive_count_matches_mobius_sum():
    # number of primitive characters mod q = sum_{d | q} mu(q/d) * phi(d)
    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    def phi(n):
        return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)

    for q in range(2, 513):
        expected = sum(mobius(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)
        assert len(primitive_characters(q)) == expected, q
        # the closed form the Gauss sweep takes its support size from
        assert primitive_count(q) == expected, q


def _local_primitive_exponents(p, e):
    """Exponent tuples of the primitive characters mod p^e, from the local rules."""
    if p > 2:
        return [(k,) for k in range(p ** (e - 1) * (p - 1)) if k % p]
    if e == 1:
        return []
    if e == 2:
        return [(1,)]
    if e == 3:
        return [(0, 1), (1, 0)]
    return [(a, b) for a in range(2) for b in range(1 << (e - 2)) if b % 2]


def test_primitive_exponents_are_the_product_of_local_sets():
    # a character is primitive exactly when each local component is
    for q in range(3, 1501):
        local = [_local_primitive_exponents(p, e) for p, e in Modulus.of(q).factors]
        expected = [sum(parts, ()) for parts in itertools.product(*local)]
        rows = primitive_characters(q)
        assert rows.shape == (len(expected), len(Modulus.of(q).group.orders)), q
        assert [tuple(r) for r in rows.tolist()] == expected, q


def test_exponent_rows_capped_before_allocating(monkeypatch):
    monkeypatch.setattr(expsums, "EXPONENT_ROWS_CAP", 16)
    assert len(primitive_characters(17)) == 15  # phi = 16 entries, at the cap
    assert len(characters(16)) == 8  # 2 generators, 16 entries
    for q in (19, 64):
        with pytest.raises(ResourceLimit):
            primitive_characters(q)
        with pytest.raises(ResourceLimit):
            characters(q)


def test_single_rows_checked_against_the_generator_orders():
    row = character(45, [3, 2])  # 45 = 9 * 5: orders (6, 4)
    assert row.dtype == np.int64 and row.tolist() == [3, 2]
    assert character(2, ()).shape == (0,)  # units mod 2: no generators
    # 8 has two generators: one entry would broadcast into a wrong character
    for bad in ((1,), (1, 1, 0), [[1, 1]]):
        with pytest.raises(ValueError, match="generator orders"):
            character(8, bad)
    with pytest.raises(ValueError):
        gauss(8, (1,), 1)
    for q, bad in ((8, (2, 0)), (8, (0, -1)), (45, (6, 0)), (7, (6,))):
        with pytest.raises(ValueError, match="generator orders"):
            char_values(q, bad)
        with pytest.raises(ValueError, match="generator orders"):
            gauss_row(q, bad)
        with pytest.raises(ValueError, match="generator orders"):
            gauss(q, bad, 1)


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def test_gauss_examples():
    quadratic = character(5, (2,))
    assert abs(gauss(5, quadratic, 1).value - math.sqrt(5)) < 1e-10
    nontrivial = character(3, (1,))
    assert abs(gauss(3, nontrivial, 1).value - 1j * math.sqrt(3)) < 1e-10
    principal = character(5, (0,))
    assert abs(gauss(5, principal, 5).value - 4) < 1e-12


def test_gauss_primitive_magnitude_spot():
    for q in (5, 7, 8, 9, 12, 13, 16, 21, 40):
        for chi in primitive_characters(q):
            units = unit_residues(q)
            for n in units[:: max(1, len(units) // 4)]:
                res = gauss(q, chi, int(n))
                assert abs(abs(res.value) - math.sqrt(q)) < 1e-9


def test_gauss_twisting_crosscheck():
    # for primitive chi and unit n: G(chi, n) = conj(chi)(n) * G(chi, 1)
    for q in (5, 7, 9, 11, 16, 21):
        for chi in primitive_characters(q):
            base = gauss(q, chi, 1)
            for n in [int(u) for u in unit_residues(q)][:6]:
                twisted = gauss(q, chi, n)
                predicted = np.conj(char_values(q, chi)[n]) * base.value
                assert abs(twisted.value - predicted) < 1e-9


def test_gauss_row_matches_direct():
    for q in (5, 12, 29, 48):
        for chi in characters(q)[:6]:
            row = gauss_row(q, chi)
            for n in range(0, q, max(1, q // 6)):
                direct = gauss(q, chi, n)
                assert abs(row[n] - direct.value) <= direct.error_bound + q * 2**-45
