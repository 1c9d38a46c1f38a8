import cmath
import functools
import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsums import (
    CharWeightVector,
    DomainRestriction,
    Interval,
    InvalidWeight,
    MACHINE_EPS,
    Modulus,
    ModulusMismatch,
    ResourceLimit,
    SplitMix64,
    SumResult,
    WeightVector,
    bilinear_gauss,
    bilinear_kloosterman,
    char_values,
    character,
    conductors,
    derive_seed,
    dyadic_scale,
    eq_exp,
    kloosterman,
    kloosterman_row,
    make_weights,
    mod_inv,
    moment_check,
    primitive_characters,
    primitive_count,
    splitmix64_block,
    unit_residues,
)
import kgsums.bilinear as bilinear
import kgsums.counting as counting
from kgsums.experiments import (
    _support_keys,
    build_char_weight_vector,
    build_weight_vector,
    run_experiment,
    run_experiments,
)
from kgsums.expsums import roots_of_unity
from kgsums.verify import check_paths

# ---------------------------------------------------------------------------
# Weight vectors and intervals
# ---------------------------------------------------------------------------


def test_weight_vector_rejects_non_units():
    mod = Modulus.of(6)
    with pytest.raises(InvalidWeight):
        WeightVector(mod, [2], [1.0])
    with pytest.raises(InvalidWeight):
        WeightVector(mod, [0], [1.0])


def test_weight_vector_norms():
    mod = Modulus.of(7)
    w = WeightVector(mod, [1, 2, 3], [3.0, -4.0, 0.0])
    assert w.support_size == 2  # exact zeros dropped
    assert w.norm1 == pytest.approx(7.0)
    assert w.norm2 == pytest.approx(5.0)
    assert w.norm_inf == pytest.approx(4.0)


@given(data=st.data())
@settings(max_examples=40)
def test_weight_norms_permutation_invariant(data):
    q = data.draw(st.sampled_from([7, 11, 13, 17]))
    mod = Modulus.of(q)
    units = [int(u) for u in unit_residues(mod)]
    vals = data.draw(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=len(units),
        )
    )
    keys = units[: len(vals)]  # a fixed sorted support; the values move over it
    w1 = WeightVector(mod, keys, vals)
    w2 = WeightVector(mod, keys, data.draw(st.permutations(vals)))
    assert w1.norm1 == pytest.approx(w2.norm1)
    assert w1.norm2 == pytest.approx(w2.norm2)
    assert w1.norm_inf == pytest.approx(w2.norm_inf)


def test_interval_validation():
    mod = Modulus.of(10)
    Interval.of(mod, 0, 9)  # {1..9} is fine
    with pytest.raises(ValueError):
        Interval.of(mod, 0, 10)  # reaches q
    with pytest.raises(ValueError):
        Interval.of(mod, -1, 3)
    with pytest.raises(ValueError):
        Interval.of(mod, 5, 0)


def test_char_weight_vector_rejects_imprimitive():
    mod = Modulus.of(8)
    imprimitive = character(8, (1, 1))
    assert conductors(mod, [imprimitive]).tolist() == [4]
    with pytest.raises(InvalidWeight, match=r"\(1, 1\)"):
        CharWeightVector(mod, [imprimitive], [1.0])
    m7 = Modulus.of(7)
    with pytest.raises(InvalidWeight, match=r"\(0,\)"):
        CharWeightVector(m7, [(0,)], [1.0])  # principal, conductor 1
    # 99 = 3 mod 6 names the same character as (3,), outside the range
    with pytest.raises(InvalidWeight, match=r"\(99,\)"):
        CharWeightVector(m7, [(99,), (3,)], [1.0, 1.0])
    rows = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.int64)  # first bad row (1, 1)
    with pytest.raises(InvalidWeight, match=r"\(1, 1\)"):
        CharWeightVector(mod, rows, np.ones(3))
    with pytest.raises(InvalidWeight, match=r"\(-1, 1\)"):
        CharWeightVector(mod, np.array([[-1, 1]]), [1.0])


def test_char_weight_vector_refuses_reversed_rows():
    # rows in primitive_characters order keep their weights; reversed, the
    # second row is the first that does not exceed the one before it
    for q in (5, 8, 45, 64):
        mod = Modulus.of(q)
        prim = primitive_characters(mod)
        vals = make_weights(prim, "unit", 3)
        w = CharWeightVector(mod, prim, vals)
        assert w.support().dtype == np.int64 and np.array_equal(w.support(), prim)
        assert np.array_equal(w.coefficients(), vals)
        message = f"{prim[-2].tolist()} follows {prim[-1].tolist()}"
        with pytest.raises(InvalidWeight, match=re.escape(message)):
            CharWeightVector(mod, prim[::-1], vals[::-1])


def test_make_weights_deterministic():
    keys = list(range(10))
    a = make_weights(keys, "pm1", 42)
    b = make_weights(keys, "pm1", 42)
    c = make_weights(keys, "pm1", 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert all(v in (1, -1) for v in (x.real for x in a))
    u = make_weights(keys, "unit", 7)
    assert all(abs(abs(v) - 1) < 1e-12 for v in u)
    assert np.array_equal(make_weights(keys, "const", 0), [1 + 0j] * 10)


_SEEDS = (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15, derive_seed(1, 1000))


def test_splitmix64_block_matches_scalar():
    for seed in _SEEDS:
        for n in (0, 1, 1000):
            rng = SplitMix64(seed)
            block = splitmix64_block(seed, n)
            assert block.dtype == np.uint64
            assert block.tolist() == [rng.next_u64() for _ in range(n)]


def _scalar_weights(n, kind, seed):
    # the sequential definition: one SplitMix64 draw per key, in key order
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        if kind == "const":
            out.append(1.0 + 0j)
        elif kind == "pm1":
            out.append(complex(1 if rng.next_u64() >> 63 == 0 else -1, 0.0))
        else:
            out.append(cmath.exp(complex(0.0, 2.0 * math.pi * rng.uniform01())))
    return out


def test_make_weights_matches_scalar_reference():
    for kind in ("const", "pm1", "unit"):
        for seed in _SEEDS:
            for n in (0, 1, 1000):
                got = make_weights(range(n), kind, seed)
                assert got.dtype == np.complex128 and got.shape == (n,)
                ref = _scalar_weights(n, kind, seed)
                assert all(complex(g) == r for g, r in zip(got, ref))
                assert np.array_equal(np.signbit(got.imag), [math.copysign(1, r.imag) < 0 for r in ref])
    # a longer unit stream: np.exp must round every phase as cmath.exp does
    got = make_weights(range(50_000), "unit", 99)
    assert got.tolist() == _scalar_weights(50_000, "unit", 99)


def _reference_norms(values):
    mags = [abs(v) for v in values]
    if not mags:
        return 0.0, 0.0, 0.0
    return math.fsum(mags), math.sqrt(math.fsum(m * m for m in mags)), max(mags)


def test_weight_vector_arrays():
    mod = Modulus.of(7)
    # keys reduce mod q, and exact zeros drop after the order is checked:
    # 8 = 1, -3 = 4 and 13 = 6 mod 7; 3 and 5 carry 0 and leave 1, 2, 4, 6
    keys = [8, 2, 3, -3, 5, 13]
    vals = [1e16, 0.25 - 0.5j, 0.0, 2j, 0.0, -1.5]
    w = WeightVector(mod, keys, vals)
    ref = {1: 1e16, 2: 0.25 - 0.5j, 4: 2j, 6: -1.5}
    assert w.support().tolist() == list(ref) and w.coefficients().tolist() == list(ref.values())
    assert w.support().dtype == np.int64 and w.coefficients().dtype == np.complex128
    assert (w.norm1, w.norm2, w.norm_inf) == _reference_norms(ref.values())
    # all zero: empty support
    empty = WeightVector(mod, [1, 2, 3], [0.0, 0j, -0.0])
    assert empty.support_size == 0 and empty.support().size == 0
    assert (empty.norm1, empty.norm2, empty.norm_inf) == (0.0, 0.0, 0.0)
    # repeated keys are refused, never merged: 1 and 8 are both 1 mod 7
    with pytest.raises(InvalidWeight, match="must strictly increase: 1 follows 1"):
        WeightVector(mod, [1, 8], [1e16, 1.0])
    with pytest.raises(InvalidWeight, match="must strictly increase: 2 follows 5"):
        WeightVector(mod, [1, 5, 2], [1.0, 1.0, 1.0])
    # the reduced keys are compared, whatever their values: 9 = 2 follows 13 = 6
    with pytest.raises(InvalidWeight, match="must strictly increase: 2 follows 6"):
        WeightVector(mod, [8, 13, 9], [1.0, 1.0, 0.0])
    # the first key that is not a unit is named
    with pytest.raises(InvalidWeight, match=r"weight key 14 is not a unit mod 21 \(gcd = 7\)"):
        WeightVector(Modulus.of(21), [1, 14, 3], [1.0, 1.0, 1.0])
    # a key above q is named as given, with the gcd of its residue
    with pytest.raises(InvalidWeight, match=r"weight key 35 is not a unit mod 21 \(gcd = 7\)"):
        WeightVector(Modulus.of(21), [1, 35], [1.0, 1.0])
    # no keys at all: empty vectors of either kind
    for cls in (WeightVector, CharWeightVector):
        none = cls(mod)
        assert none.support_size == 0 and none.coefficients().size == 0
        assert (none.norm1, none.norm2, none.norm_inf) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        WeightVector(mod, [1, 2], [1.0])
    with pytest.raises(ValueError, match="2 weight keys but 0 values"):
        WeightVector(mod, [1, 2])


def test_weights_leave_the_callers_arrays_alone():
    # keys, rows and values the caller owns stay writeable, and writing to them
    # afterwards does not reach the vector, with and without zero weights
    mod, cmod = Modulus.of(7), Modulus.of(45)
    rows = np.array(primitive_characters(cmod))
    for zero in (False, True):
        keys = np.array([1, 2, 3, 4], dtype=np.int64)
        vals = np.array([1.0, 0.0 if zero else 2.0, 3.0, 4.0j], dtype=np.complex128)
        row_vals = make_weights(rows, "unit", 5)
        if zero:
            row_vals[1] = 0.0
        for w, caller in ((WeightVector(mod, keys, vals), keys),
                          (CharWeightVector(cmod, rows, row_vals), rows)):
            support, coeffs = w.support().copy(), w.coefficients().copy()
            for arr in (caller, vals, row_vals):
                assert arr.flags.writeable
                assert not np.shares_memory(arr, w.support())
                assert not np.shares_memory(arr, w.coefficients())
            caller += 1
            vals[0] = row_vals[0] = 9.0
            assert np.array_equal(w.support(), support)
            assert np.array_equal(w.coefficients(), coeffs)
            caller -= 1
    # vectors built from one (M, S) block: without zeros they share one support
    # array, read-only, and nothing they hold is the caller's
    for cls, m, keys in ((WeightVector, mod, np.array([1, 2, 3, 4, 5, 6])),
                         (CharWeightVector, cmod, rows)):
        block = make_weights(keys, "unit", (1, 2, 3))
        block_t = np.ascontiguousarray(block.T)
        for values in (block, block_t.T, block_t.T.copy()):  # F- and C-ordered blocks
            vectors = cls._from_columns(m, keys, values)
            supports = {id(w.support()) for w in vectors}
            assert len(supports) == 1
            for w in vectors:
                for arr in (w.support(), w.coefficients()):
                    assert not arr.flags.writeable
                    for caller in (keys, values):
                        assert caller.flags.writeable and not np.shares_memory(caller, arr)
                with pytest.raises(ValueError):
                    w.support()[0] = 0
            before = [_vector_bits(w) for w in vectors]
            keys += 1
            values *= 2
            keys -= 1
            assert [_vector_bits(w) for w in vectors] == before


def test_norms_equal_fsum_of_lists_bit_for_bit():
    # fsum over a memoryview sees the floats of the .tolist() copy
    def listed(coeffs):
        mags = np.hypot(coeffs.real, coeffs.imag)
        return (math.fsum(mags.tolist()), math.sqrt(math.fsum((mags * mags).tolist())),
                float(mags.max()) if mags.size else 0.0)

    units = Modulus.of(1009).units
    cases = {kind: make_weights(units, kind, 11) for kind in bilinear.WEIGHT_KINDS}
    big, tiny = 2.0**600, 2.0**-600
    cases["mixed"] = np.array(
        [0.0, -0.0, complex(-0.0, 0.0), big, -big, tiny, -tiny, complex(tiny, -big),
         complex(-tiny, tiny), 1.0, -1.0 + 1e-300j], dtype=np.complex128)
    cases["small"] = cases["mixed"][[5, 6, 8, 9]]
    cases["empty"] = np.zeros(0, dtype=np.complex128)
    with np.errstate(over="ignore"):  # big squared is inf on both sides
        for name, coeffs in cases.items():
            got = [x.hex() for x in bilinear._norms(coeffs[None])[0]]
            assert got == [x.hex() for x in listed(coeffs)], name
        # the rows of one block, each bit for bit its norms alone
        block = np.stack([cases[kind] for kind in bilinear.WEIGHT_KINDS])
        for got, coeffs in zip(bilinear._norms(block), block):
            assert [x.hex() for x in got] == [x.hex() for x in listed(coeffs)]


def _sorting_merge(keys, values):
    """The sort-and-merge reference: np.unique, then np.add.at of the nonzero inputs."""
    nonzero = values != 0
    keys, slot = np.unique(keys[nonzero], axis=0 if keys.ndim > 1 else None, return_inverse=True)
    merged = np.zeros(len(keys), dtype=np.complex128)
    np.add.at(merged, slot.reshape(-1), values[nonzero])
    kept = merged != 0
    return keys[kept], merged[kept]


def test_merge_shortcut_matches_the_sorting_merge_bit_for_bit():
    # the constructors keep the nonzero weights on keys that strictly increase,
    # bit for bit what sorting and merging them would give
    nz = -0.0
    values = np.array(
        [1.5, complex(nz, 2.0), complex(-3.0, nz), 0.0, complex(nz, nz), complex(0.0, nz),
         complex(nz, -1.0), 2.0 - 0.5j],
        dtype=np.complex128,
    )
    m13, m45 = Modulus.of(13), Modulus.of(45)
    sorted_1d = np.array([1, 2, 4, 5, 7, 8, 10, 11])  # units mod 13
    rows = primitive_characters(m45)[:8]
    accepted = {"sorted 1-D": (WeightVector, m13, sorted_1d),
                "sorted rows": (CharWeightVector, m45, rows)}
    for name, (cls, mod, keys) in accepted.items():
        w = cls(mod, keys, values)
        ref_keys, ref_coeffs = _sorting_merge(keys, values)
        assert w.support().shape == ref_keys.shape, name
        assert np.array_equal(w.support(), ref_keys), name
        # tobytes tells -0.0 from +0.0, which == does not
        assert w.coefficients().tobytes() == ref_coeffs.tobytes(), name
        assert (w.norm1, w.norm2, w.norm_inf) == bilinear._norms(ref_coeffs[None])[0], name
    # unsorted or repeated keys (or rows) are refused, naming the first that
    # does not exceed the key before it, whether or not either weighs zero
    # (entries 3, 4 and 5 are exact zeros)
    r = rows.tolist()
    refused = {
        "unsorted 1-D": (m13, np.array([5, 2, 4, 1, 7, 8, 10, 11]), "2 follows 5"),
        "unsorted rows": (m45, rows[[1, 0, 2, 3, 4, 5, 6, 7]], f"{r[0]} follows {r[1]}"),
        "duplicated 1-D": (m13, np.array([1, 2, 2, 5, 7, 8, 10, 10]), "2 follows 2"),
        "duplicated rows": (m45, rows[[0, 1, 1, 3, 4, 5, 6, 6]], f"{r[1]} follows {r[1]}"),
        "duplicated under a zero": (m13, np.array([1, 2, 4, 4, 5, 7, 10, 11]), "4 follows 4"),
        "unsorted only under zeros": (m13, np.array([1, 2, 4, 3, 12, 9, 10, 11]), "3 follows 4"),
        "unsorted rows under zeros": (
            m45, rows[[0, 1, 2, 4, 3, 5, 6, 7]], f"{r[3]} follows {r[4]}"),
    }
    for name, (mod, keys, message) in refused.items():
        cls = WeightVector if keys.ndim == 1 else CharWeightVector
        with pytest.raises(InvalidWeight, match=re.escape(message)):
            cls(mod, keys, values)
    # a sorted input's -0.0 parts come out +0.0, as 0 + v turns them
    coeffs = WeightVector(m13, sorted_1d, values).coefficients()
    assert np.signbit(coeffs.real).tolist() == [False, False, True, False, False]
    assert np.signbit(coeffs.imag).tolist() == [False, False, False, True, True]
    # the sweep's inputs: full-support units and primitive exponent rows
    for q in (97, 100, 128):
        mod = Modulus.of(q)
        units = unit_residues(mod)
        vals = make_weights(units, "pm1", q)
        w = WeightVector(mod, units, vals)
        for got, ref in zip((w.support(), w.coefficients()), _sorting_merge(units, vals)):
            assert got.tobytes() == ref.tobytes()
        prim = primitive_characters(mod)
        vals = make_weights(prim, "unit", q)
        c = CharWeightVector(mod, prim, vals)
        for got, ref in zip((c.support(), c.coefficients()), _sorting_merge(prim, vals)):
            assert got.tobytes() == ref.tobytes()


def test_built_weights_pass_the_order_check():
    # the program's own weights, at full support, are never refused
    for q in range(2, 301):
        mod = Modulus.of(q)
        w = build_weight_vector(mod, mod.phi, "pm1", q)
        assert np.array_equal(w.support(), unit_residues(mod)), q
        c = build_char_weight_vector(mod, primitive_count(mod), "unit", q)
        assert np.array_equal(c.support(), primitive_characters(mod)), q


def _vector_bits(w):
    """Everything a weight vector holds, in bytes and hex: equal only when bit for bit."""
    support, coeffs = w.support(), w.coefficients()
    return (w.modulus.q, support.dtype.str, support.shape, support.tobytes(), coeffs.dtype.str,
            coeffs.tobytes(), tuple(x.hex() for x in (w.norm1, w.norm2, w.norm_inf)))


def _value_blocks(keys):
    """(M, S) value blocks on ``keys``: each kind over five seeds, zeros (and -0.0)
    at different keys in different seeds with one all-zero seed, and one seed."""
    M = len(keys)
    seeds = (1, 2, 3, 4, 5)
    blocks = {kind: make_weights(keys, kind, seeds) for kind in bilinear.WEIGHT_KINDS}
    zeros = make_weights(keys, "unit", seeds).copy()
    for s in range(len(seeds)):
        zeros[s::len(seeds) + s, s] = 0.0
    zeros[M // 2 :, 1] = complex(-0.0, -0.0)
    zeros[:, 3] = 0.0
    blocks["zeros"] = zeros
    blocks["one seed"] = make_weights(keys, "pm1", (7,))
    return blocks


@pytest.mark.parametrize("family", ["kloosterman", "gauss"])
@pytest.mark.parametrize("q", [5, 45, 64, 101, 1009])
def test_from_columns_equals_one_vector_per_column(family, q):
    mod = Modulus.of(q)
    cls = WeightVector if family == "kloosterman" else CharWeightVector
    all_keys = unit_residues(mod) if family == "kloosterman" else primitive_characters(mod)
    for M in sorted({0, 1, len(all_keys) // 2, len(all_keys)}):
        keys = all_keys[:M]
        for name, block in _value_blocks(keys).items():
            vectors = cls._from_columns(mod, keys, block)
            assert len(vectors) == block.shape[1], (M, name)
            for s, w in enumerate(vectors):
                assert type(w) is cls
                alone = cls(mod, keys, block[:, s])
                assert _vector_bits(w) == _vector_bits(alone), (M, name, s)


def test_from_columns_checks_each_column_as_alone():
    # key order is checked on the keys alone: keys out of order are refused
    # with a zero weight at either of the two keys or with none, by one vector
    # per column (the builder of columns takes the harness's keys unchecked)
    mod, cmod = Modulus.of(7), Modulus.of(45)
    keys = np.array([1, 2, 4, 3, 5])
    rows = primitive_characters(cmod)[[0, 1, 3, 2, 4]]
    block = np.ones((5, 3), dtype=np.complex128)
    block[3, 0] = block[2, 1] = 0.0  # column 0 zero at key 3, column 1 at key 4
    cases = ((WeightVector, mod, keys, "3 follows 4"),
             (CharWeightVector, cmod, rows, f"{rows[3].tolist()} follows {rows[2].tolist()}"))
    for cls, m, k, message in cases:
        refusal = re.escape(f"weight keys must strictly increase: {message}")
        for s in range(3):
            with pytest.raises(InvalidWeight, match=refusal):
                cls(m, k, block[:, s])


def test_row_index_order_is_lexicographic_order():
    # rows are compared by their index in characters(q); on primitive rows that
    # accepts exactly what lexicographic order does, also where q has no
    # generators (q = 2) or no primitive rows (q = 2 mod 4)
    rng = np.random.default_rng(31)
    for q in range(2, 301):
        mod = Modulus.of(q)
        prim = primitive_characters(mod)
        assert CharWeightVector(mod, prim, np.ones(len(prim))).support_size == len(prim), q
        ones = np.ones((len(prim), 2), dtype=np.complex128)
        assert len(CharWeightVector._from_columns(mod, prim, ones)) == 2, q
        if len(prim) < 2:
            continue
        for _ in range(4):
            picks = rng.integers(len(prim), size=4)
            # random rows, and the distinct ones in enumeration order
            for rows in (prim[picks], prim[np.unique(picks)]):
                lex = [tuple(r) for r in rows.tolist()]
                first = next((i for i in range(1, len(lex)) if lex[i] <= lex[i - 1]), None)
                if first is None:
                    w = CharWeightVector(mod, rows, np.ones(len(rows)))
                    assert w.support_size == len(rows), (q, lex)
                else:
                    message = f"{list(lex[first])} follows {list(lex[first - 1])}"
                    with pytest.raises(InvalidWeight, match=re.escape(message)):
                        CharWeightVector(mod, rows, np.ones(len(rows)))


def _message(build):
    with pytest.raises(InvalidWeight) as info:
        build()
    return str(info.value)


def test_one_vector_refuses_keys_whatever_its_values():
    m21, m8 = Modulus.of(21), Modulus.of(8)
    bad_keys = np.array([1, 35, 3])  # 35 = 14 mod 21, gcd 7
    bad_rows = np.array([[0, 1], [1, 1]])  # (1, 1) has conductor 4
    cases = [(WeightVector, m21, bad_keys, "weight key 35 is not a unit mod 21 (gcd = 7)"),
             (CharWeightVector, m8, bad_rows, "(1, 1) is not a primitive character mod 8")]
    for cls, mod, keys, message in cases:
        block = make_weights(keys, "pm1", (1, 2, 3))
        alone = _message(lambda: cls(mod, keys, block[:, 0]))
        assert message in alone
        # the key check does not look at the values: every column, and all zeros, is refused
        for values in (*block.T, np.zeros(len(keys))):
            assert _message(lambda: cls(mod, keys, values)) == alone


@pytest.mark.parametrize("family", ["kloosterman", "gauss"])
def test_run_experiments_takes_the_support_keys_as_checked(monkeypatch, family):
    cls = WeightVector if family == "kloosterman" else CharWeightVector
    check = cls._checked_keys
    # what the harness skips: the check returns the tables' keys unchanged
    for q in range(2, 301):
        mod = Modulus.of(q)
        n = mod.phi if family == "kloosterman" else primitive_count(mod)
        for M in sorted({0, min(1, n), (n + 1) // 2, n}):
            keys = _support_keys(mod, M, family)
            checked, _ = check(mod, keys, np.ones(M))
            assert checked.dtype == np.int64 and checked.shape == keys.shape, (q, M)
            assert np.array_equal(checked, keys), (q, M)
    calls = []

    def counted(mod, keys, values):
        calls.append(len(keys))
        return check(mod, keys, values)

    monkeypatch.setattr(cls, "_checked_keys", staticmethod(counted))
    q = 1009 if family == "kloosterman" else 101
    outcomes = run_experiments(q, 32, 32, weight_kind="pm1", seeds=(1, 2, 3, 4, 5), family=family)
    assert len(outcomes) == 5
    for seed, records in zip((1, 2, 3, 4, 5), outcomes):
        alone = run_experiment(q, 32, 32, weight_kind="pm1", seed=seed, family=family)
        assert [replace(r, wall_time_seconds=0.0) for r in records] == [
            replace(r, wall_time_seconds=0.0) for r in alone
        ]
    assert calls == []


# ---------------------------------------------------------------------------
# gamma sums
# ---------------------------------------------------------------------------


def _gamma(J, x):
    """gamma_x over J at one residue x != 0 mod q, read from the kernel."""
    q = J.modulus.q
    return complex(bilinear._gamma_at(q, J.L, J.N, bilinear._centered(x, q)))


def test_gamma_examples():
    mod7 = Modulus.of(7)
    g = _gamma(Interval.of(mod7, 0, 3), 1)
    assert abs(g) == pytest.approx(
        abs(math.sin(3 * math.pi / 7) / math.sin(math.pi / 7)), abs=1e-9
    )
    assert abs(g) == pytest.approx(2.2470, abs=5e-4)
    full = _gamma(Interval.of(mod7, 0, 6), 1)
    assert abs(full - (-1)) < 1e-12
    pair = _gamma(Interval.of(Modulus.of(10), 0, 2), 5)
    assert abs(pair) < 1e-12


def test_gamma_matches_direct_sum():
    for q, L, N, x in ((11, 2, 5, 3), (12, 0, 7, 5), (97, 10, 40, 13)):
        J = Interval.of(q, L, N)
        direct = sum(eq_exp(n * x, q) for n in J.values())
        assert abs(_gamma(J, x) - direct) < 1e-10


def _gamma_reference(J, x):
    """The closed form in Python floats: angles reduced in Python ints to
    (-pi, pi], then math/cmath trig (independent of the numpy kernel)."""
    q = J.modulus.q
    r = x % q
    if 2 * r > q:
        r -= q

    def sym2q(v):
        t = v % (2 * q)
        return t - 2 * q if t > q else t

    num_t = sym2q(J.N * r)
    phase_t = sym2q((2 * J.L + J.N + 1) * r)
    ratio = math.sin(math.pi * num_t / q) / math.sin(math.pi * r / q)
    return cmath.exp(complex(0.0, math.pi * phase_t / q)) * ratio


def test_gamma_scalar_matches_vectorized():
    # the kernel read at one residue and read at every unit, as the outer
    # sums read it, agree exactly on every unit, with intervals at both
    # ends and the middle of [1, q-1]; the Python-float closed form agrees
    # within the documented GAMMA_EVAL_ERR * eps * N, also at q ~ 10^12,
    # where int64 products N * x would overflow.  Criterion 07 checks the
    # magnitude bound on the full grid.
    from kgsums.bilinear import GAMMA_EVAL_ERR, _gamma_over_units

    for q in range(3, 501, 11):
        mod = Modulus.of(q)
        xs = unit_residues(mod).tolist()
        for N in sorted({1, 2, 3, q // 3, q // 2, q - 1} - {0}):
            if N > q - 1:
                continue
            for L in sorted({0, (q - 1 - N) // 2, q - 1 - N}):
                J = Interval.of(mod, L, N)
                scalar = np.array([_gamma(J, x) for x in xs])
                assert np.array_equal(_gamma_over_units(J), scalar), f"q={q}, L={L}, N={N}"
                gap = float(np.max(np.abs(scalar - [_gamma_reference(J, x) for x in xs])))
                assert gap <= GAMMA_EVAL_ERR * MACHINE_EPS * N, f"q={q}, L={L}, N={N}"
    for q, L, N, x in (
        (10**12, 5, 10**6, 123456789),
        (10**12 + 39, 0, 10**11, 10**12 - 3),
        (10**12 + 39, 10**12 - 10**11, 10**11 - 1, 5 * 10**11 + 7),
    ):
        J = Interval.of(q, L, N)
        gap = abs(_gamma(J, x) - _gamma_reference(J, x))
        assert gap <= GAMMA_EVAL_ERR * MACHINE_EPS * N, f"q={q}, x={x}"


def test_gamma_kernel_broadcasts_over_lengths_bit_for_bit():
    # every length of one modulus in one call (as criterion 07 evaluates
    # them) gives, row by row, the bytes of the per-interval outer-sum call
    from kgsums.bilinear import _centered, _gamma_at, _gamma_over_units

    for q in [*range(3, 120, 4), 257, 499]:
        r = _centered(unit_residues(q), q)
        for L in sorted({0, q // 3}):
            lengths = np.arange(1, q - L, dtype=np.int64)
            rows = _gamma_at(q, L, lengths[:, None], r)
            assert rows.shape == (lengths.size, r.size)
            for N, row in zip(lengths.tolist(), rows):
                per_n = _gamma_over_units(Interval.of(q, L, N))
                assert row.tobytes() == per_n.tobytes(), f"q={q}, L={L}, N={N}"


def test_centered_matches_remainder_form():
    rng = np.random.default_rng(11)
    for m in (2, 3, 7, 64, 2000006, 2**46 + 1):
        v = rng.integers(-(2**62), 2**62, 500)
        h = (m - 1) // 2
        assert np.array_equal(bilinear._centered(v, m), (v + h) % m - h), m
        assert bilinear._centered(int(v[0]), m) == (int(v[0]) + h) % m - h


@pytest.mark.parametrize("q", [2, 1000003, 2**20, 10**6, 720720])
def test_gamma_over_units_at_the_benchmark_moduli(q):
    # the half-unit evaluation and its conjugate mirror give the bytes of
    # the kernel at every unit's centered representative; q = 2 has one
    # unit, and its one interval takes the direct call
    from kgsums.bilinear import _centered, _gamma_at, _gamma_over_units

    r = _centered(unit_residues(q), q)
    for L, N in sorted({(0, min(1000, q - 1)), (q // 3, min(1000, q - 1 - q // 3))}):
        direct = _gamma_at(q, L, N, r)
        assert _gamma_over_units(Interval.of(q, L, N)).tobytes() == direct.tobytes(), (q, L)


# ---------------------------------------------------------------------------
# dyadic scales
# ---------------------------------------------------------------------------


def test_dyadic_examples():
    # q/N = 33.3, e q/N = 90.6, e^2 q/N = 246.3: the first |r| past each bound
    # moves up a scale, and |r| = q/2 sits at the top scale ceil(ln(N/2)) = 3
    r = np.array([33, 34, 90, 91, 246, 247, 500])
    expected = [0, 1, 1, 2, 2, 3, 3]
    for x in (r, -r, 1000 - r):
        assert dyadic_scale(1000, 30, x).tolist() == expected
    # at N = 2 every |r| <= q/2 = q/N
    assert not np.any(dyadic_scale(100, 2, np.arange(100)))


def test_dyadic_partition_covers_units_exactly_once():
    # each unit's representative r lies in the interval of its scale i,
    # e^(i-1) q/N < |r| <= e^i q/N (0 < |r| <= q/N at i = 0), and no scale
    # passes ceil(ln(N/2))
    for q in (2, 7, 24, 97, 100, 101, 256, 499):
        units = unit_residues(q)
        r = np.abs(bilinear._centered(units, q))
        N = np.arange(1, q)[:, None]
        i = dyadic_scale(q, N, units)
        lo = np.where(i == 0, 0.0, np.exp(i - 1) * q / N)
        assert np.all((lo < r) & (r <= np.exp(i) * q / N)), q
        assert np.all(i <= np.maximum(0, np.ceil(np.log(N / 2)))), q


def test_dyadic_bad_n():
    with pytest.raises(ValueError):
        dyadic_scale(10, 0, 1)
    with pytest.raises(ValueError):
        dyadic_scale(10, 10, 1)
    with pytest.raises(ValueError):
        dyadic_scale(10, np.array([[1], [10]]), np.arange(1, 10))


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------


def test_bilinear_single_weight_single_n():
    mod = Modulus.of(3)
    w = WeightVector(mod, [1], [1.0])
    J = Interval.of(mod, 0, 1)
    for method in ("naive", "transformed", "fast"):
        res = bilinear_kloosterman(w, J, method)
        assert abs(res.value - kloosterman(mod, 1, 1).value) <= res.error_bound + 1e-12


def test_bilinear_closed_form_full_support():
    for p in (3, 5, 7, 13):
        mod = Modulus.of(p)
        units = unit_residues(mod)
        w = WeightVector(mod, units, np.ones(units.size))
        J = Interval.of(mod, 0, p - 1)
        for method in ("naive", "transformed", "fast"):
            res = bilinear_kloosterman(w, J, method)
            assert abs(res.value - (p - 1)) < 1e-8


def test_bilinear_zero_weights():
    mod = Modulus.of(11)
    w = WeightVector(mod)
    J = Interval.of(mod, 0, 5)
    for method in ("naive", "transformed", "fast"):
        res = bilinear_kloosterman(w, J, method)
        assert res.value == 0
        assert res.error_bound == 0.0


def test_bilinear_modulus_mismatch():
    w = WeightVector(Modulus.of(7), [1], [1.0])
    J = Interval.of(Modulus.of(11), 0, 3)
    with pytest.raises(ModulusMismatch):
        bilinear_kloosterman(w, J)


def test_bilinear_naive_cap():
    mod = Modulus.of(9973)
    w = WeightVector(mod, unit_residues(mod)[:200], np.ones(200))
    J = Interval.of(mod, 0, 2000)
    with pytest.raises(ResourceLimit):
        bilinear_kloosterman(w, J, "naive")


def test_path_agreement_random_instances():
    res = check_paths(2024, 40)
    assert res.passed, res.detail


def _kloosterman_kernel_cases():
    # the transformed route at k = 1, 2; reference sum_m a_m e_q(m x^-k) in support order
    for q in (101, 105):
        mod = Modulus.of(q)
        units = unit_residues(mod)
        keys = units[:29]
        A = WeightVector(mod, keys, make_weights(keys, "unit", 5))
        J = Interval.of(mod, 3, 40)
        roots = roots_of_unity(q)
        for k in (1, 2):
            powers = np.array([pow(x, -k, q) for x in units.tolist()])
            reference = np.zeros(units.size, dtype=np.complex128)
            for m, a in zip(keys.tolist(), A.coefficients()):
                reference += a * roots[m * powers % q]
            yield q, functools.partial(bilinear_kloosterman, A, J, "transformed", k), reference


def _gauss_kernel_cases():
    # the transformed route; reference the sequential char_values accumulation
    for q in (125, 64, 105):
        mod = Modulus.of(q)
        prim = primitive_characters(mod)
        W = CharWeightVector(mod, prim, make_weights(prim, "unit", 8))
        reference = np.zeros(q, dtype=np.complex128)
        for row, w in zip(W.support().tolist(), W.coefficients().tolist()):
            reference += w * char_values(mod, row)
        J = Interval.of(mod, 3, 20)
        yield q, functools.partial(bilinear_gauss, W, J), reference[unit_residues(mod)]


@pytest.mark.parametrize(
    "cases", [_kloosterman_kernel_cases, _gauss_kernel_cases], ids=["kloosterman", "gauss"]
)
def test_character_sums_block_bit_equal(monkeypatch, cases):
    # blocks of 1, 3 and 13 weights (29 Kloosterman weights; 80, 16 and 15
    # primitive characters) leave partial last blocks; every block size and
    # the default single block give the sequential reference bit for bit
    kernel = bilinear._character_sums
    for q, route, reference in cases():
        for rows in (None, 1, 3, 13):
            values = []

            def spy(*args):
                values.append(kernel(*args))
                return values[-1]

            with monkeypatch.context() as patch:
                patch.setattr(bilinear, "_character_sums", spy)
                if rows is not None:
                    patch.setattr(bilinear, "_BLOCK_ENTRIES", rows * q + q - 1)
                route()
            assert len(values) == 1, (q, rows)
            assert np.array_equal(values[0].view(np.uint64), reference.view(np.uint64)), (q, rows)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bilinear_linearity(data):
    q = data.draw(st.sampled_from([7, 11, 13, 29]))
    mod = Modulus.of(q)
    units = [int(u) for u in unit_residues(mod)]
    n_keys = data.draw(st.integers(1, len(units)))
    keys = units[:n_keys]
    re = st.floats(-3, 3, allow_nan=False)
    a_vals = np.array([complex(data.draw(re), data.draw(re)) for _ in keys])
    b_vals = np.array([complex(data.draw(re), data.draw(re)) for _ in keys])
    c = complex(data.draw(re), data.draw(re))
    N = data.draw(st.integers(1, q - 1))
    J = Interval.of(mod, 0, N)
    wa = WeightVector(mod, keys, a_vals)
    wb = WeightVector(mod, keys, b_vals)
    w_sum = WeightVector(mod, keys, a_vals + b_vals)
    ra, rb = bilinear_kloosterman(wa, J), bilinear_kloosterman(wb, J)
    rs = bilinear_kloosterman(w_sum, J)
    tol = ra.error_bound + rb.error_bound + rs.error_bound + 1e-9
    assert abs(rs.value - (ra.value + rb.value)) <= tol
    rc = bilinear_kloosterman(WeightVector(mod, keys, c * a_vals), J)
    assert abs(rc.value - c * ra.value) <= (1 + abs(c)) * (ra.error_bound + 1e-9) + rc.error_bound


def test_trivial_bound_every_instance():
    from kgsums import max_kloosterman_abs

    rng = SplitMix64(5)
    for _ in range(25):
        q = 3 + rng.next_u64() % 500
        mod = Modulus.of(q)
        units = unit_residues(mod)
        M = 1 + rng.next_u64() % min(16, units.size)
        N = 1 + rng.next_u64() % (q - 2) if q > 2 else 1
        keys = sorted({int(units[rng.next_u64() % units.size]) for _ in range(M)})
        w = WeightVector(mod, keys, make_weights(keys, "pm1", 9))
        J = Interval.of(mod, 0, N)
        res = bilinear_kloosterman(w, J, "fast")
        cap = w.norm1 * N * max_kloosterman_abs(mod)
        assert abs(res.value) <= cap + res.error_bound


# ---------------------------------------------------------------------------
# Gauss-sum bilinear forms
# ---------------------------------------------------------------------------


def test_bilinear_gauss_examples():
    mod = Modulus.of(5)
    quadratic = character(5, (2,))
    w = CharWeightVector(mod, [quadratic], [1.0])
    full = Interval.of(mod, 0, 4)
    for method in ("naive", "transformed"):
        res = bilinear_gauss(w, full, method)
        assert abs(res.value) < 1e-9  # character sum over all units vanishes
    single = Interval.of(mod, 0, 1)
    res = bilinear_gauss(w, single, "transformed")
    assert abs(res.value - math.sqrt(5)) < 1e-9
    empty = CharWeightVector(mod)
    assert bilinear_gauss(empty, full).value == 0


def test_bilinear_gauss_path_agreement():
    for q in (5, 7, 9, 13, 16):
        mod = Modulus.of(q)
        keys = primitive_characters(mod)[:3]
        w = CharWeightVector(mod, keys, make_weights(keys, "unit", 31))
        J = Interval.of(mod, 1, min(4, q - 2))
        a = bilinear_gauss(w, J, "naive")
        b = bilinear_gauss(w, J, "transformed")
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


# ---------------------------------------------------------------------------
# generalized kernel
# ---------------------------------------------------------------------------


def test_generalized_reduces_to_kloosterman():
    for q in (5, 12, 29):
        mod = Modulus.of(q)
        units = unit_residues(mod)
        keys = units[:4]
        w = WeightVector(mod, keys, make_weights(keys, "unit", 3))
        J = Interval.of(mod, 0, min(6, q - 2))
        a = bilinear_kloosterman(w, J, "transformed", k=1)
        b = bilinear_kloosterman(w, J, "fast")
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_generalized_k2_direct_oracle():
    mod = Modulus.of(5)
    w = WeightVector(mod, [1], [1.0])
    J = Interval.of(mod, 0, 1)
    res = bilinear_kloosterman(w, J, "transformed", k=2)
    expected = sum(
        eq_exp(mod_inv(x, mod) ** 2 + x, mod) for x in (1, 2, 3, 4)
    )
    assert abs(res.value - expected) < 1e-10


def test_generalized_routes_match_direct_sum():
    # both routes against sum_m sum_n alpha_m sum_x e_q(m * (x^-1)^k + n * x)
    for q in (13, 21):
        mod = Modulus.of(q)
        A = WeightVector(mod, [1, 2, 5], [1.0, -0.5 + 1j, 2j])
        J = Interval.of(mod, 2, 4)
        units = [int(x) for x in unit_residues(mod)]
        for k in (2, 3):
            expected = sum(
                a * eq_exp(m * pow(mod_inv(x, mod), k, q) + n * x, mod)
                for m, a in zip(A.support().tolist(), A.coefficients().tolist())
                for n in J.values()
                for x in units
            )
            results = [bilinear_kloosterman(A, J, m, k=k) for m in ("transformed", "fast")]
            for res in results:
                assert abs(res.value - expected) < 1e-10
            gap = abs(results[0].value - results[1].value)
            assert gap <= results[0].error_bound + results[1].error_bound


def test_generalized_rejects_bad_k():
    w = WeightVector(Modulus.of(7), [1], [1.0])
    J = Interval.of(Modulus.of(7), 0, 2)
    with pytest.raises(ValueError):
        bilinear_kloosterman(w, J, "transformed", k=0)
    with pytest.raises(ValueError):
        bilinear_kloosterman(w, J, "naive", k=2)
    assert bilinear_kloosterman(WeightVector(Modulus.of(7)), J, "transformed", k=3).value == 0


# ---------------------------------------------------------------------------
# moment identity
# ---------------------------------------------------------------------------


def test_moment_examples():
    lhs, rhs = moment_check(5, [1], {1: 1.0}, 2)
    assert lhs == pytest.approx(5.0)
    assert rhs == pytest.approx(5.0)
    lhs, rhs = moment_check(5, [1, 2], {1: 1.0, 2: 1.0}, 1)
    assert lhs == pytest.approx(10.0)
    assert rhs == pytest.approx(10.0)
    lhs, rhs = moment_check(7, [1, 2, 3], {x: 1.0 for x in (1, 2, 3)}, 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_moment_methods_agree():
    gamma = {1: 1 + 2j, 3: -0.5j, 7: 2.0}
    for q in (8, 11, 20):
        xs = [x for x in gamma if math.gcd(x, q) == 1]
        for r in (1, 2, 3):
            le, re_ = moment_check(q, xs, gamma, r, method="exhaustive")
            lc, rc = moment_check(q, xs, gamma, r, method="convolution")
            assert le == lc
            assert re_ == pytest.approx(rc, rel=1e-9, abs=1e-9)
            assert le == pytest.approx(re_, rel=1e-9, abs=1e-9)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_moment_identity_random_gamma(data):
    q = data.draw(st.integers(3, 60))
    mod = Modulus.of(q)
    units = [int(u) for u in unit_residues(mod)]
    size = data.draw(st.integers(1, min(4, len(units))))
    X = data.draw(st.permutations(units)).copy()[:size]
    re = st.floats(-2, 2, allow_nan=False)
    gamma = {x: complex(data.draw(re), data.draw(re)) for x in X}
    r = data.draw(st.integers(1, 2))
    lhs, rhs = moment_check(mod, X, gamma, r)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_gamma_magnitude_independent_of_offset():
    for q in (13, 60, 301):
        for N in (2, 5, q // 2):
            mags = set()
            for L in range(0, q - N, max(1, q // 9)):
                J = Interval.of(q, L, N)
                mags.add(round(abs(_gamma(J, 3 if math.gcd(3, q) == 1 else 1)), 9))
            assert len(mags) == 1  # |gamma| depends only on N and x


def test_moment_convolution_rhs_matches_exhaustive():
    # the weighted rotation-sum rhs against tuple enumeration
    rng = SplitMix64(17)
    for q, size, r in ((31, 8, 3), (64, 7, 3), (97, 20, 2), (101, 30, 2)):
        units = [int(u) for u in unit_residues(q)]
        X = units[:: len(units) // size][:size]
        gamma = {x: complex(rng.uniform01() - 0.5, rng.uniform01() - 0.5) for x in X}
        lhs, rhs = moment_check(q, X, gamma, r, method="exhaustive")
        lc, rc = moment_check(q, X, gamma, r, method="convolution")
        assert lc == lhs
        assert rc == pytest.approx(rhs, rel=1e-9)


def test_moment_convolution_cap_precedes_tables(monkeypatch):
    def no_tables(q):
        raise AssertionError("a length-q table was built before the cost cap")

    monkeypatch.setattr(counting, "FOLD_COST_CAP", 100)
    monkeypatch.setattr(counting, "inverse_table", no_tables)
    # (r - 1) * |X| * q = 1 * 2 * 101
    with pytest.raises(ResourceLimit, match="202"):
        moment_check(101, [1, 2], {1: 1.0, 2: 1.0}, 2, method="convolution")


def test_moment_rejects_non_units():
    with pytest.raises(DomainRestriction):
        moment_check(6, [2], {2: 1.0}, 1)


def test_moment_exhaustive_cap():
    mod = Modulus.of(9973)
    xs = [int(u) for u in unit_residues(mod)[:120]]
    gamma = {x: 1.0 for x in xs}
    with pytest.raises(ResourceLimit):
        moment_check(mod, xs, gamma, 4, method="exhaustive")


# ---------------------------------------------------------------------------
# Batched evaluation: several weight vectors on one modulus in one pass
# ---------------------------------------------------------------------------


def _numpy_that_recorded_the_digests():
    digests = json.loads((Path(__file__).parent / "csv_digests.json").read_text())
    if np.__version__ != digests["numpy"]:
        pytest.skip(f"byte identity recorded with numpy {digests['numpy']}, this is {np.__version__}")


@pytest.mark.parametrize("q", [101, 1009, 1999, 1000, 1024, 720])
def test_batched_dft_rows_equal_the_1d_transform(q):
    # the fast route and kloosterman_row transform in place and scale by q
    # after; every row must be byte for byte the 1-D q * ifft(row)
    _numpy_that_recorded_the_digests()
    rng = np.random.default_rng(q)
    for S in (1, 2, 5):
        rows = np.zeros((S, q), dtype=np.complex128)
        for row in rows:
            support = rng.choice(q, size=rng.integers(1, q), replace=False)
            row[support] = np.exp(2j * np.pi * rng.random(support.size)) * rng.choice([1.0, 3.5], support.size)
        dense = rows.copy()
        np.fft.ifft(dense, axis=-1, out=dense)
        dense *= q
        for got, row in zip(dense, rows):
            assert got.tobytes() == (q * np.fft.ifft(row)).tobytes(), (q, S)


@pytest.mark.parametrize("q", [101, 1000, 720])
def test_in_place_transforms_equal_the_out_of_place_formula(q):
    _numpy_that_recorded_the_digests()
    mod = Modulus.of(q)
    units = unit_residues(mod)
    a = np.zeros(q, dtype=np.complex128)
    a[units] = np.exp(2j * np.pi * (3 * bilinear.inverse_table(mod)[units] % q) / q)
    assert kloosterman_row(mod, 3).tobytes() == (q * np.fft.ifft(a)).tobytes()
    vectors = [
        WeightVector(mod, units[s : s + m], make_weights(units[s : s + m], kind, s))
        for s, m, kind in ((0, units.size, "pm1"), (2, 5, "unit"), (1, 1, "const"))
    ]
    inv = bilinear.inverse_table(mod)[units]
    for got, A in zip(bilinear._fast_values(vectors, 1), vectors):
        dense = np.zeros(q, dtype=np.complex128)
        dense[A.support()] = A.coefficients()
        assert got.tobytes() == (q * np.fft.ifft(dense))[inv].tobytes()


def _batch_vectors(family, mod):
    """Weight vectors of mixed kinds and supports, empty ones included."""
    keys = unit_residues(mod) if family == "kloosterman" else primitive_characters(mod)
    cls = WeightVector if family == "kloosterman" else CharWeightVector
    n = len(keys)
    plan = [(0, n, "pm1"), (n // 3, n // 2, "unit"), (0, 0, "const"), (0, n, None),
            (n - 1, 1, "unit"), (1, min(7, n - 1), "const"), (n // 4, n // 4 + 1, "pm1")]
    # kind None: the full support at all-zero values
    return [cls(mod, keys[s : s + m],
                np.zeros(m) if kind is None else make_weights(keys[s : s + m], kind, 11 + s))
            for s, m, kind in plan]


def _result_bits(res):
    return struct.pack("<3d", res.value.real, res.value.imag, res.error_bound), res.terms


@pytest.mark.parametrize("family", ["kloosterman", "gauss"])
@pytest.mark.parametrize("q", [13, 45, 64, 101, 105, 1009, 1031, 2003])
def test_batch_core_equals_one_vector_at_a_time(monkeypatch, family, q):
    # q = 1031 and 2003 have phi(q) >= 1024, so their outer sums are exact row sums;
    # the batch runs at the default outer-sum tiles and at tiles of two rows
    mod = Modulus.of(q)
    J = Interval.of(mod, 3, min(9, q - 5))
    vectors = _batch_vectors(family, mod)
    single = bilinear_kloosterman if family == "kloosterman" else bilinear_gauss
    methods = [("transformed", 1)]
    if family == "kloosterman":
        methods += [("fast", 1), ("transformed", 2), ("fast", 3)]
    if q <= 105:
        methods.append(("naive", 1))
    for method, k in methods:
        with monkeypatch.context() as patch:
            batch = bilinear._bilinear_sums(family, vectors, J, method, k)
            patch.setattr(bilinear, "_BLOCK_ENTRIES", 3 * mod.phi - 1)
            tiled = bilinear._bilinear_sums(family, vectors, J, method, k)
        assert [_result_bits(r) for r in tiled] == [_result_bits(r) for r in batch]
        assert len(batch) == len(vectors)
        for got, w in zip(batch, vectors):
            alone = single(w, J, method, k) if family == "kloosterman" else single(w, J, method)
            assert _result_bits(got) == _result_bits(alone), (method, k, w.support_size)
            if not w.support_size:
                assert _result_bits(got) == _result_bits(SumResult(0j, 0.0, 0))


def test_batch_core_checks_every_vector():
    mod = Modulus.of(13)
    J = Interval.of(mod, 0, 5)
    good = WeightVector(mod, [1, 2], [1.0, 1.0])
    other = WeightVector(11, [1], [1.0])
    with pytest.raises(ModulusMismatch):
        bilinear._bilinear_sums("kloosterman", [good, other], J, "fast")
    with pytest.raises(DomainRestriction):
        bilinear._bilinear_sums("kloosterman", [good, good], J, "naive", 2)
    with pytest.raises(ValueError, match="method must be one of"):
        bilinear._bilinear_sums("gauss", [], J, "fast")
    assert bilinear._bilinear_sums("kloosterman", [], J, "fast") == []
