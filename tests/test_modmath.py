import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsums import (
    Modulus,
    NotAUnit,
    ResourceLimit,
    eq_exp,
    factorize,
    inverse_table,
    mod_inv,
    unit_group,
    unit_mask,
    unit_residues,
)
from kgsums.modmath import (
    TABLE_Q_CAP,
    TRIAL_DIVISION_BOUND,
    _component_logs,
    _powers,
    floor_mod,
    pow_mod,
)
from kgsums.verify import check_inverses

moduli = st.integers(min_value=2, max_value=600)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1024) == [(2, 10)]


def test_factorize_trial_division_bound():
    # every n <= TRIAL_DIVISION_BOUND**2 = 2**44 factors exactly
    assert TRIAL_DIVISION_BOUND**2 == 2**44
    assert factorize(274877906899) == [(274877906899, 1)]  # a 38-bit prime
    assert factorize(17592186044399) == [(17592186044399, 1)]  # the largest prime below 2**44
    assert factorize(2**44) == [(2, 44)]
    # past it, a cofactor with no divisor up to the bound is refused, not searched
    with pytest.raises(ResourceLimit, match=f"past {TRIAL_DIVISION_BOUND}"):
        factorize(3 * (2**61 - 1))


def test_factorize_rejects_small():
    for bad in (1, 0, -5):
        with pytest.raises(ValueError):
            factorize(bad)


@given(n=st.integers(min_value=2, max_value=20000))
@settings(max_examples=120)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    assert fac == sorted(fac)
    assert all(e >= 1 for _, e in fac)


@given(q=moduli)
@settings(max_examples=60)
def test_modulus_invariants(q):
    mod = Modulus.of(q)
    assert math.prod(p**e for p, e in mod.factors) == q
    phi = q
    for p, _ in mod.factors:
        phi = phi // p * (p - 1)
    assert mod.phi == phi
    assert mod.phi == len(unit_residues(mod))


def test_mod_inv_examples():
    assert mod_inv(2, 5) == 3
    assert mod_inv(1, 7) == 1
    with pytest.raises(NotAUnit) as err:
        mod_inv(2, 4)
    assert err.value.gcd == 2


def test_mod_inv_involution():
    # every unit of every modulus in the range the other properties draw from
    res = check_inverses(range(2, 601))
    assert res.passed, res.detail


def test_eq_exp_examples():
    assert eq_exp(0, 7) == 1 + 0j
    assert abs(eq_exp(3, 6) - (-1)) < 1e-15
    assert abs(eq_exp(1, 4) - 1j) < 1e-15


@given(q=moduli, z=st.integers(-10**9, 10**9))
@settings(max_examples=150)
def test_eq_exp_periodic_and_unimodular(q, z):
    v = eq_exp(z, q)
    assert eq_exp(z + q, q) == v  # identical after exact reduction
    assert abs(abs(v) - 1.0) <= 2 * np.finfo(float).eps


def test_eq_exp_large_m_matches_reduced():
    for q in (7, 12, 100):
        for m in (q + 3, 2 * q - 1, -q - 3):
            for t in range(q):
                assert eq_exp(m * t, q) == eq_exp((m % q) * t % q, q)


def test_unit_group_examples():
    g5 = unit_group(5)
    assert len(g5.components) == 1
    (comp,) = g5.components
    assert comp.orders == (4,)
    g = comp.generators[0]
    assert sorted(pow(g, k, 5) for k in range(4)) == [1, 2, 3, 4]

    g8 = unit_group(8)
    (comp8,) = g8.components
    assert comp8.generators == (7, 3)
    assert comp8.orders == (2, 2)

    g2 = unit_group(2)
    assert g2.components[0].generators == ()


def test_unit_exponents_bijection_small_grid():
    for q in range(2, 1001):
        mod = Modulus.of(q)
        units = unit_residues(q)
        rows = mod.logs[units].tolist()
        assert len(rows) == mod.phi
        assert len(set(map(tuple, rows))) == len(rows)  # distinct exponent rows
        comps = unit_group(q).components
        for x, exps in zip(units.tolist(), rows):
            # x == prod_j g_j^e_j modulo every prime-power component
            flat = iter(exps)
            for comp in comps:
                pe = comp.prime_power
                local = 1
                for g, o in zip(comp.generators, comp.orders):
                    e = next(flat)
                    assert 0 <= e < o
                    local = local * pow(g, e, pe) % pe
                assert local == x % pe
            assert next(flat, None) is None


def test_inverse_table_and_mask():
    for q in (2, 9, 16, 30, 97, 256):
        inv = inverse_table(q)
        mask = unit_mask(q)
        for x in range(q):
            if mask[x]:
                assert x * int(inv[x]) % q == 1
            else:
                assert inv[x] == 0
    # each branch of the power-table construction: an odd prime, 2^e, a
    # trivial mod-2 cofactor, 4 * odd, 8 * several odd primes, 2^e * 3^k
    for q in (1000003, 2**20, 10**6, 720720, 3**12,
              2 * 3**11, 4 * 5**6, 8 * 3**2 * 5 * 7 * 11, 2**13 * 3**4):
        inv = inverse_table(q)
        mask = unit_mask(q)
        units = unit_residues(q)
        idx = np.arange(q, dtype=np.int64)
        assert np.array_equal(mask, np.gcd(idx, q) == 1)
        assert np.array_equal(units, idx[mask])
        assert np.all(units * inv[units] % q == 1)
        assert not np.any(inv[~mask])
        # the square-and-multiply construction, x^(lambda(q) - 1), as the oracle
        oracle = np.zeros(q, dtype=np.int64)
        oracle[units] = pow_mod(units, Modulus.of(q).carmichael - 1, q)
        assert np.array_equal(inv, oracle)


def _gathered_logs(mod):
    """The discrete-log table by gathers over [0, q): local[x mod p^e] for each component."""
    x = np.arange(mod.q, dtype=np.int64)
    logs = np.empty((mod.q, len(mod.group.orders)), dtype=np.int64)
    col = 0
    for comp in mod.group.components:
        if not comp.generators:
            continue
        pe = comp.prime_power
        res = np.ones(1, dtype=np.int64)
        for g, o in zip(comp.generators, comp.orders):
            res = (res[:, None] * _powers(g, o, pe)[None, :] % pe).reshape(-1)
        n_g = len(comp.orders)
        local = np.zeros((pe, n_g), dtype=np.int64)
        local[res] = np.indices(comp.orders).reshape(n_g, -1).T
        logs[:, col : col + n_g] = local[x % pe]
        col += n_g
    return logs


def test_logs_match_the_gather_oracle():
    # the reshaped-view table against the gathers it replaced; no caller
    # holds an instance after its turn, so the grid's tables are freed as it goes
    for q in [*range(2, 3001), 720720, 10**6, 2**13 * 3**4, 2 * 3**11]:
        mod = Modulus.of(q)
        assert np.array_equal(mod.logs, _gathered_logs(mod)), f"q={q}"
        assert not mod.logs.flags.writeable


def test_cached_component_logs_equal_cold_tables():
    # a composite reads its prime powers' local log tables from a cache that
    # earlier composites filled; every table built warm equals the one a fresh
    # interpreter builds with that cache emptied before each q.  The builder
    # is called directly, so no table comes from a live instance's property
    cold = json.loads(_run_python(
        "import hashlib, json\n"
        "from kgsums.modmath import Modulus, _component_logs\n"
        "build = vars(Modulus)['logs'].func\n"
        "out = {}\n"
        "for q in range(2, 401):\n"
        "    _component_logs.cache_clear()\n"
        "    t = build(Modulus.of(q))\n"
        "    out[q] = [list(t.shape), hashlib.sha256(t.tobytes()).hexdigest()]\n"
        "print(json.dumps(out))\n"
    ))
    build = vars(Modulus)["logs"].func
    # a prime power keeps its own table out of the cache; a composite caches
    # one table per component that has generators (none for units mod 2)
    _component_logs.cache_clear()
    for q in (397, 343, 256, 2):
        build(Modulus.of(q))
    assert _component_logs.cache_info().currsize == 0
    for q, size in ((360, 3), (2 * 343, 1), (4 * 397, 2)):
        build(Modulus.of(q))
        assert _component_logs.cache_info().currsize == size, q
        _component_logs.cache_clear()
    for q in range(400, 1, -1):  # every composite's prime powers, cached
        build(Modulus.of(q))
    hits = _component_logs.cache_info().hits
    for q in range(2, 401):
        mod = Modulus.of(q)
        logs = build(mod)
        assert not logs.flags.writeable
        assert [list(logs.shape), hashlib.sha256(logs.tobytes()).hexdigest()] == cold[str(q)], q
        # x mod p^e is the product of the component's generator powers at its logs
        units, col = mod.units.tolist(), 0
        for comp in mod.group.components:
            pe, n_g = comp.prime_power, len(comp.orders)
            for x, exps in zip(units, logs[mod.units, col : col + n_g].tolist()):
                back = math.prod(pow(g, e, pe) for g, e in zip(comp.generators, exps)) % pe
                assert back == x % pe, (q, pe, x)
            col += n_g
    assert _component_logs.cache_info().hits > hits


def test_table_length_cap():
    # the cap itself is admitted, one above it is refused
    assert Modulus.of(TABLE_Q_CAP)._table_length() == TABLE_Q_CAP
    with pytest.raises(ResourceLimit, match="capped"):
        Modulus.of(TABLE_Q_CAP + 1).mask


def _run_python(code):
    # a fresh interpreter importing kgsums from this checkout, with empty caches
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sweeps_free_their_moduli():
    # once a sweep returns, no Modulus of its range is left alive; the
    # cofactors kept for later inverse tables all lie below the range
    out = _run_python(
        "import gc, json\n"
        "from kgsums import Modulus, average_sweep\n"
        "for family in ('kloosterman', 'gauss'):\n"
        "    average_sweep(64, 8, 2, 0.1, family=family)\n"
        "gc.collect()\n"
        "print(json.dumps(sorted(o.q for o in gc.get_objects() if isinstance(o, Modulus))))\n"
    )
    alive = json.loads(out)
    assert alive and not [q for q in alive if 64 <= q <= 128], alive


def test_held_modulus_is_shared_and_a_rebuilt_one_is_equal():
    tables = ("mask", "units", "inverse", "logs")
    for q in (55440, 1009, 2**10, 2 * 3**5):
        mod = Modulus.of(q)
        assert Modulus.of(q) is mod
        before = {name: getattr(mod, name).copy() for name in tables}
        assert Modulus.of(q).inverse is mod.inverse  # the holder's table, not a new one
        ref = weakref.ref(mod)
        del mod
        gc.collect()
        assert ref() is None, f"q={q} outlived its last holder"
        again = Modulus.of(q)
        for name, old in before.items():
            new = getattr(again, name)
            assert not new.flags.writeable, (q, name)
            assert (new.dtype, new.shape) == (old.dtype, old.shape), (q, name)
            assert new.tobytes() == old.tobytes(), (q, name)


def _peaks_mb(*calls):
    """VmHWM in MB of one child after each of ``calls``, Python source run in turn.

    VmHWM is the peak RSS of the child's own address space: its ru_maxrss
    starts at the RSS of the process that spawned it, here the whole test
    session, which can hide the growth.
    """
    out = _run_python(
        "from kgsums import average_sweep\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
        + "".join(f"{call}\npeak()\n" for call in calls)
    )
    return [int(v) / 1024 for v in out.split()]  # kB to MB


def test_sweep_memory_stays_flat():
    # a sweep four times longer, after a short one, leaves the peak where it was
    short, long = _peaks_mb("average_sweep(256, 16, 2, 0.1)", "average_sweep(1024, 16, 2, 0.1)")
    assert long - short < 8.0, f"peak RSS {short:.1f} -> {long:.1f} MB"


def test_gauss_sweep_memory_stays_flat():
    # the character path's twin: the local log tables its composites keep
    # cached do not grow the peak of a sweep four times longer
    short, long = _peaks_mb(
        'average_sweep(64, 8, 2, 0.1, family="gauss")',
        'average_sweep(256, 8, 2, 0.1, family="gauss")',
    )
    assert long - short < 8.0, f"peak RSS {short:.1f} -> {long:.1f} MB"


@given(
    v=st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=1, max_size=64),
    m=st.integers(1, 2**46),
)
@settings(max_examples=200)
def test_floor_mod_matches_remainder(v, m):
    arr = np.array(v, dtype=np.int64)
    out = floor_mod(arr, m)
    assert out.dtype == np.int64
    assert np.array_equal(out, arr % m)
    assert out.tolist() == [x % m for x in v]


def test_floor_mod_out_and_python_ints():
    rng = np.random.default_rng(5)
    v = rng.integers(-(2**62), 2**62, 1000)
    expected = v % 1000003
    # out=v aliases the input: the remainder overwrites it in place
    assert floor_mod(v, 1000003, out=v) is v
    assert v.dtype == np.int64 and np.array_equal(v, expected)
    # int64 extremes, where the product of quotient and modulus wraps
    ends = np.array([-(2**63), -(2**63) + 1, 2**63 - 1, -1, 0], dtype=np.int64)
    for m in (1, 2, 3, 1000003, 2**46, 2**62 + 1):
        assert np.array_equal(floor_mod(ends, m), ends % m), m
    # a Python int goes through %, also past int64
    for x in (-7, 0, 10**30 + 1, -(10**30)):
        r = floor_mod(x, 97)
        assert type(r) is int and r == x % 97
