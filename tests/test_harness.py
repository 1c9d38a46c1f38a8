import dataclasses
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsums import (
    MACHINE_EPS,
    BoundSpec,
    ConfigError,
    Modulus,
    SumResult,
    average_sweep,
    bound_value,
    exceptional_budget,
    kloosterman,
    kloosterman_row,
    max_kloosterman_abs,
    parse_csv,
    improvement_region,
    primitive_characters,
    region_slacks,
    run_experiment,
    run_experiments,
)
from kgsums import experiments
from kgsums.bilinear import WEIGHT_KINDS, make_weights
from kgsums.cli import RunPlan, default_plan, load_config, save_config
from kgsums.csvio import CSV_HEADER
from kgsums.errors import (
    DomainRestriction,
    InvalidWeight,
    KgsumsError,
    ModulusMismatch,
    NotAUnit,
    ResourceLimit,
    VerificationError,
)
from kgsums.experiments import max_kloosterman_floor
from kgsums.prng import SplitMix64, splitmix64_block
from kgsums import verify
from kgsums.verify import (
    check_csv_roundtrip,
    check_gamma_dyadic,
    check_gauss_modulus,
    check_identity,
    check_moment,
    check_paths,
    check_region,
    check_row_consistency,
    check_weil,
)

# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_thm21_arithmetic():
    v = bound_value(BoundSpec("thm21"), 10**4, 100, 100, 100.0, 10.0, 1.0)
    expected = math.sqrt(1000.0) * (100**0.125 * 10**4 + 10.0 * 10**3)
    assert v == pytest.approx(expected, rel=1e-12)
    assert v == pytest.approx(8.786e5, rel=1e-3)


def test_trivial_uses_supplied_max():
    v = bound_value(BoundSpec("trivial"), 3, 1, 1, 1.0, 1.0, 1.0, max_term=2.0)
    assert v == 2.0
    v_default = bound_value(BoundSpec("trivial"), 9, 1, 2, 3.0, 1.0, 1.0)
    assert v_default == pytest.approx(3.0 * 2 * 3.0)  # ||A||_1 * N * sqrt(q)


def test_shpzha_example():
    v = bound_value(BoundSpec("shpzha"), 10**4, 100, 100, 0.0, 10.0, 0.0)
    assert v == pytest.approx(1e6)


def test_parametric_specs_validated():
    BoundSpec("thm22", r=2, epsilon=0.1)
    with pytest.raises(ValueError):
        BoundSpec("thm22")
    with pytest.raises(ValueError):
        BoundSpec("thm22", r=1, epsilon=0.1)
    with pytest.raises(ValueError):
        BoundSpec("thm22", r=2, epsilon=0.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite epsilon"):
            BoundSpec("thm24", r=2, epsilon=eps)
    with pytest.raises(ValueError):
        BoundSpec("thm21", r=2, epsilon=0.1)
    with pytest.raises(ValueError):
        BoundSpec("nope")


@given(data=st.data())
@settings(max_examples=80)
def test_bound_monotone_in_norms(data):
    name = data.draw(st.sampled_from(["trivial", "fkm", "bfkmm", "shpzha", "combined",
                                      "thm21", "simple21", "thm23"]))
    spec = BoundSpec(name)
    q = data.draw(st.integers(2, 10**5))
    M = data.draw(st.integers(1, 1000))
    N = data.draw(st.integers(1, 1000))
    base = [data.draw(st.floats(0.01, 100)) for _ in range(3)]
    bumped = list(base)
    i = data.draw(st.integers(0, 2))
    bumped[i] += data.draw(st.floats(0.01, 50))
    lo = bound_value(spec, q, M, N, *base)
    hi = bound_value(spec, q, M, N, *bumped)
    assert hi >= lo - 1e-12 * max(1.0, abs(lo))


def test_thm22_formula():
    spec = BoundSpec("thm22", r=2, epsilon=0.1)
    v = bound_value(spec, 100, 10, 5, 4.0, 2.0, 1.0)
    expected = 4.0**0.5 * 2.0**0.5 * (100 + math.sqrt(5) * 100**0.75) * 100**0.1
    assert v == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# improvement region
# ---------------------------------------------------------------------------


def test_region_center_and_outside():
    # mu <= 1 is a side of the polygon: on it thm21's exponent ties shpzha's
    points = [((0.5, 0.5), "interior"), ((0.25, 0.5), "boundary"), ((0.1, 0.1), "outside"),
              ((1.0, 0.8), "boundary"), ((1.2, 0.9), "outside")]
    res = check_region(points)
    assert res.passed, res.detail


def test_region_rejects_non_finite_exponents():
    # a NaN slack compares false both ways, so it would read as "boundary"
    for mu, nu in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf)):
        with pytest.raises(ValueError, match="exponents must be finite"):
            improvement_region(mu, nu)


def test_region_constructed_outside_points():
    rng = SplitMix64(123)
    points = []
    while len(points) < 200:
        mu, nu = rng.uniform01(), rng.uniform01()
        if min(region_slacks(mu, nu)) < -1e-6:
            points.append(((mu, nu), "outside"))
    res = check_region(points)
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_run_experiment_q3_example():
    recs = run_experiment(3, M=1, N=1, weight_kind="const", seed=0,
                          methods=("naive", "transformed", "fast"))
    by_name = {r.bound_name: r for r in recs}
    assert by_name["trivial"].abs_sum == pytest.approx(1.0, abs=1e-10)
    assert max_kloosterman_abs(3) == pytest.approx(2.0, abs=1e-10)
    assert by_name["trivial"].ratio == pytest.approx(0.5, abs=1e-9)
    names = [r.bound_name for r in recs]
    assert names == sorted(names)


def test_run_experiment_closed_form():
    recs = run_experiment(5, M=4, N=4, weight_kind="const", seed=0)
    assert recs[0].abs_sum == pytest.approx(4.0, abs=1e-9)


def test_run_experiment_zero_weights():
    recs = run_experiment(11, M=0, N=3, weight_kind="const", seed=0)
    for r in recs:
        assert r.abs_sum == 0.0
        assert r.ratio == 0.0


def test_run_experiment_gauss_family():
    recs = run_experiment(13, M=3, N=4, weight_kind="unit", seed=5, family="gauss",
                          methods=("naive", "transformed"))
    names = {r.bound_name for r in recs}
    assert names == {"trivial", "thm23"}
    trivial = next(r for r in recs if r.bound_name == "trivial")
    assert trivial.abs_sum <= trivial.bound_value + trivial.error_bound


def _record_bits(records):
    """Every field but wall_time_seconds, floats by their bytes."""
    return [
        tuple(struct.pack("<d", v) if isinstance(v, float) else v
              for v in dataclasses.astuple(dataclasses.replace(r, wall_time_seconds=0.0)))
        for r in records
    ]


@pytest.mark.parametrize("q, M, N, L, kind, methods, family, bounds", [
    (101, 11, 11, 0, "pm1", None, "kloosterman", None),
    (105, 20, 7, 4, "unit", ("fast", "transformed"), "kloosterman",
     [BoundSpec("thm22", r=2, epsilon=0.1)]),
    (64, 0, 9, 2, "pm1", ("transformed", "fast", "naive"), "kloosterman", None),
    (13, 3, 4, 1, "unit", ("naive", "transformed"), "gauss", None),
    (1009, 40, 33, 5, "const", None, "gauss", None),
    # phi(q) >= 1024: exact row sums; thm21 alone: the floor settles the trivial check
    (2003, 45, 45, 3, "unit", ("fast", "transformed"), "kloosterman", [BoundSpec("thm21")]),
])
def test_run_experiments_equal_run_experiment_per_seed(q, M, N, L, kind, methods, family, bounds):
    seeds = (1, 2, 3, 7, 1)
    batch = run_experiments(q, M, N, L, kind, seeds, methods=methods, family=family, bounds=bounds)
    assert len(batch) == len(seeds)
    walls = {r.wall_time_seconds for records in batch for r in records}
    assert len(walls) == 1 and walls.pop() >= 0.0  # the call's time, split evenly
    for seed, records in zip(seeds, batch):
        alone = run_experiment(q, M, N, L=L, weight_kind=kind, seed=seed,
                               methods=methods, family=family, bounds=bounds)
        assert _record_bits(records) == _record_bits(alone), seed
    with pytest.raises(ValueError, match="at least one seed"):
        run_experiments(q, M, N, L, kind, ())


def test_bound_ratio_grid_equals_the_per_seed_loop(monkeypatch):
    monkeypatch.setattr(experiments, "GRID_PRIME_HI", 401)
    got = list(experiments.bound_ratio_grid())
    want = [
        run_experiment(p, M=m, N=m, weight_kind="pm1", seed=seed)
        for p in experiments.primes_in_range(101, 401)
        for m in [min(math.isqrt(p - 1) + 1, p - 2)]
        for seed in experiments.GRID_SEEDS
    ]
    assert len(got) == len(want) == 5 * 54
    assert [_record_bits(r) for r in got] == [_record_bits(r) for r in want]


def test_thm21_grid_settles_every_trivial_check_by_the_floor(monkeypatch):
    # asked for thm21 alone, the grid gives the thm21 records of the full grid
    # and builds no Kloosterman row: the floor settles every trivial-bound check
    monkeypatch.setattr(experiments, "GRID_PRIME_HI", 401)
    full = [[r for r in recs if r.bound_name == "thm21"] for recs in experiments.bound_ratio_grid()]

    def refuse(q, n):
        raise AssertionError(f"the Kloosterman row was built for q = {q}")

    experiments._max_kloosterman_abs.cache_clear()
    monkeypatch.setattr(experiments, "kloosterman_row", refuse)
    got = list(experiments.bound_ratio_grid([BoundSpec("thm21")]))
    assert len(got) == 5 * 54
    assert [_record_bits(r) for r in got] == [_record_bits(r) for r in full]
    # the script's records and worst ratio are those of the old filter over the full grid
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "scripts" / "bound_ratio_grid.py"
    spec = importlib.util.spec_from_file_location("_bound_ratio_grid", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    records, worst = script.run_grid()
    want = [r for recs in full for r in recs]
    assert _record_bits(records) == _record_bits(want)
    assert worst == max(r.ratio for r in want)


@pytest.mark.parametrize("family, q, M", [("kloosterman", 101, 40), ("gauss", 105, 12)])
def test_one_draw_gives_each_seed_its_own_values(monkeypatch, family, q, M):
    # every seed's values come from one SplitMix64 block, and each column is
    # bit for bit the values of its seed drawn alone, for every kind and S
    mod = Modulus.of(q)
    keys = experiments._support_keys(mod, M, family)
    for kind in WEIGHT_KINDS:
        for seeds in ((7,), (7, 2**64 - 1), (1, 2, 3, 4, 5)):
            block = make_weights(keys, kind, seeds)
            assert block.shape == (M, len(seeds))
            for seed, column in zip(seeds, block.T):
                alone = make_weights(keys, kind, seed)
                assert np.array_equal(column.view(np.uint64), alone.view(np.uint64))
    for seed, row in zip((3, 2**64 - 1), splitmix64_block((3, 2**64 - 1), 6)):
        rng = SplitMix64(seed)
        assert row.tolist() == [rng.next_u64() for _ in range(6)]
    # run_experiments draws once per call, whatever the number of seeds
    draws = []
    real = experiments.make_weights
    monkeypatch.setattr(experiments, "make_weights", lambda *a: draws.append(a[2]) or real(*a))
    for seeds in ((4,), (1, 2, 3, 4, 5)):
        run_experiments(mod, M, 10, 0, "pm1", seeds, family=family)
    assert draws == [(4,), (1, 2, 3, 4, 5)]


def test_experiment_trivial_bound_hard_assertion():
    rng = SplitMix64(17)
    for _ in range(15):
        q = 3 + rng.next_u64() % 800
        phi = Modulus.of(q).phi
        M = 1 + rng.next_u64() % min(20, phi)
        N = 1 + rng.next_u64() % (q - 2) if q > 2 else 1
        recs = run_experiment(q, M=M, N=N, weight_kind="pm1", seed=rng.next_u64())
        trivial = next(r for r in recs if r.bound_name == "trivial")
        assert trivial.abs_sum <= trivial.bound_value + trivial.error_bound


def _nan_sums(family, vectors, J, method, k=1):
    return [SumResult(complex(math.nan, 0.0), 1.0, 1) for _ in vectors]


def test_nan_sum_fails_the_experiment(monkeypatch, capsys):
    # a NaN from a route must fail the trivial-bound assert (one route) and
    # the cross-check (two routes), not pass both comparisons as False
    from kgsums import cli, experiments

    monkeypatch.setattr(experiments, "_bilinear_sums", _nan_sums)
    for methods in (None, ("fast", "transformed")):
        with pytest.raises(VerificationError):
            run_experiment(101, 10, 10, weight_kind="pm1", seed=1, methods=methods)
    assert cli.main(["bilinear", "--q", "101", "--M", "10", "--N", "10", "--weights", "pm1"]) == 5
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["category"] == "verification_failed"


# ---------------------------------------------------------------------------
# when the trivial-bound assert builds the Kloosterman row
# ---------------------------------------------------------------------------


def _mu_sq(q):
    return int(all(e == 1 for _, e in Modulus.of(q).factors))


def test_row_obeys_plancherel():
    # sum_{m=1}^{q-1} |K_q(m, 1)|^2 = q phi(q) - mu(q)^2.  Each computed entry
    # is within d = (4 log2 q + 32) eps phi(q) of the exact one (the floor's
    # budget), so the sum of squares is within 2 d sqrt((q - 1) S) + (q - 1) d^2
    # of S, plus q eps S for squaring and adding the floats
    for q in range(2, 401):
        phi = Modulus.of(q).phi
        row = kloosterman_row(q, 1)[1:]
        total = math.fsum((row.real * row.real + row.imag * row.imag).tolist())
        exact = q * phi - _mu_sq(q)
        d = (4 * math.log2(q) + 32) * MACHINE_EPS * phi
        budget = 2 * d * math.sqrt((q - 1) * exact) + (q - 1) * d * d + q * MACHINE_EPS * exact
        assert abs(total - exact) <= budget, q


def test_floor_lies_below_the_computed_maximum():
    # [2, 2048] covers the Q = 1024 CLI sweep; at q = 2 the maximum equals the
    # root mean square, so only the margin keeps the floor below it
    for q in range(2, 2049):
        assert max_kloosterman_floor(q) < max_kloosterman_abs(q), q
    assert max_kloosterman_abs(2) == pytest.approx(math.sqrt((2 * 1 - 1) / (2 - 1)), abs=1e-15)
    assert max_kloosterman_abs(2) - max_kloosterman_floor(2) < 1e-13


def _counted_row(monkeypatch):
    """Patch the row into experiments with a call log, and drop the cached maxima."""
    from kgsums import experiments

    calls = []

    def row(q, n):
        calls.append(q)
        return kloosterman_row(q, n)

    monkeypatch.setattr(experiments, "kloosterman_row", row)
    experiments._max_kloosterman_abs.cache_clear()
    return calls


def test_sweep_settles_the_assert_without_the_row(monkeypatch):
    from dataclasses import replace

    from kgsums import experiments

    def refuse(q, n):
        raise AssertionError(f"the Kloosterman row was built for q = {q}")

    monkeypatch.setattr(experiments, "kloosterman_row", refuse)
    experiments._max_kloosterman_abs.cache_clear()
    records, exceptional = average_sweep(64, 8, 2, 0.1)
    assert len(records) == 65
    monkeypatch.undo()
    # a trivial record builds the row, as every experiment did before the floor
    spec = BoundSpec("thm22", r=2, epsilon=0.1)
    again = []
    for rec in records:
        with_row = run_experiment(rec.q, rec.M, rec.N, weight_kind="pm1", seed=rec.seed,
                                  bounds=[BoundSpec("trivial"), spec])
        assert [r.bound_name for r in with_row] == ["thm22", "trivial"]
        again.append(replace(with_row[0], wall_time_seconds=0.0))
    assert again == [replace(r, wall_time_seconds=0.0) for r in records]
    assert exceptional == sum(r.ratio > 1.0 for r in again)


def test_trivial_record_builds_the_row_once(monkeypatch):
    calls = _counted_row(monkeypatch)
    recs = run_experiment(101, 10, 10, weight_kind="pm1", seed=1)
    assert calls == [101]
    trivial = next(r for r in recs if r.bound_name == "trivial")
    assert trivial.bound_value == trivial.norm1 * 10 * max_kloosterman_abs(101)
    assert calls == [101]  # the maximum is cached with q


def test_sum_above_the_floor_takes_the_exact_row(monkeypatch):
    # with one weight 1 at m = 1 and J = {1} the sum is K_q(1, 1); find a q
    # where it clears the floor, so only the exact row can settle the assert
    q = next(q for q in range(3, 200)
             if abs(kloosterman(q, 1, 1).value) > 1.01 * max_kloosterman_floor(q))
    calls = _counted_row(monkeypatch)
    recs = run_experiment(q, 1, 1, bounds=[BoundSpec("thm21")])
    assert calls == [q]
    assert recs[0].abs_sum > max_kloosterman_floor(q)
    assert recs[0].abs_sum <= max_kloosterman_abs(q) + recs[0].error_bound
    # a NaN sum fails the floor as well, so it reaches the exact assert and fails there
    from kgsums import experiments

    monkeypatch.setattr(experiments, "_bilinear_sums", _nan_sums)
    with pytest.raises(VerificationError, match="trivial bound"):
        run_experiment(101, 10, 10, weight_kind="pm1", seed=1, bounds=[BoundSpec("thm21")])


def test_average_sweep_shape_and_consistency():
    records, exceptional = average_sweep(16, 4, 2, 0.1, weight_kind="const", seed=1)
    assert len(records) == 17
    assert {r.q for r in records} == set(range(16, 33))
    for rec in records[:5]:
        again = run_experiment(
            rec.q,
            M=rec.M,
            N=rec.N,
            weight_kind=rec.weight_kind,
            seed=rec.seed,
            bounds=[BoundSpec("thm22", r=2, epsilon=0.1)],
        )[0]
        assert again.abs_sum == rec.abs_sum
        assert again.bound_value == rec.bound_value
    assert 0 <= exceptional <= 17
    assert exceptional_budget(16, 2, 0.1) == pytest.approx(16 ** (1 - 0.4))


def test_average_sweep_seed_invariance_of_bounds():
    a, _ = average_sweep(16, 4, 2, 0.1, weight_kind="pm1", seed=1)
    b, _ = average_sweep(16, 4, 2, 0.1, weight_kind="pm1", seed=2)
    assert [r.q for r in a] == [r.q for r in b]
    for ra, rb in zip(a, b):
        assert ra.bound_value == rb.bound_value
        assert ra.norm1 == rb.norm1  # pm1 weights share every norm


def test_average_sweep_gauss_runs():
    records, _ = average_sweep(32, 8, 3, 0.05, weight_kind="unit", seed=2, family="gauss")
    assert len(records) == 33
    for rec in records:
        assert rec.M == len(primitive_characters(rec.q))


def test_gauss_sweep_builds_no_character_objects(monkeypatch):
    # the sweep reads characters as blocks of rows; no single-row reader runs on its path
    def refuse(*args, **kwargs):
        raise AssertionError("a single-character reader ran on the sweep path")

    for name in ("character", "char_values", "gauss"):
        original = getattr(sys.modules["kgsums.expsums"], name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "kgsums" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, refuse)
    records, _ = average_sweep(16, 4, 2, 0.1, family="gauss")
    assert len(records) == 17
    records = run_experiment(63, 20, 10, weight_kind="unit", seed=3, family="gauss",
                             methods=("transformed",))
    assert records[0].M == 20
    with pytest.raises(AssertionError, match="single-character reader"):
        run_experiment(13, 2, 3, family="gauss", methods=("naive",))  # the oracle reads rows


def test_sweep_validation(monkeypatch):
    from kgsums import experiments

    with pytest.raises(ValueError):
        average_sweep(8, 4, 2, 0.1)
    with pytest.raises(ValueError):
        average_sweep(16, 16, 2, 0.1)
    with pytest.raises(ValueError):
        average_sweep(16, 4, 1, 0.1)
    # 16^(1 - 4 eps) is 0.0 in float64 by eps = 67.5; 32**400 would overflow
    assert exceptional_budget(16, 2, 67.0) > 0.0
    assert exceptional_budget(16, 2, 68.0) == 0.0
    records, _ = average_sweep(16, 4, 2, 67.0)
    assert all(math.isfinite(rec.bound_value) for rec in records)
    monkeypatch.setattr(experiments, "run_experiment", lambda *a, **k: pytest.fail("a modulus ran"))
    for eps in (68.0, 100.0, 400.0):
        with pytest.raises(ValueError, match="underflows"):
            average_sweep(16, 4, 2, eps)


# ---------------------------------------------------------------------------
# CSV and config I/O
# ---------------------------------------------------------------------------


def test_csv_header_exact():
    assert CSV_HEADER == (
        "q,M,N,L,seed,weight_kind,norm1,norm2,norm_inf,abs_sum,error_bound,"
        "bound_name,bound_value,ratio,wall_time_seconds"
    )


def test_csv_roundtrip_idempotent():
    records, _ = average_sweep(16, 4, 2, 0.1, weight_kind="unit", seed=9)
    records += run_experiment(13, M=4, N=5, weight_kind="pm1", seed=2)
    records += run_experiment(13, M=4, N=5, L=1, weight_kind="pm1", seed=3)
    res = check_csv_roundtrip(records)
    assert res.passed, res.detail


def _nan_row(q, *_):
    return np.full(Modulus.of(q).q, math.nan + 0j)


@pytest.mark.parametrize(
    "target, fake, check, grid",
    [
        ("kloosterman_row", _nan_row, check_identity, ((5,),)),
        ("kloosterman_row", _nan_row, check_row_consistency, ((5,),)),
        ("gauss_row", _nan_row, check_gauss_modulus, ((5,),)),
        ("bilinear_kloosterman", lambda w, J, m: SumResult(math.nan, 1.0, 1), check_paths,
         (20240405, 3)),
        ("max_kloosterman_abs", lambda q: math.nan, check_weil, ((5,),)),
        ("_gamma_at", lambda q, L, N, r: np.array([math.nan]), check_gamma_dyadic, ((7,),)),
        ("moment_check", lambda *a, **k: (math.nan, 1.0), check_moment, ((5,), 1, 0, 0)),
    ],
    ids=["identity", "row", "gauss", "paths", "weil", "gamma", "moment"],
)
def test_checks_fail_on_nan(monkeypatch, target, fake, check, grid):
    # a NaN from the library must fail the check, not vanish into its max
    monkeypatch.setattr(verify, target, fake)
    assert not check(*grid).passed


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3\n")
    with pytest.raises(ConfigError):
        parse_csv(path)


def test_config_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    save_config(default_plan(), path)
    assert load_config(path) == default_plan()


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"command": "region", "mu": 0.5, "sigma": 1.0}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "sigma" in str(err.value)
    path.write_text(json.dumps({"command": "warp"}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_runplan_validates():
    RunPlan("sweep", {"Q": 16, "N": 4})
    with pytest.raises(ConfigError):
        RunPlan("sweep", {"Q": 16, "banana": 1})
    with pytest.raises(ConfigError, match="unknown command 'plan'"):
        RunPlan("plan", {})


def test_default_plan_is_bilinear_from_the_parser():
    # the parser's bilinear defaults with q = 101, M = N = 10 and seed 1
    assert default_plan() == RunPlan(
        "bilinear",
        {
            "q": 101,
            "M": 10,
            "N": 10,
            "L": 0,
            "weights": "const",
            "seed": 1,
            "method": None,
            "k": 1,
            "family": "kloosterman",
            "out": None,
        },
    )


def test_import_leaves_the_cli_out():
    # the library stays free of the parser and its run plans
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, kgsums; assert 'kgsums.cli' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*args):
    # the child imports kgsums from this checkout's src, as conftest.py has the
    # suite do, ahead of any PYTHONPATH it inherits
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "kgsums.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_kloosterman():
    proc = _run_cli("kloosterman", "--q", "5", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert "0.381966" in proc.stdout


def test_cli_region():
    proc = _run_cli("region", "--mu", "0.5", "--nu", "0.5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "interior"


def test_cli_count():
    proc = _run_cli("count", "--kind", "jr", "--q", "5", "--K", "2", "--r", "2")
    assert proc.returncode == 0
    assert "= 6" in proc.stdout


def test_cli_bilinear_csv(tmp_path):
    out = tmp_path / "records.csv"
    proc = _run_cli(
        "bilinear", "--q", "7", "--M", "3", "--N", "4",
        "--weights", "pm1", "--seed", "2", "--out", str(out),
    )
    assert proc.returncode == 0
    assert out.exists()
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_cli(
        "sweep", "--Q", "16", "--N", "4", "--r", "2", "--epsilon", "0.1",
        "--seed", "3", "--out", str(out),
    )
    assert proc.returncode == 0
    assert "exceptional" in proc.stdout
    assert len(parse_csv(out)) == 17


def test_cli_gauss():
    proc = _run_cli("gauss", "--q", "5", "--chi", "2", "--n", "1")
    assert proc.returncode == 0
    assert "|G| = 2.2360" in proc.stdout


def test_cli_error_category(tmp_path, capsys):
    from kgsums import cli

    # the console entry point once; every other case runs in this process
    proc = _run_cli("kloosterman", "--q", "1", "--m", "1", "--n", "1")
    assert proc.returncode == 2
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["category"] == "invalid_input"

    # argparse errors, the same error reached through a plan, non-finite
    # region exponents, and sweep epsilons whose reference count is 0.0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"command": "sweep", "Q": "abc", "N": 3}))
    for argv in (
        ("sweep", "--Q", "abc", "--N", "3"),
        ("sweep", "--N", "3"),
        ("plan", "--config", str(plan)),
        ("region", "--mu", "nan", "--nu", "0.5"),
        ("region", "--mu", "0.5", "--nu", "inf"),
        ("sweep", "--Q", "16", "--N", "4", "--epsilon", "inf"),
        ("sweep", "--Q", "16", "--N", "4", "--epsilon", "100"),
        ("sweep", "--Q", "16", "--N", "4", "--epsilon", "400"),
        # character_at makes the one range check of --chi, in [0, phi(q))
        ("gauss", "--q", "7", "--chi", "6", "--n", "1"),
        ("gauss", "--q", "7", "--chi", "-1", "--n", "1"),
    ):
        assert cli.main(list(argv)) == 2, argv
        assert json.loads(capsys.readouterr().err)["category"] == "invalid_input", argv
    with pytest.raises(SystemExit) as help_exit:
        cli.main(["sweep", "--help"])
    assert help_exit.value.code == 0
    capsys.readouterr()

    for argv in (
        ("count", "--kind", "jr", "--q", "2000000", "--K", "5", "--r", "2"),
        # |X|**r = 10000**4 is far past the FFT route's rounding certificate
        ("count", "--kind", "jr", "--q", "10007", "--K", "10000", "--r", "4", "--method", "fft"),
        # FFT refused (padded size 2**22), fold refused: 2 * 999982 * 999983 adds
        ("count", "--kind", "jr", "--q", "999983", "--K", "999982", "--r", "3"),
        ("bilinear", "--q", "4294967296", "--M", "1", "--N", "1"),  # q above TABLE_Q_CAP
        ("gauss", "--q", "4294967296", "--chi", "1", "--n", "1"),
        ("gauss", "--q", str(2**63), "--chi", "1", "--n", "1"),  # int64 conductors
        ("bilinear", "--family", "gauss", "--q", "2147483648", "--M", "1", "--N", "1"),
    ):
        assert cli.main(list(argv)) == 3, argv
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["category"] == "resource_limit", argv


class _NoTableNumpy:
    """numpy as kgsums.modmath sees it, except that an array allocation raises."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def _allocate(shape, *args, **kwargs):
        raise MemoryError(f"array of shape {shape} allocated")

    ones = empty = zeros = _allocate


def test_table_cap_refuses_before_allocating(monkeypatch, capsys):
    # q = 10^9 + 7 would need a 7.45 GiB table; the refusal precedes it
    from kgsums import cli, modmath

    monkeypatch.setattr(modmath, "np", _NoTableNumpy())
    for argv in (
        ["kloosterman", "--q", "1000000007", "--m", "1", "--n", "1"],
        ["bilinear", "--q", "1000000007", "--M", "10", "--N", "10"],
        ["gauss", "--q", "1000000007", "--chi", "1", "--n", "1"],
    ):
        assert cli.main(argv) == 3, argv
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["category"] == "resource_limit"
        assert str(modmath.TABLE_Q_CAP) in payload["message"]


def test_weight_vector_above_table_cap_refused_before_allocating(monkeypatch):
    # a one-key vector at q = 2^40 would reach a 16 TiB dense array on the fast
    # route; it is refused where it is built, and an empty vector still builds
    from kgsums import bilinear, modmath

    mod = modmath.Modulus.of(2**40)
    monkeypatch.setattr(modmath, "np", _NoTableNumpy())
    monkeypatch.setattr(bilinear, "np", _NoTableNumpy())
    with pytest.raises(ResourceLimit, match=str(modmath.TABLE_Q_CAP)):
        bilinear.WeightVector(mod, [1], [1.0])
    empty = bilinear.WeightVector(mod)
    for method in ("fast", "transformed"):
        res = bilinear.bilinear_kloosterman(empty, bilinear.Interval.of(mod, 0, 10), method)
        assert res.value == 0 and res.terms == 0


def test_huge_prime_refused_by_trial_division(capsys):
    # q = 2^61 - 1 is prime: trial division up to sqrt(q) would run for minutes
    from kgsums import cli

    q = str(2**61 - 1)
    for argv in (
        ["kloosterman", "--q", q, "--m", "1", "--n", "1"],
        ["bilinear", "--q", q, "--M", "10", "--N", "10"],
        ["sweep", "--Q", q, "--N", "4"],
    ):
        assert cli.main(argv) == 3, argv
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["category"] == "resource_limit"
        assert q in payload["message"]


def test_cli_plan_roundtrip(tmp_path):
    cfg = tmp_path / "plan.json"
    proc = _run_cli("plan", "--emit-defaults", str(cfg))
    assert proc.returncode == 0
    proc = _run_cli("plan", "--config", str(cfg))
    assert proc.returncode == 0
    assert "ratio" in proc.stdout

    # the default plan leaves the method to the family, so gauss runs too
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "family": "gauss"}))
    proc = _run_cli("plan", "--config", str(cfg))
    assert proc.returncode == 0
    assert "thm23" in proc.stdout


_DOCUMENTED_EXITS = {
    KgsumsError: ("error", 1),
    NotAUnit: ("not_a_unit", 2),
    DomainRestriction: ("domain_restriction", 2),
    InvalidWeight: ("invalid_weight", 2),
    ModulusMismatch: ("modulus_mismatch", 2),
    ConfigError: ("config_error", 2),
    ResourceLimit: ("resource_limit", 3),
    VerificationError: ("verification_failed", 5),
}


@pytest.mark.parametrize(
    "cls", [KgsumsError, *KgsumsError.__subclasses__()], ids=lambda c: c.__name__
)
def test_cli_exit_code_of_every_error_class(monkeypatch, capsys, cls):
    from kgsums import cli

    category, code = _DOCUMENTED_EXITS[cls]  # a new error class must be documented here

    def fail(args):
        raise cls(6, 12, 6) if cls is NotAUnit else cls("raised by the handler")

    monkeypatch.setitem(cli._DISPATCH, "region", fail)
    assert cli.main(["region", "--mu", "0.5", "--nu", "0.5"]) == code
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["category"] == category


def test_cli_plan_unknown_key(tmp_path):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({"command": "region", "mu": 0.5, "tau": 1}))
    proc = _run_cli("plan", "--config", str(cfg))
    assert proc.returncode == 2
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["category"] == "config_error"
    assert "tau" in payload["message"]


@pytest.mark.parametrize("command", [["bilinear"], {"name": "bilinear"}], ids=["list", "object"])
def test_cli_plan_command_not_a_string(tmp_path, capsys, command):
    from kgsums import cli

    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({"command": command}))
    assert cli.main(["plan", "--config", str(cfg)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["category"] == "config_error"
    assert "unknown command" in payload["message"]


def test_cli_bilinear_gauss_default_method():
    # with no --method each family runs its own default route
    proc = _run_cli("bilinear", "--q", "13", "--M", "3", "--N", "5", "--family", "gauss")
    assert proc.returncode == 0
    assert "thm23" in proc.stdout


def test_cli_generalized_kernel(monkeypatch, capsys, tmp_path):
    proc = _run_cli(
        "bilinear", "--q", "11", "--M", "3", "--N", "4", "--k", "2", "--seed", "1"
    )
    assert proc.returncode == 0
    assert "|S|" in proc.stdout
    assert "routes transformed, fast agree" in proc.stdout

    # --method picks the reported route; the other one still cross-checks it
    proc = _run_cli(
        "bilinear", "--q", "12", "--M", "3", "--N", "4", "--k", "3", "--method", "fast"
    )
    assert proc.returncode == 0
    assert "routes fast, transformed agree" in proc.stdout

    # k != 1 has no naive route, and no bound records for --out
    out = tmp_path / "k2.csv"
    for extra in (("--method", "naive"), ("--out", str(out))):
        proc = _run_cli("bilinear", "--q", "13", "--M", "3", "--N", "5", "--k", "2", *extra)
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert payload["category"] == "domain_restriction"
    assert not out.exists()

    # routes that disagree beyond their summed budgets fail verification
    from kgsums import cli

    real = cli.bilinear_kloosterman

    def skewed(A, J, method="fast", k=1):
        res = real(A, J, method, k=k)
        if method == "fast":
            res = SumResult(res.value + 1e-6, res.error_bound, res.terms)
        return res

    monkeypatch.setattr(cli, "bilinear_kloosterman", skewed)
    assert cli.main(["bilinear", "--q", "13", "--M", "3", "--N", "5", "--k", "2"]) == 5
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["category"] == "verification_failed"


def test_cli_refuses_naive_at_k_before_any_route(monkeypatch, capsys):
    # naive anywhere in --method is refused before weights are built
    from kgsums import cli

    def unbuilt(*args):
        raise AssertionError("weights were built")

    monkeypatch.setattr(cli, "build_weight_vector", unbuilt)
    for method in ("naive", "naive,fast", "fast,naive", "transformed,naive"):
        argv = ["bilinear", "--q", "1000003", "--M", "1000", "--N", "1000", "--k", "2",
                "--method", method]
        assert cli.main(argv) == 2, method
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["category"] == "domain_restriction", method


def test_cli_verify():
    proc = _run_cli("verify")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert all(ln.startswith("PASS  ") for ln in lines)
    names = [ln[len("PASS  "):].split(":")[0] for ln in lines]
    assert len(names) == len(verify.CONDENSED_GRIDS) == 11
    assert set(names) == {
        "inverse involution", "multiplicative shift identity",
        "row vs direct sums", "Weil bound", "primitive Gauss magnitude",
        "bilinear path agreement", "gamma bound per dyadic scale", "moment identity",
        "counting oracle equivalence", "improvement region", "CSV round trip",
    }
