"""Output checks, run in the runner after the clock stops.

One operation is one modulus experiment of a sweep, one CLI call of
``large-modulus`` or one grid instance of ``baseline-grids``.  An operation
fails when its process failed or exited nonzero, or when its output fails a
check:

* integers (record counts, supports, seeds, exceptional counts) must match
  exactly;
* a record's |sum| must match a reference within the sum of the two
  error budgets.  References come from routes independent of the one the
  workload runs: the ``transformed`` route (Kloosterman sweep) and the
  ``naive`` route (Gauss sweep) on a seeded sample of moduli, the
  two-DFT route of :func:`dual_reference` on every ``large-modulus`` call,
  and, for the default seed, ``reference.json``, made by
  ``make_reference.py`` with the first two routes on every modulus;
* ``baseline-grids`` must reproduce ``tests/baselines.json``: the J_2
  maximum exactly, the thm21 maximum within its record's error budget.

A changed last bit is therefore not a failure; a changed count is.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

EPS = float(np.finfo(np.float64).eps)

CSV_HEADER = (
    "q,M,N,L,seed,weight_kind,norm1,norm2,norm_inf,abs_sum,error_bound,"
    "bound_name,bound_value,ratio,wall_time_seconds"
)

#: moduli per sweep run checked against an independent route
SAMPLE = {"kloosterman-sweep": 6, "gauss-sweep": 3}

#: relative slack for ratio = abs_sum / bound_value read back from 17 digits
RATIO_RTOL = 1e-12

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, bad: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += bad
        if bad and note and len(self.notes) < 20:
            self.notes.append(note)


# --- independent integer facts ---------------------------------------------


def factor(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(q: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factor(q))


def primitive_count(q: int) -> int:
    """Number of primitive Dirichlet characters mod q (multiplicative)."""
    return math.prod(p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2 for p, e in factor(q))


def sweep_support(name: str, q: int) -> int:
    return totient(q) if name == "kloosterman-sweep" else primitive_count(q)


# --- CSV -------------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    text = path.read_text(encoding="ascii")
    if text.split("\n", 1)[0] != CSV_HEADER:
        raise CheckFailed(f"{path.name}: unexpected CSV header")
    rows = []
    for row in csv.DictReader(text.splitlines()):
        for key in ("q", "M", "N", "L", "seed"):
            row[key] = int(row[key])
        for key in ("norm1", "norm2", "norm_inf", "abs_sum", "error_bound", "bound_value", "ratio"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


def ratio_ok(rec: dict) -> bool:
    expected = rec["abs_sum"] / rec["bound_value"] if rec["bound_value"] > 0 else 0.0
    return math.isclose(rec["ratio"], expected, rel_tol=RATIO_RTOL, abs_tol=0.0)


def sum_ok(rec: dict, ref: tuple[float, float]) -> bool:
    """|abs_sum - |ref|| within the record's and the reference's budgets."""
    ref_abs, ref_err = ref
    return abs(rec["abs_sum"] - ref_abs) <= rec["error_bound"] + ref_err


# --- reference routes --------------------------------------------------------


def sweep_reference(name: str, q: int, seed: int) -> tuple[float, float]:
    """(|S|, error budget) of one sweep experiment by an independent route."""
    from kgsums import (
        Interval, Modulus, bilinear_gauss, bilinear_kloosterman,
        build_char_weight_vector, build_weight_vector, derive_seed,
    )

    mod = Modulus.of(q)
    J = Interval.of(mod, 0, workloads.SWEEPS[name]["N"])
    M = sweep_support(name, q)
    if name == "kloosterman-sweep":
        res = bilinear_kloosterman(build_weight_vector(mod, M, "pm1", derive_seed(seed, q)), J, "transformed")
    else:
        res = bilinear_gauss(build_char_weight_vector(mod, M, "pm1", derive_seed(seed, q)), J, "naive")
    return abs(res.value), res.error_bound


def dual_reference(q: int, seed: int) -> tuple[float, float]:
    """(|S|, error budget) of a ``large-modulus`` call, DFT on the interval side.

    S = sum_m alpha_m sum_{n in J} K_q(m, n) = sum_m alpha_m F(m) with
    F(m) = sum_{x unit} G(x^-1) e_q(m x) and G(y) = sum_{n in J} e_q(n y):
    two length-q DFTs, where the ``fast`` route takes one DFT of the
    weights and closed-form interval sums.  The inverse table is verified
    before use.  Each DFT entry is charged (4 log2 q + 8) eps times the l1
    norm of its input, as the program charges its own DFT.
    """
    from kgsums import Modulus, build_weight_vector, inverse_table

    mod = Modulus.of(q)
    weights = build_weight_vector(mod, workloads.LARGE_M, "pm1", seed)
    idx = np.arange(q, dtype=np.int64)
    units = idx[np.gcd(idx, q) == 1]
    inv = inverse_table(mod)[units]
    if units.size != totient(q) or not np.all(units * inv % q == 1):
        raise CheckFailed(f"inverse table mod {q} is wrong")
    indicator = np.zeros(q)
    indicator[1 : workloads.LARGE_N + 1] = 1.0
    G = q * np.fft.ifft(indicator)
    h = np.zeros(q, dtype=np.complex128)
    h[units] = G[inv]
    F = q * np.fft.ifft(h)
    terms = weights.coefficients() * F[weights.support()]
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    dft_eps = (4.0 * math.log2(q) + 8.0) * EPS
    f_err = dft_eps * float(np.sum(np.abs(h))) + units.size * dft_eps * workloads.LARGE_N
    l1 = float(np.sum(np.abs(terms)))
    err = weights.norm1 * f_err + (terms.size + 4) * EPS * l1
    return abs(value), err


def load_reference(root: Path) -> dict:
    """The stored default-seed sums, and the grid baselines of the checkout."""
    reference = json.loads(REFERENCE_FILE.read_text())
    reference["baseline-grids"] = json.loads((root / "tests" / "baselines.json").read_text())
    return reference


# --- per-workload checks -----------------------------------------------------


def _sweep_reps(name, seed, reps, stored, tally):
    Q = workloads.SWEEPS[name]["Q"]
    moduli = range(Q, 2 * Q + 1)
    from kgsums import derive_seed

    eligible = [q for q in moduli if sweep_support(name, q) > 0]
    sample = sorted(random.Random(seed).sample(eligible, SAMPLE[name]))
    refs = {q: sweep_reference(name, q, seed) for q in sample}
    n_ops = len(moduli) + 1  # one experiment per modulus, and the run's summary counts
    for result, work in reps:
        call = (result.get("outputs") or {}).get("calls", [None])[0] if result else None
        if call is None or call["rc"] != 0:
            tally.add(n_ops, n_ops, f"{name}: sweep failed: {result and (result.get('error') or call)}")
            continue
        try:
            rows = read_csv(workloads.sweep_csv(work, name))
        except (OSError, CheckFailed, ValueError, KeyError) as exc:
            tally.add(n_ops, n_ops, f"{name}: {exc}")
            continue
        by_q = {}
        for rec in rows:
            by_q.setdefault(rec["q"], []).append(rec)
        bad = set()
        for q in moduli:
            recs = by_q.get(q, [])
            if len(recs) != 1:
                bad.add(q)
                continue
            rec = recs[0]
            if (
                rec["M"] != sweep_support(name, q)
                or rec["N"] != workloads.SWEEPS[name]["N"]
                or rec["L"] != 0
                or rec["seed"] != derive_seed(seed, q)
                or rec["weight_kind"] != "pm1"
                or not ratio_ok(rec)
                or (q in refs and not sum_ok(rec, refs[q]))
                or (stored and not sum_ok(rec, stored["sums"][str(q)]))
            ):
                bad.add(q)
        tally.add(len(moduli), len(bad), f"{name}: moduli failing checks: {sorted(bad)[:10]}")
        match = re.search(r"exceptional \(ratio > 1\): (\d+)", call["stdout"])
        exceptional = sum(1 for rec in rows if rec["ratio"] > 1.0)
        counts_ok = (
            len(rows) == len(moduli)
            and match is not None
            and int(match.group(1)) == exceptional
            and (not stored or exceptional == stored["exceptional"])
        )
        tally.add(1, 0 if counts_ok else 1, f"{name}: record or exceptional count mismatch")


def _large_reps(seed, reps, stored, tally):
    refs = {}
    for q in workloads.LARGE_MODULI:
        try:
            refs[q] = dual_reference(q, seed)
        except CheckFailed as exc:
            refs[q] = None
            tally.notes.append(str(exc))
    for result, work in reps:
        calls = (result.get("outputs") or {}).get("calls") if result else None
        if not calls:
            n = len(workloads.LARGE_MODULI)
            tally.add(n, n, f"large-modulus failed: {result and result.get('error')}")
            continue
        for q, call in zip(workloads.LARGE_MODULI, calls):
            ok = call["rc"] == 0 and refs[q] is not None
            if ok:
                try:
                    rows = read_csv(workloads.large_csv(work, q))
                except (OSError, CheckFailed, ValueError, KeyError):
                    rows = []
                names = {"trivial", "thm21", "simple21"}
                if factor(q) == [(q, 1)]:
                    names |= {"fkm", "bfkmm", "shpzha", "combined"}
                ok = sorted(r["bound_name"] for r in rows) == sorted(names) and all(
                    (r["q"], r["M"], r["N"], r["L"], r["seed"], r["weight_kind"])
                    == (q, workloads.LARGE_M, workloads.LARGE_N, 0, seed, "pm1")
                    and (r["abs_sum"], r["error_bound"]) == (rows[0]["abs_sum"], rows[0]["error_bound"])
                    and ratio_ok(r)
                    and sum_ok(r, refs[q])
                    and (not stored or sum_ok(r, stored["sums"][str(q)]))
                    and (r["bound_name"] != "trivial" or r["abs_sum"] <= r["bound_value"] + r["error_bound"])
                    for r in rows
                )
            tally.add(1, 0 if ok else 1, f"large-modulus: q={q} failed its checks (rc={call['rc']})")


def _grid_reps(root, reps, baselines, tally):
    grid = workloads.import_program("baseline-grids", root)
    brg, rrg = grid["bound_ratio_grid"], grid["reciprocal_ratio_grid"]
    primes = brg.primes_in_range(brg.PRIME_LO, brg.PRIME_HI)
    expected = {(p, s) for p in primes for s in brg.GRID_SEEDS}
    n_j2 = sum(len(rrg.grid_ks(p)) for p in rrg.primes_in_range(rrg.PRIME_LO, rrg.PRIME_HI))
    for result, _ in reps:
        out = result.get("outputs") if result else None
        if out is None:
            n = len(expected) + 1 + n_j2
            tally.add(n, n, f"baseline-grids failed: {result and result.get('error')}")
            continue
        recs = out["records"]
        bad = sum(
            1 for r in recs
            if r["bound_name"] != "thm21" or not ratio_ok(r) or r["ratio"] > baselines["thm21_ratio_limit"]
        )
        missing = len(expected - {(r["q"], r["seed"]) for r in recs}) + max(0, len(recs) - len(expected))
        tally.add(len(expected), min(len(expected), bad + missing), f"baseline-grids: {bad} bad and {missing} missing thm21 instances")
        worst = max(recs, key=lambda r: r["ratio"]) if recs else None
        budget = 2.0 * worst["error_bound"] / worst["bound_value"] if worst else 0.0
        thm21_ok = (
            worst is not None
            and out["thm21_worst"] == worst["ratio"]
            and abs(out["thm21_worst"] - baselines["thm21_ratio_observed_max"]) <= budget
        )
        tally.add(1, 0 if thm21_ok else 1, f"baseline-grids: thm21 max {out['thm21_worst']!r} off the baseline")
        j2_ok = out["j2_worst"] == baselines["j2_ratio_observed_max"]
        tally.add(n_j2, 0 if j2_ok else 1, f"baseline-grids: J_2 max {out['j2_worst']!r} != baseline")


def check(name: str, seed: int, root: Path, reps: list, reference: dict | None = None) -> Tally:
    """Check every repetition's outputs; ``reps`` holds (child result or None, work dir).

    ``reference`` defaults to :func:`load_reference`; its per-modulus sums
    are used only when the run's seed is the one they were stored for.
    """
    reference = load_reference(root) if reference is None else reference
    stored = reference.get(name) if seed == reference["seed"] else None
    tally = Tally()
    if name in workloads.SWEEPS:
        _sweep_reps(name, seed, reps, stored, tally)
    elif name == "large-modulus":
        _large_reps(seed, reps, stored, tally)
    else:
        _grid_reps(root, reps, reference["baseline-grids"], tally)
    return tally
