#!/usr/bin/env python3
"""Regenerate ``reference.json``: every record sum of the default seed.

Each sum comes from a route other than the one the workload runs: the
``transformed`` route for the Kloosterman sweep and ``large-modulus``, the
``naive`` route for the Gauss sweep.  The exceptional counts are those
sums' ratios to the sweep bound.  ``large-modulus`` also cross-checks the
two-DFT route used for other seeds against the transformed one.  Takes
several minutes (the transformed route is O(phi(q) * M)).

Usage:
    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from kgsums import (  # noqa: E402
    BoundSpec, Interval, Modulus, bilinear_kloosterman, bound_value, build_weight_vector,
)


def sweep(name: str, seed: int) -> dict:
    p = workloads.SWEEPS[name]
    spec = BoundSpec("thm22" if p["family"] == "kloosterman" else "thm24", r=p["r"], epsilon=p["epsilon"])
    sums, exceptional = {}, 0
    for q in range(p["Q"], 2 * p["Q"] + 1):
        M = checks.sweep_support(name, q)
        abs_sum, err = checks.sweep_reference(name, q, seed)
        # pm1 weights: norm1 = M, norm2 = sqrt(M), norm_inf = 1 (all 0 when M = 0)
        bv = bound_value(spec, q, M, p["N"], M, math.sqrt(M), min(M, 1)) if M else 0.0
        exceptional += bv > 0 and abs_sum / bv > 1.0
        sums[str(q)] = [abs_sum, err]
    return {"exceptional": exceptional, "sums": sums}


def large(seed: int) -> dict:
    sums = {}
    for q in workloads.LARGE_MODULI:
        mod = Modulus.of(q)
        weights = build_weight_vector(mod, workloads.LARGE_M, "pm1", seed)
        res = bilinear_kloosterman(weights, Interval.of(mod, 0, workloads.LARGE_N), "transformed")
        dual = checks.dual_reference(q, seed)
        gap = abs(abs(res.value) - dual[0])
        if gap > res.error_bound + dual[1]:
            raise SystemExit(f"q={q}: two-DFT route off the transformed one by {gap:.3e}")
        print(f"q={q}: |S|={abs(res.value)!r}, two-DFT gap {gap:.2e} within {res.error_bound + dual[1]:.2e}")
        sums[str(q)] = [abs(res.value), res.error_bound]
    return {"sums": sums}


def main() -> int:
    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed}
    for name in workloads.SWEEPS:
        ref[name] = sweep(name, seed)
        print(f"{name}: {len(ref[name]['sums'])} sums, {ref[name]['exceptional']} exceptional")
    ref["large-modulus"] = large(seed)
    checks.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
