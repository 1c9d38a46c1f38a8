#!/usr/bin/env python3
"""Measured-to-bound ratio grid for the main interval bound.

Runs the documented grid (primes 101..2003, M = N = ceil(sqrt(q)), pm1
weights, seeds 1..5), reports the largest thm21 ratio, optionally writes the
per-instance records as CSV and refreshes the frozen regression baseline.

Usage:
    python scripts/bound_ratio_grid.py [--out grid.csv] [--update-baselines]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

try:
    from kgsums import emit_csv, run_experiment
    from kgsums.experiments import primes_in_range
except ImportError:  # fresh checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kgsums import emit_csv, run_experiment
    from kgsums.experiments import primes_in_range

BASELINES = Path(__file__).resolve().parent.parent / "tests" / "baselines.json"

GRID_SEEDS = (1, 2, 3, 4, 5)
PRIME_LO, PRIME_HI = 101, 2003


def run_grid() -> tuple[list, float]:
    records = []
    worst = 0.0
    for p in primes_in_range(PRIME_LO, PRIME_HI):
        side = math.isqrt(p - 1)
        m = n = min(side if side * side >= p else side + 1, p - 2)
        for seed in GRID_SEEDS:
            recs = run_experiment(p, M=m, N=n, weight_kind="pm1", seed=seed)
            for rec in recs:
                if rec.bound_name == "thm21":
                    records.append(rec)
                    worst = max(worst, rec.ratio)
    return records, worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write thm21 records as CSV")
    ap.add_argument("--update-baselines", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    records, worst = run_grid()
    dt = time.perf_counter() - t0
    print(f"{len(records)} grid instances in {dt:.1f}s; max thm21 ratio = {worst:.6f}")

    if args.out:
        emit_csv(records, args.out)
        print(f"wrote {args.out}")
    if args.update_baselines:
        data = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
        data["thm21_ratio_observed_max"] = worst
        data["thm21_ratio_limit"] = round(worst * 1.05 + 0.005, 6)
        BASELINES.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"updated {BASELINES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
