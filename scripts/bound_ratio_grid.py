#!/usr/bin/env python3
"""Measured-to-bound ratio grid for the main interval bound.

Runs the regression grid of ``kgsums.experiments.bound_ratio_grid`` (primes
101..2003, M = N = ceil(sqrt(q)), pm1 weights, seeds 1..5) with the thm21
bound alone, reports the largest thm21 ratio, optionally writes the
per-instance records as CSV and refreshes the frozen regression baseline.
With no ``trivial`` record to report, each instance's trivial-bound check
is settled by the closed-form ``max_kloosterman_floor``, so the grid builds
no length-p Kloosterman row unless a sum misses that floor.

Usage:
    python scripts/bound_ratio_grid.py [--out grid.csv] [--update-baselines]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    from kgsums import BoundSpec, emit_csv
    from kgsums.experiments import (
        GRID_PRIME_HI, GRID_PRIME_LO, GRID_SEEDS, bound_ratio_grid, primes_in_range,
    )
except ImportError:  # fresh checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kgsums import BoundSpec, emit_csv
    from kgsums.experiments import (
        GRID_PRIME_HI, GRID_PRIME_LO, GRID_SEEDS, bound_ratio_grid, primes_in_range,
    )

BASELINES = Path(__file__).resolve().parent.parent / "tests" / "baselines.json"

# bench/ reads PRIME_LO, PRIME_HI, GRID_SEEDS and primes_in_range from this module
PRIME_LO, PRIME_HI = GRID_PRIME_LO, GRID_PRIME_HI


def run_grid() -> tuple[list, float]:
    """The grid's thm21 records and their largest ratio."""
    records = [rec for recs in bound_ratio_grid([BoundSpec("thm21")]) for rec in recs]
    return records, max(rec.ratio for rec in records)


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
