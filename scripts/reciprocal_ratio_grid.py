#!/usr/bin/env python3
"""Reciprocal-congruence count ratio grid.

Computes J_2(q; K) / (K^(7/2) q^(-1/2) + K^2) over the regression grid of
``kgsums.experiments.j2_ratio_grid`` (primes 101..2003, K in
{ceil(q^0.25), ceil(sqrt(q)), ceil(q^0.75), q}) and reports the maximum,
optionally refreshing the frozen regression baseline.

Usage:
    python scripts/reciprocal_ratio_grid.py [--update-baselines]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    from kgsums.experiments import (
        GRID_PRIME_HI, GRID_PRIME_LO, grid_ks, j2_ratio_grid, primes_in_range,
    )
except ImportError:  # fresh checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kgsums.experiments import (
        GRID_PRIME_HI, GRID_PRIME_LO, grid_ks, j2_ratio_grid, primes_in_range,
    )

BASELINES = Path(__file__).resolve().parent.parent / "tests" / "baselines.json"

# bench/ reads PRIME_LO, PRIME_HI, grid_ks and primes_in_range from this module
PRIME_LO, PRIME_HI = GRID_PRIME_LO, GRID_PRIME_HI


def run_grid() -> float:
    """The grid's largest J_2 reference ratio."""
    return max(j2_ratio_grid())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update-baselines", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    worst = run_grid()
    dt = time.perf_counter() - t0
    print(f"max J_2 reference ratio over the grid = {worst:.6f} ({dt:.1f}s)")

    if args.update_baselines:
        data = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
        data["j2_ratio_observed_max"] = worst
        data["j2_ratio_limit"] = round(worst * 1.05 + 0.005, 6)
        BASELINES.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"updated {BASELINES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
