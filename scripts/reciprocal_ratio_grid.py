#!/usr/bin/env python3
"""Reciprocal-congruence count ratio grid.

Computes J_2(q; K) / (K^(7/2) q^(-1/2) + K^2) over the documented grid
(primes 101..2003, K in {ceil(q^0.25), ceil(sqrt(q)), ceil(q^0.75), q}) and
reports the maximum, optionally refreshing the frozen regression baseline.

Usage:
    python scripts/reciprocal_ratio_grid.py [--update-baselines]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

try:
    from kgsums import j2_reference_ratio
    from kgsums.experiments import primes_in_range
except ImportError:  # fresh checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kgsums import j2_reference_ratio
    from kgsums.experiments import primes_in_range

BASELINES = Path(__file__).resolve().parent.parent / "tests" / "baselines.json"

PRIME_LO, PRIME_HI = 101, 2003


def grid_ks(q: int) -> list[int]:
    return sorted({math.ceil(q**0.25), math.ceil(q**0.5), math.ceil(q**0.75), q})


def run_grid() -> float:
    worst = 0.0
    for p in primes_in_range(PRIME_LO, PRIME_HI):
        for K in grid_ks(p):
            worst = max(worst, j2_reference_ratio(p, K))
    return worst


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
