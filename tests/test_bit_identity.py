"""Bit-identity gate: pm1 records stay byte-stable across performance work.

Each case runs one CLI call that writes a CSV, drops the
``wall_time_seconds`` column (the only field that may change between runs)
and compares the sha256 of what is left with the digest recorded in
``csv_digests.json``.  The digests pin the exact float64 results, which can
legitimately differ under another numpy (its FFT and ufunc loops round
differently), so the test skips on any numpy version other than the one
that recorded them.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from kgsums import cli

DIGESTS = json.loads((Path(__file__).parent / "csv_digests.json").read_text())

CASES = {
    "sweep-kloosterman": ["sweep", "--Q", "64", "--N", "8", "--weights", "pm1", "--seed", "1"],
    "sweep-gauss": ["sweep", "--Q", "64", "--N", "8", "--weights", "pm1", "--seed", "1",
                    "--family", "gauss"],
    "bilinear-100003": ["bilinear", "--q", "100003", "--M", "300", "--N", "300",
                        "--weights", "pm1", "--seed", "1", "--method", "fast,transformed"],
    # the benchmark's many-factor and Bluestein-length moduli
    "bilinear-720720": ["bilinear", "--q", "720720", "--M", "1000", "--N", "1000",
                        "--weights", "pm1", "--seed", "1", "--method", "fast"],
    "bilinear-1000003": ["bilinear", "--q", "1000003", "--M", "1000", "--N", "1000",
                         "--weights", "pm1", "--seed", "1", "--method", "fast"],
}


def csv_digest(path: Path) -> str:
    """sha256 of the CSV at ``path`` with the wall_time_seconds column removed."""
    rows = list(csv.reader(path.read_text().splitlines()))
    drop = rows[0].index("wall_time_seconds")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1 :])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest_unchanged(name, tmp_path):
    if np.__version__ != DIGESTS["numpy"]:
        pytest.skip(f"digests recorded with numpy {DIGESTS['numpy']}, this is {np.__version__}")
    out = tmp_path / f"{name}.csv"
    assert cli.main([*CASES[name], "--out", str(out)]) == 0
    assert csv_digest(out) == DIGESTS["digests"][name]
