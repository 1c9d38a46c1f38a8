#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about 20 s).

Usage (from the repository root):

    python3 bench/selftest.py

* the metric names and units ``run.py`` prints match BENCHMARK.json, with
  and without tracing;
* a deliberately wrong reference makes the checks report failed operations,
  so the error rate rises above 0;
* after tracing, every name the tracer rebound is the original object again.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PrintedMetrics(unittest.TestCase):
    def check_names(self, result: dict, declared: list[dict]) -> None:
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end(self):
        result = run_bench("--workload", "kloosterman-sweep", "--seed", "2", "--seconds", "1", "--trace", "0")
        self.check_names(result, SPEC["end_to_end"])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_per_layer(self):
        result = run_bench("--workload", "kloosterman-sweep", "--seconds", "1", "--trace", "1")
        self.check_names(result, SPEC["per_layer"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(metrics["counting.calls"], 0)
        self.assertEqual(metrics["expsums.characters"], 0)
        self.assertEqual(metrics["experiments.runs"], workloads.SWEEPS["kloosterman-sweep"]["Q"] + 1)


class WrongReference(unittest.TestCase):
    def test_sweep_reference(self):
        name, seed = "kloosterman-sweep", workloads.DEFAULT_SEED
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            work = Path(tmp)
            mods = workloads.import_program(name, ROOT)
            outputs = workloads.run_body(name, mods, seed, work)
            reps = [({"outputs": outputs, "error": None}, work)]
            good = checks.load_reference(ROOT)
            self.assertEqual(checks.check(name, seed, ROOT, reps, good).failed, 0)
            wrong = json.loads(json.dumps(good))
            wrong[name]["exceptional"] += 1
            q = str(workloads.SWEEPS[name]["Q"] * 3 // 2)
            abs_sum, err = wrong[name]["sums"][q]
            wrong[name]["sums"][q] = [abs_sum * (1 + 1e-6), err]
            tally = checks.check(name, seed, ROOT, reps, wrong)
        self.assertEqual(tally.failed, 2)
        self.assertGreater(tally.failed / tally.attempted, 0)

    def test_grid_baseline(self):
        grid = workloads.import_program("baseline-grids", ROOT)
        records, worst = grid["bound_ratio_grid"].run_grid()
        outputs = workloads.summarise("baseline-grids", {
            "records": records, "thm21_worst": worst, "j2_worst": grid["reciprocal_ratio_grid"].run_grid(),
        })
        reps = [({"outputs": outputs, "error": None}, ROOT)]
        good = checks.load_reference(ROOT)
        self.assertEqual(checks.check("baseline-grids", 1, ROOT, reps, good).failed, 0)
        wrong = json.loads(json.dumps(good))
        wrong["baseline-grids"]["j2_ratio_observed_max"] *= 1 + 1e-15
        self.assertEqual(checks.check("baseline-grids", 1, ROOT, reps, wrong).failed, 1)


class Restoration(unittest.TestCase):
    def test_names_restored(self):
        mods = workloads.import_program("large-modulus", ROOT)
        workloads.import_program("baseline-grids", ROOT)
        before = [(ns, dict(vars(ns))) for ns in spans.namespaces()]
        from kgsums.bilinear import CharWeightVector, WeightVector

        classes = [(cls, dict(vars(cls))) for cls in (WeightVector, CharWeightVector)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertGreater(len(tracer.bindings()), 60)
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                argv = ["bilinear", "--q", "101", "--M", "10", "--N", "10", "--weights", "pm1",
                        "--out", str(Path(tmp) / "r.csv")]
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(mods["cli"].main(argv), 0)
        finally:
            tracer.uninstall()
        for owner, snapshot in before + classes:
            for key, value in snapshot.items():
                self.assertIs(vars(owner)[key], value, f"{owner!r}.{key}")
        names = {s[2] for s in tracer.spans}
        self.assertIn("kgsums.cli.main", names)
        self.assertIn("kgsums.bilinear.WeightVector.__init__", names)
        keys = ("id", "parent", "name", "group", "start_ns", "end_ns", "counts")
        _, defects = spans.layer_metrics([dict(zip(keys, s)) for s in tracer.spans], 1)
        self.assertEqual(defects, [])


if __name__ == "__main__":
    unittest.main()
