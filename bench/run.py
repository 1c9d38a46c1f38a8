#!/usr/bin/env python3
"""The kgsums benchmark: one workload, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Workloads (see ``workloads.py``; why each exists is in BENCHMARK.json):
``kloosterman-sweep``, ``gauss-sweep``, ``large-modulus``, ``baseline-grids``.
``--seed`` drives the weights of the two sweeps and of ``large-modulus``;
the grids are deterministic by definition and ignore it.

Every repetition runs in a fresh interpreter (``child.py``), because every
CLI call starts with empty per-modulus caches and users pay for filling
them; repeating a workload in one process would time warm caches instead.

``--trace 0`` starts the import-only child several times (``setup_s``,
median over those starts and the repetitions), then repeats the workload
for about ``--seconds`` seconds and reports the median body time
(``wall_s``) and the median ``ru_maxrss`` of the children
(``peak_rss_mb``).  Both times are in reference seconds (``calib.py``):
wall time scaled by the speed of a fixed loop timed next to it in the same
child, so that the host's drift cancels; the raw wall-clock medians are
printed beside them.  ``--trace 1`` runs the workload untraced, under
``spans.Tracer`` and untraced again, and reports the per-layer metrics of
``spans.py``; the spans are kept in ``.bench_work/spans-NAME.jsonl``.

Outputs are checked after the clock stops (``checks.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (operations; their ratio is the error rate) and ``metrics``.
The exit code is 0 when the benchmark measured, even if checks failed, and
nonzero without a result line when it could not measure at all, for
example outside a checkout that holds the program's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: import-only starts per run, besides one warm-up start that is not counted
SETUP_STARTS = 6

#: the whole run, checks included, must end within this many seconds
DEADLINE_S = 170.0
#: time kept back from the children for the checks
CHECK_RESERVE_S = 25.0

#: files the program needs; without them the benchmark refuses to run
PROGRAM_FILES = (
    "src/kgsums/__init__.py",
    "src/kgsums/cli.py",
    "scripts/bound_ratio_grid.py",
    "scripts/reciprocal_ratio_grid.py",
    "tests/baselines.json",
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot measure; no result is printed."""


def child_env() -> dict:
    """The children's environment: the checkout's sources first, and BLAS/OpenMP
    threads at most nproc (1 when unset; the timed paths use FFTs, not BLAS)."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, "1"))
        except ValueError:
            n = 1
        env[var] = str(max(1, min(n, nproc)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """sha256 over the program, its baselines and the benchmark (the checkout
    a benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [
        p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    files.append(ROOT / "tests" / "baselines.json")
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(env: dict) -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {
        "git_rev": rev,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


class Runner:
    def __init__(self, name: str, seed: int, work: Path, env: dict, deadline: float):
        self.name, self.seed, self.work, self.env = name, seed, work, env
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str) -> tuple[dict | None, Path]:
        """Run one child; returns its result (None if it failed) and work dir."""
        self.count += 1
        work = self.work / f"{mode}-{self.count}"
        work.mkdir(parents=True)
        result_file = work / "result.json"
        cmd = [
            sys.executable, str(BENCH / "child.py"), "--workload", self.name,
            "--seed", str(self.seed), "--work", str(work), "--result", str(result_file),
            "--mode", mode,
        ]
        start = time.monotonic()
        timeout = self.deadline - CHECK_RESERVE_S - start
        if timeout <= 0:
            return None, work
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{mode} child timed out after {timeout:.0f} s", file=sys.stderr)
            return None, work
        if proc.returncode != 0 or not result_file.exists():
            print(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None, work
        result = json.loads(result_file.read_text())
        result["setup_raw_s"] = result["ready_monotonic"] - start
        result["setup_s"] = calib.to_reference(result["setup_raw_s"], result["cal_ns"][0])
        return result, work

    def setup_only(self) -> dict:
        result, _ = self.spawn("setup")
        if result is None:
            raise BenchError("the program could not be imported")
        return result


def measure(runner: Runner, seconds: float) -> tuple[dict, list, list[str]]:
    """End-to-end metrics over repetitions of about ``seconds`` seconds."""
    runner.setup_only()  # warm-up: byte-compiles the sources once per checkout
    starts = [runner.setup_only() for _ in range(SETUP_STARTS)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(runner.spawn("run"))
        elapsed = time.monotonic() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    ok = [r for r, _ in reps if r is not None and r["error"] is None]
    if not ok:
        raise BenchError("no repetition of the workload completed")
    starts += ok
    samples = {
        "setup_s": [r["setup_s"] for r in starts],
        "wall_s": [r["body_ref_ns"] / 1e9 for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    raw = {
        "setup_s": [r["setup_raw_s"] for r in starts],
        "wall_s": [r["body_ns"] / 1e9 for r in ok],
    }
    lines = [
        f"  {m} = {statistics.median(v):.6g} {END_TO_END_UNITS[m]} "
        f"(median of {len(v)}; min {min(v):.6g}, max {max(v):.6g})"
        + (f"; wall clock {statistics.median(raw[m]):.6g} s" if m in raw else "")
        for m, v in samples.items()
    ]
    metrics = {m: {"value": statistics.median(v), "unit": END_TO_END_UNITS[m]} for m, v in samples.items()}
    return metrics, reps, lines


def trace(runner: Runner) -> tuple[dict, list, list[str], list[str]]:
    """Per-layer metrics from one traced repetition between two untraced ones.

    The overhead compares reference times (``calib.py``), and the untraced
    time is the mean of the repetitions before and after, so a machine that
    speeds up or slows down during the run biases the tracing overhead less.
    """
    import spans

    reps = [runner.spawn(mode) for mode in ("run", "trace", "run")]
    if any(r is None or r["error"] for r, _ in reps):
        raise BenchError("a traced or untraced repetition failed")
    traced, traced_work = reps[1]
    plain_ns = (reps[0][0]["body_ref_ns"] + reps[2][0]["body_ref_ns"]) / 2
    span_file = WORK / f"spans-{runner.name}.jsonl"
    shutil.move(traced_work / "spans.jsonl", span_file)
    layer, defects = spans.layer_metrics(spans.read_spans(span_file), traced["body_ns"])
    layer["trace.overhead_frac"] = (traced["body_ref_ns"] - plain_ns) / plain_ns
    if not traced["restored"]:
        defects.append("a traced name was not restored to the original object")
    metrics = {m: {"value": layer[m], "unit": u} for m, u in spans.UNITS.items()}
    lines = [f"  {m} = {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"  spans: {span_file.relative_to(ROOT)} ({traced['bindings']} names rebound and restored)")
    return metrics, reps, lines, defects


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [f for f in PROGRAM_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"not a kgsums checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    env = child_env()
    print("run_record " + json.dumps(run_record(env), sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work, env, deadline)
    try:
        if args.trace:
            metrics, reps, lines, defects = trace(runner)
        else:
            metrics, reps, lines = measure(runner, args.seconds)
            defects = []
        tally = checks.check(args.workload, args.seed, ROOT, reps)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} repetitions={len(reps)}")
    for line in lines:
        print(line)
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_rate = {tally.failed}/{tally.attempted} = {rate:.6g} fraction")
    for note in tally.notes + defects:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and not defects,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
