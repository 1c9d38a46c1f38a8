"""One repetition of a workload in a fresh interpreter.

Usage (the runner starts it; run by hand for debugging):

    python3 bench/child.py --workload NAME --seed S --work DIR --result FILE \
        --mode setup|run|trace

Every per-modulus cache of the program starts empty here, as in a user's
CLI call.  The child reports when its imports finished on the monotonic
clock, which the runner compares with the time it started the process; the
wall time of each step of the body in ns; the calibration loop of
``calib.py``, timed right after the imports and after every step; and
``ru_maxrss``.  With ``--mode trace`` the body runs under
:class:`spans.Tracer` and the spans go to ``spans.jsonl`` in the work
directory.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description="one benchmark repetition")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    mods = workloads.import_program(args.workload, root)
    ready = time.monotonic()
    kgsums_file = Path(sys.modules["kgsums"].__file__).resolve()
    if root / "src" not in kgsums_file.parents:
        print(f"kgsums was imported from {kgsums_file}, not from {root / 'src'}", file=sys.stderr)
        return 3
    cal_ns = [calib.calibrate()]
    result = {"ready_monotonic": ready, "cal_ns": cal_ns}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        error, parts, step_ns = None, [], []
        try:
            for step in workloads.body_steps(args.workload, mods, args.seed, args.work):
                start = time.perf_counter_ns()
                parts.append(step())
                step_ns.append(time.perf_counter_ns() - start)
                cal_ns.append(calib.calibrate())
            outputs = workloads.assemble(args.workload, parts)
        except Exception:  # a failed body is reported, not fatal: the checks count it
            outputs, error = None, traceback.format_exc()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            bindings = tracer.bindings()
            tracer.uninstall()
            result["restored"] = all(vars(owner)[name] is orig for owner, name, orig in bindings)
            result["bindings"] = len(bindings)
            tracer.write(args.work / "spans.jsonl")
        result.update(
            step_ns=step_ns,
            body_ns=sum(step_ns),
            body_ref_ns=sum(
                calib.to_reference(ns, (cal_ns[i] + cal_ns[i + 1]) / 2) for i, ns in enumerate(step_ns)
            ),
            error=error,
            outputs=None if outputs is None else workloads.summarise(args.workload, outputs),
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
