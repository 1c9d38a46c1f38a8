"""The benchmark's workloads: their fixed sizes and the program calls they make.

Shared by the runner (``run.py``), the fresh-interpreter child (``child.py``)
and the output checks (``checks.py``).  Nothing here imports the program at
module level, so importing this file costs the child next to nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import sys
from pathlib import Path

NAMES = ("kloosterman-sweep", "gauss-sweep", "large-modulus", "baseline-grids")

#: The seed the stored reference in ``reference.json`` was computed for.
DEFAULT_SEED = 1

#: CLI ``sweep`` parameters; the seed and output path are added per run.
SWEEPS = {
    "kloosterman-sweep": {"family": "kloosterman", "Q": 512, "N": 32, "r": 2, "epsilon": 0.1},
    "gauss-sweep": {"family": "gauss", "Q": 128, "N": 16, "r": 2, "epsilon": 0.1},
}

#: ``large-modulus`` moduli: a prime (Bluestein-length DFT), 2^20, 10^6 and a
#: highly composite modulus, each with M = N = 1000 pm1 weights.
LARGE_MODULI = (1000003, 2**20, 10**6, 720720)
LARGE_M = LARGE_N = 1000

#: ``baseline-grids`` script modules, loaded from ``scripts/`` under these names.
GRID_SCRIPTS = ("bound_ratio_grid", "reciprocal_ratio_grid")


def sweep_argv(name: str, seed: int, out: Path) -> list[str]:
    p = SWEEPS[name]
    return [
        "sweep", "--family", p["family"], "--Q", str(p["Q"]), "--N", str(p["N"]),
        "--r", str(p["r"]), "--epsilon", str(p["epsilon"]), "--weights", "pm1",
        "--seed", str(seed), "--out", str(out),
    ]


def bilinear_argv(q: int, seed: int, out: Path) -> list[str]:
    return [
        "bilinear", "--q", str(q), "--M", str(LARGE_M), "--N", str(LARGE_N),
        "--weights", "pm1", "--seed", str(seed), "--method", "fast", "--out", str(out),
    ]


def large_csv(work: Path, q: int) -> Path:
    return work / f"bilinear-{q}.csv"


def sweep_csv(work: Path, name: str) -> Path:
    return work / f"{name}.csv"


def import_program(name: str, root: Path) -> dict:
    """Import what the workload calls; returns the modules by short name.

    This is the whole of the workload's set-up, so the child times it.
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if name != "baseline-grids":
        import kgsums.cli

        return {"cli": kgsums.cli}
    mods = {}
    for mod_name in GRID_SCRIPTS:
        spec = importlib.util.spec_from_file_location(mod_name, root / "scripts" / f"{mod_name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
        mods[mod_name] = module
    return mods


def _cli_call(main, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return {"argv": argv, "rc": rc, "stdout": buf.getvalue()}


def body_steps(name: str, mods: dict, seed: int, work: Path) -> list:
    """The timed part of one repetition, as the calls the child times one by one.

    A step is one CLI call or one ``run_grid``; the child runs the
    calibration loop between steps.  CLI output is captured, not printed:
    the sweep's exceptional count is read from it.
    """
    if name == "baseline-grids":
        return [mods["bound_ratio_grid"].run_grid, mods["reciprocal_ratio_grid"].run_grid]
    main = mods["cli"].main
    if name == "large-modulus":
        calls = [bilinear_argv(q, seed, large_csv(work, q)) for q in LARGE_MODULI]
    else:
        calls = [sweep_argv(name, seed, sweep_csv(work, name))]
    return [functools.partial(_cli_call, main, argv) for argv in calls]


def assemble(name: str, parts: list) -> dict:
    """Raw outputs of one repetition from its steps' results, for the checks.

    Grid outputs are objects, summarised by :func:`summarise` after the
    clock stops.
    """
    if name == "baseline-grids":
        (records, worst), j2_worst = parts
        return {"records": records, "thm21_worst": worst, "j2_worst": j2_worst}
    return {"calls": parts}


def run_body(name: str, mods: dict, seed: int, work: Path) -> dict:
    """All steps of one repetition, untimed."""
    return assemble(name, [step() for step in body_steps(name, mods, seed, work)])


def summarise(name: str, outputs: dict) -> dict:
    """JSON-ready form of :func:`run_body`'s outputs."""
    if name != "baseline-grids":
        return outputs
    fields = ("q", "M", "N", "seed", "abs_sum", "error_bound", "bound_name", "bound_value", "ratio")
    return {
        "records": [{f: getattr(r, f) for f in fields} for r in outputs["records"]],
        "thm21_worst": outputs["thm21_worst"],
        "j2_worst": outputs["j2_worst"],
    }
