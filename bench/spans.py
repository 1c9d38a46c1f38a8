"""Span tracing from outside the program, and the per-layer metrics built on it.

:class:`Tracer` wraps the public functions of each layer and the weight
classes' construction and norm getters.  ``from .modmath import
inverse_table`` copies the binding into the importing module, so a wrapper
is bound in every ``kgsums.*`` namespace (and every grid-script namespace)
that holds the original object, and every binding is put back by
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.

Each span is ``[id, parent_id, name, group, start_ns, end_ns, counts]``; the
group names the per-layer metric its self time goes to, and ``counts`` maps
count-metric names to the work the call did.
"""

from __future__ import annotations

import json
import sys
import time

# --- counts taken from a call's result ------------------------------------


def _table_bytes(tracer, result):
    # distinct arrays only: the program hands out the same cached table again
    if id(result) in tracer.seen_tables:
        return None
    tracer.seen_tables[id(result)] = result
    return {"modmath.table_bytes": int(result.nbytes)}


def _characters(tracer, result):
    return {"expsums.characters": len(result)}


def _dft_len(tracer, result):
    return {"expsums.dft_len": int(result.size)}


def _weights(tracer, result):
    return {"bilinear.weights": len(result)}


def _terms(tracer, result):
    return {"bilinear.terms": int(result.terms)}


def _fold_ops(tracer, result):
    return {"counting.fold_ops": (result.depth - 1) * result.base_size * result.modulus.q}


def _csv_bytes(tracer, result):
    return {"csvio.bytes": len(result)}


#: (module, function, group, count) for every traced function
FUNCTIONS = [
    ("kgsums.modmath", "factorize", "modmath", None),
    ("kgsums.modmath", "unit_group", "modmath", None),
    ("kgsums.modmath", "unit_residues", "modmath", _table_bytes),
    ("kgsums.modmath", "inverse_table", "modmath", _table_bytes),
    ("kgsums.modmath", "unit_mask", "modmath", _table_bytes),
    ("kgsums.expsums", "kloosterman_row", "expsums", _dft_len),
    ("kgsums.expsums", "primitive_characters", "expsums", _characters),
    ("kgsums.expsums", "character", "expsums", None),
    ("kgsums.expsums", "char_values", "expsums", None),
    ("kgsums.expsums", "gauss_row", "expsums", _dft_len),
    ("kgsums.expsums", "kloosterman", "expsums", None),
    ("kgsums.expsums", "gauss", "expsums", None),
    ("kgsums.bilinear", "make_weights", "bilinear.weights", _weights),
    ("kgsums.bilinear", "bilinear_kloosterman", "bilinear.eval", _terms),
    ("kgsums.bilinear", "bilinear_gauss", "bilinear.eval", _terms),
    ("kgsums.counting", "jr_congruence", "counting", None),
    ("kgsums.counting", "rr_congruence", "counting", None),
    ("kgsums.counting", "reciprocal_table", "counting", _fold_ops),
    ("kgsums.counting", "product_table", "counting", _fold_ops),
    ("kgsums.counting", "j2_reference_ratio", "counting", None),
    ("kgsums.experiments", "run_experiment", "experiments", None),
    ("kgsums.experiments", "average_sweep", "experiments", None),
    ("kgsums.experiments", "build_weight_vector", "experiments", None),
    ("kgsums.experiments", "build_char_weight_vector", "experiments", None),
    ("kgsums.experiments", "max_kloosterman_abs", "experiments", None),
    ("kgsums.bounds", "bound_value", "bounds", None),
    ("kgsums.csvio", "emit_csv", "csvio", None),
    ("kgsums.csvio", "render_csv", "csvio", _csv_bytes),
    ("kgsums.cli", "main", "cli", None),
    ("bound_ratio_grid", "run_grid", "scripts", None),
    ("reciprocal_ratio_grid", "run_grid", "scripts", None),
]

#: (module, class, member) of the weight classes, all in group bilinear.weights
WEIGHT_MEMBERS = [
    (mod, cls, member)
    for mod, cls in (("kgsums.bilinear", "WeightVector"), ("kgsums.bilinear", "CharWeightVector"))
    for member in ("__init__", "norm1", "norm2", "norm_inf")
]

#: per-layer self-time metric of each group
SELF_TIME = {
    "modmath": "modmath.self_s",
    "expsums": "expsums.self_s",
    "bilinear.weights": "bilinear.weights_s",
    "bilinear.eval": "bilinear.eval_s",
    "counting": "counting.self_s",
    "experiments": "experiments.self_s",
    "bounds": "bounds.self_s",
    "csvio": "csvio.self_s",
    "cli": "cli.self_s",
    "scripts": "scripts.self_s",
}

#: call-count metrics: metric -> (group, or None) and (span name, or None)
CALLS = {
    "modmath.calls": ("modmath", None),
    "expsums.calls": ("expsums", None),
    "counting.calls": ("counting", None),
    "experiments.runs": (None, "kgsums.experiments.run_experiment"),
}

#: every per-layer metric with its unit, in report order
UNITS = {
    "modmath.self_s": "s",
    "modmath.calls": "count",
    "modmath.table_bytes": "bytes",
    "expsums.self_s": "s",
    "expsums.calls": "count",
    "expsums.characters": "count",
    "expsums.dft_len": "count",
    "bilinear.weights_s": "s",
    "bilinear.weights": "count",
    "bilinear.eval_s": "s",
    "bilinear.terms": "count",
    "counting.self_s": "s",
    "counting.calls": "count",
    "counting.fold_ops": "count",
    "experiments.self_s": "s",
    "experiments.runs": "count",
    "bounds.self_s": "s",
    "csvio.self_s": "s",
    "csvio.bytes": "bytes",
    "cli.self_s": "s",
    "scripts.self_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}


def namespaces() -> list:
    """The imported ``kgsums`` modules and grid-script modules."""
    scripts = {mod for mod, _, _, _ in FUNCTIONS if not mod.startswith("kgsums")}
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "kgsums" or n.startswith("kgsums.") or n in scripts)
    ]


class Tracer:
    """Records spans around the listed program functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.seen_tables: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, group: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    name, group, time.perf_counter_ns(), 0, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[6] = count(tracer, result)
                return result
            finally:
                span[5] = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def _bind(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Bind a wrapper wherever a traced function or weight member is held.

        Functions of modules that are not imported are skipped.
        """
        held_in = namespaces()
        for mod_name, attr, group, count in FUNCTIONS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            original = vars(module)[attr]
            prefix = mod_name if mod_name.startswith("kgsums") else f"scripts.{mod_name}"
            wrapper = self._wrap(f"{prefix}.{attr}", group, original, count)
            for ns in held_in:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._bind(ns, key, wrapper)
        for mod_name, cls_name, member in WEIGHT_MEMBERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[member]
            name = f"{mod_name}.{cls_name}.{member}"
            if isinstance(original, property):
                new = property(self._wrap(name, "bilinear.weights", original.fget))
            else:
                new = self._wrap(name, "bilinear.weights", original)
            self._bind(cls, member, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[tuple[object, str, object]]:
        """Every (owner, name, original) pair this tracer rebinds when installed."""
        return list(self._patches)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        keys = ("id", "parent", "name", "group", "start_ns", "end_ns", "counts")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list[dict], body_ns: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and a list of trace defects.

    A defect is a span that is not inside its parent, or a negative self
    time; with neither, self times of all spans add up to the covered time.
    """
    defects = []
    by_id = {s["id"]: s for s in spans}
    child_ns = dict.fromkeys(by_id, 0)
    covered_ns = 0
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        if s["parent"] < 0:
            covered_ns += dur
            continue
        p = by_id[s["parent"]]
        if not p["start_ns"] <= s["start_ns"] <= s["end_ns"] <= p["end_ns"]:
            defects.append(f"span {s['id']} {s['name']} is not inside span {p['id']} {p['name']}")
        child_ns[p["id"]] += dur
    metrics = dict.fromkeys(UNITS, 0)
    for s in spans:
        self_ns = s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
        if self_ns < 0:
            defects.append(f"span {s['id']} {s['name']} has negative self time {self_ns} ns")
        metrics[SELF_TIME[s["group"]]] += self_ns
        for metric, (group, name) in CALLS.items():
            if s["group"] == group or s["name"] == name:
                metrics[metric] += 1
        for metric, value in (s["counts"] or {}).items():
            metrics[metric] += value
    for metric in SELF_TIME.values():
        metrics[metric] /= 1e9
    metrics["trace.coverage"] = covered_ns / body_ns if body_ns > 0 else 0.0
    return metrics, defects
