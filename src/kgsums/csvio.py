"""Flat-file I/O: the experiment CSV schema and JSON run plans.

CSV contract: the exact header below, floats rendered with 17 significant
digits (full float64 round trip, so emit -> parse -> emit is byte
identical), rows ordered by (q, bound_name).
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .experiments import ExperimentRecord

#: (name, type) of each CSV column: the fields of ExperimentRecord, in order
_COLUMNS = tuple(
    (f.name, typing.get_type_hints(ExperimentRecord)[f.name]) for f in fields(ExperimentRecord)
)

CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def record_to_row(rec: ExperimentRecord) -> str:
    return ",".join(
        _fmt(getattr(rec, name)) if typ is float else str(getattr(rec, name))
        for name, typ in _COLUMNS
    )


def render_csv(records: list[ExperimentRecord]) -> str:
    ordered = sorted(records, key=lambda r: (r.q, r.bound_name))
    return "\n".join([CSV_HEADER] + [record_to_row(r) for r in ordered]) + "\n"


def emit_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    """Write records to ``path`` with the canonical header and row order."""
    path = Path(path)
    try:
        path.write_text(render_csv(records), encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(path: str | Path) -> list[ExperimentRecord]:
    """Read records back from a CSV produced by :func:`emit_csv`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_COLUMNS):
            raise ConfigError(f"malformed CSV row in {path}: {ln!r}")
        out.append(ExperimentRecord(**{name: typ(v) for (name, typ), v in zip(_COLUMNS, parts)}))
    return out


# ---------------------------------------------------------------------------
# Run plans
# ---------------------------------------------------------------------------

#: flags accepted per command; config keys must mirror them exactly
PLAN_SCHEMAS: dict[str, tuple[str, ...]] = {
    "kloosterman": ("q", "m", "n"),
    "gauss": ("q", "chi", "n"),
    "bilinear": ("q", "M", "N", "L", "weights", "seed", "method", "k", "family", "out"),
    "count": ("kind", "q", "K", "r", "Q", "method"),
    "region": ("mu", "nu"),
    "sweep": ("Q", "N", "r", "epsilon", "weights", "seed", "family", "out"),
    "verify": (),
}


@dataclass(frozen=True)
class RunPlan:
    """A CLI invocation captured as structured data."""

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in PLAN_SCHEMAS:
            raise ConfigError(f"unknown command {self.command!r}")
        allowed = PLAN_SCHEMAS[self.command]
        for key in self.options:
            if key not in allowed:
                raise ConfigError(
                    f"unknown config key {key!r} for command {self.command!r}"
                )


def default_plan() -> RunPlan:
    return RunPlan(
        command="bilinear",
        options={
            "q": 101,
            "M": 10,
            "N": 10,
            "L": 0,
            "weights": "const",
            "seed": 1,
            "method": None,  # the family's route
            "k": 1,
            "family": "kloosterman",
            "out": None,
        },
    )


def save_config(plan: RunPlan, path: str | Path) -> None:
    payload = {"command": plan.command, **plan.options}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_config(path: str | Path) -> RunPlan:
    """Load a JSON run plan; unknown keys are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read config from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if "command" not in raw:
        raise ConfigError(f"config {path} is missing the 'command' key")
    command = raw.pop("command")
    return RunPlan(command=command, options=raw)
