"""Flat-file I/O: the experiment CSV schema.

CSV contract: the exact header below, floats rendered with 17 significant
digits (full float64 round trip, so emit -> parse -> emit is byte
identical), rows ordered by (q, bound_name).
"""

from __future__ import annotations

import typing
from pathlib import Path

from .errors import ConfigError
from .experiments import ExperimentRecord

#: (name, type) of each CSV column: the fields of ExperimentRecord, in order
_COLUMNS = tuple(typing.get_type_hints(ExperimentRecord).items())

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
