"""Deterministic report objects and their serialization.

Reports round-trip losslessly through JSON and serialize to identical bytes
for identical inputs: keys are sorted, floats use repr, and the timestamp
comes from SOURCE_DATE_EPOCH (default 0) rather than the wall clock.

``_jsonable`` is the one serializer, applied once to the whole document:

- a dataclass becomes ``{field name: value}``, unless it defines a
  ``payload()`` method, whose dict is used instead (for renamed, derived
  or truncated keys);
- a ``Fraction`` becomes ``str(value)``: ``"7/8"``, and ``"1"`` for 1;
- a complex number becomes ``{"re": real, "im": imag}``;
- NaN and infinities, numpy scalars included, become the strings
  ``"nan"``, ``"inf"`` and ``"-inf"``, so the output is valid JSON;
- dict keys become ``str(k)``; tuples become lists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .errors import IoError


def _timestamp() -> str:
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if is_dataclass(value):
        payload = getattr(value, "payload", None)
        if callable(payload):
            return _jsonable(payload())
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        value = value.item()
    if isinstance(value, float) and value != value:  # NaN is not valid JSON
        return "nan"
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return value


def canonical_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def digest_inputs(inputs: dict) -> str:
    return hashlib.sha256(canonical_json(inputs).encode()).hexdigest()


@dataclass(frozen=True)
class Report:
    experiment: str
    inputs: dict
    payload: object  # a dict or a report dataclass
    interpretation: tuple[str, ...] = ()
    timestamp: str = field(default_factory=_timestamp)

    @property
    def inputs_digest(self) -> str:
        return digest_inputs(self.inputs)

    def to_json(self) -> str:
        return canonical_json({
            "experiment": self.experiment,
            "timestamp": self.timestamp,
            "inputs": self.inputs,
            "inputs_digest": self.inputs_digest,
            "results": self.payload,
            "interpretation": self.interpretation,
        })

    def to_csv(self) -> str:
        """Tabular view: grid-like payloads become one row per grid point."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        rows = _tabulate(_jsonable(self.payload))
        writer.writerow(["experiment", self.experiment])
        writer.writerow(["inputs_digest", self.inputs_digest])
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()


_GRID_KEYS = (
    ("sample_points", "partial_values"),
    ("eps_grid", "values"),
    ("cutoffs", "partial_sums"),
    ("s_grid", "direct_values", "log_values"),
    ("sigmas", "values"),
)


def _tabulate(payload: dict) -> list[list]:
    """Rows of an already serialized payload."""
    for keys in _GRID_KEYS:
        if all(k in payload and isinstance(payload[k], list) for k in keys):
            cols = [payload[k] for k in keys]
            if len({len(c) for c in cols}) == 1:
                out = [list(keys)]
                out.extend(list(vals) for vals in zip(*cols))
                return out
    # fall back to flat key/value rows
    out = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        out.append([key, value])
    return out


def emit(report: Report, format: str = "json", path: str | Path | None = None) -> str:
    """Render and write a report; '-' or None writes to stdout."""
    if format == "json":
        text = report.to_json()
    elif format == "csv":
        text = report.to_csv()
    else:
        raise IoError(f"unknown output format {format!r}")
    if path is None or str(path) == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}")
    return text
