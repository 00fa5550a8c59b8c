"""Deterministic report objects, their serialization, and the file boundary.

Files are read by ``read`` and written by ``write``, their text and paths as
UTF-8 whatever the locale.  A file that cannot be opened raises IoError
(``io-error: cannot read <path>: <reason>``, or ``cannot write``), one that
is not UTF-8 ParseError (``parse-error: <path> is not UTF-8 text: ...``).

Reports round-trip losslessly through JSON and serialize to identical bytes
for identical inputs: keys are sorted, floats use repr, and the timestamp
comes from SOURCE_DATE_EPOCH (default 0) rather than the wall clock.

``canonical_json`` renders a whole document in one recursive walk that
appends text chunks to a list.  Its bytes are those of
``json.dumps(..., sort_keys=True, indent=2)`` plus a final newline, under
these type rules:

- strings and dict keys are escaped by ``encode_basestring_ascii``, the
  function ``json.dumps`` uses;
- ``None``, ``True`` and ``False`` become ``null``, ``true`` and ``false``;
  other ints use ``int.__repr__`` and floats ``float.__repr__``;
- NaN and infinities become the strings ``"nan"``, ``"inf"`` and ``"-inf"``,
  so the output is valid JSON;
- a complex number becomes ``{"im": imag, "re": real}``;
- a ``Fraction`` becomes ``str(value)``: ``"7/8"``, and ``"1"`` for 1;
- dict keys become ``str(k)``, the last of colliding keys winning, and are
  written sorted; tuples become lists;
- a dataclass is rendered by field, as the dict of its field names and
  values; a report dataclass therefore holds exactly the keys it prints,
  with derived values computed and long lists truncated when it is built;
- a numpy scalar is rendered through ``.item()``;
- a 1-D complex128 ndarray becomes the list of its complex values.  The text
  of each distinct value is made once and the items are joined in one go; an
  array with a NaN, infinite or -0.0 part takes the per-value walk instead,
  because those parts render as strings or compare equal to 0.0 as dict keys;
- any other type raises ``TypeError``, as in ``json.dumps``.
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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError

# NaN and infinities are not valid JSON
_NON_FINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _timestamp() -> str:
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _complex_array(value: np.ndarray, pad: str, out: list) -> None:
    """Append the text of a 1-D complex128 array, rendered as a list of complex."""
    parts = np.ascontiguousarray(value).view(np.float64)
    items = value.tolist()
    if not items or not np.isfinite(parts).all() or np.signbit(parts[parts == 0]).any():
        _encode(items, pad, out)
        return
    inner = pad + "  "
    deep = inner + "  "
    texts = {v: f'{{\n{deep}"im": {v.imag!r},\n{deep}"re": {v.real!r}\n{inner}}}'
             for v in set(items)}
    out.append("[\n" + inner + (",\n" + inner).join([texts[v] for v in items])
               + "\n" + pad + "]")


def _encode(value, pad: str, out: list) -> None:
    """Append the text of value, its nested lines indented past pad, to out."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float:
        out.append(_float(value))
    elif isinstance(value, complex):
        inner = pad + "  "
        out.append(f'{{\n{inner}"im": {_float(value.imag)},\n'
                   f'{inner}"re": {_float(value.real)}\n{pad}}}')
    elif isinstance(value, Fraction):
        out.append(_quote(str(value)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        items = {str(k): v for k, v in value.items()}
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(items):
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _encode(items[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(v) is int for v in value):
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value))
                       + "\n" + pad + "]")
            return
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _encode(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif kind is np.ndarray and value.ndim == 1 and value.dtype == np.complex128:
        _complex_array(value, pad, out)
    elif is_dataclass(value):
        _encode({f.name: getattr(value, f.name) for f in fields(value)}, pad, out)
    elif callable(getattr(value, "item", None)):  # numpy scalars
        _encode(value.item(), pad, out)
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def canonical_json(payload) -> str:
    out: list[str] = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)


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
        rows = _tabulate(json.loads(canonical_json(self.payload)))
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
    write(text, path)
    return text


def os_path(path: str | Path) -> str:
    """The operating system's name for a path whose text is UTF-8, whatever
    the locale; bytes that are not UTF-8 come in and go out as surrogates."""
    return os.fsdecode(str(path).encode("utf-8", "surrogateescape"))


def write(text: str, path: str | Path | None = None) -> None:
    """Write rendered text; '-' or None writes to stdout."""
    if path is None or str(path) == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
        return
    try:
        Path(os_path(path)).write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}")


def read(path: str | Path) -> str:
    """The text of an input file, decoded as UTF-8 with universal newlines."""
    try:
        with open(os_path(path), encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
