"""Deterministic report objects, their serialization, and the file boundary.

Files are read by ``read`` and written by ``write``, their text and paths as
UTF-8 whatever the locale.  A file that cannot be opened raises IoError
(``io-error: cannot read <path>: <reason>``, or ``cannot write``), one that
is not UTF-8 ParseError (``parse-error: <path> is not UTF-8 text: ...``).

Reports round-trip losslessly through JSON and serialize to identical bytes
for identical inputs: keys are sorted, floats use repr, and the timestamp
comes from SOURCE_DATE_EPOCH (default 0) rather than the wall clock.

``json_chunks`` renders a document in one recursive walk that appends text
chunks to a list, then yields them in order; ``canonical_json`` joins them.
The bytes are those of ``json.dumps(..., sort_keys=True, indent=2)`` plus a
final newline, under these type rules:

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
- a 1-D complex128 ndarray becomes the list of its complex values.  An empty
  array, or one with a NaN, infinite or -0.0 part, takes the per-value walk,
  because those parts render as strings or compare equal to 0.0.  Any other
  such array leaves a placeholder in the chunk list, and placeholders are
  rendered in batches as the chunks are yielded: a batch is the first
  placeholder not yet rendered and those after it at the same indentation,
  up to RENDER_BATCH values in all.  A batch takes one ``np.unique`` over its
  values and one over their float parts, one ``float.__repr__`` per distinct
  float, one text per distinct value and one join per array;
- any other type raises ``TypeError``, as in ``json.dumps``.

The walk runs in full before the first chunk is yielded, so an unsupported
value raises before anything is written.  ``emit`` writes a JSON report
chunk by chunk, to a file or to stdout, so no encoded copy of the whole
document is made; it still joins the chunks into the text it returns.
RENDER_BATCH bounds the memory a batch takes.  On the character-tables
benchmark workload 2**11 values raised a session's peak RSS by 0.5 MiB over
the former per-array renderer, 2**12 by 1.6 MiB and 2**14 or more by about
5 MiB, while the workload ran within about 1% of its time with the larger
batches; one unbounded batch took ``charlab table cyclic(1000)`` to 530 MiB,
against 253 MiB (x86-64 Linux, numpy 2.4.6).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError

# the most complex values rendered at once, unless one array alone holds more
RENDER_BATCH = 2**11
# bytes an output file buffers: a table's row texts of about 100 kB each then
# reach the file in about one system call per MiB, not one each
WRITE_BUFFER = 2**20

# NaN and infinities are not valid JSON
_NON_FINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _timestamp() -> str:
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _complex_array(value: np.ndarray, pad: str, out: list) -> None:
    """Append a 1-D complex128 array, rendered as a list of complex: as text when it
    is empty or has a NaN, infinite or -0.0 part, else as a placeholder (value, pad)
    that ``_rendered`` fills in."""
    parts = np.ascontiguousarray(value).view(np.float64)
    if not len(value) or not np.isfinite(parts).all() or np.signbit(parts[parts == 0]).any():
        _encode(value.tolist(), pad, out)
        return
    out.append((value, pad))


def _render(arrays: list, pad: str) -> list[str]:
    """The texts of placeholder arrays at one indentation, by distinct value."""
    inner = pad + "  "
    deep = inner + "  "
    distinct, at = np.unique(np.concatenate(arrays), return_inverse=True)
    floats, parts = np.unique(distinct.view(np.float64), return_inverse=True)
    reprs = list(map(repr, floats.tolist()))  # float.__repr__, called the fastest way
    texts = np.array([f'{{\n{deep}"im": {reprs[im]},\n{deep}"re": {reprs[re]}\n{inner}}}'
                      for re, im in parts.reshape(-1, 2).tolist()], dtype=object)
    items = texts[at].tolist()
    sep = ",\n" + inner
    out, start = [], 0
    for array in arrays:
        stop = start + len(array)
        out.append("[\n" + inner + sep.join(items[start:stop]) + "\n" + pad + "]")
        start = stop
    return out


def _rendered(chunks: list) -> Iterator[str]:
    """Yield the chunks in order, a placeholder as its text.  The first placeholder
    not yet rendered starts a batch: it and the placeholders after it at the same
    indentation, up to RENDER_BATCH values in all."""
    texts: dict[int, str] = {}
    for i, chunk in enumerate(chunks):
        if type(chunk) is str:
            yield chunk
            continue
        if i not in texts:
            pad = chunk[1]
            batch, size = [i], len(chunk[0])
            for j in range(i + 1, len(chunks)):
                other = chunks[j]
                if type(other) is str:
                    continue
                if other[1] != pad or size + len(other[0]) > RENDER_BATCH:
                    break
                batch.append(j)
                size += len(other[0])
            texts = dict(zip(batch, _render([chunks[j][0] for j in batch], pad)))
        yield texts.pop(i)


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


def json_chunks(payload) -> Iterator[str]:
    """The text of ``canonical_json(payload)``, as an iterator of its chunks.

    The walk over the payload runs in full before this returns, so an
    unsupported value raises TypeError before the first chunk.
    """
    out: list = []
    _encode(payload, "", out)
    out.append("\n")
    return _rendered(out)


def canonical_json(payload) -> str:
    return "".join(json_chunks(payload))


def digest_inputs(inputs: dict) -> str:
    return hashlib.sha256(canonical_json(inputs).encode()).hexdigest()


@dataclass(frozen=True)
class Report:
    experiment: str
    inputs: dict
    payload: object  # a dict or a report dataclass
    interpretation: tuple[str, ...] = ()
    timestamp: str = field(init=False, default_factory=_timestamp)

    @property
    def inputs_digest(self) -> str:
        return digest_inputs(self.inputs)

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of ``to_json()`` as an iterator of chunks; see ``json_chunks``."""
        return json_chunks({
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
    """Render and write a report, JSON chunk by chunk; '-' or None writes to stdout.
    Returns the text written."""
    if format == "json":
        chunks = list(report.json_chunks())
    elif format == "csv":
        chunks = [report.to_csv()]
    else:
        raise IoError(f"unknown output format {format!r}")
    write(chunks, path)
    return "".join(chunks)


def os_path(path: str | Path) -> str:
    """The operating system's name for a path whose text is UTF-8, whatever
    the locale; bytes that are not UTF-8 come in and go out as surrogates."""
    return os.fsdecode(str(path).encode("utf-8", "surrogateescape"))


def write(text: str | Iterable[str], path: str | Path | None = None) -> None:
    """Write rendered text, a string or its chunks in order; '-' or None writes to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or str(path) == "-":
        sys.stdout.flush()
        for chunk in chunks:
            sys.stdout.buffer.write(chunk.encode("utf-8", "surrogateescape"))
        return
    try:
        with open(os_path(path), "w", encoding="utf-8", errors="surrogateescape",
                  buffering=WRITE_BUFFER) as handle:
            handle.writelines(chunks)
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
