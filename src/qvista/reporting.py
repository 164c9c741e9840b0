"""Run manifests and canonical report rendering.

Every CLI run embeds a manifest (command, input hashes, parameters, seed,
version) in its report; reruns with an identical manifest must produce byte
identical output, which canonical JSON (sorted keys, shortest round-trip
floats) guarantees.

The canonical bytes of a report ``x`` are exactly what
``json.dumps(_plain(x), sort_keys=True)`` writes with an indent of 1, plus a
newline, with each array read as its ``tolist()``.  ``report_render`` produces
them without the stdlib's pure-Python indenting encoder: it splices the
indentation in itself, renders each list of scalars with one C-encoder call,
and formats a float matrix straight from its array with one ``repr`` per
distinct float, quoted (``"inf"``, ``"nan"``) when the float is not finite.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__


def default_seed() -> int:
    """The seed in ``QVISTA_SEED``, 0 when it is unset; ValueError unless it
    is a non-negative integer."""
    text = os.environ.get("QVISTA_SEED", "0")
    if not text.isdecimal():
        raise ValueError(f"QVISTA_SEED must be a non-negative integer, got {text!r}")
    return int(text)


@dataclass
class RunManifest:
    command: str
    inputs: dict = field(default_factory=dict)  # path -> sha256
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": __version__,
        }


def _plain(obj):
    """Recursively convert report objects to JSON-serializable plain data."""
    # plain Python scalars first: a report's large lists are lists of them
    if type(obj) is float:
        return obj if math.isfinite(obj) else repr(obj)
    if obj is None or type(obj) in (int, str, bool):
        return obj
    if hasattr(obj, "to_dict"):
        return _plain(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # a row of finite plain floats needs no conversion (the sum of a row
        # is finite only when every item is)
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            return list(obj)
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.size and obj.dtype.kind == "f":
            return obj  # a float matrix: the renderer formats the array itself
        return _plain(obj.tolist())
    return obj


def report_render(report, fmt: str = "json", manifest: RunManifest | None = None) -> bytes:
    """Canonical JSON or a plain text summary of ``report``, with ``manifest``
    merged in under the key ``"manifest"`` (a non-dict report moves under
    ``"report"``).

    The JSON bytes equal ``json.dumps(_plain(x), sort_keys=True)`` with an
    indent of 1, plus a newline, where ``x`` is the merged report and each array
    is read as its ``tolist()``.  The C encoder renders each list of scalars,
    and one formatter writes a 2-D float array, or a list of equally long float
    rows, from its array.  The text summary prints an array as its ``tolist()``.
    """
    data = _plain(report)
    if manifest is not None:
        if not isinstance(data, dict):
            data = {"report": data}
        data["manifest"] = _plain(manifest.to_dict())
    if fmt == "json":
        parts: list[str] = []
        _render_json(data, 0, parts)
        parts.append("\n")
        text = "".join(parts)
        parts.clear()  # free the pieces before the bytes are made
        return text.encode()
    if fmt == "text":
        lines: list[str] = []
        _render_text(data, lines, 0)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _render_json(data, depth: int, parts: list[str]) -> None:
    """Append what ``json.dumps(data, sort_keys=True)`` writes with an indent
    of 1 for plain data nested ``depth`` levels deep."""
    inner = "\n" + " " * (depth + 1)
    close = "\n" + " " * depth
    if isinstance(data, np.ndarray):  # a float matrix that _plain kept
        _render_float_matrix(data, depth, parts)
    elif isinstance(data, dict):
        if not data:
            parts.append("{}")
            return
        sep = "{" + inner
        for key in sorted(data):
            parts.append(sep + json.dumps(key) + ": ")
            _render_json(data[key], depth + 1, parts)
            sep = "," + inner
        parts.append(close + "}")
    elif isinstance(data, list):
        if not data:
            parts.append("[]")
        elif _is_float_matrix(data):
            _render_float_matrix(np.array(data), depth, parts)
        elif not any(isinstance(v, (dict, list, np.ndarray)) for v in data):
            row = json.dumps(data, separators=("," + inner, ": "))  # one C-encoder call
            parts.append("[" + inner + row[1:-1] + close + "]")
        else:
            sep = "[" + inner
            for v in data:
                parts.append(sep)
                _render_json(v, depth + 1, parts)
                sep = "," + inner
            parts.append(close + "]")
    else:
        parts.append(json.dumps(data))


def _is_float_matrix(rows) -> bool:
    """A list of equally long, non-empty lists whose items are all ``float``."""
    if type(rows[0]) is not list or not rows[0]:
        return False
    width = len(rows[0])
    if any(type(r) is not list or len(r) != width for r in rows):
        return False
    return set(map(type, itertools.chain.from_iterable(rows))) == {float}


def _render_float_matrix(matrix: np.ndarray, depth: int, parts: list[str]) -> None:
    """Append the indented JSON of a non-empty 2-D float array at ``depth``:
    one ``repr`` per distinct bit pattern (``-0.0`` stays apart from ``0.0``),
    a JSON string of it when the float is not finite, as ``_plain`` writes it.
    One sort of the bits finds the distinct patterns (numpy's hashed unique of
    integers is slower) and ``np.searchsorted`` each entry's, with no argsort."""
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    text = np.array([repr(v) if math.isfinite(v) else json.dumps(repr(v))
                     for v in distinct.view(np.float64).tolist()], dtype=object)
    pad = "\n" + " " * (depth + 1)
    row_open = "[" + pad + " "
    item_sep = "," + pad + " "
    row_close = pad + "]"
    sep = "[" + pad
    for row in np.searchsorted(distinct, bits):
        parts.append(sep + row_open + item_sep.join(text[row].tolist()) + row_close)
        sep = "," + pad
    parts.append("\n" + " " * depth + "]")


def _render_text(data, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(data, np.ndarray):
        data = data.tolist()
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list, np.ndarray)):
                lines.append(f"{pad}{k}:")
                _render_text(v, lines, indent + 1)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list, np.ndarray)):
                _render_text(v, lines, indent)
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{data}")

