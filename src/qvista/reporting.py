"""Run manifests and canonical report rendering.

Every CLI run embeds a manifest (command, input hashes, parameters, seed,
version) in its report; reruns with an identical manifest must produce byte
identical output, which canonical JSON (sorted keys, shortest round-trip
floats) guarantees.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__


def default_seed() -> int:
    return int(os.environ.get("QVISTA_SEED", "0"))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    inputs: dict = field(default_factory=dict)  # path -> sha256
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
        }


def _plain(obj):
    """Recursively convert report objects to JSON-serializable plain data."""
    # plain Python scalars first: a report's large matrices arrive as lists of them
    if type(obj) is float:
        return obj if math.isfinite(obj) else repr(obj)
    if obj is None or type(obj) in (int, str, bool):
        return obj
    if hasattr(obj, "to_dict"):
        return _plain(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def report_render(report, fmt: str = "json") -> bytes:
    """Canonical JSON (sorted keys, repr floats) or a plain text summary."""
    data = _plain(report)
    if fmt == "json":
        return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode()
    if fmt == "text":
        lines: list[str] = []
        _render_text(data, lines, indent=0)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _render_text(data, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_text(v, lines, indent + 1)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _render_text(v, lines, indent)
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{data}")


def write_report(report, path, manifest: RunManifest | None = None, fmt: str = "json") -> None:
    data = _plain(report)
    if manifest is not None:
        data = dict(data) if isinstance(data, dict) else {"report": data}
        data["manifest"] = _plain(manifest.to_dict())
    with open(path, "wb") as fh:
        fh.write(report_render(data, fmt))
