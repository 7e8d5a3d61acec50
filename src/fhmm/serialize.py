"""Deterministic human-readable model documents.

All model files are JSON with floats rendered at 17 significant digits so a
load reproduces the original float64 values bit-exactly, and with sorted keys
plus fixed indentation so identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError


def fmt_float(x: float) -> str:
    """Render a float at 17 significant digits (exact float64 round-trip)."""
    return format(float(x), ".17g")


def array_to_doc(arr: np.ndarray):
    """Nested lists of 17-digit decimal strings."""
    if arr.ndim == 1:
        return [fmt_float(v) for v in arr]
    return [array_to_doc(row) for row in arr]


def array_from_doc(doc) -> np.ndarray:
    return np.asarray(doc, dtype=np.float64)


def dump_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_doc(path: str | Path, doc: dict) -> None:
    Path(path).write_text(dump_doc(doc))


def read_doc(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def read_checked(path: str | Path, convert):
    """convert(the document at `path`).  A file that is not a JSON object,
    a missing field, a value that does not convert or a failed check raises
    DomainError naming the file; a missing file, FileNotFoundError."""
    try:
        doc = read_doc(path)
        if not isinstance(doc, dict):
            raise DomainError("not a JSON object")
        return convert(doc)
    except KeyError as exc:
        raise DomainError(f"{path}: missing field {exc.args[0]!r}") from None
    # DomainError and json's decoding errors are ValueErrors
    except (ValueError, TypeError) as exc:
        raise DomainError(f"{path}: {exc}") from None
