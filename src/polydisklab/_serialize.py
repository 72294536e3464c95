"""Canonical JSON and CSV output used by the command-line layer.

JSON is canonical so identical inputs and seeds produce byte-identical
files: object keys sorted, floats printed with 17 significant digits,
complex numbers always encoded as [re, im] pairs.  CSV files carry a
header row, complex columns split into _re/_im, and LF line endings.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import DomainError

SIG_DIGITS = 17


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("non-finite value in serialized output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, f".{SIG_DIGITS}g")


def to_jsonable(obj):
    """Normalize to plain dict/list/str/int/float/bool/None.

    Complex values become [re, im]; numpy scalars and arrays collapse to
    python numbers and nested lists.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def _dump(obj, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(
                f"{pad_in}{json.dumps(str(k))}: {_dump(obj[k], level + 1)}"
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_dump(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def dumps_canonical(obj):
    """Serialize a normalized structure to canonical JSON text, indented
    by two spaces a level."""
    return _dump(to_jsonable(obj), 0) + "\n"


def write_json(path, obj):
    text = dumps_canonical(obj)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text


def as_complex(value):
    """Decode a JSON value as a complex number ([re, im] or a number)."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            return complex(float(re), float(im))
    elif isinstance(value, (int, float)):
        return complex(value)
    raise DomainError("complex values must be [re, im] pairs or numbers")


def complex_csv_header(names):
    cols = []
    for name in names:
        cols.extend([f"{name}_re", f"{name}_im"])
    return cols


def write_points_csv(path, points, names=None):
    """Write complex point rows with split re/im columns."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, None]
    if names is None:
        names = [f"z{k + 1}" for k in range(pts.shape[1])]
    header = complex_csv_header(names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(pts.shape[0]):
            row = []
            for k in range(pts.shape[1]):
                row.append(format_float(pts[i, k].real))
                row.append(format_float(pts[i, k].imag))
            writer.writerow(row)
