"""JSON file formats for measures, Hermitian parameters and reports.

Complex scalars are always encoded as [re, im] pairs; matrices are
row-major nested lists, exactly n x n.  A measure file looks like

    { "n": 2,
      "atoms": [ {"x": -1.0, "W": [[[1,0],[0,0]],[[0,0],[1,0]]]} ],
      "ac":    [ {"a": 0.0, "b": 1.0, "rho": ...} ],
      "C":     ...optional Hermitian offset... }
"""

from __future__ import annotations

import json
import math
from typing import Optional, Tuple

import numpy as np

from .herglotz import HerglotzMatrix
from .measure import (DEFAULT_TOLS, ACPiece, Atom, MatrixMeasure, MeasureError, Tolerances,
                      is_count, is_hermitian, is_real, shown)


class InputError(ValueError):
    """Malformed or invalid input file; message carries the location."""


def _complex_in(v, where: str) -> complex:
    if is_real(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        if not (is_real(v[0]) and is_real(v[1])):
            raise InputError(f"{where}: [re, im] entries must be real numbers, got {shown(v)}")
        return complex(v[0], v[1])
    raise InputError(f"{where}: expected [re, im] pair, got {shown(v)}")


def matrix_in(rows, n: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"{where}: expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}: row {i} must have {n} entries")
        for j, v in enumerate(row):
            out[i, j] = _complex_in(v, f"{where}[{i}][{j}]")
    if not np.isfinite(out).all():      # json reads NaN and Infinity
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise InputError(f"{where}[{i}][{j}]: not a finite number")
    return out


def matrix_out(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def measure_from_dict(doc: dict, tols: Tolerances = DEFAULT_TOLS,
                      where: str = "measure") -> Tuple[MatrixMeasure, Optional[np.ndarray]]:
    n = doc.get("n") if isinstance(doc, dict) else None
    if not is_count(n):     # not 1.7, "1" or true
        raise InputError(f"{where}: missing or invalid field 'n'")
    for key in ("atoms", "ac"):
        if not isinstance(doc.get(key, []), list):
            raise InputError(f"{where}: field '{key}' must be a list")
    atoms, pieces = [], []      # MatrixMeasure checks the terms; one that is not an object is empty
    for k, t in enumerate(doc.get("atoms", [])):
        t = t if isinstance(t, dict) else {}
        atoms.append(Atom(t.get("x"), matrix_in(t.get("W"), n, f"{where}: atoms[{k}].W")))
    for k, t in enumerate(doc.get("ac", [])):
        t = t if isinstance(t, dict) else {}
        pieces.append(ACPiece(t.get("a"), t.get("b"), matrix_in(t.get("rho"), n, f"{where}: ac[{k}].rho")))
    try:
        omega = MatrixMeasure(n, atoms, pieces, tols)
    except MeasureError as exc:
        raise InputError(f"{where}: {exc}") from exc
    c = matrix_in(doc["C"], n, f"{where}: C") if "C" in doc else None
    return omega, c


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_herglotz(path: str, tols: Tolerances = DEFAULT_TOLS) -> HerglotzMatrix:
    """Measure file plus optional C offset, as a Herglotz function (C=0 default)."""
    omega, c = measure_from_dict(_read_json(path), tols, where=path)
    try:
        return HerglotzMatrix.from_measure(omega, c)
    except ValueError as exc:       # C is not Hermitian
        raise InputError(f"{path}: {exc}") from exc


def load_hermitian(path: str) -> np.ndarray:
    """Hermitian matrix file: either bare rows or {"D": rows}."""
    doc = _read_json(path)
    rows = doc.get("D", doc) if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{path}: expected a matrix")
    a = matrix_in(rows, len(rows), f"{path}: D")
    if not is_hermitian(a):
        raise InputError(f"{path}: matrix is not Hermitian")
    return a


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dump_json(obj, fh) -> None:
    """Strict JSON: a non-finite float (an infinite residual, say) is null."""
    json.dump(_finite_or_null(obj), fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")
