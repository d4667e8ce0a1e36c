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

from .config import DEFAULT_TOLS, Tolerances
from .herglotz import HerglotzMatrix
from .measure import ACPiece, Atom, MatrixMeasure, MeasureError, is_hermitian


class InputError(ValueError):
    """Malformed or invalid input file; message carries the location."""


def _complex_in(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        try:
            return complex(float(v[0]), float(v[1]))
        except (TypeError, ValueError):
            raise InputError(f"{where}: [re, im] entries must be real numbers, "
                             f"got {v!r}") from None
    raise InputError(f"{where}: expected [re, im] pair, got {v!r}")


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
    try:
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError):
        raise InputError(f"{where}: missing or invalid field 'n'")
    atoms = []
    for k, a in enumerate(doc.get("atoms", [])):
        try:
            x = float(a["x"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"{where}: atoms[{k}].x missing or not a real number")
        atoms.append(Atom(x, matrix_in(a.get("W"), n, f"{where}: atoms[{k}].W")))
    pieces = []
    for k, p in enumerate(doc.get("ac", [])):
        try:
            a_, b_ = float(p["a"]), float(p["b"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"{where}: ac[{k}] needs real fields a, b")
        pieces.append(ACPiece(a_, b_, matrix_in(p.get("rho"), n, f"{where}: ac[{k}].rho")))
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


def load_measure(path: str, tols: Tolerances = DEFAULT_TOLS) -> Tuple[MatrixMeasure, Optional[np.ndarray]]:
    return measure_from_dict(_read_json(path), tols, where=path)


def load_herglotz(path: str, tols: Tolerances = DEFAULT_TOLS) -> HerglotzMatrix:
    """Measure file plus optional C offset, as a Herglotz function (C=0 default)."""
    omega, c = load_measure(path, tols)
    return HerglotzMatrix.from_measure(omega, c)


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
