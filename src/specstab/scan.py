"""Grid scanner for the forbidden-energy structure of a measure.

For each grid point it reports support membership (decided analytically,
in one lookup for the whole grid), finiteness of the divergence matrix
T(x), and the diagonal of the regularized integrals ∫ dΩ(y)/((x-y)² + 1/m²)
along a schedule of regularization levels m.  Those diagonals are the
open-set layers whose growth past a threshold exposes the
countable-intersection structure of the divergence set; the scanner emits
the raw values so any threshold can be audited downstream.  Each chunk of
grid points forms one coefficient block, ``RegularizedKernel`` over its
points and the schedule's levels (points, then levels, then terms), and
integrates each (point, level) row on its own; a chunk's size keeps the
block within a fixed entry budget, however long the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Tuple, Union

import numpy as np

from .measure import (Divergent, Kernel, MatrixMeasure, RegularizedKernel, integrate,
                      is_count, is_divergent, is_real, shown)
from .herglotz import HerglotzMatrix, t_matrix

DEFAULT_M_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
# coefficients per block, 4 MiB: a chunk's (points, levels, terms) block stays
# bounded however long the grid is (a 1500-point grid over K = 512 atoms ran
# faster in 4 MiB chunks than in 1, 2 or 16 MiB ones)
_BLOCK_ENTRIES = 1 << 19
# a grid's largest step count: a record holds about 2.8 KB at n = 3, so a
# million points is about 3 GB of records
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    a: float
    b: float
    steps: int
    m_schedule: ClassVar[Tuple[int, ...]] = DEFAULT_M_SCHEDULE

    def __post_init__(self):
        if not (is_real(self.a) and is_real(self.b)):
            raise ValueError(f"grid ends must be real numbers, got {shown(self.a)}, {shown(self.b)}")
        if not math.isfinite(float(self.b) - float(self.a)):    # a NaN or infinite end, or an overflow
            raise ValueError(f"grid ends and their span must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"grid requires a < b, got [{self.a}, {self.b}]")
        if not (is_count(self.steps) and 2 <= self.steps <= _MAX_STEPS):
            raise ValueError(f"grid needs 2 to {_MAX_STEPS} integer steps, got {shown(self.steps)}")

    def grid(self) -> np.ndarray:
        return np.linspace(float(self.a), float(self.b), self.steps)


@dataclass(eq=False)
class GridRecord:
    x: float
    in_support: bool
    t_finite: bool
    t_value: Union[np.ndarray, Divergent]
    regularized_diagonals: Dict[int, List[float]] = field(default_factory=dict)

    @property
    def divergence_directions(self) -> Tuple[int, ...]:
        return self.t_value.directions if is_divergent(self.t_value) else ()


class _Row(Kernel):
    """A coefficient row computed beforehand, for a single use: ``integrate``
    overwrites it in place."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def coefficients(self, pts, k):
        return self.row


def scan_forbidden(omega: MatrixMeasure, config: ScanConfig) -> List[GridRecord]:
    """Evaluate support membership, T-finiteness and regularized layers:
    per chunk of grid points, one coefficient block over its points and
    all levels, each (point, level) row then integrated on its own (one
    product over the whole block would differ from the one-level integrals
    in the last bits).  A chunk holds at most _BLOCK_ENTRIES coefficients."""
    h = HerglotzMatrix.from_measure(omega)
    grid = config.grid()
    keys = [int(m) for m in config.m_schedule]
    ms = np.array(config.m_schedule, dtype=float)
    chunk = max(1, _BLOCK_ENTRIES // (ms.size * omega._pts.size))
    points = list(zip(grid.tolist(), omega.on_support(grid).tolist()))
    records = []
    for start in range(0, grid.size, chunk):
        block = RegularizedKernel(grid[start:start + chunk], ms).coefficients(omega._pts, omega._k)
        for (x, in_support), rows in zip(points[start:start + chunk], block):
            t = t_matrix(h, x)
            reg = {k: integrate(_Row(row), omega).real.diagonal().tolist()
                   for k, row in zip(keys, rows)}
            records.append(GridRecord(x, in_support, not is_divergent(t), t, reg))
    return records


def record_to_row(rec: GridRecord, n: int) -> list:
    """Flatten a record into the fixed CSV row layout."""
    row = [rec.x, int(rec.in_support), int(rec.t_finite)]
    row.append(";".join(str(i) for i in rec.divergence_directions))
    row.extend(np.asarray(rec.t_value).real.diagonal().tolist() if rec.t_finite else [""] * n)
    for m in DEFAULT_M_SCHEDULE:
        row.extend(rec.regularized_diagonals[m])
    return row


def csv_header(n: int) -> list:
    head = ["x", "in_support", "t_finite", "divergent_directions"]
    head += [f"t_diag_{i}" for i in range(n)]
    for m in DEFAULT_M_SCHEDULE:
        head += [f"reg_m{m}_diag_{i}" for i in range(n)]
    return head


def record_to_dict(rec: GridRecord) -> dict:
    out = {
        "x": rec.x,
        "in_support": rec.in_support,
        "t_finite": rec.t_finite,
        "regularized_diagonals": {str(m): v for m, v in rec.regularized_diagonals.items()},
    }
    if rec.t_finite:
        out["t_diagonal"] = np.asarray(rec.t_value).real.diagonal().tolist()
    else:
        out["divergent_directions"] = list(rec.divergence_directions)
    return out
