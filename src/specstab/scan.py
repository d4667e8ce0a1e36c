"""Grid scanner for the forbidden-energy structure of a measure.

For each grid point it reports support membership (decided analytically),
finiteness of the divergence matrix T(x), and the diagonal of the
regularized integrals ∫ dΩ(y)/((x-y)² + 1/m²) along a schedule of
regularization levels m.  Those diagonals are the open-set layers whose
growth past a threshold exposes the countable-intersection structure of
the divergence set; the scanner emits the raw values so any threshold can
be audited downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Tuple, Union

import numpy as np

from .measure import (Divergent, MatrixMeasure, RegularizedKernel, integrate,
                      is_divergent)
from .herglotz import HerglotzMatrix, t_matrix

DEFAULT_M_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class ScanConfig:
    a: float
    b: float
    steps: int
    m_schedule: ClassVar[Tuple[int, ...]] = DEFAULT_M_SCHEDULE

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"grid requires a < b, got [{self.a}, {self.b}]")
        if np.isinf([self.a, self.b]).any():
            raise ValueError(f"grid ends must be finite, got [{self.a}, {self.b}]")
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")

    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.steps)


@dataclass
class GridRecord:
    x: float
    in_support: bool
    t_finite: bool
    t_value: Union[np.ndarray, Divergent]
    regularized_diagonals: Dict[int, List[float]] = field(default_factory=dict)

    @property
    def divergence_directions(self) -> Tuple[int, ...]:
        return self.t_value.directions if is_divergent(self.t_value) else ()


def scan_forbidden(omega: MatrixMeasure, config: ScanConfig) -> List[GridRecord]:
    """Evaluate support membership, T-finiteness and regularized layers."""
    h = HerglotzMatrix.from_measure(omega)
    records = []
    for x in config.grid():
        x = float(x)
        t = t_matrix(h, x)
        reg = {}
        for m in config.m_schedule:
            v = integrate(RegularizedKernel(x, float(m)), omega)
            reg[int(m)] = [float(d) for d in np.real(np.diag(v))]
        records.append(GridRecord(x, omega.on_support(x), not is_divergent(t), t, reg))
    return records


def record_to_row(rec: GridRecord, n: int) -> list:
    """Flatten a record into the fixed CSV row layout."""
    row = [rec.x, int(rec.in_support), int(rec.t_finite)]
    row.append(";".join(str(i) for i in rec.divergence_directions))
    if rec.t_finite:
        t = np.asarray(rec.t_value)
        row.extend(float(v) for v in np.real(np.diag(t)))
    else:
        row.extend("" for _ in range(n))
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
        out["t_diagonal"] = [float(v) for v in np.real(np.diag(np.asarray(rec.t_value)))]
    else:
        out["divergent_directions"] = list(rec.divergence_directions)
    return out
