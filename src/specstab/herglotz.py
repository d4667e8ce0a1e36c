"""Herglotz matrix functions of a matrix-valued measure.

Realizes the canonical representation M(z) = C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y)
together with its real boundary values, the divergence matrix T(x) and
atomic mass recovery via -iε M(x+iε).  All ε-limits (boundary values,
masses, and the divergence integrals of extension Weyl functions) run
through one halving ε-schedule, ``richardson_limit``, with Richardson
extrapolation and geometric blow-up detection; a closed-form fast path
replaces it whenever the real point is off the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .measure import (CauchyKernel, Divergent, MatrixMeasure,
                      PoissonSquareKernel, hermitian_part, is_divergent,
                      is_hermitian)


class NotConvergedError(RuntimeError):
    """An eps-limit failed to settle within the schedule."""


class InconsistencyError(RuntimeError):
    """Finite T(x) contradicted by the boundary limit: a tolerance bug."""


@dataclass(frozen=True)
class HerglotzMatrix:
    """Hermitian offset C plus a matrix-valued measure."""

    C: np.ndarray
    omega: MatrixMeasure

    def __post_init__(self):
        c = np.asarray(self.C, dtype=complex)
        n = self.omega.dim
        if c.shape != (n, n):
            raise ValueError(f"C must be {n}x{n}, got {c.shape}")
        if not is_hermitian(c):
            raise ValueError("C must be Hermitian")
        c.setflags(write=False)
        object.__setattr__(self, "C", c)

    @classmethod
    def from_measure(cls, omega: MatrixMeasure, C=None) -> "HerglotzMatrix":
        if C is None:
            C = np.zeros((omega.dim, omega.dim))
        return cls(np.asarray(C, dtype=complex), omega)

    @property
    def dim(self) -> int:
        return self.omega.dim

    def __call__(self, z: complex) -> np.ndarray:
        return evaluate(self, z)


@dataclass
class BoundaryReport:
    """Per-energy record of the boundary value and the divergence matrix."""

    x: float
    m_boundary: Optional[np.ndarray]   # Hermitian part of the limit; None if not converged
    converged: bool
    t_matrix: Union[np.ndarray, Divergent]
    eps_trace: List[Tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def t_finite(self) -> bool:
        return not is_divergent(self.t_matrix)


def evaluate(m: HerglotzMatrix, z: complex) -> np.ndarray:
    """M(z) for z off the real axis."""
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("evaluate requires Im z != 0; use boundary_value for real x")
    return integrate_cauchy(m, z)


def integrate_cauchy(m: HerglotzMatrix, z: complex):
    from .measure import integrate
    v = integrate(CauchyKernel(z), m.omega)
    if is_divergent(v):
        return v
    return m.C + v


def t_matrix(m: HerglotzMatrix, x: float) -> Union[np.ndarray, Divergent]:
    """T(x) = ∫ dΩ(y)/(x-y)², or Divergent with the offending directions."""
    from .measure import integrate
    v = integrate(PoissonSquareKernel(x), m.omega)
    if is_divergent(v):
        return v
    return hermitian_part(v)


def richardson_limit(sample: Callable[[float], np.ndarray],
                     tols: Tolerances = DEFAULT_TOLS,
                     order: int = 1):
    """Limit of sample(eps) as eps -> 0 on the halving schedule.

    Applies Richardson extrapolation of the given order (error assumed
    O(eps**order)) and stops at the first extrapolate within tol_bv of the
    previous one (Frobenius), or at a geometric blow-up: four extrapolate
    norms each over 1.8 times the last, ending above 1e8.  Returns
    (value, trace, converged); value is the converged extrapolate, a
    Divergent in the directions where the last sample's real diagonal
    exceeds 1e6 (all directions if none does), or None when the schedule
    ends undecided.  The trace records the raw samples.
    """
    w = 2.0 ** order
    eps = tols.eps0
    prev = np.asarray(sample(eps), dtype=complex)
    trace = [(eps, prev)]
    prev_r = None
    norms = []
    for _ in range(tols.max_halvings):
        eps *= 0.5
        cur = np.asarray(sample(eps), dtype=complex)
        trace.append((eps, cur))
        r = (w * cur - prev) / (w - 1.0)
        norms.append(float(np.linalg.norm(r)))
        if (prev_r is not None
                and np.linalg.norm(r - prev_r) <= tols.tol_bv * max(1.0, norms[-1])):
            return r, trace, True
        if (len(norms) >= 4 and norms[-1] > 1e8
                and all(norms[i + 1] > 1.8 * norms[i] for i in range(-4, -1))):
            dirs = tuple(int(i) for i in np.nonzero(np.real(np.diag(cur)) > 1e6)[0])
            return Divergent(dirs or tuple(range(cur.shape[0]))), trace, False
        prev, prev_r = cur, r
    return None, trace, False


def boundary_value(m: HerglotzMatrix, x: float,
                   tols: Tolerances = DEFAULT_TOLS) -> BoundaryReport:
    """M(x+i0) at a real point, plus T(x).

    Off the support the Cauchy kernel is nonsingular and the boundary
    value is computed exactly; on the support the ε-schedule limit is
    taken and the Hermitian part of the converged value reported.  When
    T(x) is finite the converged value must itself be Hermitian (to
    1e3·tol_bv); otherwise InconsistencyError is raised.
    """
    x = float(x)
    t = t_matrix(m, x)
    closed = integrate_cauchy(m, x)
    if not is_divergent(closed):
        # Real kernel values against Hermitian weights: already Hermitian.
        return BoundaryReport(x, hermitian_part(closed), True, t, [])

    val, trace, ok = richardson_limit(lambda e: evaluate(m, x + 1j * e), tols)
    if not ok:
        return BoundaryReport(x, None, False, t, trace)
    if not is_divergent(t) and not is_hermitian(val, 1e3 * tols.tol_bv):
        raise InconsistencyError(f"boundary value at x={x} not Hermitian despite finite T(x)")
    return BoundaryReport(x, hermitian_part(val), True, t, trace)


def atom_mass(f, x: float, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Mass of the point x recovered as the limit of -iε f(x+iε).

    ``f`` is a HerglotzMatrix or any callable z -> matrix that is Herglotz
    (an extension Weyl function, typically).  Returns the Hermitian PSD
    mass, the zero matrix when x carries none.
    """
    val, _, ok = richardson_limit(lambda e: -1j * e * np.asarray(f(x + 1j * e)), tols)
    if not ok:
        raise NotConvergedError(f"atom mass limit at x={x} did not converge")
    return hermitian_part(val)
