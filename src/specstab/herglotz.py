"""Herglotz matrix functions of a matrix-valued measure.

Realizes the canonical representation M(z) = C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y)
together with its real boundary values, the divergence matrix T(x) and
atomic mass recovery via -iε M(x+iε).  All ε-limits (boundary values,
masses, and on the support the divergence integrals of extension Weyl
functions) run through one halving ε-schedule, ``richardson_limit``,
with Richardson extrapolation and geometric blow-up detection.  At a
real point the support lookup chooses the path: off the support the
boundary value is closed form, in a piece interior it is Sokhotski–Plemelj
C + PV∫ + iπρ(x), and only at an atom or a piece end an ε-limit.
The schedule is the constant ``EPS``, sampled in one array call:
``evaluate`` takes a 1-D array of z and returns the stack of M(z), so a
limit costs one ``integrate``.  Every analysis reads the tolerances of the
measure it runs on, ``m.omega.tols``.  Points are checked where they enter
a kernel (``measure.as_point``), and by ``atom_mass``, whose callable may be
any.  Real points come in arrays too: ``t_matrix`` and ``integrate_cauchy``
take a 1-D array of real x and return the stack of T(x) and of the
closed-form M(x), or a Divergent when any of the points is on the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .measure import (CauchyKernel, Divergent, MatrixMeasure, PoissonSquareKernel,
                      PreconditionError, as_point, hermitian_part, integrate,
                      is_batch, is_divergent, is_hermitian)


class NotConvergedError(RuntimeError):
    """An eps-limit failed to settle within the schedule."""


class ConditioningError(np.linalg.LinAlgError):
    """A matrix that should be invertible is numerically singular."""


@dataclass(frozen=True)
class HerglotzMatrix:
    """Hermitian offset C plus a matrix-valued measure; takes ownership of C."""

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
        """C (zero if None) and omega; stores a copy of C."""
        if C is None:
            C = np.zeros((omega.dim, omega.dim))
        return cls(np.array(C, dtype=complex), omega)

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


def evaluate(m: HerglotzMatrix, z) -> np.ndarray:
    """M(z) for z off the real axis: (n, n) for a number, (S, n, n) for a
    1-D array of S points (ValueError if any of them is real)."""
    # a complex batch holding a real z is CauchyKernel's ValueError
    if (not np.iscomplexobj(z)) if is_batch(z) else complex(z).imag == 0.0:
        raise ValueError("evaluate requires Im z != 0; use boundary_value for real x")
    return integrate_cauchy(m, z)


def integrate_cauchy(m: HerglotzMatrix, z):
    """C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y) at z, or at each point of a 1-D
    array (a complex one off the real axis, or a real one, batched as in
    ``CauchyKernel``); Divergent where a real z meets the support."""
    v = integrate(CauchyKernel(z), m.omega)
    if is_divergent(v):
        return v
    return m.C + v


def t_matrix(m: HerglotzMatrix, x) -> Union[np.ndarray, Divergent]:
    """T(x) = ∫ dΩ(y)/(x-y)², or Divergent with the offending directions.

    For a 1-D array of real x the stack of T(x), or Divergent when any
    point is on the support (``integrate``'s all-or-nothing batch)."""
    v = integrate(PoissonSquareKernel(x), m.omega)
    if is_divergent(v):
        return v
    return hermitian_part(v)


# the halving ε-schedule every limit samples: eps_j = 1e-2·2^-j, j = 0..40
EPS = 1e-2 * 0.5 ** np.arange(41)
EPS.setflags(write=False)


def richardson_limit(samples: np.ndarray, tols: Tolerances = DEFAULT_TOLS,
                     order: int = 1):
    """Limit as eps -> 0 of a sequence sampled on the halving schedule.

    ``samples`` is the stack (len(EPS), n, n) of the sequence at each eps
    of ``EPS`` (ValueError for any other length); a sample that could not
    be formed (a numerically singular inverse) is NaN.  The scan is the one a
    sequential loop over the schedule would make: Richardson extrapolation
    of the given order (error assumed O(eps**order)), stopping at the
    first extrapolate within tol_bv of the previous one (Frobenius), or at
    a geometric blow-up: four extrapolate norms each over 1.8 times the
    last, ending above 1e8; convergence wins when both fire at once.
    Only the samples up to that stop are consumed, and ConditioningError is
    raised exactly when a NaN sample is among them.  Returns (value, trace,
    converged); value is the converged extrapolate, a Divergent in the
    directions where the last consumed sample's real diagonal exceeds 1e6
    (all directions if none does), or None when the schedule ends
    undecided.  The trace holds the consumed (eps, sample) pairs.
    """
    s = np.asarray(samples, dtype=complex)
    if s.shape[:1] != EPS.shape:
        raise ValueError(f"expected a stack of {len(EPS)} ε-samples, got shape {s.shape}")
    w = 2.0 ** order
    r = (w * s[1:] - s[:-1]) / (w - 1.0)     # r[i] extrapolates samples i, i+1
    norms = np.linalg.norm(r, axis=(1, 2))
    grows = norms[1:] > 1.8 * norms[:-1]
    converged = np.zeros(norms.size, dtype=bool)
    converged[1:] = (np.linalg.norm(r[1:] - r[:-1], axis=(1, 2))
                     <= tols.tol_bv * np.maximum(1.0, norms[1:]))
    blown = np.zeros(norms.size, dtype=bool)
    blown[3:] = (norms[3:] > 1e8) & grows[:-2] & grows[1:-1] & grows[2:]
    stops = np.flatnonzero(converged | blown)
    used = int(stops[0]) + 2 if stops.size else len(EPS)
    unformed = np.flatnonzero(np.isnan(s[:used]).any(axis=(1, 2)))
    if unformed.size:
        raise ConditioningError(
            f"the ε-sample at eps={EPS[unformed[0]]:.3e} could not be formed "
            "(numerically singular)")
    trace = list(zip(EPS[:used].tolist(), s[:used]))
    if not stops.size:
        return None, trace, False
    i = used - 2
    if converged[i]:
        return r[i], trace, True
    last = s[i + 1]
    dirs = tuple(int(k) for k in np.nonzero(np.real(np.diag(last)) > 1e6)[0])
    return Divergent(dirs or tuple(range(last.shape[0]))), trace, False


def boundary_value(m: HerglotzMatrix, x: float) -> BoundaryReport:
    """M(x+i0) at a real point, plus T(x), from one support lookup.

    Off the support and in a piece interior the real-x Cauchy integral is
    exact: M(x), or the principal value C + PV∫, the Hermitian part of
    M(x+i0) = C + PV∫ + iπρ(x).  At an atom or a piece end the ε-schedule
    limit is taken and the Hermitian part of the converged value reported.
    """
    x = float(x)
    t = t_matrix(m, x)
    mx = integrate_cauchy(m, x)
    if not is_divergent(mx):
        # Real kernel values against Hermitian weights: already Hermitian.
        return BoundaryReport(x, hermitian_part(mx), True, t, [])

    val, trace, ok = richardson_limit(evaluate(m, x + 1j * EPS), m.omega.tols)
    return BoundaryReport(x, hermitian_part(val) if ok else None, ok, t, trace)


def atom_mass(f, x: float, tols: Optional[Tolerances] = None) -> np.ndarray:
    """Mass of the point x recovered as the limit of -iε f(x+iε).

    ``f`` is a HerglotzMatrix or any Herglotz callable that maps a 1-D
    array of z to the stack of its values (an extension Weyl function,
    typically).  The limit reads ``tols`` when given, else the measure's
    own for a HerglotzMatrix and ``DEFAULT_TOLS`` for any other callable.
    Returns the Hermitian PSD mass, the zero matrix when x carries none.
    """
    x = as_point(x)
    if tols is None:
        tols = f.omega.tols if isinstance(f, HerglotzMatrix) else DEFAULT_TOLS
    val, _, ok = richardson_limit(
        -1j * EPS[:, None, None] * np.asarray(f(x + 1j * EPS)), tols)
    if not ok:
        raise NotConvergedError(f"atom mass limit at x={x} did not converge")
    return hermitian_part(val)
