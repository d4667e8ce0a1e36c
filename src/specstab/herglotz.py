"""Herglotz matrix functions of a matrix-valued measure.

Realizes the canonical representation M(z) = C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y)
together with its real boundary values, the divergence matrix T(x) and
atomic mass recovery via -iε M(x+iε).  At a real x every value is closed
form: on the support M is the finite part M_fin, without the terms within
tol_x of x (``MatrixMeasure.mass_at``: atoms W, mean density ρ̄, jump J),
and M(x+i0) = M_fin + iπρ̄ where W = J = 0, with no limit elsewhere.  The
one ε-limit is ``atom_mass``: ``richardson_limit`` over the first half of
``EPS``, and over all of it where that half does not settle, each half sampled
once, by one call on a 1-D array of z.  Every analysis reads the measure's
tolerances, ``m.omega.tols``.  Points are checked where they enter a
kernel (``measure.as_point``) and by the one-point entries; ``t_matrix``
and ``integrate_cauchy`` also take a 1-D array of real x.
``boundary_value`` and ``max_mult_test_via`` read T(x), M_fin(x) and the
mass at x from a one-slot memo (``_t_and_m``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .measure import (DEFAULT_TOLS, CauchyKernel, Divergent, MatrixMeasure,
                      PoissonSquareKernel, Tolerances, _fro, _frozen, as_hermitian, as_matrix,
                      as_point, as_real_point, hermitian_part, integrate, is_batch, is_divergent)


class NotConvergedError(RuntimeError):
    """An eps-limit failed to settle within the schedule."""


class ConditioningError(np.linalg.LinAlgError):
    """A matrix that should be invertible is numerically singular."""


@dataclass(frozen=True, eq=False)
class HerglotzMatrix:
    """Hermitian offset C plus a matrix-valued measure; takes ownership of C, or
    stores its Hermitian part, -0.0 made +0.0, where that differs from C.
    The values at the last real point (``_t_and_m``) live in a slot that
    is not a field: repr and ``replace`` ignore it.  Equality is identity."""

    C: np.ndarray
    omega: MatrixMeasure

    def __post_init__(self):
        c, n = as_hermitian(self.C, "C"), self.omega.dim
        if c.shape != (n, n):
            raise ValueError(f"C must be {n}x{n}, got {c.shape}")
        h = hermitian_part(c) + 0.0
        object.__setattr__(self, "C", _frozen(c if h.tobytes() == c.tobytes() else h))
        # (bits of x, T(x), M_fin(x), mass at x) at the last real point of ``_t_and_m``
        object.__setattr__(self, "_last", (None,))

    @classmethod
    def from_measure(cls, omega: MatrixMeasure, C=None) -> "HerglotzMatrix":
        """C (zero if None) and omega; stores a copy of C."""
        if C is None:
            C = np.zeros((omega.dim, omega.dim))
        return cls(as_matrix(C, "C", copy=True), omega)

    @property
    def dim(self) -> int:
        return self.omega.dim

    def __call__(self, z: complex) -> np.ndarray:
        return evaluate(self, z)


@dataclass(eq=False)
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
    if (not np.iscomplexobj(z)) if is_batch(z) else as_point(z).imag == 0.0:
        raise ValueError("evaluate requires Im z != 0; use boundary_value for real x")
    return integrate_cauchy(m, z)


def integrate_cauchy(m: HerglotzMatrix, z, drop=None):
    """C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y) at z, or at each point of a 1-D
    array (batched as in ``CauchyKernel``); Divergent where a real z meets
    the support, or the finite part given ``integrate``'s ``drop``."""
    v = integrate(CauchyKernel(z), m.omega, drop)
    if not is_divergent(v):
        v += m.C    # in place: integrate's array is fresh
    return v


def t_matrix(m: HerglotzMatrix, x) -> Union[np.ndarray, Divergent]:
    """T(x) = ∫ dΩ(y)/(x-y)², or Divergent with the offending directions.

    For a 1-D array of real x the stack of T(x), or Divergent when any
    point is on the support (``integrate``'s all-or-nothing batch); exactly
    Hermitian, as a real kernel against the measure's weights."""
    return integrate(PoissonSquareKernel(x), m.omega)


_BITS = struct.Struct("d").pack


def _t_and_m(m: HerglotzMatrix, x: float):
    """At one real float x: ``t_matrix``, M_fin(x) (``integrate_cauchy``'s
    finite part) and ``MatrixMeasure._at``, kept on m for the last x, keyed
    by its bits (0.0 and -0.0 are two points): both criteria reuse them."""
    key, last = _BITS(x), m._last
    if last[0] != key:
        at = m.omega._at(x)
        t, mx = t_matrix(m, x), _frozen(integrate_cauchy(m, x, at[3]))
        last = (key, t if is_divergent(t) else _frozen(t), mx, at)
        object.__setattr__(m, "_last", last)
    return last[1:]


# the halving ε-schedule every limit samples: eps_j = 1e-2·2^-j, j = 0..40
EPS = _frozen(1e-2 * 0.5 ** np.arange(41))
_I_EPS = _frozen(1j * EPS)      # the offsets iε of atom_mass's samples
_MINUS_I_EPS = _frozen((-1j * EPS)[:, None, None])      # atom_mass's factor -iε


def richardson_limit(samples: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Limit as eps -> 0 of a sequence sampled on the halving schedule.

    ``samples`` is the stack (S, n, n) of the sequence at the first S eps
    of ``EPS``, all 41 or the first 20 (ValueError for any other S); a
    sample that could not be formed (a numerically singular inverse) is
    NaN.  The scan is that of a sequential loop: first-order Richardson
    extrapolation, stopping at the first extrapolate within tol_bv·max(1,
    its norm) of the previous one (Frobenius), the one stopping rule; a
    sequence that never settles uses all S samples.  ConditioningError is
    raised exactly when a NaN sample is among those consumed.  Returns (the
    converged extrapolate or None, the consumed (eps, sample) pairs, converged).
    """
    s = np.asarray(samples, dtype=complex)
    if s.shape[:1] not in ((EPS.size // 2,), EPS.shape):
        raise ValueError(f"expected {EPS.size} or {EPS.size // 2} ε-samples, got shape {s.shape}")
    r = 2.0 * s[1:] - s[:-1]     # r[i] extrapolates samples i, i+1
    # settled[i]: r[i + 1] within tol_bv of r[i], after samples 0..i+2
    settled = (_fro(r[1:] - r[:-1]) <= tols.tol_bv * np.maximum(1.0, _fro(r[1:]))).nonzero()[0]
    ok = bool(settled.size)
    used = int(settled[0]) + 3 if ok else len(s)
    unformed = np.isnan(s[:used]).any(axis=(1, 2)).nonzero()[0]
    if unformed.size:
        raise ConditioningError(
            f"the ε-sample at eps={EPS[unformed[0]]:.3e} could not be formed "
            "(numerically singular)")
    trace = list(zip(EPS[:used].tolist(), s[:used]))
    return (r[used - 2] if ok else None), trace, ok


def boundary_value(m: HerglotzMatrix, x: float) -> BoundaryReport:
    """M(x+i0) at a real point, plus T(x), from m's one-point memo.

    Where W = J = 0 at x (``MatrixMeasure.mass_at``: off the support, in a
    piece interior, at a junction of equal densities) the Hermitian part of
    M(x+i0) = M_fin(x) + iπρ̄ is the finite part M_fin(x), read-only and
    exactly Hermitian; at an atom or a jump there is no limit.  The report's
    ``eps_trace`` is always empty.
    """
    x = as_real_point(x, "boundary_value", batch=False)
    t, mx, (w, _, j, _) = _t_and_m(m, x)
    ok = w is None and j is None
    return BoundaryReport(x, mx if ok else None, ok, t, [])


def atom_mass(f, x: float, tols: Optional[Tolerances] = None) -> np.ndarray:
    """Mass of the point x recovered as the limit of -iε f(x+iε).

    ``f`` is a HerglotzMatrix or any Herglotz callable that maps a 1-D
    array of z to the stack of its values (an extension Weyl function,
    typically).  The limit reads ``tols`` when given, else the measure's
    own for a HerglotzMatrix and ``DEFAULT_TOLS`` for any other callable.
    Returns the Hermitian PSD mass, the zero matrix when x carries none.
    The rest of ``EPS`` is sampled, once, only where its first half does not
    settle: the result, or error, of one call on the whole schedule, bit for bit.
    """
    x = as_real_point(x, "atom_mass", batch=False)
    if tols is None:
        tols = f.omega.tols if isinstance(f, HerglotzMatrix) else DEFAULT_TOLS
    for part in (slice(EPS.size // 2), slice(EPS.size // 2, None)):
        new = _MINUS_I_EPS[part] * np.asarray(f(x + _I_EPS[part]))
        s = np.concatenate([s, new]) if part.start else new     # the second half under the first
        val, _, ok = richardson_limit(s, tols)
        if ok:
            return hermitian_part(val)
    raise NotConvergedError(f"atom mass limit at x={x} did not converge")
