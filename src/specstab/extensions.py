"""Self-adjoint extensions parametrized by a Hermitian matrix.

Each extension disjoint from the reference one is carried solely by its
Hermitian parameter D; its Weyl function is M_D(z) = (D - M(z))^{-1}.
This module evaluates M_D, checks the two-parameter resolvent-type
identity, and decides whether a real energy is an eigenvalue of maximum
multiplicity:  T(x) finite and M(x+i0) = D, or equivalently (through any
second parameter D' with det(D - D') != 0) the boundary value of M_{D'}
equals (D' - D)^{-1} with the corresponding divergence integral finite.
In both forms the support lookup chooses the path: closed form off the
support, Plemelj boundary values (T(x), T_{D'}(x) divergent) in a piece
interior, ε-limits at an atom or a piece end.  ``max_mult_test`` also
takes a 1-D array of real points: those off the support share one T(x)
and one closed-form boundary-value call.  Every parameter must be n x n
for the n of the measure it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .herglotz import (EPS, ConditioningError, HerglotzMatrix, boundary_value,
                       evaluate, integrate_cauchy, richardson_limit, t_matrix)
from .measure import (Divergent, PreconditionError, as_point, hermitian_part,
                      is_batch, is_divergent, is_hermitian)


# smallest singular value of D' - D accepted by the second-parameter test
MIN_GAP_SV = 1e-8


@dataclass(frozen=True)
class ExtensionParameter:
    """Hermitian n x n matrix naming one self-adjoint extension; takes ownership of D."""

    D: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.D, dtype=complex)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"D must be square, got shape {d.shape}")
        if not is_hermitian(d):
            raise ValueError("D must be Hermitian")
        d.setflags(write=False)
        object.__setattr__(self, "D", d)

    @property
    def dim(self) -> int:
        return self.D.shape[0]


@dataclass
class MaxMultEvidence:
    """What the maximum-multiplicity criterion saw at one energy."""

    x: float
    t_value: Union[np.ndarray, Divergent]
    m_boundary: Optional[np.ndarray]
    residual: float
    verdict: bool

    @property
    def t_finite(self) -> bool:
        return not is_divergent(self.t_value)

    def mass(self) -> np.ndarray:
        """Eigenvalue mass T(x)^{-1}; T(x) must be finite."""
        return hermitian_part(_inv_checked(np.asarray(self.t_value), "T(x)"))


def as_parameter(d, n: int) -> ExtensionParameter:
    """d itself if an ExtensionParameter, else a copy of d validated as one;
    PreconditionError unless it is n x n, n the dimension of the measure."""
    p = d if isinstance(d, ExtensionParameter) else ExtensionParameter(np.array(d, dtype=complex))
    if p.dim != n:
        raise PreconditionError(f"the parameter is {p.dim}x{p.dim} but the measure "
                                f"has n={n}")
    return p


def _inv_checked(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a matrix, or of each of a stack.  One whose smallest
    singular value is within 1e-13·max(1, largest) of 0 is numerically
    singular: alone it raises ConditioningError, in a stack it is NaN."""
    s = np.linalg.svd(a, compute_uv=False)
    ok = s[..., -1] > 1e-13 * np.maximum(1.0, s[..., 0])
    if ok.all():
        return np.linalg.inv(a)
    if a.ndim == 2:
        raise ConditioningError(f"{what} is numerically singular (smallest sv {s[-1]:.3e})")
    out = np.full_like(a, np.nan)
    out[ok] = np.linalg.inv(a[ok])
    return out


def extension_weyl(m: HerglotzMatrix, d):
    """The function z -> M_D(z) = (D - M(z))^{-1}, z off the real axis.

    For a 1-D array of z it returns the stack of values, with NaN for
    every z where D - M(z) is numerically singular; a single z raises
    ConditioningError there.
    """
    D = as_parameter(d, m.dim).D
    return lambda z: _inv_checked(D - evaluate(m, z), "D - M(z)")


def resolvent_identity_residual(m: HerglotzMatrix, d, d_prime, z: complex) -> float:
    """Relative Frobenius defect of both composed forms of M_D via M_{D'}."""
    n = m.dim
    D, Dp = as_parameter(d, n).D, as_parameter(d_prime, n).D
    eye = np.eye(n)
    md = extension_weyl(m, D)(z)
    mdp = extension_weyl(m, Dp)(z)
    delta = D - Dp
    form1 = mdp @ _inv_checked(delta @ mdp + eye, "(D-D')M_D' + I")
    form2 = _inv_checked(mdp @ delta + eye, "M_D'(D-D') + I") @ mdp
    scale = max(1e-300, float(np.linalg.norm(md)))
    return max(float(np.linalg.norm(md - form1)),
               float(np.linalg.norm(md - form2))) / scale


def max_mult_test(m: HerglotzMatrix, d, x):
    """Decide maximum multiplicity at x: T(x) finite and M(x+i0) = D.

    For a 1-D array of x, a list with one MaxMultEvidence per point, in
    order.  The points off the support share one ``t_matrix`` and one
    ``integrate_cauchy`` call, whose closed form is the boundary value
    there; each point on the support takes ``boundary_value`` alone.
    """
    D = as_parameter(d, m.dim).D
    if not is_batch(x):
        return _test_at(m, D, x)
    xs = as_point(x)
    on = m.omega.on_support(xs)
    off = xs[~on]
    t = t_matrix(m, off)
    mb = hermitian_part(integrate_cauchy(m, off))
    residuals = np.linalg.norm(mb - D, axis=(1, 2)).tolist()
    closed = iter([MaxMultEvidence(p, tp, mp, r, r <= m.omega.tols.tol_match)
                   for p, tp, mp, r in zip(off.tolist(), t, mb, residuals)])
    return [_test_at(m, D, p) if at else next(closed)
            for p, at in zip(xs.tolist(), on.tolist())]


def _test_at(m: HerglotzMatrix, D: np.ndarray, x: float) -> MaxMultEvidence:
    rep = boundary_value(m, x)
    if rep.converged:
        residual = float(np.linalg.norm(rep.m_boundary - D))
    else:
        residual = math.inf
    verdict = rep.t_finite and residual <= m.omega.tols.tol_match
    return MaxMultEvidence(x, rep.t_matrix, rep.m_boundary, residual, verdict)


def max_mult_test_via(m: HerglotzMatrix, d, d_prime, x: float) -> MaxMultEvidence:
    """The same verdict computed through a second extension parameter D'.

    Checks that the divergence integral of the measure of M_{D'} is finite
    and that M_{D'}(x+i0) = (D'-D)^{-1}, on the paths of ``boundary_value``.
    Where M(x+i0) is closed form and D' - M(x+i0) invertible, the boundary
    value is F = (D' - M(x+i0))^{-1}; off the support the divergence
    integral is F T(x) F, since F' = F M' F and M' = T; in a piece interior
    Im F = π F ρ F*, and it diverges where that diagonal exceeds
    rank_tol·max(1, ‖F ρ F*‖).  Elsewhere (at an atom, a piece end, or a
    pole of M_{D'}) both are ε-limits of M_{D'}, evaluated once over the
    whole schedule; the divergence integral is the limit of
    Im M_{D'}(x+iε)/ε, whose error is O(ε²), so it is extrapolated at
    second order.  Undecided is reported as Divergent(()).
    """
    D, dp = as_parameter(d, m.dim).D, as_parameter(d_prime, m.dim)
    gap = dp.D - D
    s = np.linalg.svd(gap, compute_uv=False)
    if s[-1] <= max(MIN_GAP_SV, 1e-13 * s[0]):     # absolutely or relatively singular
        raise PreconditionError(
            f"det(D - D') vanishes within tolerance (smallest sv {s[-1]:.3e})")
    target = np.linalg.inv(gap)

    tols = m.omega.tols
    t = t_matrix(m, x)
    mx = integrate_cauchy(m, x)     # C + PV∫ in a piece interior, lacking iπρ
    f = None
    if not is_divergent(mx):
        rho = m.omega.density_at(x) if is_divergent(t) else 0.0
        try:
            f = _inv_checked(dp.D - mx - 1j * np.pi * rho, "D' - M(x+i0)")
        except ConditioningError:
            pass    # x is a pole of M_{D'}: the ε-limit reports it Divergent
    if f is not None:
        bval = hermitian_part(f)
        if is_divergent(t):
            frf = f @ rho @ f.conj().T
            big = np.diag(frf).real > tols.rank_tol * max(1.0, float(np.linalg.norm(frf)))
            t_val = Divergent(tuple(np.flatnonzero(big).tolist()))
        else:
            t_val = hermitian_part(f @ t @ f)
    else:
        v = extension_weyl(m, dp)(x + 1j * EPS)
        im_over_eps = hermitian_part((v - v.conj().swapaxes(1, 2)) / 2j) / EPS[:, None, None]

        t_val, _, ok = richardson_limit(im_over_eps, tols, order=2)
        if t_val is None:
            return MaxMultEvidence(x, Divergent(()), None, math.inf, False)
        if ok:
            t_val = hermitian_part(t_val)

        bval, _, ok = richardson_limit(v, tols)
        if not ok:
            return MaxMultEvidence(x, t_val, None, math.inf, False)
        bval = hermitian_part(bval)
    # relative match: the target norm grows like the inverse of the D-D' gap
    # and the eps-limit precision scales with it
    residual = float(np.linalg.norm(bval - target)) / max(1.0, float(np.linalg.norm(target)))
    verdict = (not is_divergent(t_val)) and residual <= tols.tol_match
    return MaxMultEvidence(x, t_val, bval, residual, verdict)


def extension_for_point(m: HerglotzMatrix, x: float) -> Optional[ExtensionParameter]:
    """The parameter D := M(x+i0) making x maximal, or None when T(x) diverges."""
    rep = boundary_value(m, x)
    return ExtensionParameter(rep.m_boundary) if rep.t_finite else None


def mass_at_max_mult(m: HerglotzMatrix, d, x: float) -> np.ndarray:
    """Eigenvalue mass T(x)^{-1} at a verified maximum-multiplicity point."""
    ev = max_mult_test(m, d, x)
    if not ev.verdict:
        raise PreconditionError(f"x={x} is not a maximum-multiplicity point for this D")
    return ev.mass()
