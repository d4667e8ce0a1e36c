"""Self-adjoint extensions parametrized by a Hermitian matrix.

Each extension disjoint from the reference one is carried solely by its
Hermitian parameter D; its Weyl function is M_D(z) = (D - M(z))^{-1}.
This module evaluates M_D and decides whether a real energy is an
eigenvalue of maximum multiplicity:  T(x) finite and M(x+i0) = D, or
equivalently (through any second parameter D' with det(D - D') != 0) the
boundary value of M_{D'} equals (D' - D)^{-1} with the corresponding
divergence integral finite.  Both are closed form at every real x: the
mass at x is split off and the rest integrated as it is.
``max_mult_test`` also takes a 1-D array of real points: those off the
support share one T(x) and one boundary-value call.  Every parameter
must be n x n for the n of the measure it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .herglotz import (ConditioningError, HerglotzMatrix, _t_and_m, boundary_value,
                       evaluate, integrate_cauchy, t_matrix)
from .measure import (Divergent, PoissonSquareKernel, PreconditionError, _fro, _frozen,
                      as_hermitian, as_real_point, hermitian_part, integrate,
                      is_batch, is_divergent)


# smallest singular value of D' - D accepted by the second-parameter test
MIN_GAP_SV = 1e-8


@dataclass(frozen=True, eq=False)
class ExtensionParameter:
    """Hermitian n x n matrix naming one self-adjoint extension; takes ownership of D."""

    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "D", _frozen(as_hermitian(self.D, "D")))


@dataclass(eq=False)
class MaxMultEvidence:
    """What the maximum-multiplicity criterion saw at one energy."""

    x: float
    t_value: Union[np.ndarray, Divergent]
    m_boundary: Optional[np.ndarray]
    residual: float
    verdict: bool
    via: bool = False   # through D': t_value is T_{D'}, m_boundary is M_{D'}(x+i0)

    @property
    def t_finite(self) -> bool:
        return not is_divergent(self.t_value)

    def mass(self) -> np.ndarray:
        """Eigenvalue mass T(x)^{-1}; PreconditionError unless T(x) is finite.
        Through D' it is F T_{D'}(x)^{-1} F, since T_{D'} = F T F with
        F = M_{D'}(x+i0), which a finite T_{D'} comes with."""
        if not self.t_finite:
            raise PreconditionError(f"T(x) diverges at x={self.x} in directions "
                                    f"{self.t_value.directions}: no eigenvalue mass")
        inv = _inv_checked(np.asarray(self.t_value), "T(x)")
        return hermitian_part(self.m_boundary @ inv @ self.m_boundary if self.via else inv)


def as_parameter(d, n: int) -> np.ndarray:
    """The matrix of d: ``d.D`` for an ExtensionParameter, else a checked
    private copy of d, with no wrapper built; PreconditionError unless it
    is n x n, n the dimension of the measure."""
    D = d.D if isinstance(d, ExtensionParameter) else as_hermitian(d, "D", copy=True)
    if len(D) != n:
        raise PreconditionError(f"the parameter is {len(D)}x{len(D)} but the measure has n={n}")
    return D


def _inv_certified(a: np.ndarray, rel: float, floor: float = 0.0):
    """np.linalg.inv of a complex matrix, or of each of a stack, and the members
    it holds for: smallest singular value above max(floor, rel·max(1, largest)).

    It runs inv's own LAPACK gufunc without inv's wrapper (the private module
    numpy.linalg itself loads, since numpy 1.8: a rename fails at import), so
    an exactly singular member comes out NaN.  Since σ_min(A) ≥ 1/‖A⁻¹‖_F and
    σ_max(A) ≤ ‖A‖_F, the inverse certifies a member with 1/‖A⁻¹‖_F >
    2·max(floor, rel·max(1, ‖A‖_F)); the factor 2 covers the rounding of the
    computed inverse at the condition numbers (below 1/(2·rel)) this admits.
    The SVD decides the rest, a NaN inverse among them, so decisions and
    inverses are those of the SVD test followed by ``inv``.  Returns (inv,
    ok, smin): inv NaN on each rejected member, ok the accepted ones, smin the
    smallest singular value where the SVD ran, NaN elsewhere (a bool and a
    float for one matrix).
    """
    with np.errstate(all="ignore"):
        inv = _umath_linalg.inv(a, signature="D->D")
    if one := a.ndim == 2:
        # (2‖A⁻¹‖_F·max(floor, rel, rel·‖A‖_F))² < 1, one comparison per
        # term, so a NaN norm fails it (Python's max would drop the NaN)
        q = 4.0 * float(np.vdot(inv, inv).real)
        r = q * rel * rel
        if q * floor * floor < 1.0 and r < 1.0 and r * float(np.vdot(a, a).real) < 1.0:
            return inv, True, math.nan
        a, inv = a[None], inv[None]     # the gufunc inverts a and a[None] alike
    na2, ni2 = (np.einsum("...ij,...ij->...", b, b.conj()).real for b in (a, inv))
    check = ~(ni2 < 0.25 / np.maximum(floor * floor, rel * rel * np.maximum(1.0, na2)))
    ok, smin = ~check, np.full(check.shape, np.nan)
    if check.any():
        s = np.linalg.svd(a[check], compute_uv=False)
        smin[check] = s[:, -1]
        ok[check] = s[:, -1] > np.maximum(floor, rel * np.maximum(1.0, s[:, 0]))
        inv[~ok] = np.nan
    return (inv[0], bool(ok[0]), float(smin[0])) if one else (inv, ok, smin)


def _inv_checked(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a matrix, or of each of a stack.  One whose smallest
    singular value is within 1e-13·max(1, largest) of 0 is numerically
    singular: alone it raises ConditioningError, in a stack it is NaN.
    The inverse certifies the others (``_inv_certified``), so the SVD
    runs only on the members it cannot certify."""
    inv, ok, smin = _inv_certified(a, 1e-13)
    if a.ndim == 2 and not ok:
        raise ConditioningError(f"{what} is numerically singular (smallest sv {smin:.3e})")
    return inv


def extension_weyl(m: HerglotzMatrix, d):
    """The function z -> M_D(z) = (D - M(z))^{-1}, z off the real axis.

    For a 1-D array of z it returns the stack of values, with NaN for
    every z where D - M(z) is numerically singular; a single z raises
    ConditioningError there.
    """
    D = as_parameter(d, m.dim)
    return lambda z: _inv_checked(D - evaluate(m, z), "D - M(z)")


def max_mult_test(m: HerglotzMatrix, d, x):
    """Decide maximum multiplicity at x: T(x) finite and M(x+i0) = D.

    For a 1-D array of x, a list with one MaxMultEvidence per point, in
    order.  The points off the support share one ``t_matrix`` and one
    ``integrate_cauchy`` call, whose closed form is the boundary value
    there; each point on the support takes ``boundary_value`` alone, as
    does a single x (its T(x) and M(x) are read-only, from m's memo).
    """
    D = as_parameter(d, m.dim)
    if not is_batch(x):
        return _test_at(m, D, x)
    xs = as_real_point(x, "max_mult_test")
    on = m.omega.on_support(xs)
    off = xs[~on]
    t = t_matrix(m, off)
    mb = integrate_cauchy(m, off)
    closed = iter([MaxMultEvidence(p, tp, mp, r, r <= m.omega.tols.tol_match)
                   for p, tp, mp, r in zip(off.tolist(), t, mb, _fro(mb - D).tolist())])
    return [_test_at(m, D, p) if at else next(closed)
            for p, at in zip(xs.tolist(), on.tolist())]


def _test_at(m: HerglotzMatrix, D: np.ndarray, x: float) -> MaxMultEvidence:
    rep = boundary_value(m, x)
    residual = _fro(rep.m_boundary - D) if rep.converged else math.inf
    verdict = rep.t_finite and residual <= m.omega.tols.tol_match
    return MaxMultEvidence(rep.x, rep.t_matrix, rep.m_boundary, residual, verdict)


def _kernel_and_pinv(a: np.ndarray, tol: float):
    """A basis of the kernel of a Hermitian a (eigenvalues within tol of 0), and |a|⁺."""
    lam, v = np.linalg.eigh(a)
    on = np.abs(lam) > tol
    r = v[:, on]
    return v[:, ~on], (r / np.abs(lam[on])) @ r.conj().T


def _on(basis, a):
    """a compressed to the span of an orthonormal basis (a itself for None)."""
    return a if basis is None else basis.conj().T @ a @ basis


def _from(basis, a):
    """The inverse map of ``_on``: zero off the span of the basis."""
    return a if basis is None else basis @ a @ basis.conj().T


def max_mult_test_via(m: HerglotzMatrix, d, d_prime, x: float) -> MaxMultEvidence:
    """The same verdict computed through a second extension parameter D'.

    Checks that T_{D'}, the divergence integral of the measure of M_{D'},
    is finite and that M_{D'}(x+i0) = (D'-D)^{-1}, from m's memo of M_fin(x)
    and the mass W, ρ̄, J at x.  Near x, D' - M(x+iε) = A - J log(1/ε) -
    iW/ε + o(1), A = D' - M_fin(x) - iπρ̄, so M_{D'}(x+i0) = G =
    N(N*AN)^{-1}N*, N spanning the kernel of J_W within ker W = span N_W
    (X_W = N_W* X N_W; a kernel holds eigenvalues within rank_tol·‖·‖_F
    of 0).  Where the density at x reaches neither N*ρ̄N nor J_W,
    T_{D'} = G T_rest G + (GA - I)W⁺(AG - I), T_rest the finite part of
    T(x): off the support F T(x) F, F = (D' - M(x))^{-1}, as F' = F T F.
    Else T_{D'} diverges where the diagonal of Gρ̄G* +
    N_W(G_W A_W - I)|J_W|⁺(A_W G_W - I)N_W* exceeds rank_tol·max(1, its
    norm), or where it is largest.  Where N*AN is singular (``_inv_checked``),
    M_{D'} has a pole at x: T_{D'} diverges along its kernel.  D' - D needs
    its smallest singular value above max(MIN_GAP_SV, 1e-13·largest).
    """
    x = as_real_point(x, "max_mult_test_via", batch=False)
    D, Dp = as_parameter(d, m.dim), as_parameter(d_prime, m.dim)
    target, ok, smin = _inv_certified(Dp - D, 1e-13, MIN_GAP_SV)
    if not ok:      # absolutely or relatively singular
        raise PreconditionError(
            f"det(D - D') vanishes within tolerance (smallest sv {smin:.3e})")

    rank_tol = m.omega.tols.rank_tol
    t, mx, (w, rho, j, near) = _t_and_m(m, x)
    a = Dp - mx
    if rho is not None:
        a -= 1j * np.pi * rho
    # split off the atom at x, then the jump on what the atom leaves
    nw, w_pinv = (None, None) if w is None else _kernel_and_pinv(w, rank_tol * _fro(w))
    basis, j_pinv = nw, None
    if j is not None:
        kj, j_pinv = _kernel_and_pinv(_on(nw, j), rank_tol * _fro(j))
        basis = kj if nw is None else nw @ kj
    a_n = _on(basis, a)
    inv, ok, _ = _inv_certified(a_n, 1e-13)
    if not ok:      # a pole of M_{D'}: its mass at x lies along ker N*AN
        _, s, vh = np.linalg.svd(a_n)
        k = vh[s <= max(1e-13 * max(1.0, s[0]), s[-1])]
        dirs = np.flatnonzero(_from(basis, k.conj().T @ k).diagonal().real > rank_tol)
        return MaxMultEvidence(x, Divergent(tuple(dirs.tolist())), None, math.inf, False, via=True)
    g = _from(basis, inv)
    dense = rho is not None
    if dense and basis is not None:     # do the pieces at x reach span N?
        dense = _fro(_on(basis, rho)) > rank_tol * _fro(rho) or (
            j_pinv is not None and j_pinv.any())
    if dense:
        s = g @ rho @ g.conj().T
        if j_pinv is not None:
            eye = np.eye(m.dim)
            s = s + _from(nw, _on(nw, g @ a - eye) @ j_pinv @ _on(nw, a @ g - eye))
        diag = s.diagonal().real
        big = np.flatnonzero(diag > rank_tol * max(1.0, _fro(s))).tolist()
        t_val = Divergent(tuple(big) or (int(diag.argmax()),))
    else:
        if near:
            t = integrate(PoissonSquareKernel(x), m.omega, near)
        t_val = g @ t @ g
        if w_pinv is not None:
            eye = np.eye(m.dim)
            t_val += (g @ a - eye) @ w_pinv @ (a @ g - eye)
        t_val = hermitian_part(t_val)
    bval = hermitian_part(g)
    # relative match: the target norm grows like the inverse of the D-D' gap
    residual = _fro(bval - target) / max(1.0, _fro(target))
    verdict = (not is_divergent(t_val)) and residual <= m.omega.tols.tol_match
    return MaxMultEvidence(x, t_val, bval, residual, verdict, via=True)


def extension_for_point(m: HerglotzMatrix, x: float) -> Optional[ExtensionParameter]:
    """The parameter D := M(x+i0) making x maximal, or None when T(x) diverges."""
    rep = boundary_value(m, x)
    return ExtensionParameter(rep.m_boundary) if rep.t_finite else None


def mass_at_max_mult(m: HerglotzMatrix, d, x: float) -> np.ndarray:
    """Eigenvalue mass T(x)^{-1} at a verified maximum-multiplicity point."""
    ev = max_mult_test(m, d, as_real_point(x, "mass_at_max_mult", batch=False))
    if not ev.verdict:
        raise PreconditionError(f"x={x} is not a maximum-multiplicity point for this D")
    return ev.mass()
