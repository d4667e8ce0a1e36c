"""Brute-force spectral analysis of one extension, for atomic measures.

Ground truth, independent of the boundary-value criterion: it uses no
boundary value and no ε-limit.  For a purely atomic Ω the real poles of
M_D are where H(x) := D - M(x) is singular.  With W_k = B_k B_k*, a shift
s off the atoms where H(s) is invertible and μ = 1/(x - s),

    H(x) = H(s) - B'(μI - X')^{-1} B'*,
    B' = [B_k/(s - x_k)],  X' = diag(1/(x_k - s)),

so the poles are s + 1/μ over the nonzero eigenvalues μ of the Hermitian
X' + B'* H(s)^{-1} B' (a pole at infinity is μ = 0), with the eigenvalue
multiplicity as kernel dimension.  The roots of a multiple pole carry the
rounding of 1/μ magnified by (p - s)², so each root with a neighbour
within 1e-6 takes one Newton step on the eigenvalue of H nearest 0 before
the roots are clustered.  Masses come from residue calculus on the kernel
of H at each pole, for all the poles in one stacked pass (one
eigendecomposition of the stack of H(p), one batched T(p), one inverse
per kernel dimension); maximum multiplicity means that the rank of the
mass equals the ambient dimension.  Every singular-or-not decision is
``extensions._inv_certified``: a shift whose H(s) has its smallest
singular value within KERNEL_TOL·max(1, largest) of 0 is singular, a
projected derivative V*T(p)V within 1e-10·max(1, largest) ill-conditioned;
the inverse certifies the others, so an SVD runs only on those it cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .extensions import ExtensionParameter, _inv_certified, as_parameter
from .herglotz import HerglotzMatrix, integrate_cauchy, t_matrix
from .measure import (as_matrix, as_real_point, hermitian_part, is_batch, is_divergent,
                      is_real, matrix_rank, shown)

# an eigenvalue of H within KERNEL_TOL·max(1, ‖H‖) of 0 counts as a kernel
# direction; a shift with one is numerically singular
KERNEL_TOL = 1e-8


class OracleError(ValueError):
    """Oracle preconditions violated (AC mass present, pole at endpoint...)."""


@dataclass(frozen=True, eq=False)
class PoleRecord:
    p: float
    mass: np.ndarray
    rank: int           # rank of the mass
    kernel_dim: int     # dimension of ker(D - M(p))
    is_max_mult: bool


def _h(m: HerglotzMatrix, D: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The stack of H(x) at a 1-D array of x; OracleError naming the
    first x on the support."""
    val = integrate_cauchy(m, xs)
    if is_divergent(val):
        raise OracleError(f"H evaluated on the support at x={xs[m.omega.on_support(xs)][0]}")
    return hermitian_part(D - val)


def real_poles(m: HerglotzMatrix, d, interval: Tuple[float, float]) -> List[Tuple[float, int]]:
    """All points in [a, b] where D - M is singular, with kernel dimensions.

    The shift is the midpoint of the widest gap between consecutive points
    of {a, b} ∪ atoms where H is not numerically singular.  Raises
    OracleError when there is none, or when the pole count differs from
    ν(b) - ν(a) + Σ_{a<x_k<b} rank W_k, ν counting the negative eigenvalues
    of H (H decreases between atoms, and crossing x_k takes rank W_k away).
    """
    D = as_parameter(d, m.dim)
    omega = m.omega
    if not omega.purely_atomic:
        raise OracleError("pole search requires a purely atomic measure")
    try:
        a, b = interval
    except (TypeError, ValueError):     # not iterable, or not two ends
        raise OracleError(f"the window must be two numbers (a, b), got {shown(interval)}") from None
    if not (is_real(a) and is_real(b) and math.isfinite(a) and math.isfinite(b)):
        raise OracleError(f"the window [{shown(a)}, {shown(b)}] must be finite real numbers")
    a, b = float(a), float(b)
    if not a < b:
        raise OracleError(f"empty or inverted interval [{a}, {b}]")
    xs, tols = omega.xs, omega.tols
    if np.any(np.abs(np.subtract.outer([a, b], xs)) <= tols.tol_x):
        raise OracleError("interval endpoints must not be atoms")

    pts = np.unique(np.concatenate([[a, b], xs]))
    shifts = 0.5 * (pts[:-1] + pts[1:])[np.argsort(-np.diff(pts), kind="stable")]
    for s in shifts[~omega.on_support(shifts)]:
        hs = _h(m, D, np.array([s]))[0]
        if _inv_certified(hs, KERNEL_TOL)[1]:
            break
    else:
        raise OracleError("D - M(x) is numerically singular at every shift tried")

    # W_k = B_k B_k*: one column sqrt(λ)u per eigenpair of W_k above rank_tol
    lam, vecs = omega.atom_eigh
    kept = lam > tols.rank_tol * lam.max(axis=1, keepdims=True)
    k_of, j_of = np.nonzero(kept)
    dist = s - xs[k_of]
    bp = (vecs[k_of, :, j_of] * (np.sqrt(lam[k_of, j_of]) / dist)[:, None]).T
    lin = np.diag(-1.0 / dist) + bp.conj().T @ np.linalg.solve(hs, bp)
    with np.errstate(divide="ignore"):
        xs_poles = s + 1.0 / np.linalg.eigvalsh(hermitian_part(lin))
    roots = np.sort(xs_poles[(a <= xs_poles) & (xs_poles <= b)])

    inside = (a < xs) & (xs < b)
    nu = np.count_nonzero(np.linalg.eigvalsh(_h(m, D, np.array([a, b]))) < 0.0, axis=1)
    expected = int(nu[1] - nu[0]) + int(kept[inside].sum())
    if roots.size != expected:
        raise OracleError(f"found {roots.size} poles in [{a}, {b}] where the "
                          f"inertia of D - M at the ends gives {expected}")

    # the Newton step on λ, the eigenvalue of H(p) nearest 0: λ' = -v*T(p)v
    close = np.concatenate(([False], np.diff(roots) <= 1e-6, [False]))
    near = close[:-1] | close[1:]
    if near.any():
        w, v = np.linalg.eigh(_h(m, D, roots[near]))
        r, j = np.arange(w.shape[0]), np.argmin(np.abs(w), axis=1)
        vj = v[r, :, j]
        slope = (vj.conj()[:, None, :] @ t_matrix(m, roots[near]) @ vj[:, :, None]).real.ravel()
        roots[near] += np.divide(w[r, j], slope, out=np.zeros_like(slope), where=slope != 0.0)
        roots.sort()

    cluster_tol = max(1e3 * tols.tol_x, 1e-10)
    out: List[Tuple[float, int]] = []
    for rt in roots.tolist():
        if out and abs(rt - out[-1][0]) <= cluster_tol:
            p, kdim = out[-1]
            out[-1] = ((p * kdim + rt) / (kdim + 1), kdim + 1)
        else:
            out.append((rt, 1))
    return out


def residue_mass(m: HerglotzMatrix, d, p, kernel_dim=None) -> np.ndarray:
    """Mass of the pole p of M_D: minus its residue, by kernel projection.

    With V an orthonormal basis of ker(D - M(p)) and M'(p) = T(p), the
    residue closed form is V (V* T(p) V)^{-1} V*.  For a 1-D array of
    poles (and of kernel dimensions, or one for all) it returns the stack
    of masses.  Raises OracleError, naming the pole, when p is on the
    support, is not a pole, is given a kernel_dim outside 1..n, or has an
    ill-conditioned projected derivative.
    """
    D = as_parameter(d, m.dim)
    ps = np.array(as_real_point(p, "residue_mass"), ndmin=1)
    w, vecs = np.linalg.eigh(_h(m, D, ps))
    if kernel_dim is None:
        scale = np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
        kernel_dim = np.count_nonzero(np.abs(w) <= KERNEL_TOL * scale[:, None], axis=1)
        if not kernel_dim.all():
            raise OracleError(f"x={ps[kernel_dim == 0][0]} is not a pole of M_D")
    kdims = np.broadcast_to(kernel_dim, ps.shape)
    bad = (kdims < 1) | (kdims > m.dim)
    if bad.any():
        raise OracleError(f"kernel_dim={kdims[bad][0]} at p={ps[bad][0]} is outside "
                          f"1..{m.dim}")
    # eigenvectors by increasing |eigenvalue|: the kernel comes first
    vecs = np.take_along_axis(vecs, np.argsort(np.abs(w), axis=1)[:, None, :], axis=2)
    t = t_matrix(m, ps)      # finite: _h has raised on the support
    out = np.empty_like(vecs)
    for k in np.unique(kdims).tolist():
        sel = kdims == k
        v = vecs[sel, :, :k]
        vh = v.conj().swapaxes(1, 2)
        inv, ok, _ = _inv_certified(vh @ t[sel] @ v, 1e-10)
        if not ok.all():
            raise OracleError(f"ill-conditioned projected derivative at p={ps[sel][~ok][0]}")
        out[sel] = hermitian_part(v @ inv @ vh)
    return out if is_batch(p) else out[0]


def classify(m: HerglotzMatrix, d, interval: Tuple[float, float]) -> List[PoleRecord]:
    """The record of every pole in the window, in increasing order.

    ``rank`` is the rank of the residue mass and ``kernel_dim`` the
    dimension of the kernel at the pole; they should agree, and a
    disagreement is left in the record for the caller to report.
    """
    n = m.dim
    if not isinstance(d, ExtensionParameter):   # checked here once, not by each call below
        d = ExtensionParameter(as_matrix(d, "D", copy=True))
    poles = real_poles(m, d, interval)
    ps = np.array([p for p, _ in poles], dtype=float)
    kdims = np.array([kdim for _, kdim in poles], dtype=int)
    masses = residue_mass(m, d, ps, kdims)
    ranks = matrix_rank(masses, m.omega.tols.rank_tol).tolist()
    return [PoleRecord(p, mass, rank, kdim, rank == n)
            for (p, kdim), mass, rank in zip(poles, masses, ranks)]
