"""Brute-force spectral analysis of one extension, for atomic measures.

Ground truth, independent of the boundary-value criterion: for purely
atomic measures M is a rational matrix function, H(x) := D - M(x) has
strictly decreasing eigenvalue branches between consecutive atoms (its
derivative is -T(x), negative definite), so every real pole of M_D is
found by bracketing sign changes of the sorted branches and bisecting.
Masses come from residue calculus on the kernel of H at each pole, and
the rank of the mass is the eigenspace dimension; maximum multiplicity
means that rank equals the ambient dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .extensions import _coerce_d, extension_weyl
from .herglotz import HerglotzMatrix, atom_mass, integrate_cauchy, t_matrix
from .measure import hermitian_part, is_divergent, matrix_rank


class OracleError(ValueError):
    """Oracle preconditions violated (AC mass present, pole at endpoint...)."""


@dataclass(frozen=True)
class PoleRecord:
    p: float
    mass: np.ndarray
    rank: int
    is_max_mult: bool


@dataclass
class SpectralReport:
    """All real poles of M_D in the window, with masses and verdicts."""

    poles: List[PoleRecord]
    scan_interval: Tuple[float, float]
    measure_ref: str = ""
    dim: int = 0

    def max_mult_points(self) -> List[float]:
        return [pr.p for pr in self.poles if pr.is_max_mult]


def _h_eigs(m: HerglotzMatrix, D: np.ndarray, x: float) -> np.ndarray:
    val = integrate_cauchy(m, x)
    if is_divergent(val):
        raise OracleError(f"H evaluated on the support at x={x}")
    return np.linalg.eigvalsh(hermitian_part(D - val))


def _bisect_branch(m, D, k: int, lo: float, hi: float, tol_x: float) -> float:
    """Root of the k-th sorted eigenvalue branch of H on [lo, hi].

    The branch is continuous and strictly decreasing, positive at lo and
    negative at hi (the caller has checked both), so plain bisection is
    exact up to tol_x.
    """
    while hi - lo > tol_x:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _h_eigs(m, D, mid)[k] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _polish_root(m: HerglotzMatrix, D: np.ndarray, p: float,
                 lo: float, hi: float) -> float:
    """Newton refinement of a bisected root of an eigenvalue branch.

    The branch derivative is -v* T(p) v for the corresponding eigenvector v,
    so a couple of Newton steps pin the root near machine precision, which
    the downstream eps-limit mass cross-checks need.
    """
    for _ in range(3):
        val = integrate_cauchy(m, p)
        if is_divergent(val):
            break
        h = hermitian_part(D - val)
        w, vecs = np.linalg.eigh(h)
        k = int(np.argmin(np.abs(w)))
        v = vecs[:, k]
        t = t_matrix(m, p)
        if is_divergent(t):
            break
        slope = -float(np.real(v.conj() @ (t @ v)))
        if slope >= 0.0:
            break
        step = -w[k] / slope
        if not lo < p + step < hi:
            break
        p += step
        if abs(step) <= 1e-16 * max(1.0, abs(p)):
            break
    return p


def real_poles(m: HerglotzMatrix, d, interval: Tuple[float, float],
               tols: Tolerances = DEFAULT_TOLS) -> List[Tuple[float, int]]:
    """All points in [a, b] where D - M is singular, with kernel dimensions.

    Works interval-by-interval between consecutive atoms; the bracket
    endpoints adjacent to an atom are shaved inward, where the diverging
    branches are enormous but finite.
    """
    D = _coerce_d(d)
    omega = m.omega
    if not omega.purely_atomic:
        raise OracleError("pole search requires a purely atomic measure")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise OracleError(f"empty or inverted interval [{a}, {b}]")
    pts = [at.x for at in omega.atoms]
    if any(abs(e - p) <= tols.tol_x for e in (a, b) for p in pts):
        raise OracleError("interval endpoints must not be atoms")

    cuts = [a] + [p for p in pts if a < p < b] + [b]
    roots = []
    for l, r in zip(cuts[:-1], cuts[1:]):
        margin = 1e-9 * max(1.0, abs(l), abs(r))
        lo = l + margin if l in pts else l
        hi = r - margin if r in pts else r
        if lo >= hi:
            continue
        eig_lo = _h_eigs(m, D, lo)
        eig_hi = _h_eigs(m, D, hi)
        for k in range(omega.dim):
            # strictly decreasing branch: a root exists iff the signs flip
            if eig_lo[k] > 0.0 > eig_hi[k]:
                rt = _bisect_branch(m, D, k, lo, hi, tols.tol_x)
                roots.append(_polish_root(m, D, rt, lo, hi))

    roots.sort()
    cluster_tol = max(1e3 * tols.tol_x, 1e-10)
    out: List[Tuple[float, int]] = []
    for rt in roots:
        if out and abs(rt - out[-1][0]) <= cluster_tol:
            p, kdim = out[-1]
            out[-1] = ((p * kdim + rt) / (kdim + 1), kdim + 1)
        else:
            out.append((rt, 1))
    return out


def residue_mass(m: HerglotzMatrix, d, p: float, kernel_dim: int = None,
                 tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Mass of the pole p of M_D: minus its residue, by kernel projection.

    With V an orthonormal basis of ker(D - M(p)) and M'(p) = T(p), the
    residue closed form is V (V* T(p) V)^{-1} V*.  Falls back to the
    -iε M_D(p+iε) limit when the projected derivative is ill-conditioned.
    """
    D = _coerce_d(d)
    val = integrate_cauchy(m, p)
    if is_divergent(val):
        raise OracleError(f"pole query on the support at x={p}")
    h = hermitian_part(D - val)
    w, vecs = np.linalg.eigh(h)
    if kernel_dim is None:
        scale = max(1.0, float(np.abs(w).max()))
        kernel_dim = int(np.count_nonzero(np.abs(w) <= 1e-8 * scale))
        if kernel_dim == 0:
            raise OracleError(f"x={p} is not a pole of M_D")
    order = np.argsort(np.abs(w))
    v = vecs[:, order[:kernel_dim]]

    t = t_matrix(m, p)
    if is_divergent(t):
        raise OracleError(f"T({p}) diverges; p coincides with an atom")
    proj = v.conj().T @ t @ v
    s = np.linalg.svd(proj, compute_uv=False)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        warnings.warn(f"ill-conditioned projected derivative at p={p}; "
                      "falling back to the eps-limit mass", RuntimeWarning)
        return atom_mass(extension_weyl(m, D), p, tols)
    return hermitian_part(v @ np.linalg.inv(proj) @ v.conj().T)


def classify(m: HerglotzMatrix, d, interval: Tuple[float, float],
             tols: Tolerances = DEFAULT_TOLS, measure_ref: str = "") -> SpectralReport:
    """Locate every pole in the window and classify its multiplicity."""
    D = _coerce_d(d)
    n = m.dim
    records = []
    for p, kdim in real_poles(m, D, interval, tols):
        mass = residue_mass(m, D, p, kdim, tols)
        rank = matrix_rank(mass, tols.rank_tol)
        if rank != kdim:  # branch clustering and mass rank must agree
            rank = kdim
        records.append(PoleRecord(p, mass, rank, rank == n))
    return SpectralReport(records, (float(interval[0]), float(interval[1])),
                          measure_ref, n)
