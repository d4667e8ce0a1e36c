"""Random instance generation for verification campaigns and tests."""

from __future__ import annotations

import numpy as np

from .herglotz import HerglotzMatrix
from .measure import Atom, MatrixMeasure, hermitian_part

MAX_DRAWS = 10000   # cap on every rejection-sampling loop


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return hermitian_part(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_psd(rng: np.random.Generator, n: int, rank: int = None,
               scale: float = 1.0) -> np.ndarray:
    rank = n if rank is None else rank
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return scale * (g @ g.conj().T) / max(1, rank)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gap_matrix(rng: np.random.Generator, n: int, min_abs_eig: float = 1e-1) -> np.ndarray:
    """Hermitian matrix with eigenvalue magnitudes in [min_abs_eig, 2)."""
    q = random_unitary(rng, n)
    mags = rng.uniform(min_abs_eig, 2.0, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return q @ np.diag(mags * signs) @ q.conj().T


def random_atomic_measure(rng: np.random.Generator, n: int,
                          n_atoms: int = None) -> MatrixMeasure:
    """Atoms at well-separated random points with random PSD weights.

    The weights are arranged to sum to a positive-definite matrix so that
    T(x) is positive definite off the atoms (strictly decreasing branches
    in the pole search).
    """
    if n_atoms is None:
        n_atoms = int(rng.integers(3, 9))
    for _ in range(MAX_DRAWS):
        pts = np.sort(rng.uniform(-3.0, 3.0, size=n_atoms))
        if np.diff(pts).min(initial=1.0) >= 0.2:
            break
    else:
        raise ValueError(f"could not place K={n_atoms} atoms 0.2 apart in [-3, 3] "
                         f"within {MAX_DRAWS} draws")
    atoms = []
    for k, x in enumerate(pts):
        if n > 1 and k > 0 and rng.random() < 0.3:
            rank = int(rng.integers(1, n))
        else:
            rank = n
        atoms.append(Atom(float(x), random_psd(rng, n, rank)))
    # guarantee a full-rank total so every direction carries mass
    w = np.linalg.eigvalsh(sum(np.asarray(a.W) for a in atoms))
    if w[0] < 1e-3 * max(1.0, w[-1]):
        atoms[0] = Atom(atoms[0].x, np.asarray(atoms[0].W) + random_psd(rng, n, n, 0.5)
                        + 0.1 * np.eye(n))
    return MatrixMeasure(n, atoms)


def random_herglotz(rng: np.random.Generator, n: int = None,
                    with_offset: bool = True) -> HerglotzMatrix:
    if n is None:
        n = int(rng.integers(1, 4))
    omega = random_atomic_measure(rng, n)
    c = random_hermitian(rng, n) if with_offset and rng.random() < 0.5 else None
    return HerglotzMatrix.from_measure(omega, c)


def point_off_atoms(rng: np.random.Generator, omega: MatrixMeasure, lo: float, hi: float) -> float:
    """Uniform draw in [lo, hi] rejected while within 0.05 of an atom."""
    pts = np.array([at.x for at in omega.atoms])
    for _ in range(MAX_DRAWS):
        x = float(rng.uniform(lo, hi))
        if pts.size == 0 or np.abs(pts - x).min() >= 0.05:
            return x
    raise ValueError("could not place a point away from the atoms")
