"""Random draws for verification campaigns."""

from __future__ import annotations

import numpy as np

from .measure import MatrixMeasure

MAX_DRAWS = 10000   # cap on the rejection-sampling loop of point_off_atoms


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * ((d := r.diagonal()) / np.abs(d))


def random_gap_matrix(rng: np.random.Generator, n: int, min_abs_eig: float = 1e-1) -> np.ndarray:
    """Hermitian matrix with eigenvalue magnitudes in [min_abs_eig, 2)."""
    q = random_unitary(rng, n)
    mags = rng.uniform(min_abs_eig, 2.0, size=n)
    signs = 2.0 * rng.integers(0, 2, size=n) - 1.0     # rng.choice([-1.0, 1.0])'s draw
    return (q * (mags * signs)) @ q.conj().T


def point_off_atoms(rng: np.random.Generator, omega: MatrixMeasure, lo: float, hi: float) -> float:
    """Uniform draw in [lo, hi] rejected while within 0.05 of an atom with mass, omega.xs."""
    for _ in range(MAX_DRAWS):
        x = float(rng.uniform(lo, hi))
        if omega.xs.size == 0 or np.abs(omega.xs - x).min() >= 0.05:
            return x
    raise ValueError("could not place a point away from the atoms")
