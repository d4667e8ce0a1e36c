"""Helpers for the tests: random Hermitian and PSD matrices, atomic
measures and their Herglotz functions, each drawn from a numpy Generator,
and the two-parameter resolvent identity of the extensions' Weyl functions."""

from __future__ import annotations

import numpy as np

from specstab import Atom, HerglotzMatrix, MatrixMeasure, extension_weyl, hermitian_part


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return hermitian_part(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_psd(rng: np.random.Generator, n: int, rank: int = None,
               scale: float = 1.0) -> np.ndarray:
    rank = n if rank is None else rank
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return scale * (g @ g.conj().T) / max(1, rank)


def random_atomic_measure(rng: np.random.Generator, n: int,
                          n_atoms: int = None) -> MatrixMeasure:
    """One atom per cell of [-3, 3], at least 0.1 inside each cell edge (so
    atoms are at least 0.2 apart), with random PSD weights.

    The weights are arranged to sum to a positive-definite matrix so that
    T(x) is positive definite off the atoms (strictly decreasing branches
    in the pole search).
    """
    if n_atoms is None:
        n_atoms = int(rng.integers(3, 9))
    if not 0 < n_atoms <= 30:       # 30 cells of width 0.2 fill [-3, 3]
        raise ValueError(f"could not place K={n_atoms} atoms 0.2 apart in [-3, 3]")
    width = 6.0 / n_atoms
    pts = -3.0 + width * np.arange(n_atoms) + rng.uniform(0.1, width - 0.1, size=n_atoms)
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


def resolvent_identity_residual(m: HerglotzMatrix, d, d_prime, z: complex) -> float:
    """Relative Frobenius defect of M_D(z) against both composed forms through
    M_D'(z): M_D'((D - D')M_D' + I)^-1 and (M_D'(D - D') + I)^-1 M_D'."""
    md, mdp = extension_weyl(m, d)(z), extension_weyl(m, d_prime)(z)
    delta, eye = np.asarray(d) - np.asarray(d_prime), np.eye(m.dim)
    form1 = mdp @ np.linalg.inv(delta @ mdp + eye)
    form2 = np.linalg.inv(mdp @ delta + eye) @ mdp
    return max(np.linalg.norm(md - form1), np.linalg.norm(md - form2)) / np.linalg.norm(md)
