"""Seeded instance builders for the benchmark workloads.

Every builder takes a ``numpy.random.Generator`` and returns plain data
(atom points, weights, piece bounds and densities, query energies), so the
same seed always gives the same inputs and the library only ever receives
the built objects.  Atoms are placed directly on jittered slots, far above
``tol_x`` from each other, from the grid points and from the piece ends;
``randgen.random_atomic_measure`` is deliberately not used, because its
rejection sampler practically never finishes above a dozen atoms.

About 30 % of the atom weights are rank deficient; the first atom is always
full rank, so the total weight is full rank.  AC pieces are disjoint and
never contain an atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from specstab import ACPiece, Atom, MatrixMeasure
from specstab.io import matrix_out

RANK_DEFICIENT_SHARE = 0.3


@dataclass(frozen=True)
class Layout:
    """Raw measure data: atoms (xs, Ws) and AC pieces (a, b, rho)."""

    n: int
    xs: np.ndarray            # (K,) sorted atom points
    W: np.ndarray             # (K, n, n) Hermitian PSD weights
    a: np.ndarray             # (P,) piece starts
    b: np.ndarray             # (P,) piece ends
    rho: np.ndarray           # (P, n, n) Hermitian PSD densities

    def matrix_measure(self):
        """The library measure built from this data (validation included)."""
        atoms = [Atom(float(x), w) for x, w in zip(self.xs, self.W)]
        pieces = [ACPiece(float(a), float(b), r)
                  for a, b, r in zip(self.a, self.b, self.rho)]
        return MatrixMeasure(self.n, atoms, pieces)

    def to_doc(self) -> dict:
        """The measure as a ``specstab.io`` measure-file document."""
        return {"n": self.n,
                "atoms": [{"x": float(x), "W": matrix_out(w)}
                          for x, w in zip(self.xs, self.W)],
                "ac": [{"a": float(a), "b": float(b), "rho": matrix_out(r)}
                       for a, b, r in zip(self.a, self.b, self.rho)]}


def psd(rng: np.random.Generator, n: int, rank: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    w = scale * (g @ g.conj().T) / rank
    return 0.5 * (w + w.conj().T)


def atom_weights(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Weights with ~30 % rank deficient; weight 0 is full rank."""
    out = np.empty((count, n, n), dtype=complex)
    for k in range(count):
        rank = n
        if n > 1 and k > 0 and rng.random() < RANK_DEFICIENT_SHARE:
            rank = int(rng.integers(1, n))
        out[k] = psd(rng, n, rank)
    return out


def gap_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian matrix with |eigenvalues| in [0.5, 2]: a well-separated D' - D."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    mags = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return (q * mags) @ q.conj().T


def _layout(n, xs, W, pieces, rng) -> Layout:
    order = np.argsort(xs)
    a = np.array([p[0] for p in pieces], dtype=float)
    b = np.array([p[1] for p in pieces], dtype=float)
    rho = np.array([psd(rng, n, n, 0.5) for _ in pieces], dtype=complex).reshape(-1, n, n)
    return Layout(n, np.asarray(xs, dtype=float)[order], W[order], a, b, rho)


# -- scan-wide ----------------------------------------------------------------


@dataclass(frozen=True)
class ScanInstance:
    layout: Layout
    lo: float
    hi: float
    steps: int
    in_support: np.ndarray     # (G,) bool, known from construction


def scan_instance(rng: np.random.Generator, n: int = 3, atoms: int = 512,
                  pieces: int = 16, steps: int = 400,
                  lo: float = -8.0, hi: float = 8.0,
                  grid_atoms: int = 16) -> ScanInstance:
    """K atoms and P pieces spread across the G-point scan grid.

    Each piece spans a few whole grid gaps, with both ends at mid-gap.
    ``grid_atoms`` atoms sit exactly on grid points outside the pieces;
    the others sit at 0.3 or 0.7 of a free grid gap (+-0.05), so they are
    at least 0.15 gaps from any grid point and from each other.
    """
    grid = np.linspace(lo, hi, steps)
    gap = grid[1] - grid[0]
    covered = np.zeros(steps - 1, dtype=bool)       # gaps touched by a piece
    in_support = np.zeros(steps, dtype=bool)
    piece_bounds = []
    cell = (steps - 1) // pieces
    for j in range(pieces):
        width = int(rng.integers(3, 7))
        start = j * cell + int(rng.integers(1, cell - width - 1))
        piece_bounds.append((grid[start] + 0.5 * gap, grid[start + width] + 0.5 * gap))
        covered[start:start + width + 1] = True
        in_support[start + 1:start + width + 1] = True

    free_points = np.flatnonzero(~in_support)
    on_grid = np.sort(rng.choice(free_points, size=grid_atoms, replace=False))
    in_support[on_grid] = True
    slots = [(g, f) for g in np.flatnonzero(~covered) for f in (0.3, 0.7)]
    pick = rng.choice(len(slots), size=atoms - grid_atoms, replace=False)
    xs = [grid[i] for i in on_grid]
    xs += [grid[slots[s][0]] + (slots[s][1] + rng.uniform(-0.05, 0.05)) * gap
           for s in pick]
    W = atom_weights(rng, n, atoms)
    return ScanInstance(_layout(n, np.array(xs), W, piece_bounds, rng),
                        float(lo), float(hi), int(steps), in_support)


# -- verify-atomic --------------------------------------------------------------


def atomic_layout(rng: np.random.Generator, n: int = 3, atoms: int = 24) -> Layout:
    """Purely atomic measure: one atom per cell of width 0.5, centred on 0,
    placed in the middle 60 % of its cell (so atoms are at least 0.2 apart,
    as in ``randgen``)."""
    cells = (np.arange(atoms) - 0.5 * atoms) * 0.5
    xs = cells + 0.5 * rng.uniform(0.2, 0.8, size=atoms)
    return _layout(n, xs, atom_weights(rng, n, atoms), [], rng)


# -- criterion-mixed --------------------------------------------------------------

OFF_SUPPORT, IN_PIECE, AT_ATOM = "off_support", "in_piece", "at_atom"
MIXED_CELL = 2.0 / 3.0
# atom queries are the cheapest kind and in-piece queries the dearest, so
# this mix puts the latency median among the off-support queries and the
# 90th percentile among the in-piece ones, each away from a kind boundary
QUERY_MIX = (0.35, 0.35, 0.30)          # off-support, in-piece, at-atom


@dataclass(frozen=True)
class Query:
    kind: str
    x: float
    gap: np.ndarray      # D' - D for the second-parameter criterion
    index: int           # atom index for AT_ATOM queries, else -1


@dataclass(frozen=True)
class MixedInstance:
    layout: Layout
    queries: Tuple[Query, ...]


def mixed_layout(rng: np.random.Generator, n: int = 3, atoms: int = 8,
                 pieces: int = 4) -> Layout:
    """Atoms and pieces in shuffled cells of width ``MIXED_CELL``: an atom
    sits in the middle 40 % of its cell, a piece covers the middle 60 %."""
    kinds = np.array([0] * atoms + [1] * pieces)
    rng.shuffle(kinds)
    left = (np.arange(atoms + pieces) - 0.5 * (atoms + pieces)) * MIXED_CELL
    xs = [c + MIXED_CELL * rng.uniform(0.3, 0.7) for c in left[kinds == 0]]
    bounds = [(c + 0.2 * MIXED_CELL, c + 0.8 * MIXED_CELL) for c in left[kinds == 1]]
    return _layout(n, np.array(xs), atom_weights(rng, n, atoms), bounds, rng)


def mixed_instance(rng: np.random.Generator, queries: int = 60) -> MixedInstance:
    """A mixed measure plus a stream of off-support, in-piece and atom
    queries in the proportions ``QUERY_MIX``.

    Off-support energies are cell boundaries that touch no piece (at least
    0.3 cells from any atom, 0.2 cells from any piece end) and points one
    unit beyond the support; in-piece energies lie in the middle half of a
    piece; atom energies are the atom points themselves.
    """
    lay = mixed_layout(rng)
    cells = len(lay.xs) + len(lay.a)
    bounds = (np.arange(cells + 1) - 0.5 * cells) * MIXED_CELL
    near_piece = (lay.a[None, :] - 0.5 * MIXED_CELL < bounds[:, None]) & \
                 (bounds[:, None] < lay.b[None, :] + 0.5 * MIXED_CELL)
    off = list(bounds[~near_piece.any(axis=1)]) + [bounds[0] - 1.0, bounds[-1] + 1.0]
    counts = np.floor(np.asarray(QUERY_MIX) * queries).astype(int)
    counts[0] += queries - counts.sum()
    out: List[Query] = []
    for _ in range(counts[0]):
        out.append(Query(OFF_SUPPORT, float(rng.choice(off)), gap_matrix(rng, lay.n), -1))
    for _ in range(counts[1]):
        j = int(rng.integers(len(lay.a)))
        x = lay.a[j] + (lay.b[j] - lay.a[j]) * rng.uniform(0.25, 0.75)
        out.append(Query(IN_PIECE, float(x), gap_matrix(rng, lay.n), -1))
    for _ in range(counts[2]):
        k = int(rng.integers(len(lay.xs)))
        out.append(Query(AT_ATOM, float(lay.xs[k]), gap_matrix(rng, lay.n), k))
    order = rng.permutation(len(out))
    return MixedInstance(lay, tuple(out[i] for i in order))
