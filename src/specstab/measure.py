"""Matrix-valued measures on the real line.

A measure consists of finitely many atoms (point, Hermitian PSD weight)
plus finitely many intervals carrying a constant Hermitian PSD density
with respect to Lebesgue measure.  All the kernels the library needs
integrate in closed form against such measures, so no quadrature is
involved anywhere: divergence is decided analytically (a kernel pole
meeting the support), never by numeric overflow.

A measure is stored as arrays, built once when it is validated, so every
integral is one weighted sum: kernel values at the atoms times their
weights plus exact segment integrals times the piece densities.  A kernel
checks its point, real or complex, with ``as_point`` (PreconditionError).
"""

from __future__ import annotations

import cmath
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances


class MeasureError(ValueError):
    """Invalid measure data (non-PSD weight, overlapping pieces, ...)."""


class DefinedNowhereError(ValueError):
    """Requested a density value at a point carrying no mass."""


class PreconditionError(ValueError):
    """An operation precondition was violated."""


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray):
    """Whether a matrix (or each of a stack) is Hermitian to 1e-12·max(1, ‖a‖)."""
    a = np.asarray(a)
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    return np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1)) <= 1e-12 * scale


def is_batch(x) -> bool:
    """Whether x is an array of points rather than one number.  A float or
    a complex number is answered without np.ndim, which costs about 2 µs
    on a Python number, a sixth of a whole scalar T(x) call at K+P = 12."""
    return not isinstance(x, (float, complex)) and np.ndim(x) > 0


def as_point(x):
    """x as a number, or a 1-D array of them as an array: complex where x
    is complex, float otherwise.  PreconditionError for a NaN or infinite
    part, ValueError for a batch that is not 1-D."""
    if not is_batch(x):     # np.iscomplexobj costs ~2 µs on a Python number
        x = complex(x) if isinstance(x, complex) or (
            not isinstance(x, float) and np.iscomplexobj(x)) else float(x)
        finite = cmath.isfinite(x)
    else:
        x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
        if x.ndim != 1:
            raise ValueError("a batch of points must be a 1-D array")
        finite = np.isfinite(x).all()
    if not finite:
        raise PreconditionError(f"points must be finite, got {x}")
    return x


def is_psd(a: np.ndarray, rank_tol: float):
    """Whether a matrix (or each of a stack) is Hermitian PSD, eigenvalues
    down to -rank_tol·max(1, top |eigenvalue|) counting as zero."""
    w = np.linalg.eigvalsh(hermitian_part(a))
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))
    return is_hermitian(a) & (w.min(axis=-1, initial=0.0) >= -rank_tol * scale)


def matrix_rank(a: np.ndarray, rank_tol: float):
    """Rank of a Hermitian matrix, an int, or of each of a stack, an int
    array: the eigenvalues above rank_tol·(largest |eigenvalue|)."""
    w = np.abs(np.linalg.eigvalsh(hermitian_part(a)))
    top = w.max(axis=-1, keepdims=True, initial=0.0)
    rank = np.count_nonzero(w > rank_tol * top, axis=-1)
    return rank if np.ndim(a) > 2 else int(rank)


def _stack(mats: list, n: int, what: str) -> np.ndarray:
    """The n x n matrices as one (len, n, n) array; ``what`` names entry k."""
    if not mats:
        return np.zeros((0, n, n), dtype=complex)
    try:
        out = np.array(mats, dtype=complex)
    except ValueError:   # ragged shapes
        out = None
    if out is None or out.shape[1:] != (n, n):
        k = next(k for k, m in enumerate(mats) if np.shape(m) != (n, n))
        raise MeasureError(f"{what.format(k)}: expected {n}x{n} matrix, "
                           f"got shape {np.shape(mats[k])}")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise MeasureError(message(k)) for the first flagged index k."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise MeasureError(message(int(hits[0])))


@dataclass(frozen=True)
class Interval:
    """Bounded interval with endpoint-inclusion flags."""

    a: float
    b: float
    include_a: bool = True
    include_b: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise MeasureError("interval endpoints must be finite")
        if self.a > self.b:
            raise MeasureError(f"interval [{self.a}, {self.b}] has a > b")

    def contains(self, x):
        """Membership of x, a number or an array of numbers."""
        x = np.asarray(x)
        return (((self.a < x) & (x < self.b))
                | ((x == self.a) & self.include_a)
                | ((x == self.b) & self.include_b))


class IntervalUnion:
    """Finite union of bounded intervals; the only Borel sets supported."""

    def __init__(self, intervals: Sequence[Interval]):
        self.intervals = tuple(intervals)

    @classmethod
    def of(cls, *specs) -> "IntervalUnion":
        """Build from (a, b) or (a, b, incl_a, incl_b) tuples."""
        return cls([Interval(*s) for s in specs])

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    def contains(self, x):
        """Membership of x, a number or an array of numbers."""
        out = np.zeros(np.shape(x), dtype=bool)
        for iv in self.intervals:
            out |= iv.contains(x)
        return out

    def length_below(self, ys):
        """Lebesgue measure of (union) ∩ (-inf, y] for each y in ys."""
        segs = sorted((iv.a, iv.b) for iv in self.intervals if iv.b > iv.a)
        merged = []
        for s, e in segs:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        total = np.zeros(np.shape(ys))
        for s, e in merged:
            total += np.clip(ys, s, e) - s
        return total


@dataclass(frozen=True)
class Atom:
    """Point mass: Hermitian PSD weight W sitting at x; it takes ownership of W."""

    x: float
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen(np.asarray(self.W, dtype=complex)))


@dataclass(frozen=True)
class ACPiece:
    """Constant PSD density rho (w.r.t. Lebesgue) on [a, b]; takes ownership of rho."""

    a: float
    b: float
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen(np.asarray(self.rho, dtype=complex)))


@dataclass(frozen=True)
class DensityMatrixValue:
    """Trace-normalized mass direction at a point, with its rank."""

    t: float
    psi: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class Divergent:
    """Marker for a matrix integral that diverges along some directions.

    ``directions`` holds the 0-based canonical-basis indices i for which
    the scalar integral against mu_ii diverges.
    """

    directions: tuple

    def __bool__(self):  # never truthy-usable as a matrix by accident
        raise TypeError("Divergent result used as a value")


def is_divergent(v) -> bool:
    return isinstance(v, Divergent)


class MatrixMeasure:
    """Nontrivial matrix-valued measure: atoms plus constant-density pieces.

    ``atoms`` and ``ac_pieces`` hold the terms as given, sorted.  The
    terms carrying mass (nonzero trace) are also held as read-only arrays:
    ``xs`` (K,) and ``W`` (K, n*n) for the atoms, ``a``, ``b`` (P,) and
    ``rho`` (P, n*n) for the pieces, weights flattened row-major.
    ``cauchy_offset`` (n*n,) is ∫ y/(1+y²) dΩ(y), the z-independent part
    of the Cauchy kernel integral.
    """

    def __init__(self, dim: int, atoms: Sequence[Atom] = (),
                 ac_pieces: Sequence[ACPiece] = (),
                 tols: Tolerances = DEFAULT_TOLS):
        if dim < 1:
            raise MeasureError("dim must be a positive integer")
        self.dim = int(dim)
        self.tols = tols
        self.atoms = tuple(sorted(atoms, key=lambda at: at.x))
        self.ac_pieces = tuple(sorted(ac_pieces, key=lambda p: p.a))
        self._validate()

    def _validate(self):
        n, rt, tol_x = self.dim, self.tols.rank_tol, self.tols.tol_x
        xs = np.array([at.x for at in self.atoms], dtype=float)
        W = _stack([at.W for at in self.atoms], n, "atoms[{}].W")
        ends = np.array([(pc.a, pc.b) for pc in self.ac_pieces], dtype=float).reshape(-1, 2)
        rho = _stack([pc.rho for pc in self.ac_pieces], n, "ac[{}].rho")
        a, b = ends[:, 0], ends[:, 1]

        _reject_first(~np.isfinite(xs), lambda k: f"atoms[{k}].x is not finite")
        _reject_first(~np.isfinite(W).all(axis=(1, 2)), lambda k: f"atoms[{k}].W is not finite")
        _reject_first(~np.isfinite(ends).all(axis=1), lambda k: f"ac[{k}]: ends are not finite")
        _reject_first(~np.isfinite(rho).all(axis=(1, 2)), lambda k: f"ac[{k}].rho is not finite")
        _reject_first(~(a < b), lambda k: f"ac[{k}]: requires a < b, got [{a[k]}, {b[k]}]")
        _reject_first(~is_psd(W, rt), lambda k: f"atoms[{k}].W is not Hermitian positive semidefinite")
        _reject_first(~is_psd(rho, rt), lambda k: f"ac[{k}].rho is not Hermitian positive semidefinite")
        _reject_first(np.abs(np.diff(xs)) <= tol_x,
                      lambda k: f"atom points {xs[k]} and {xs[k + 1]} coincide")
        _reject_first(a[1:] < b[:-1] - tol_x, lambda k: "ac pieces have overlapping interiors")
        w_tr = np.trace(W, axis1=1, axis2=2).real
        r_tr = np.trace(rho, axis1=1, axis2=2).real
        if w_tr.sum() + (r_tr * (b - a)).sum() <= 0.0:
            raise MeasureError("measure is trivial (no mass anywhere)")

        # Terms without mass are left out: they add nothing, and a kernel
        # pole on one would give inf * 0.
        atom_kept, piece_kept = w_tr > 0.0, r_tr > 0.0
        self._atom_ids = np.flatnonzero(atom_kept)
        self.xs = _frozen(xs[atom_kept])
        self.a = _frozen(a[piece_kept])
        self.b = _frozen(b[piece_kept])
        # integrate's one product weighs the kernel values at xs by W and
        # the segment integrals by rho: both are views of one array
        self._weights = _frozen(np.concatenate([W[atom_kept], rho[piece_kept]]).reshape(-1, n * n))
        self._weights_re_im = self._weights.view(float)
        self.W, self.rho = self._weights[:len(self.xs)], self._weights[len(self.xs):]
        self._ends = _frozen(np.concatenate([self.a, self.b]))
        self.cauchy_offset = _frozen(
            (self.xs / (1.0 + self.xs ** 2)) @ self.W
            + (0.5 * np.log((1.0 + self.b ** 2) / (1.0 + self.a ** 2))) @ self.rho)

        # Support of every term widened by tol_x, atoms first, then pieces:
        # [lo, hi] sorted by lo, with the running maximum of hi, so that the
        # terms holding a point are found by two bisections.
        lo = np.concatenate([self.xs - tol_x, self.a - tol_x])
        hi = np.concatenate([self.xs + tol_x, self.b + tol_x])
        self._order = np.argsort(lo, kind="stable")
        self._hi = hi[self._order]
        # lists for the bisections of one point, arrays for a batch
        self._lo_sorted = _frozen(lo[self._order])
        self._reach_sorted = _frozen(np.maximum.accumulate(self._hi))
        self._lo, self._reach = self._lo_sorted.tolist(), self._reach_sorted.tolist()
        self._directions = self._weights[:, ::n + 1].real > 0.0     # the diagonals

    # -- support queries -------------------------------------------------

    def _terms_at(self, x: float) -> np.ndarray:
        """Ids of the terms carrying mass (atoms, then pieces) whose
        support, widened by tol_x, contains x."""
        i = bisect_left(self._reach, x)
        j = bisect_right(self._lo, x)
        if i >= j:
            return self._order[:0]
        return self._order[i:j][self._hi[i:j] >= x]

    def _divergent_directions(self, x) -> tuple:
        """Directions i with diagonal mass mu_ii within tol_x of x, or of
        any point of a 1-D array x."""
        if is_batch(x):
            return tuple(sorted({i for p in x[self.on_support(x)].tolist()
                                 for i in self._divergent_directions(p)}))
        ids = self._terms_at(x)
        if not ids.size:
            return ()
        return tuple(int(i) for i in np.flatnonzero(self._directions[ids].any(axis=0)))

    def in_piece_interior(self, x: float) -> bool:
        """Whether x is on the support in piece interiors only: more than
        tol_x inside every piece holding it, and off every atom."""
        if not self.a.size:
            return False
        p = self._terms_at(x) - len(self.xs)    # piece ids; an atom's is < 0
        tol = self.tols.tol_x
        return bool(p.size and p.min() >= 0
                    and ((self.a[p] + tol < x) & (x < self.b[p] - tol)).all())

    def density_at(self, x: float) -> np.ndarray:
        """ρ(x): the summed density of the pieces holding x inside them."""
        inside = (self.a < x) & (x < self.b)
        return self.rho[inside].sum(axis=0).reshape(self.dim, self.dim)

    def atom_at(self, x: float):
        """Atom carrying mass whose point is within tol_x of x, or None."""
        ids = self._terms_at(x)
        ids = ids[ids < len(self.xs)]
        return self.atoms[self._atom_ids[ids.min()]] if ids.size else None

    def on_support(self, x):
        """Whether x is within tol_x of a term carrying mass: a bool, or a
        bool array for a 1-D array of points."""
        if not is_batch(x):
            return bool(self._terms_at(x).size)
        # some term starting at or below x must reach it
        j = np.searchsorted(self._lo_sorted, x, side="right")
        return (j > 0) & (self._reach_sorted[j - 1] >= x)

    def support_bounds(self):
        pts = np.concatenate([self.xs, self.a, self.b])
        return float(pts.min()), float(pts.max())

    @property
    def purely_atomic(self) -> bool:
        return not self.a.size


# -- kernels -------------------------------------------------------------


class Kernel:
    """A closed-form integrand.

    ``values(ys)`` evaluates it at an array of atom points and
    ``primitive(ys)`` evaluates an antiderivative at an array of piece
    ends, so a piece [a, b] integrates to primitive(b) - primitive(a);
    a kernel holding a batch of parameters puts the batch on a leading
    axis of both.  ``pole`` is the real point where it is singular (a 1-D
    array of them for a batch of real points), or None; ``integrate``
    reports divergence there instead of evaluating (a ``principal_value``
    kernel only where the pole is not in a piece interior).
    A ``compensated`` kernel's values and primitive omit the z-independent
    Cauchy compensator y/(1+y²), whose integral ``integrate`` takes from
    the measure's precomputed ``cauchy_offset``.
    """

    pole = None
    principal_value = False
    compensated = False


class PoissonSquareKernel(Kernel):
    """y -> 1/(x - y)^2; the integrand of the divergence matrix.

    A 1-D array of x is a batch: the integral comes out stacked along a
    leading axis.
    """

    def __init__(self, x):
        self.x = self.pole = as_point(x)
        batch = is_batch(self.x)
        if self.x.dtype.kind == "c" if batch else isinstance(self.x, complex):
            raise PreconditionError(f"the divergence kernel takes real points, got {self.x}")
        self._x = self.x[:, None] if batch else self.x

    def values(self, ys):
        return 1.0 / (self._x - ys) ** 2

    def primitive(self, ys):
        return 1.0 / (self._x - ys)


class RegularizedKernel(Kernel):
    """y -> 1/((x - y)^2 + 1/m^2); everywhere finite."""

    def __init__(self, x: float, m: float):
        self.x = as_point(float(x))
        self.m = float(m)
        if self.m <= 0:
            raise ValueError("regularization level m must be positive")
        self._width = 1.0 / self.m

    def values(self, ys):
        return 1.0 / ((self.x - ys) ** 2 + self._width ** 2)

    def primitive(self, ys):
        # m·atan(m(y - x)), with the product inside atan folded into atan2
        return self.m * np.arctan2(ys - self.x, self._width)


class CauchyKernel(Kernel):
    """y -> 1/(y - z) - y/(1 + y^2), the Herglotz representation integrand.

    Works for complex z off the real axis and, as the boundary-value fast
    path, for real z off the support, where it is evaluated in real
    arithmetic, and a single real z in a piece interior, where it is the
    principal value.  A 1-D array of z is a batch: the integral comes out
    stacked along a leading axis.  A complex array is a batch off the real
    axis, every Im z != 0; a real array is a batch of real points.
    """

    compensated = True

    def __init__(self, z):
        z = as_point(z)
        if not is_batch(z):
            self.z = self._w = complex(z)
            if self.z.imag == 0.0:
                self.pole = self._w = self.z.real
                self.principal_value = True
            return
        if z.dtype.kind != "c":
            self.pole = z
        elif not z.imag.all():
            raise ValueError("a complex batch of z must be off the real axis (Im z != 0)")
        self.z, self._w = z, z[:, None]

    def values(self, ys):
        return 1.0 / (ys - self._w)

    def primitive(self, ys):
        # The ends of a piece lie in one open half-plane when Im z != 0, so
        # their principal logs differ by the log of the ratio; for real z
        # log|y - z| is a primitive off the piece and, as a PV, across it.
        if self.pole is None:
            return np.log(ys - self._w)
        return np.log(np.abs(ys - self._w))


class InvOnePlusY2Kernel(Kernel):
    """y -> 1/(1 + y^2); the integrability weight of the representation."""

    def values(self, ys):
        return 1.0 / (1.0 + ys * ys)

    def primitive(self, ys):
        return np.arctan(ys)


class IndicatorKernel(Kernel):
    """Indicator of a finite interval union; reduces to measure_of_set."""

    def __init__(self, region: IntervalUnion):
        self.region = region

    def values(self, ys):
        return self.region.contains(ys).astype(float)

    def primitive(self, ys):
        return self.region.length_below(ys)


# -- operations ----------------------------------------------------------


def integrate(kernel: Kernel, omega: MatrixMeasure):
    """Integrate a closed-form kernel against the measure.

    Returns the matrix (a stack of them, on a leading axis, for a batched
    kernel), or a :class:`Divergent` carrying the 0-based directions i
    whose diagonal scalar integral against mu_ii diverges.  Divergence is
    directional: a kernel pole sitting on an atom or inside a piece only
    kills the directions with nonzero diagonal mass there, unless the kernel
    has a principal value there (in piece interiors only).  A batch of real
    points is all or nothing: one point on the support makes the whole
    result Divergent, in the directions diverging at any point, so callers
    split a batch with ``on_support`` first.
    """
    if kernel.pole is not None:
        bad = omega._divergent_directions(kernel.pole)
        if bad and not (kernel.principal_value and omega.in_piece_interior(kernel.pole)):
            return Divergent(bad)
    coef = kernel.values(omega.xs)
    p = omega.a.size
    if p:
        prim = kernel.primitive(omega._ends)
        coef = np.concatenate((coef, prim[..., p:] - prim[..., :p]), axis=-1)
    if coef.dtype.kind == "c":
        total = coef @ omega._weights
    else:   # real coefficients: one real product over (re, im) pairs
        total = (coef @ omega._weights_re_im).view(complex)
    if kernel.compensated:
        total -= omega.cauchy_offset
    return total.reshape(*coef.shape[:-1], omega.dim, omega.dim)


def measure_of_set(omega: MatrixMeasure, region: IntervalUnion) -> np.ndarray:
    """Measure of a finite union of bounded intervals (Hermitian PSD)."""
    return integrate(IndicatorKernel(region), omega)


def trace_measure(omega: MatrixMeasure, region: IntervalUnion) -> float:
    """Trace measure of the region: sum of the diagonal scalar measures."""
    return float(np.trace(measure_of_set(omega, region)).real)


def density_matrix(omega: MatrixMeasure, t: float) -> DensityMatrixValue:
    """Trace-normalized density at t and its rank (the local multiplicity).

    At an atom the atom weight dominates the Radon-Nikodym derivative;
    inside a piece the constant density appears. Points with no trace mass
    have no density value.
    """
    at = omega.atom_at(t)
    if at is not None:
        w = np.asarray(at.W)
    else:
        w = omega.density_at(t)
        if not np.trace(w).real > 0.0:
            raise DefinedNowhereError(f"no trace mass at t={t}")
    psi = w / np.trace(w).real
    return DensityMatrixValue(t, psi, matrix_rank(psi, omega.tols.rank_tol))
