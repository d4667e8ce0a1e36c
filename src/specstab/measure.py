"""Matrix-valued measures on the real line.

A measure consists of finitely many atoms (point, Hermitian PSD weight)
plus finitely many intervals carrying a constant Hermitian PSD density
with respect to Lebesgue measure.  All the kernels the library needs
integrate in closed form against such measures, so no quadrature is
involved anywhere: divergence is decided analytically (a kernel pole
meeting the support), never by numeric overflow.

A measure is stored as arrays, built once when it is validated, so every
integral is one weighted sum: kernel values at the atoms times their
weights plus exact segment integrals times the piece densities, all read
from one row of coefficients that the kernel fills in place.  A kernel
checks its point with ``as_point``, a real-x kernel with ``as_real_point``
(PreconditionError).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Global tolerance configuration.

    A measure is built with one immutable record, and every analysis of that
    measure reads ``omega.tols``, so rank decisions, limit convergence,
    matching thresholds and support membership are overridden coherently
    (e.g. from CLI flags) by building the measure with the overrides.
    """

    rank_tol: float = 1e-9      # relative eigenvalue cutoff for PSD/rank decisions
    tol_bv: float = 1e-9        # Frobenius convergence threshold for eps-limits
    tol_match: float = 1e-7     # Frobenius threshold for boundary-value/parameter matching
    tol_x: float = 1e-12        # point location tolerance (roots, support membership)

    def __post_init__(self):
        for name, v in vars(self).items():
            # as a float first: a long double can be finite and still pass the float range
            if not (is_real(v) and 0.0 <= float(v) < math.inf):     # NaN fails too
                raise ValueError(f"{name} must be a finite number >= 0, got {shown(v)}")
            object.__setattr__(self, name, float(v))

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


class MeasureError(ValueError):
    """Invalid measure data (non-PSD weight, overlapping pieces, ...)."""


class PreconditionError(ValueError):
    """An operation precondition was violated."""


def hermitian_part(a: np.ndarray) -> np.ndarray:
    h = a + a.conj().swapaxes(-1, -2)
    # in place, as 0.5 * h: a float or complex sum, never a or a view of it;
    # h *= 0.5 multiplies in the other order, so a complex zero's sign can differ
    return np.multiply(0.5, h, h)


def _fro(a: np.ndarray):
    """‖a‖_F of a matrix (a float) or each of a stack: np.linalg.norm's sums, not its wrapper."""
    if a.dtype.kind in "biu":   # as np.linalg.norm does: a bool dot is a logical or
        a = a.astype(float)
    if a.ndim > 2:
        return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def is_hermitian(a: np.ndarray):
    """Whether a matrix (or each of a stack) is finite and Hermitian to
    1e-12·max(1, ‖a‖), Frobenius, compared squared: by two vdots for one."""
    a = np.asarray(a)
    if a.ndim == 2:     # a − a* only once ‖a‖² is finite: no inf − inf
        aa = np.vdot(a, a).real
        return aa < np.inf and np.vdot(d := a - a.conj().T, d).real <= 1e-24 * max(1.0, aa)
    with np.errstate(invalid="ignore", over="ignore"):     # inf or nan: False
        aa = np.einsum("...ij,...ij->...", a.conj(), a).real
        d = a - a.conj().swapaxes(-1, -2)
        dd = np.einsum("...ij,...ij->...", d.conj(), d).real
    return (aa < np.inf) & (dd <= 1e-24 * np.maximum(1.0, aa))


def is_batch(x) -> bool:
    """Whether x is an array of points rather than one number.  A float or
    a complex number is answered without np.ndim, which costs about 2 µs
    on a Python number, a sixth of a whole scalar T(x) call at K+P = 12."""
    return not isinstance(x, (float, complex)) and np.ndim(x) > 0


def is_real(v) -> bool:
    """One real number a float can hold, NaN and ±inf included: never a bool, a string,
    None, an array or a rational beyond ±sys.float_info.max; a float first, ~10x faster."""
    if isinstance(v, float):
        return True
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return not (isinstance(v, numbers.Rational) and abs(v) > sys.float_info.max)


def is_count(v) -> bool:
    """One integral number, never a bool: an int or a numpy integer."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def shown(v) -> str:
    """repr(v) for an error message, cut after 40 characters where it is
    longer than 60, and a placeholder for an int too long to print."""
    try:
        s = repr(v)
    except ValueError:  # Python prints no int of more than 4300 digits
        return f"<{type(v).__name__} too long to print>"
    return s if len(s) <= 60 else f"{s[:40]}... ({len(s)} characters)"


def as_matrix(a, what: str, copy: bool = False) -> np.ndarray:
    """a as a complex array, a complex ndarray itself unless ``copy``.  An
    int, float or complex ndarray is read as it is, anything else one entry
    at a time: ValueError, naming ``what``, unless each is a real number
    (``is_real``) or a complex one."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iufc"):
        a = np.array(a, dtype=object)
        rows = [len(v) for v in a if isinstance(v, (list, tuple))
                or isinstance(v, np.ndarray) and v.ndim == 1] if a.ndim == 1 else []
        if len(rows) == a.size > 1:     # rows of one length would have made a 2-D array
            raise ValueError(f"{what} must have rows of one length, got lengths {', '.join(map(str, rows))}")
        for v in a.flat:
            if not (is_real(v) or isinstance(v, (complex, np.complexfloating))):
                raise ValueError(f"{what} must be numbers, got {shown(v)}")
    return np.array(a, dtype=complex) if copy else np.asarray(a, dtype=complex)


def as_hermitian(a, what: str, copy: bool = False) -> np.ndarray:
    """``as_matrix``, then ValueError, naming ``what``, unless it is square
    and Hermitian (``is_hermitian``)."""
    a = as_matrix(a, what, copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValueError(f"{what} must be Hermitian")
    return a


DEFAULT_TOLS = Tolerances()
# np.square silent about overflow, for a point or an atom far out: the square
# is inf there, and 1/inf the 0 wanted; the same bits as np.square and x ** 2
_QUIET_SQUARE = np.errstate(over="ignore")(np.square)


def as_point(x):
    """x as a number, or a 1-D array of them as an array: complex where x
    is complex, float otherwise.  PreconditionError for what is not a number
    (a bool, a string, None, alone or in a list), a NaN or infinite part, a
    number beyond the float range and a batch that is not 1-D."""
    if is_batch(x):     # a float or complex array as it is, any other element by element
        if not (isinstance(x, np.ndarray) and x.dtype in (float, complex)):
            x = np.array([as_point(v) for v in x]) if np.ndim(x) == 1 else np.asarray(x)
        if x.ndim != 1:
            raise PreconditionError("a batch of points must be a 1-D array")
    else:   # a float or a complex number skips np.asarray, ~0.2 µs on a Python int
        if isinstance(x, float):
            kind = "f"
        elif isinstance(x, complex):
            kind = "c"
        else:
            kind = np.asarray(x).dtype.kind
        if kind in "bSU":   # a bool or a string
            raise PreconditionError(f"points must be numbers, got {shown(x)}")
        try:
            x = complex(x) if kind == "c" else float(x)
        except TypeError:   # float() of None, say
            raise PreconditionError(f"points must be numbers, got {shown(x)}") from None
        except OverflowError:   # an int or a Fraction beyond the float range
            raise PreconditionError("points must be finite, got a number beyond ±1.8e308") from None
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else cmath.isfinite(x)):
        raise PreconditionError(f"points must be finite, got {x}")
    return x


def as_real_point(x, what: str, batch: bool = True):
    """as_point(x) for a real x; PreconditionError, naming ``what``, for a
    complex point or batch, and for any batch unless ``batch``."""
    x = as_point(x)
    if not (isinstance(x, float) or batch and is_batch(x) and x.dtype.kind == "f"):
        kind = "real points" if batch else "one real point"
        raise PreconditionError(f"{what} takes {kind}, got {x}")
    return x


def is_psd(a: np.ndarray, h: np.ndarray, rank_tol: float):
    """Whether a matrix (or each of a stack) is Hermitian PSD, eigenvalues of
    h, its Hermitian part, down to -rank_tol·max(1, top |eigenvalue|) counting as zero."""
    w = np.linalg.eigvalsh(h)
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
    """The n x n arrays as one (len, n, n) array; ``what`` names entry k."""
    _reject_first(np.array([m.shape != (n, n) for m in mats], dtype=bool),
                  lambda k: f"{what.format(k)}: expected {n}x{n} matrix, got shape {mats[k].shape}")
    return np.array(mats, dtype=complex).reshape(-1, n, n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _summed(rows: np.ndarray, ids: list):
    """rows[ids] summed in order, one row as is; None for no ids."""
    return (rows[ids[0]] if len(ids) == 1 else rows[ids].sum(axis=0)) if ids else None


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise MeasureError(message(k)) for the first flagged index k."""
    hits = bad.nonzero()[0]
    if hits.size:
        raise MeasureError(message(int(hits[0])))


@dataclass(frozen=True, eq=False)
class Atom:
    """Point mass: Hermitian PSD weight W sitting at x; it takes ownership of W."""

    x: float
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen(as_matrix(self.W, "W")))


@dataclass(frozen=True, eq=False)
class ACPiece:
    """Constant PSD density rho (w.r.t. Lebesgue) on [a, b]; takes ownership of rho."""

    a: float
    b: float
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen(as_matrix(self.rho, "rho")))


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
    ``xs`` (K,) and ``W`` (K, n, n) for the atoms, ``a``, ``b`` (P,) and
    ``rho`` (P, n, n) for the pieces, each weight the given one's Hermitian
    part with -0.0 made +0.0, which ``hermitian_part`` leaves bit for bit,
    as it leaves their integrals T(x) and M(x) at real x.
    ``cauchy_offset`` (n*n,) is ∫ y/(1+y²) dΩ(y), the z-independent part
    of the Cauchy kernel integral.
    """

    def __init__(self, dim: int, atoms: Sequence[Atom] = (),
                 ac_pieces: Sequence[ACPiece] = (),
                 tols: Tolerances = DEFAULT_TOLS):
        if not is_count(dim) or dim < 1:
            raise MeasureError("dim must be a positive integer")
        if not isinstance(tols, Tolerances):
            raise MeasureError(f"tols must be a Tolerances, got {shown(tols)}")
        self.dim = int(dim)
        self.tols = tols
        self._validate(tuple(atoms), tuple(ac_pieces))    # checked in the caller's order, then sorted

    def _validate(self, atoms: tuple, pieces: tuple):
        n, rt, tol_x = self.dim, self.tols.rank_tol, self.tols.tol_x
        _reject_first(~np.fromiter((is_real(at.x) for at in atoms), bool),
                      lambda k: f"atoms[{k}].x is not a real number, got {shown(atoms[k].x)}")
        _reject_first(~np.fromiter((is_real(pc.a) and is_real(pc.b) for pc in pieces), bool),
                      lambda k: f"ac[{k}]: ends are not real numbers")
        xs = np.array([at.x for at in atoms], dtype=float)
        W = _stack([at.W for at in atoms], n, "atoms[{}].W")
        a, b = np.array([(pc.a, pc.b) for pc in pieces], dtype=float).reshape(-1, 2).T
        rho = _stack([pc.rho for pc in pieces], n, "ac[{}].rho")

        _reject_first(~np.isfinite(xs), lambda k: f"atoms[{k}].x is not finite")
        _reject_first(~np.isfinite(W).all(axis=(1, 2)), lambda k: f"atoms[{k}].W is not finite")
        _reject_first(~(np.isfinite(a) & np.isfinite(b)), lambda k: f"ac[{k}]: ends are not finite")
        _reject_first(~np.isfinite(rho).all(axis=(1, 2)), lambda k: f"ac[{k}].rho is not finite")
        _reject_first(~(a < b), lambda k: f"ac[{k}]: requires a < b, got [{a[k]}, {b[k]}]")
        hW, hrho = hermitian_part(W) + 0.0, hermitian_part(rho) + 0.0     # as stored
        _reject_first(~is_psd(W, hW, rt), lambda k: f"atoms[{k}].W is not Hermitian positive semidefinite")
        _reject_first(~is_psd(rho, hrho, rt), lambda k: f"ac[{k}].rho is not Hermitian positive semidefinite")
        ia, ip = np.argsort(xs, kind="stable"), np.argsort(a, kind="stable")
        self.atoms = tuple(atoms[k] for k in ia.tolist())
        self.ac_pieces = tuple(pieces[k] for k in ip.tolist())
        _reject_first(np.abs(np.diff(xs[ia])) <= tol_x,
                      lambda k: f"atom points {xs[ia[k]]} and {xs[ia[k + 1]]} coincide")
        _reject_first(a[ip[1:]] < b[ip[:-1]] - tol_x, lambda k: "ac pieces have overlapping interiors")
        w_tr = np.trace(W, axis1=1, axis2=2).real[ia]
        r_tr = np.trace(rho, axis1=1, axis2=2).real[ip]
        if w_tr.sum() + (r_tr * (b - a)[ip]).sum() <= 0.0:
            raise MeasureError("measure is trivial (no mass anywhere)")

        # Terms without mass are left out: they add nothing, and a kernel
        # pole on one would give inf * 0.  Sorted and kept in one index.
        atom_kept, piece_kept = ia[w_tr > 0.0], ip[r_tr > 0.0]
        self.xs = _frozen(xs[atom_kept])
        self.a = _frozen(a[piece_kept])
        self.b = _frozen(b[piece_kept])
        # integrate's sizes and slices, set once: K, P, the piece starts, the
        # piece ends and the K+P terms of a coefficient row, one integral's shape
        k, p = self._k, self._p = self.xs.size, self.a.size
        self._starts, self._ends = (..., slice(k, k + p)), (..., slice(k + p, None))
        self._terms, self._nn = (..., slice(k + p)), (n, n)
        # integrate's one product weighs the kernel values at xs by W and
        # the segment integrals by rho, flattened row-major: all views of one array
        self._weights = _frozen(np.concatenate([hW[atom_kept], hrho[piece_kept]]).reshape(-1, n * n))
        self._weights_re_im = self._weights.view(float)
        self._zero = _frozen(np.zeros((n, n), dtype=complex))
        self.W, self.rho = self._weights[:k].reshape(-1, n, n), self._weights[k:].reshape(-1, n, n)
        self._pts = _frozen(np.concatenate([self.xs, self.a, self.b]))
        # a piece's ∫ y/(1+y²), 0.5·log((1 + b²)/(1 + a²)), by hypot where a square is inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # replaced below
            logs = 0.5 * np.log((1.0 + self.b ** 2) / (1.0 + self.a ** 2))
        far = ~np.isfinite(logs)
        logs[far] = np.log(np.hypot(1.0, self.b[far]) / np.hypot(1.0, self.a[far]))
        self.cauchy_offset = _frozen(
            (self.xs / (1.0 + _QUIET_SQUARE(self.xs))) @ self._weights[:k] + logs @ self._weights[k:])

        # Support of every term widened by tol_x, atoms first, then pieces:
        # [lo, hi] sorted by lo, with the running maximum of hi, so that the
        # terms holding a point are found by two bisections: in lists for
        # one point, each term's directions with diagonal mass a tuple.
        lo = np.concatenate([self.xs - tol_x, self.a - tol_x])
        hi = np.concatenate([self.xs + tol_x, self.b + tol_x])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        self._lo_sorted, self._reach_sorted = _frozen(lo), _frozen(np.maximum.accumulate(hi))
        self._lo, self._reach = lo.tolist(), self._reach_sorted.tolist()
        self._hi, self._ids = hi.tolist(), order.tolist()
        self._a, self._b = self.a.tolist(), self.b.tolist()
        signs = np.ascontiguousarray(self._weights[:, ::n + 1].real > 0.0)
        rows = signs.view(f"V{n}").ravel().tolist()     # one bytes object per term
        dirs = {r: tuple(i for i, on in enumerate(r) if on) for r in set(rows)}
        self._dirs = list(map(dirs.__getitem__, rows))

    # -- support queries -------------------------------------------------

    def _terms_at(self, x: float) -> list:
        """Ids of the terms carrying mass (atoms, then pieces) whose
        support, widened by tol_x, contains x."""
        hi, ids = self._hi, self._ids
        return [ids[k] for k in range(bisect_left(self._reach, x), bisect_right(self._lo, x))
                if hi[k] >= x]

    def _divergent_directions(self, x) -> tuple:
        """Directions i with diagonal mass mu_ii within tol_x of x, or of
        any point of a 1-D array x."""
        if is_batch(x):
            return tuple(sorted({i for p in x[self.on_support(x)].tolist()
                                 for i in self._divergent_directions(p)}))
        ids = self._terms_at(x)
        if len(ids) > 1:
            return tuple(sorted({i for t in ids for i in self._dirs[t]}))
        return self._dirs[ids[0]] if ids else ()

    def mass_at(self, x: float):
        """(W, ρ̄, J) at x: the weight of the atoms within tol_x of x, the
        mean ρ̄ = (ρ(x−) + ρ(x+))/2 of the densities beside x and their jump
        J = ρ(x+) − ρ(x−); a piece holds x on one side within tol_x of an end.
        PreconditionError for a point that is not one finite real number."""
        x = as_real_point(x, "mass_at", batch=False)
        return tuple(self._zero if v is None else v for v in self._at(x)[:3])

    def _at(self, x: float):
        """``mass_at``, None for a zero, and the coefficient-row indices of
        the terms within tol_x of x (atoms, piece starts, piece ends)."""
        ids = sorted(self._terms_at(x))
        if not ids:
            return None, None, None, ()
        k, tol = self._k, self.tols.tol_x
        atoms, pieces = [t for t in ids if t < k], [t - k for t in ids if t >= k]
        left = [j for j in pieces if self._a[j] + tol < x]
        right = [j for j in pieces if x < self._b[j] - tol]
        near = atoms + [k + j for j in pieces if j not in left]
        near += [k + self._p + j for j in pieces if j not in right]
        w, below = _summed(self.W, atoms), _summed(self.rho, left)
        if left == right:       # a piece interior, or no piece at all
            return w, below, None, near
        below, above = (self.rho[side].sum(axis=0) for side in (left, right))
        jump = above - below
        return w, 0.5 * (below + above), jump if jump.any() else None, near

    def on_support(self, x):
        """Whether x is within tol_x of a term carrying mass: a bool, or a
        bool array for a 1-D array of points."""
        if not is_batch(x):
            return bool(self._terms_at(x))
        # some term starting at or below x must reach it
        j = np.searchsorted(self._lo_sorted, x, side="right")
        return (j > 0) & (self._reach_sorted[j - 1] >= x)

    def support_bounds(self):
        return float(self._pts.min()), float(self._pts.max())

    @property
    def purely_atomic(self) -> bool:
        return not self.a.size

    @cached_property
    def atom_eigh(self):
        """eigh of the atom weights, read-only, formed on first use (not by __init__)."""
        lam, vecs = np.linalg.eigh(self.W)
        return _frozen(lam), _frozen(vecs)


# -- kernels -------------------------------------------------------------


class Kernel:
    """A closed-form integrand.

    ``coefficients(pts, k)`` returns a fresh array over the measure's
    points ``pts`` = [atoms, piece starts, piece ends]: the kernel at the
    first k (the atoms) and an antiderivative at the rest, so a piece
    [a, b] integrates to the difference of its two entries.  A kernel
    holding a batch of parameters puts the batch on leading axes.  The
    array is the caller's: ``integrate`` overwrites it in place.
    ``pole`` is the real point where the kernel is singular (a 1-D array
    of them for a batch of real points), or None; ``integrate`` reports
    divergence there instead of evaluating.  A ``compensated``
    kernel omits the z-independent Cauchy compensator y/(1+y²), whose
    integral ``integrate`` takes from the measure's ``cauchy_offset``.
    """

    pole = None
    compensated = False


class PoissonSquareKernel(Kernel):
    """y -> 1/(x - y)^2; the integrand of the divergence matrix.

    A 1-D array of x is a batch: the integral comes out stacked along a
    leading axis.
    """

    def __init__(self, x):
        self.x = self.pole = as_real_point(x, "the divergence kernel")
        self._x = self.x if isinstance(self.x, float) else self.x[:, None]

    def coefficients(self, pts, k):
        d = self._x - pts   # 1/d² at the atoms, squared first; 1/d at piece ends
        _QUIET_SQUARE(d[..., :k], out=d[..., :k])
        return np.divide(1.0, d, out=d)


class RegularizedKernel(Kernel):
    """y -> 1/((x - y)^2 + 1/m^2); everywhere finite.

    x is one real point or a 1-D array of them, m one level or a 1-D array
    of levels.  The coefficients are one (G, L, K+2P) block: points first,
    then levels, then terms, an axis left out where its parameter is one
    number.  One point and one level are each a batch of one, so each row
    of a block has the bytes of its own (x, m) kernel.  Every level must be
    a finite and positive number, not a bool or a string.
    """

    def __init__(self, x, m):
        self.x = as_real_point(x, "the regularized kernel")
        given = np.array(m, dtype=object)
        if given.ndim > 1:
            raise PreconditionError("a batch of regularization levels m must be a 1-D array")
        # each as a float first: a long double can pass the float range; NaN fails too
        if not all(is_real(v) and 0.0 < float(v) < math.inf for v in given.flat):
            raise PreconditionError(f"regularization level m must be a finite and positive number, got {shown(m)}")
        levels = given.astype(float)
        ms = levels.ravel().tolist()
        self.m = _frozen(levels) if levels.ndim else ms[0]
        widths = [1.0 / v for v in ms]
        # w ** 2 is Python's square (libm pow): numpy's w * w differs from it in the last bit
        self._m, self._width, self._width2 = np.array(
            [ms, widths, [w ** 2 for w in widths]])[..., None]
        self._x = np.reshape(self.x, (-1, 1))
        self._axes = tuple(slice(None) if is_batch(v) else 0 for v in (self.x, self.m))

    def coefficients(self, pts, k):
        d = pts - self._x
        sq = np.zeros(d.shape)  # (y - x)² at the atoms once per point; 0 at the piece ends
        _QUIET_SQUARE(d[:, :k], out=sq[:, :k])
        # one add and one reciprocal over the contiguous block, whose piece
        # columns the primitive then overwrites: numpy runs one loop, not one per row
        out = np.add(sq[:, None], self._width2)
        np.reciprocal(out, out=out)
        e = out[..., k:]
        # m·atan(m(y - x)), with the product inside atan folded into atan2
        np.arctan2(d[:, None, k:], self._width, out=e)
        e *= self._m
        return out[self._axes]


class CauchyKernel(Kernel):
    """y -> 1/(y - z) - y/(1 + y^2), the Herglotz representation integrand.

    Works for complex z off the real axis and, in real arithmetic, for
    real z off the support or, as a finite part (``integrate``'s ``drop``),
    on it.  A 1-D array of z is a batch: the integral comes out
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
            return
        if z.dtype.kind != "c":
            self.pole = z
        elif not z.imag.all():
            raise ValueError("a complex batch of z must be off the real axis (Im z != 0)")
        self.z, self._w = z, z[:, None]

    def coefficients(self, pts, k):
        d = pts - self._w
        v, e = d[..., :k], d[..., k:]
        np.divide(1.0, v, out=v)
        # The ends of a piece lie in one open half-plane when Im z != 0, so
        # their principal logs differ by the log of the ratio; for real z
        # log|y - z| is a primitive off the piece and, as a PV, across it.
        if e.size:      # a purely atomic measure skips two calls on nothing
            np.log(e if self.pole is None else np.abs(e, out=e), out=e)
        return d


# -- operations ----------------------------------------------------------


def integrate(kernel: Kernel, omega: MatrixMeasure, drop=None):
    """Integrate a closed-form kernel against the measure.

    Returns the matrix (a stack of them, on leading axes, for a batched
    kernel), or a :class:`Divergent` carrying the 0-based directions i
    whose diagonal scalar integral against mu_ii diverges.  Divergence is
    directional: a kernel pole sitting on an atom or inside a piece only
    kills the directions with nonzero diagonal mass there.  A batch of real
    points is all or nothing: one point on the support makes the whole
    result Divergent, in the directions diverging at any point, so callers
    split a batch with ``on_support`` first.  Given ``drop``, the row
    indices of every term at a one-point kernel's pole (``MatrixMeasure._at``),
    it returns the finite part instead: those coefficients 0.  K, P, the slices of a
    coefficient row and the (n, n) shape come from the measure, set once
    when it was validated; the coefficients are overwritten in place, so a
    kernel handing out an array it keeps (the scan's rows) is single use.
    """
    if drop is None and kernel.pole is not None:
        bad = omega._divergent_directions(kernel.pole)
        if bad:
            return Divergent(bad)
    if not drop:
        coef = kernel.coefficients(omega._pts, omega._k)
    else:   # 1/0 or log 0 at a dropped term, overwritten
        with np.errstate(divide="ignore", over="ignore"):
            coef = kernel.coefficients(omega._pts, omega._k)
        coef[drop] = 0.0
    if omega._p:    # each piece: primitive at its end minus at its start, in place
        starts = coef[omega._starts]
        np.subtract(coef[omega._ends], starts, out=starts)
        coef = coef[omega._terms]
    if coef.dtype.kind == "c":
        total = coef.dot(omega._weights)
    else:   # real coefficients: one real product over (re, im) pairs
        total = coef.dot(omega._weights_re_im).view(complex)
    if kernel.compensated:
        total -= omega.cauchy_offset
    return total.reshape(coef.shape[:-1] + omega._nn)
