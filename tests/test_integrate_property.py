"""Property test: the array ``integrate`` against a term-by-term reference.

The reference below evaluates every kernel one atom and one piece at a
time, with the closed forms written out per term, and decides divergence
term by term.  Random measures vary the number of atoms, the dimension,
rank-deficient and zero weights and abutting pieces; the evaluation points
sit exactly on atoms and piece ends, within tol_x/2 of them and 2·tol_x
away.  A batch of complex z near the point goes through the Cauchy kernel
and ``evaluate`` in one call and must match the scalar calls z by z.  On
the same measures: T(x), the real-x Cauchy integral and ``on_support``
make one support decision; on the support both real-x kernels have the
finite part of the reference, which leaves out the terms within tol_x of
x (``integrate``'s ``drop``); just off the support the closed-form
boundary value is the ε-limit; and Im M(z) ⪰ 0 above the axis.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from specstab import (ACPiece, Atom, CauchyKernel, ConditioningError,
                      DEFAULT_TOLS, Divergent, HerglotzMatrix, MatrixMeasure,
                      PoissonSquareKernel, RegularizedKernel,
                      boundary_value, evaluate, extension_weyl, integrate,
                      is_divergent, t_matrix)
from specstab.herglotz import EPS, integrate_cauchy, richardson_limit

TOL_X = DEFAULT_TOLS.tol_x
REL = 1e-12


def reference_kernel(kernel):
    """(value parts at y, segment parts on [a, b], real pole or None).

    The parts of a closed form sum to it; their absolute values bound the
    rounding of any order of summation.
    """
    if isinstance(kernel, PoissonSquareKernel):
        x = kernel.x
        return (lambda y: [1.0 / (x - y) ** 2],
                lambda a, b: [1.0 / (x - b) if abs(x - b) > TOL_X else 0.0,
                              -1.0 / (x - a) if abs(x - a) > TOL_X else 0.0], x)
    if isinstance(kernel, RegularizedKernel):
        x, m = kernel.x, kernel.m
        return (lambda y: [1.0 / ((x - y) ** 2 + 1.0 / m ** 2)],
                lambda a, b: [m * math.atan(m * (b - x)), -m * math.atan(m * (a - x))], None)
    if isinstance(kernel, CauchyKernel):
        z = kernel.z
        pole = z.real if z.imag == 0.0 else None

        def segment(a, b):
            comp = -0.5 * math.log((1 + b * b) / (1 + a * a))
            if pole is None:
                return [complex(np.log((b - z) / (a - z))), comp]
            # real z: log|y - z| at each end, 0 at one within tol_x (the finite part)
            return [math.log(abs(b - pole)) if abs(b - pole) > TOL_X else 0.0,
                    -math.log(abs(a - pole)) if abs(a - pole) > TOL_X else 0.0, comp]
        return (lambda y: [1.0 / (y - z), -y / (1.0 + y * y)], segment, pole)
    raise TypeError(f"no reference for {type(kernel).__name__}")


def reference_integrate(kernel, omega: MatrixMeasure, finite: bool = False):
    """(matrix or Divergent, size): size bounds the sum's rounding.  A
    real pole on the support gives Divergent, or with ``finite`` the finite
    part: an atom within tol_x of the pole left out but for its Cauchy
    compensator, and the primitive at a piece end there taken as 0."""
    value, segment, pole = reference_kernel(kernel)
    terms = [(at.W, at.x, None) for at in omega.atoms]
    terms += [(pc.rho, pc.a, pc.b) for pc in omega.ac_pieces]
    bad = set()
    total = np.zeros((omega.dim, omega.dim), dtype=complex)
    size = 0.0
    for w, a, b in terms:
        if np.trace(w).real <= 0.0:   # the zero matrix adds nothing anywhere
            continue
        on_pole = pole is not None and (abs(a - pole) <= TOL_X if b is None
                                         else a - TOL_X <= pole <= b + TOL_X)
        if on_pole:
            bad.update(int(i) for i in np.flatnonzero(np.real(np.diag(w)) > 0))
        if b is not None:
            parts = segment(a, b)
        elif on_pole:   # the pole part goes; the Cauchy compensator stays
            parts = [-a / (1.0 + a * a)] if isinstance(kernel, CauchyKernel) else []
        else:
            parts = value(a)
        total += sum(parts) * w
        size += sum(abs(p) for p in parts) * float(np.linalg.norm(w))
    if bad and not finite:
        return Divergent(tuple(sorted(bad))), 0.0
    return total, size


def _psd(rng, n, rank):
    """Random PSD weight of the given rank; half of them live on a random
    set of canonical directions, so some diagonal entries are exactly 0."""
    b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    if rng.random() < 0.5:
        drop = rng.random(n) < 0.4
        drop[rng.integers(n)] = False
        b[drop] = 0.0
    return float(rng.uniform(0.1, 10.0)) * (b @ b.conj().T) / max(rank, 1)


@st.composite
def measures(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    atom_ranks = draw(st.lists(st.integers(0, n), max_size=40))
    piece_ranks = draw(st.lists(st.integers(0, n), max_size=4))
    abut = draw(st.lists(st.booleans(), min_size=len(piece_ranks), max_size=len(piece_ranks)))
    if not any(atom_ranks + piece_ranks):   # keep the measure nontrivial
        atom_ranks = [n] + atom_ranks[1:]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = np.sort(rng.uniform(-5.0, 5.0, size=len(atom_ranks)))
    atoms = [Atom(float(x), _psd(rng, n, r)) for x, r in zip(xs, atom_ranks)]
    pieces, cur = [], float(rng.uniform(-6.0, 2.0))
    for r, joined in zip(piece_ranks, abut):
        a = cur if joined else cur + float(rng.uniform(0.1, 1.0))
        cur = a + float(rng.uniform(0.05, 1.0))
        pieces.append(ACPiece(a, cur, _psd(rng, n, r)))
    return MatrixMeasure(n, atoms, pieces)


@st.composite
def points(draw, omega: MatrixMeasure):
    """A free point, or one on, within tol_x/2 of or 2·tol_x from an atom
    or a piece end."""
    anchors = draw(st.sampled_from([
        [],
        [at.x for at in omega.atoms],
        [e for pc in omega.ac_pieces for e in (pc.a, pc.b)]]))
    if not anchors:
        return draw(st.floats(-7.0, 7.0))
    offset = draw(st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0])) * TOL_X
    return draw(st.sampled_from(anchors)) + offset


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_array_integrate_matches_term_by_term_reference(data):
    omega = data.draw(measures())
    x = data.draw(points(omega))
    imag = data.draw(st.sampled_from([1e-3, 0.5, -0.7]))
    m = data.draw(st.sampled_from([1.0, 64.0, 1024.0]))
    kernels = [PoissonSquareKernel(x), RegularizedKernel(x, m), CauchyKernel(x + 1j * imag),
               CauchyKernel(x), RegularizedKernel(0.0, 1.0)]
    drop = omega._at(x)[3]
    cases = [(k, None, False) for k in kernels]
    cases += [(k, drop, True) for k in (PoissonSquareKernel(x), CauchyKernel(x))]
    for kernel, dropped, finite in cases:
        got = integrate(kernel, omega, dropped)
        ref, size = reference_integrate(kernel, omega, finite)
        name = (type(kernel).__name__, finite)
        if isinstance(ref, Divergent):
            assert isinstance(got, Divergent), name
            assert got.directions == ref.directions, name
        else:
            assert not isinstance(got, Divergent), name
            assert got.shape == (omega.dim, omega.dim)
            err = float(np.linalg.norm(got - ref))
            assert err <= REL * size, (name, err, size)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_cauchy_matches_scalar_calls(data):
    omega = data.draw(measures())
    x = data.draw(points(omega))
    parts = data.draw(st.lists(st.tuples(st.sampled_from([0.0, 0.5, -1.5]),
                                         st.sampled_from([1e-6, 1e-3, 0.5, -0.7])),
                               min_size=1, max_size=6))
    zs = np.array([x + dx + 1j * dy for dx, dy in parts])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(omega.dim,) * 2) + 1j * rng.normal(size=(omega.dim,) * 2)
    d = a + a.conj().T
    m = HerglotzMatrix.from_measure(omega)
    got = integrate(CauchyKernel(zs), omega)
    assert got.shape == (zs.size, omega.dim, omega.dim)
    stacked = evaluate(m, zs)
    weyl = extension_weyl(m, d)(zs)
    for i, z in enumerate(zs):
        one = integrate(CauchyKernel(z), omega)
        _, size = reference_integrate(CauchyKernel(z), omega)
        assert float(np.linalg.norm(got[i] - one)) <= REL * size
        assert float(np.linalg.norm(stacked[i] - evaluate(m, z))) <= REL * size
        try:
            inv = extension_weyl(m, d)(z)
        except ConditioningError:
            assert np.isnan(weyl[i]).all()
            continue
        # the inverse magnifies the (bounded) difference of the two M(z)
        bound = float(np.linalg.norm(inv)) ** 2 * (
            REL * size + 1e-14 * float(np.linalg.norm(d - evaluate(m, z))))
        assert float(np.linalg.norm(weyl[i] - inv)) <= bound

    # one real z anywhere in the batch is rejected, as for a single z
    real_at = data.draw(st.integers(0, zs.size - 1))
    with_real = zs.copy()
    with_real[real_at] = with_real[real_at].real
    with pytest.raises(ValueError):
        evaluate(m, with_real)
    with pytest.raises(ValueError):
        integrate(CauchyKernel(with_real), omega)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_t_matrix_cauchy_and_support_agree(data):
    omega = data.draw(measures())
    x = data.draw(points(omega))
    m = HerglotzMatrix.from_measure(omega)
    t = t_matrix(m, x)
    cauchy = integrate_cauchy(m, x)
    assert is_divergent(t) == is_divergent(cauchy) == omega.on_support(x)
    if is_divergent(cauchy):
        assert t.directions == cauchy.directions
    # M(x+i0) has a limit unless an atom sits at x or the density jumps
    # there: sides taken as in MatrixMeasure.mass_at, with tol_x
    kept = [pc for pc in omega.ac_pieces if np.trace(pc.rho).real > 0.0]
    below = sum((pc.rho for pc in kept if pc.a + TOL_X < x <= pc.b + TOL_X), np.zeros(1))
    above = sum((pc.rho for pc in kept if pc.a - TOL_X <= x < pc.b - TOL_X), np.zeros(1))
    atom = any(abs(at.x - x) <= TOL_X and np.trace(at.W).real > 0.0 for at in omega.atoms)
    rep = boundary_value(m, x)
    assert rep.converged == (not atom and np.array_equal(above - below, np.zeros_like(above - below)))
    assert rep.eps_trace == []


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closed_form_is_the_eps_limit_off_the_support(data):
    omega = data.draw(measures())
    anchors = [at.x for at in omega.atoms] + [e for pc in omega.ac_pieces
                                              for e in (pc.a, pc.b)]
    offset = data.draw(st.sampled_from([1e-1, 1e-2, 1e-3, -1e-1, -1e-2, -1e-3]))
    x = data.draw(st.sampled_from(anchors)) + offset
    assume(not omega.on_support(x))
    m = HerglotzMatrix.from_measure(omega)
    closed = boundary_value(m, x).m_boundary
    val, _, ok = richardson_limit(evaluate(m, x + 1j * EPS), DEFAULT_TOLS)
    assert ok
    err = float(np.linalg.norm(val - closed))
    assert err <= 10 * DEFAULT_TOLS.tol_bv * max(1.0, float(np.linalg.norm(closed)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_imaginary_part_is_positive_above_the_axis(data):
    omega = data.draw(measures())
    x = data.draw(points(omega))
    dys = data.draw(st.lists(st.sampled_from([1e-9, 1e-6, 1e-3, 0.5, 20.0]),
                             min_size=1, max_size=6))
    dxs = data.draw(st.lists(st.sampled_from([0.0, 1e-3, -0.5, 3.0]),
                             min_size=len(dys), max_size=len(dys)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(omega.dim,) * 2) + 1j * rng.normal(size=(omega.dim,) * 2)
    m = HerglotzMatrix.from_measure(omega, a + a.conj().T)
    vals = evaluate(m, np.array([x + dx + 1j * dy for dx, dy in zip(dxs, dys)]))
    for v in vals:
        im = (v - v.conj().T) / 2j
        floor = -1e-12 * max(1.0, float(np.linalg.norm(v)))
        assert np.linalg.eigvalsh(im).min() >= floor
