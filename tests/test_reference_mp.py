"""A 60-digit reference for measures with pieces.

``mp_cauchy`` evaluates M(z) = C + ∫ (1/(y-z) - y/(1+y²)) dΩ(y) in mpmath
from the closed-form kernels, a piece through the complex log, at
z = x + iε with ε between 1e-30 and 1e-20.  There M(x+iε) = M(x+i0) + O(ε),
so it stands in for the boundary value, and Im M_{D'}(x+iε)/ε for the
divergence integral T_{D'}(x) where that is finite.  Off the support the closed
forms M(x), F = (D' - M(x))^{-1} and F T(x) F are checked against it; in a
piece interior the Sokhotski–Plemelj M(x+i0), the second-parameter F and
its divergent directions are.  On the rest of the support (atoms, piece
ends, junctions of two pieces) the reference runs at 80 digits on integer
weights, which have their exact rank there: at an atom and at a matched
junction M_{D'}(x+i0) and, at an atom, T_{D'}; where a density touches x
the directions in which Im M_{D'}(x+iε)/ε grows as ε shrinks.

The inputs are exactly Hermitian (the float ``hermitian_part`` of every
weight, density and parameter) and every atom weight is truncated to its
numerical rank: at 60 digits an anti-Hermitian rounding residue divided
by ε, or a float eigenvalue near 1e-16 on the kernel of a weight, would
be real data.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath").mp
from hypothesis import given, settings, strategies as st

from specstab import (DEFAULT_TOLS, ACPiece, Atom, HerglotzMatrix, MatrixMeasure,
                      boundary_value, is_divergent, max_mult_test_via)
from specstab.measure import hermitian_part
from specstab.randgen import random_gap_matrix

from helpers import random_hermitian

DPS = 60
REL = 1e-12


def _to_mp(a: np.ndarray):
    return mp.matrix(np.asarray(a, dtype=complex).tolist())


def _to_np(a) -> np.ndarray:
    return np.array(a.tolist(), dtype=complex)


def mp_cauchy(m: HerglotzMatrix, x: float, eps):
    """M(x + iε) at DPS digits, as an mpmath matrix (call inside workdps)."""
    z = mp.mpc(x, eps)
    out = _to_mp(m.C)
    for at in m.omega.atoms:
        y = mp.mpf(at.x)
        out += _to_mp(at.W) * (1 / (y - z) - y / (1 + y * y))
    for pc in m.omega.ac_pieces:
        a, b = mp.mpf(pc.a), mp.mpf(pc.b)
        # principal logs: the ends lie in the lower half-plane seen from z
        seg = mp.log(b - z) - mp.log(a - z) - mp.log((1 + b * b) / (1 + a * a)) / 2
        out += _to_mp(pc.rho) * seg
    return out


def _weight(rng, n: int, rank: int) -> np.ndarray:
    """Exactly Hermitian PSD weight of the given numerical rank."""
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    w, v = np.linalg.eigh(hermitian_part(g @ g.conj().T))
    w[w <= DEFAULT_TOLS.rank_tol * np.abs(w).max()] = 0.0
    return hermitian_part((v * w) @ v.conj().T)


@st.composite
def instances(draw):
    """A measure with 1-3 pieces and 0-3 atoms between or inside them, an
    exactly Hermitian C, D and D' = D + gap, and a reference ε."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pieces = []
    for j in range(draw(st.integers(1, 3))):
        a = 3.0 * j - 4.0 + float(rng.uniform(0.0, 0.5))
        pieces.append(ACPiece(a, a + float(rng.uniform(0.5, 2.0)),
                              _weight(rng, n, int(rng.integers(1, n + 1)))))
    atoms = [Atom(float(x), _weight(rng, n, int(rng.integers(1, n + 1))))
             for x in rng.uniform(-5.0, 5.0, size=draw(st.integers(0, 3)))]
    m = HerglotzMatrix(hermitian_part(random_hermitian(rng, n)),
                       MatrixMeasure(n, atoms, pieces))
    d = hermitian_part(random_hermitian(rng, n))
    dp = hermitian_part(d + random_gap_matrix(rng, n))
    eps = mp.mpf(10) ** -draw(st.integers(20, 30))
    return m, d, dp, eps, rng


def _far_from_atoms(m, x) -> bool:
    return bool(np.all(np.abs(m.omega.xs - x) > 1e-3))


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want)) / max(1e-300, float(np.linalg.norm(want)))


def _reference(m, dp, x, eps):
    """(M(x+iε), F, Im F / ε) at DPS digits, as numpy arrays."""
    with mp.workdps(DPS):
        mz = mp_cauchy(m, x, eps)
        f = (_to_mp(dp) - mz) ** -1
        im_f = (f - f.H) / mp.mpc(0, 2)
        return _to_np(mz), _to_np(f), _to_np(im_f / eps)


def _cond(a) -> float:
    return float(np.linalg.cond(a))


@settings(max_examples=40, deadline=None)
@given(inst=instances(), u=st.floats(0.0, 1.0))
def test_off_the_support_closed_forms(inst, u):
    m, d, dp, eps, rng = inst
    lo, hi = m.omega.support_bounds()
    x = lo - 1.0 + (hi - lo + 2.0) * u
    if m.omega.on_support(x) or not _far_from_atoms(m, x):
        x = hi + 0.5 + u
    mz, f, t_dp = _reference(m, dp, x, eps)
    rep = boundary_value(m, x)
    assert rep.t_finite and not rep.eps_trace
    assert _rel(rep.m_boundary, hermitian_part(mz)) <= REL
    ev = max_mult_test_via(m, d, dp, x)
    kappa = _cond(dp - mz)
    assert _rel(ev.m_boundary, hermitian_part(f)) <= REL * kappa
    assert _rel(ev.t_value, hermitian_part(t_dp)) <= REL * kappa ** 2


@settings(max_examples=40, deadline=None)
@given(inst=instances(), u=st.floats(0.02, 0.98))
def test_piece_interior_plemelj_values(inst, u):
    m, d, dp, eps, rng = inst
    omega = m.omega
    j = int(rng.integers(len(omega.ac_pieces)))
    pc = omega.ac_pieces[j]
    x = pc.a + (pc.b - pc.a) * u
    if not _far_from_atoms(m, x):
        return
    mz, f, _ = _reference(m, dp, x, eps)
    # M(x+i0) = C + PV∫ + iπρ(x): the finite part is the PV
    rep = boundary_value(m, x)
    assert rep.converged and not rep.eps_trace and not rep.t_finite
    w, rho, jump = omega.mass_at(x)
    assert not (w.any() or jump.any())
    assert _rel(rep.m_boundary + 1j * np.pi * rho, mz) <= REL
    assert _rel(rep.m_boundary, hermitian_part(mz)) <= REL
    # the second parameter: F, and T_{D'} divergent where π F ρ F* = Im F
    # has a diagonal above rank_tol
    ev = max_mult_test_via(m, d, dp, x)
    assert _rel(ev.m_boundary, hermitian_part(f)) <= REL * _cond(dp - mz)
    frf = (f - f.conj().T) / (2j * np.pi)
    big = np.diag(frf).real > DEFAULT_TOLS.rank_tol * max(1.0, float(np.linalg.norm(frf)))
    assert is_divergent(ev.t_value) and not ev.verdict
    assert ev.t_value.directions == tuple(np.flatnonzero(big).tolist())


def test_a_diagonal_instance_diverges_in_one_direction():
    # ρ, C, D' all diagonal with ρ on direction 0 only: F ρ F* has one
    # nonzero diagonal entry, so exactly one direction diverges
    omega = MatrixMeasure(2, [Atom(3.0, np.diag([1.0, 2.0]))],
                          [ACPiece(-1.0, 1.0, np.diag([1.0, 0.0]))])
    m = HerglotzMatrix.from_measure(omega, np.diag([0.5, -0.25]))
    dp = np.diag([1.0, 2.0])
    ev = max_mult_test_via(m, np.zeros((2, 2)), dp, 0.3)
    assert ev.t_value.directions == (0,)
    _, f, _ = _reference(m, dp, 0.3, mp.mpf("1e-25"))
    assert _rel(ev.m_boundary, hermitian_part(f)) <= REL


# -- on the support ----------------------------------------------------------

DPS_SUPPORT = 80


def _int_weight(rng, n: int, rank: int) -> np.ndarray:
    """Σ v v* over ``rank`` small integer complex vectors, none zero: an
    exactly Hermitian PSD weight of exact (at most ``rank``) rank."""
    while True:
        v = rng.integers(-2, 3, size=(n, rank)) + 1j * rng.integers(-2, 3, size=(n, rank))
        if np.all(np.abs(v).sum(axis=0) > 0):
            return v @ v.conj().T


def _mp_weyl(m, dp, x, eps):
    """M_{D'}(x + iε) at DPS_SUPPORT digits, as an mpmath matrix."""
    return (_to_mp(dp) - mp_cauchy(m, x, eps)) ** -1


@st.composite
def support_instances(draw):
    """Two pieces, abutting (with equal or unequal densities) or apart,
    atoms inside neither, sometimes one at a piece end, all weights of
    integer entries; C and D' Hermitian; the query x on the support: an
    atom, a piece end or the junction."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = lambda: int(rng.integers(1, n + 1))      # noqa: E731
    joined = draw(st.sampled_from(["equal", "unequal", "apart"]))
    rho0 = _int_weight(rng, n, rank())
    rho1 = rho0 if joined == "equal" else _int_weight(rng, n, rank())
    b1 = 1.5 if joined == "apart" else 1.0
    pieces = [ACPiece(0.0, 1.0, rho0), ACPiece(b1, b1 + 1.25, rho1)]
    xs = [-2.0 + float(rng.uniform(0.0, 1.0)), 4.0 + float(rng.uniform(0.0, 1.0))]
    at_end = draw(st.booleans())
    if at_end:
        xs.append(float(draw(st.sampled_from([0.0, 1.0, b1 + 1.25]))))
    atoms = [Atom(x, _int_weight(rng, n, rank())) for x in xs]
    m = HerglotzMatrix(hermitian_part(random_hermitian(rng, n)),
                       MatrixMeasure(n, atoms, pieces))
    dp = hermitian_part(random_hermitian(rng, n))
    x = draw(st.sampled_from(xs + [0.0, 1.0, b1, b1 + 1.25]))
    eps = mp.mpf(10) ** -draw(st.integers(20, 28))
    return m, dp, x, eps


def _reference_directions(m, dp, x, eps):
    """Directions i in which Im M_{D'}(x+iε)_ii / ε grows more than
    100-fold as ε shrinks 1e4-fold: bounded where T_{D'} is finite, about
    1e4-fold where the measure of M_{D'} has a density or a log singularity at x."""
    with mp.workdps(DPS_SUPPORT):
        lo, hi = (_mp_weyl(m, dp, x, e) for e in (eps, eps * mp.mpf("1e-4")))
        return tuple(i for i in range(m.dim)
                     if mp.im(hi[i, i]) * 1e4 > 100 * abs(mp.im(lo[i, i])))


def _rel_to_one(got, want) -> float:
    """Frobenius distance relative to max(1, ‖want‖), the criterion's scale."""
    return float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want)))


@settings(max_examples=60, deadline=None)
@given(inst=support_instances())
def test_on_the_support_closed_forms(inst):
    m, dp, x, eps = inst
    w, rho, jump = m.omega.mass_at(x)
    ev = max_mult_test_via(m, dp + np.eye(m.dim), dp, x)
    rep = boundary_value(m, x)
    assert not ev.verdict and not rep.t_finite
    assert rep.converged == (not (w.any() or jump.any()))
    with mp.workdps(DPS_SUPPORT):
        mz = _to_np(mp_cauchy(m, x, eps))
        f = _mp_weyl(m, dp, x, eps)
        t_ref = _to_np((f - f.H) / mp.mpc(0, 2) / eps)
        f = _to_np(f)
    if rep.converged:       # a matched junction: the principal value, plus iπρ̄
        assert _rel(rep.m_boundary + 1j * np.pi * rho, mz) <= REL
        assert _rel_to_one(ev.m_boundary, hermitian_part(f)) <= REL * _cond(dp - mz)
    # T_{D'} diverges where the reference grows; elsewhere T_{D'} and
    # M_{D'}(x+i0) are the reference's limits, which it reaches like ε
    dirs = _reference_directions(m, dp, x, eps)
    if dirs:
        assert ev.t_value.directions == dirs
    else:
        kappa = _cond(np.asarray(ev.t_value))
        assert _rel(ev.t_value, hermitian_part(t_ref)) <= REL * kappa
        assert _rel_to_one(ev.m_boundary, hermitian_part(f)) <= REL * kappa
