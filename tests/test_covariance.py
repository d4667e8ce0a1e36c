"""Symmetries of the library as a correctness net, on the benchmark's measures.

Unitary covariance: conjugating everything by a unitary U (Ω → U*ΩU,
C → U*CU, D → U*DU, D' → U*D'U) conjugates every kernel integral, M, T
and M_{D'} alike.  So every verdict, every finiteness decision and every
value of ``integrate`` (each kernel), ``boundary_value``, ``max_mult_test``
and ``max_mult_test_via`` must agree between the two frames, values up to
U, and ``classify`` must find the same poles, kernel dimensions and ranks,
masses up to U.  The queries are those of ``bench/instances.mixed_instance``
(off the support, in a piece, at an atom) plus every piece end.  Divergent
directions are not compared: they name canonical-basis indices, which do
not transform with U.

Translation covariance: moving the measure by c gives M_c(z + c) = M(z) +
K_c, K_c = ∫(y/(1+y²) − (y+c)/(1+(y+c)²)) dΩ(y), and T_c(x + c) = T(x).
So the verdicts at x + c for D + K_c are those at x for D, compared only
where the residual is not within a factor 2 of ``tol_match``, since
rounding may flip a verdict there.
"""

import sys
from pathlib import Path

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from specstab import (ACPiece, Atom, CauchyKernel, HerglotzMatrix, IntervalUnion,
                      MatrixMeasure, PoissonSquareKernel, RegularizedKernel, boundary_value,
                      classify, extension_for_point, integrate, is_divergent, max_mult_test,
                      max_mult_test_via, t_matrix)
from specstab.measure import hermitian_part
from specstab.randgen import point_off_atoms, random_unitary
from specstab.verify import MASS_AGREE_TOL, X_AGREE_TOL, _scan_window

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import instances  # noqa: E402

REL = 1e-10


def _conjugated(m: HerglotzMatrix, u: np.ndarray) -> HerglotzMatrix:
    """U*MU: every weight, density and C conjugated by u."""
    def conj(a):
        return hermitian_part(u.conj().T @ np.asarray(a) @ u)

    omega = m.omega
    atoms = [Atom(at.x, conj(at.W)) for at in omega.atoms]
    pieces = [ACPiece(pc.a, pc.b, conj(pc.rho)) for pc in omega.ac_pieces]
    return HerglotzMatrix(conj(m.C), MatrixMeasure(omega.dim, atoms, pieces))


def _queries(inst, m):
    """(x, D, D') for every query of the instance and every piece end: D
    is the boundary value at x, or at x + 0.05 where x carries no limit."""
    rng = np.random.default_rng(len(inst.queries))
    points = [(q.x, q.gap) for q in inst.queries]
    points += [(float(e), instances.gap_matrix(rng, m.dim))
               for e in np.concatenate([inst.layout.a, inst.layout.b])]
    for x, gap in points:
        rep = boundary_value(m, x)
        d = rep.m_boundary if rep.converged else boundary_value(m, x + 0.05).m_boundary
        yield x, d, d + gap


def _same(a, b, u) -> bool:
    """Both None, or b = U*aU to REL·max(1, ‖a‖)."""
    if a is None or b is None:
        return a is None and b is None
    a = u.conj().T @ np.asarray(a) @ u
    return float(np.linalg.norm(a - b)) <= REL * max(1.0, float(np.linalg.norm(a)))


def _agree(ev, ev_u, u):
    """Two evidences of one criterion agree up to u."""
    assert ev.verdict == ev_u.verdict and ev.t_finite == ev_u.t_finite
    assert _same(ev.m_boundary, ev_u.m_boundary, u)
    if ev.t_finite:
        assert _same(ev.t_value, ev_u.t_value, u)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_both_criteria_are_unitarily_covariant(seed):
    rng = np.random.default_rng(seed)
    inst = instances.mixed_instance(rng, queries=24)
    m = HerglotzMatrix.from_measure(inst.layout.matrix_measure())
    u = random_unitary(rng, m.dim)
    m_u = _conjugated(m, u)
    kinds = set()
    for x, d, dp in _queries(inst, m):
        d_u, dp_u = (u.conj().T @ v @ u for v in (d, dp))
        rep, rep_u = boundary_value(m, x), boundary_value(m_u, x)
        assert rep.converged == rep_u.converged and rep.t_finite == rep_u.t_finite
        assert _same(rep.m_boundary, rep_u.m_boundary, u)
        if rep.t_finite:
            assert _same(rep.t_matrix, rep_u.t_matrix, u)
        _agree(max_mult_test(m, d, x), max_mult_test(m_u, d_u, x), u)
        ev = max_mult_test_via(m, d, dp, x)
        _agree(ev, max_mult_test_via(m_u, d_u, dp_u, x), u)
        kinds.add((ev.verdict, ev.t_finite, rep.converged))
    # true verdicts off the support, finite T_{D'} at atoms, divergent ones
    # in pieces and at their ends
    assert {(True, True, True), (False, True, False), (False, False, True),
            (False, False, False)} <= kinds


def _kernels(inst, rng):
    """Every kernel at the instance's query points: T's on the support
    and off it, the regularized one over three levels, Cauchy's at the
    real points off the support and above and below the axis, and a set."""
    xs = np.array([q.x for q in inst.queries])
    lay = inst.layout
    off = xs[np.array([q.kind == instances.OFF_SUPPORT for q in inst.queries])]
    z = (xs[:, None] + np.array([1e-3j, -0.1j, 2j])).ravel()
    a, b = np.sort(rng.uniform(lay.a.min() - 1.0, lay.b.max() + 1.0, size=(2, 3)), axis=0)
    return ([PoissonSquareKernel(x) for x in xs.tolist()] + [PoissonSquareKernel(off)]
            + [RegularizedKernel(xs, np.array([1.0, 16.0, 1024.0])), CauchyKernel(off),
               CauchyKernel(z), CauchyKernel(float(off[0])), CauchyKernel(complex(z[0])),
               IntervalUnion(*zip(a, b)),
               IntervalUnion((lay.xs[0], lay.xs[0] + 2.0, False, True),
                             (lay.xs[-1] - 1.0, lay.xs[-1]))])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_is_unitarily_covariant_for_every_kernel(seed):
    rng = np.random.default_rng(seed)
    inst = instances.mixed_instance(rng, queries=12)
    m = HerglotzMatrix.from_measure(inst.layout.matrix_measure())
    u = random_unitary(rng, m.dim)
    omega_u = _conjugated(m, u).omega
    for kernel in _kernels(inst, rng):
        v, v_u = integrate(kernel, m.omega), integrate(kernel, omega_u)
        assert is_divergent(v) == is_divergent(v_u)
        if not is_divergent(v):
            for a, b in zip(np.reshape(v, (-1, m.dim, m.dim)), np.reshape(v_u, (-1, m.dim, m.dim))):
                assert _same(a, b, u), type(kernel).__name__


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_classify_is_unitarily_covariant(seed):
    rng = np.random.default_rng(seed)
    m = HerglotzMatrix.from_measure(instances.atomic_layout(rng, atoms=8).matrix_measure())
    u = random_unitary(rng, m.dim)
    m_u = _conjugated(m, u)
    lo, hi = m.omega.support_bounds()
    x0 = point_off_atoms(rng, m.omega, lo - 1.0, hi + 1.0)
    d = extension_for_point(m, x0)
    window = _scan_window(rng, m.omega, x0, m, d)
    poles, poles_u = classify(m, d, window), classify(m_u, u.conj().T @ d.D @ u, window)
    assert [(pr.kernel_dim, pr.rank, pr.is_max_mult) for pr in poles] == [
        (pr.kernel_dim, pr.rank, pr.is_max_mult) for pr in poles_u]
    assert any(pr.is_max_mult for pr in poles)
    for pr, pr_u in zip(poles, poles_u):
        assert abs(pr.p - pr_u.p) <= X_AGREE_TOL
        mass = u.conj().T @ pr.mass @ u
        assert np.linalg.norm(mass - pr_u.mass) <= MASS_AGREE_TOL * max(1.0, np.linalg.norm(mass))


def _translated(m: HerglotzMatrix, c: float):
    """The measure moved by c, and K_c from the terms as given."""
    omega, n = m.omega, m.dim
    atoms = [Atom(at.x + c, at.W) for at in omega.atoms]
    pieces = [ACPiece(pc.a + c, pc.b + c, pc.rho) for pc in omega.ac_pieces]
    k_c = sum((np.asarray(at.W) * (at.x / (1.0 + at.x ** 2) - (at.x + c) / (1.0 + (at.x + c) ** 2))
               for at in omega.atoms), np.zeros((n, n), complex))
    for pc in omega.ac_pieces:      # ½ log(1 + y²) − ½ log(1 + (y + c)²), from a to b
        k_c = k_c + np.asarray(pc.rho) * 0.5 * (
            np.log((1.0 + pc.b ** 2) / (1.0 + pc.a ** 2))
            - np.log((1.0 + (pc.b + c) ** 2) / (1.0 + (pc.a + c) ** 2)))
    return HerglotzMatrix(m.C, MatrixMeasure(n, atoms, pieces)), hermitian_part(k_c)


def _decided(residual, tol):
    """Whether rounding cannot flip the verdict: residual beyond a factor 2 of tol."""
    return not 0.5 * tol <= residual <= 2.0 * tol


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([-2.5, -0.375, 0.1, 1.0, 3.7]))
def test_boundary_value_and_the_criterion_are_translation_covariant(seed, c):
    rng = np.random.default_rng(seed)
    inst = instances.mixed_instance(rng, queries=12)
    m = HerglotzMatrix.from_measure(inst.layout.matrix_measure())
    m_c, k_c = _translated(m, c)
    tol = m.omega.tols.tol_match
    eye = np.eye(m.dim)
    verdicts = set()
    for x, d, dp in _queries(inst, m):
        rep, rep_c = boundary_value(m, x), boundary_value(m_c, x + c)
        assert rep.converged == rep_c.converged and rep.t_finite == rep_c.t_finite
        if rep.converged:
            assert _same(rep.m_boundary + k_c, rep_c.m_boundary, eye)
        if rep.t_finite:
            assert _same(rep.t_matrix, t_matrix(m_c, x + c), eye)
        # D itself, and D moved off M(x+i0) by a quarter and by four times tol_match
        gap = (dp - d) / np.linalg.norm(dp - d)
        for dd in (d, d + 0.25 * tol * gap, d + 4.0 * tol * gap):
            ev, ev_c = max_mult_test(m, dd, x), max_mult_test(m_c, dd + k_c, x + c)
            assert ev.t_finite == ev_c.t_finite
            if _decided(ev.residual, tol):
                assert ev.verdict == ev_c.verdict, (x, ev.residual, ev_c.residual)
                verdicts.add(ev.verdict)
    assert verdicts == {True, False}
