"""Unitary covariance of the criteria on the benchmark's mixed measures.

Conjugating everything by a unitary U (Ω → U*ΩU, C → U*CU, D → U*DU,
D' → U*D'U) conjugates M, T and M_{D'} alike, so every verdict, every
finiteness decision and every value of ``boundary_value``, ``max_mult_test``
and ``max_mult_test_via`` must agree between the two frames, values up to
U.  The queries are those of ``bench/instances.mixed_instance`` (off the
support, in a piece, at an atom) plus every piece end.  Divergent
directions are not compared: they name canonical-basis indices, which do
not transform with U.
"""

import sys
from pathlib import Path

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from specstab import (ACPiece, Atom, HerglotzMatrix, MatrixMeasure, boundary_value,
                      max_mult_test, max_mult_test_via)
from specstab.measure import hermitian_part
from specstab.randgen import random_unitary

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
