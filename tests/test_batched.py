"""Real points as arrays: every batched call against the scalar calls.

``t_matrix``, ``integrate_cauchy``, ``on_support``, ``residue_mass`` and
``max_mult_test`` take a 1-D array of real points; the result at each
point must be the scalar call's, to 1e-12 relative (the batch sums in
another order).  Measures are seeded random atomic measures and the
same with constant-density pieces added; points sit off the support, on
atoms, within tol_x/2 of them, on piece ends and inside pieces.
"""

import math

import numpy as np
import pytest

from specstab import (DEFAULT_TOLS, ACPiece, HerglotzMatrix,
                      MatrixMeasure, OracleError, PreconditionError,
                      boundary_value, classify, extension_weyl, is_divergent,
                      matrix_rank, max_mult_test, max_mult_test_via,
                      real_poles, residue_mass, t_matrix)
from specstab.herglotz import integrate_cauchy
from specstab.randgen import point_off_atoms

from helpers import random_atomic_measure, random_psd

REL = 1e-12
TOL_X = DEFAULT_TOLS.tol_x


def atomic(rng):
    return random_atomic_measure(rng, int(rng.integers(1, 4)))


def mixed(rng):
    """A random atomic measure plus two pieces, one of them over the atoms."""
    omega = atomic(rng)
    n = omega.dim
    a1 = float(rng.uniform(-5.0, -4.0))
    a2 = float(rng.uniform(-1.0, 1.0))
    pieces = [ACPiece(a1, a1 + 0.5, random_psd(rng, n)),
              ACPiece(a2, a2 + 1.0, random_psd(rng, n, int(rng.integers(1, n + 1))))]
    return MatrixMeasure(n, omega.atoms, pieces)


def points(rng, omega):
    """Points on, near and off every term, shuffled."""
    anchors = np.concatenate([omega.xs, omega.a, omega.b])
    near = np.concatenate([anchors, anchors + TOL_X / 2, anchors - 2 * TOL_X,
                           0.5 * (omega.a + omega.b)])
    return rng.permutation(np.concatenate([near, rng.uniform(-6.0, 6.0, size=8)]))


def close(got, want):
    return float(np.linalg.norm(got - want)) <= REL * max(1e-300, float(np.linalg.norm(want)))


def same(got, want):
    """Equal matrices to REL, or equal Divergent markers."""
    if is_divergent(want):
        return is_divergent(got) and got.directions == want.directions
    return not is_divergent(got) and close(got, want)


@pytest.mark.parametrize("make", [atomic, mixed])
@pytest.mark.parametrize("seed", range(6))
def test_support_t_and_cauchy_batches_match_scalar_calls(make, seed):
    rng = np.random.default_rng(seed)
    omega = make(rng)
    m = HerglotzMatrix.from_measure(omega)
    xs = points(rng, omega)
    on = omega.on_support(xs)
    assert on.tolist() == [omega.on_support(x) for x in xs.tolist()]
    assert on.any() and not on.all()
    off = xs[~on]
    t, c = t_matrix(m, off), integrate_cauchy(m, off)
    assert t.shape == c.shape == (off.size, m.dim, m.dim)
    for i, x in enumerate(off.tolist()):
        assert close(t[i], t_matrix(m, x)) and close(c[i], integrate_cauchy(m, x))
    # one point on the support makes the batch Divergent, as it makes T(x)
    # and M(x) at the point, a piece interior included (its principal
    # value is the finite part, ``integrate``'s drop)
    for x in xs[on].tolist():
        batch = np.append(off[:2], x)
        assert same(t_matrix(m, batch), t_matrix(m, x))
        assert same(integrate_cauchy(m, batch), t_matrix(m, x))
        assert same(integrate_cauchy(m, x), t_matrix(m, x))
    # several: the directions diverging at any of them
    dirs = sorted({i for x in xs[on].tolist() for i in t_matrix(m, x).directions})
    assert t_matrix(m, xs).directions == tuple(dirs)


def test_empty_batches_are_empty():
    rng = np.random.default_rng(0)
    omega = mixed(rng)
    m = HerglotzMatrix.from_measure(omega)
    d = boundary_value(m, 10.0).m_boundary
    empty = np.zeros(0)
    assert omega.on_support(empty).shape == (0,)
    assert t_matrix(m, empty).shape == integrate_cauchy(m, empty).shape == (0, m.dim, m.dim)
    assert max_mult_test(m, d, []) == []
    assert residue_mass(m, d, empty).shape == (0, m.dim, m.dim)
    assert residue_mass(m, d, empty, empty.astype(int)).shape == (0, m.dim, m.dim)
    assert matrix_rank(np.zeros((0, 2, 2)), DEFAULT_TOLS.rank_tol).shape == (0,)


def same_evidence(got, want, d_norm):
    assert got.x == want.x and got.verdict == want.verdict
    assert same(got.t_value, want.t_value)
    if want.m_boundary is None:
        assert got.m_boundary is None and math.isinf(got.residual)
        assert math.isinf(want.residual)
        return
    assert close(got.m_boundary, want.m_boundary)
    # the residual ‖M(x+i0) - D‖ carries the rounding of both terms
    scale = max(1.0, d_norm, float(np.linalg.norm(want.m_boundary)))
    assert abs(got.residual - want.residual) <= REL * scale


@pytest.mark.parametrize("make", [atomic, mixed])
@pytest.mark.parametrize("seed", range(4))
def test_max_mult_test_batch_matches_scalar_calls(make, seed):
    rng = np.random.default_rng(100 + seed)
    omega = make(rng)
    m = HerglotzMatrix.from_measure(omega)
    lo, hi = omega.support_bounds()
    x0 = point_off_atoms(rng, omega, lo - 1.0, hi + 1.0)
    rep = boundary_value(m, x0)
    if not rep.t_finite:      # x0 fell inside a piece
        x0 = hi + 0.7
        rep = boundary_value(m, x0)
    d = rep.m_boundary
    # atom points need the ε path, which must not be fed the batch
    xs = np.concatenate([[x0], omega.xs, points(rng, omega)[:10]])
    batch = max_mult_test(m, d, xs)
    assert len(batch) == xs.size and batch[0].verdict
    for ev, x in zip(batch, xs.tolist()):
        same_evidence(ev, max_mult_test(m, d, x), float(np.linalg.norm(d)))


@pytest.mark.parametrize("seed", range(8))
def test_residue_mass_batch_matches_scalar_calls(seed):
    rng = np.random.default_rng(200 + seed)
    omega = atomic(rng)
    m = HerglotzMatrix.from_measure(omega)
    lo, hi = omega.support_bounds()
    d = boundary_value(m, point_off_atoms(rng, omega, lo, hi)).m_boundary
    poles = real_poles(m, d, (lo - 1.3, hi + 1.7))
    ps = np.array([p for p, _ in poles])
    kdims = np.array([k for _, k in poles])
    masses = residue_mass(m, d, ps, kdims)
    assert np.array_equal(residue_mass(m, d, ps), masses)   # the same kernels found
    ranks = matrix_rank(masses, DEFAULT_TOLS.rank_tol)
    for i, (p, k) in enumerate(poles):
        assert close(masses[i], residue_mass(m, d, p, k))
        assert ranks[i] == matrix_rank(masses[i], DEFAULT_TOLS.rank_tol)
    report = classify(m, d, (lo - 1.3, hi + 1.7))
    assert [(pr.p, pr.kernel_dim, pr.rank) for pr in report] == [
        (p, k, r) for (p, k), r in zip(poles, ranks.tolist())]

    # a non-pole anywhere in the batch is named
    x = 0.5 * (ps[0] + ps[1]) if ps.size > 1 else hi + 5.0
    with pytest.raises(OracleError, match=f"x={x} is not a pole"):
        residue_mass(m, d, np.append(ps, x))
    # as is a point on the support
    with pytest.raises(OracleError, match=f"on the support at x={omega.xs[0]}"):
        residue_mass(m, d, np.append(ps, omega.xs[0]))


def test_a_parameter_of_the_wrong_size_is_named(two_atom):
    d1, d2, d3 = np.eye(1), np.zeros((2, 2)), np.eye(3)
    calls = [lambda d: extension_weyl(two_atom, d)(1j),
             lambda d: max_mult_test(two_atom, d, 0.5),
             lambda d: max_mult_test(two_atom, d, [0.5, 2.0]),
             lambda d: max_mult_test_via(two_atom, d, d2 + np.eye(2), 0.5),
             lambda d: max_mult_test_via(two_atom, d2, d, 0.5),
             lambda d: real_poles(two_atom, d, (-0.5, 0.5)),
             lambda d: residue_mass(two_atom, d, 0.0),
             lambda d: classify(two_atom, d, (-0.5, 0.5))]
    for call in calls:
        for d in (d1, d3):
            with pytest.raises(PreconditionError,
                               match=f"is {len(d)}x{len(d)} but the measure has n=2"):
                call(d)

