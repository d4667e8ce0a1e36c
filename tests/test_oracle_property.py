"""Property test: the linearized pole oracle on random atomic measures.

Random measures have 1 to 30 atoms in dimension 1 to 3, with weights of
any rank (atom 0 has full rank).  The parameter D is either the boundary
value at a random point x0, which must come back as a pole of full
kernel, or C - ∫ y/(1+y²) dΩ, which puts a pole at infinity.  Every pole
is checked against H(p) = D - M(p) directly, the pole count against the
inertia of H at the window ends, and every mass for PSD and rank.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from specstab import Atom, HerglotzMatrix, MatrixMeasure, classify, real_poles
from specstab.herglotz import boundary_value, integrate_cauchy
from specstab.measure import hermitian_part
from specstab.randgen import point_off_atoms, random_hermitian, random_psd


def _negative_count(m, d, x):
    return int(np.count_nonzero(
        np.linalg.eigvalsh(hermitian_part(d - integrate_cauchy(m, x))) < 0.0))


@st.composite
def atomic_cases(draw):
    """An atomic Herglotz function and a parameter D, with the atom ranks.

    Atom 0 has full rank (so T(x) is definite off the atoms) and the others
    any rank.  D is either M(x0+i0) at a random x0, which makes x0 a pole
    of full kernel, or C - ∫ y/(1+y²) dΩ, which makes D - M(x) vanish as
    |x| -> ∞: a pole at infinity.
    """
    n = draw(st.integers(1, 3))
    ranks = [n] + draw(st.lists(st.integers(1, n), max_size=29))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = len(ranks)
    xs = (np.arange(k) - 0.5 * k) * 0.5 + 0.5 * rng.uniform(0.2, 0.8, size=k)
    ws = [random_psd(rng, n, r) for r in ranks]
    c = random_hermitian(rng, n)
    m = HerglotzMatrix.from_measure(
        MatrixMeasure(n, [Atom(float(x), w) for x, w in zip(xs, ws)]), c)
    if draw(st.booleans()):
        x0 = point_off_atoms(rng, m.omega, xs[0] - 1.0, xs[-1] + 1.0)
        d = boundary_value(m, x0).m_boundary
    else:
        x0 = None
        d = c - sum(w * (x / (1.0 + x * x)) for x, w in zip(xs, ws))
    a = xs[0] - 1.5 - float(rng.uniform(0.0, 0.5))
    b = xs[-1] + 1.5 + float(rng.uniform(0.0, 0.5))
    return m, d, x0, (a, b), ranks


@settings(max_examples=100, deadline=None)
@given(case=atomic_cases())
def test_linearized_poles_property(case):
    m, d, x0, (a, b), ranks = case
    n = m.dim
    for e in (a, b):
        h = d - integrate_cauchy(m, e)
        assume(np.linalg.svd(h, compute_uv=False)[-1] > 1e-6)
    poles = real_poles(m, d, (a, b))
    if x0 is not None:
        assert any(abs(p - x0) <= 1e-9 and kdim == n for p, kdim in poles)
    for p, kdim in poles:
        w = np.linalg.eigvalsh(hermitian_part(d - integrate_cauchy(m, p)))
        near_zero = np.abs(w) <= 1e-8 * max(1.0, float(np.abs(w).max()))
        assert np.count_nonzero(near_zero) == kdim
    expected = _negative_count(m, d, b) - _negative_count(m, d, a) + sum(ranks)
    assert sum(kdim for _, kdim in poles) == expected
    report = classify(m, d, (a, b))
    assert [(pr.p, pr.kernel_dim) for pr in report] == poles
    for pr in report:
        w = np.linalg.eigvalsh(pr.mass)
        top = float(np.abs(w).max())
        assert w.min() >= -1e-9 * top
        assert np.count_nonzero(w > 1e-9 * top) == pr.kernel_dim == pr.rank
