import numpy as np
import pytest

from specstab import (DEFAULT_TOLS, ACPiece, Atom, Divergent, HerglotzMatrix,
                      InconsistencyError, MatrixMeasure, NotConvergedError,
                      atom_mass, boundary_value, evaluate, herglotz,
                      is_divergent, t_matrix)
from specstab.herglotz import richardson_limit
from specstab.randgen import random_herglotz


class TestEvaluate:
    def test_single_atom_closed_form(self, single_atom):
        assert evaluate(single_atom, 1j) == pytest.approx(1j)
        for z in [2j, 1 + 1j, -0.5 - 3j]:
            assert evaluate(single_atom, z)[0, 0] == pytest.approx(-1.0 / z)

    def test_two_atom_closed_form(self, two_atom):
        for z in [2j, 0.3 + 1j, -1.2 - 0.4j]:
            expect = -2 * z / (z ** 2 - 1)
            assert np.allclose(evaluate(two_atom, z), expect * np.eye(2))
        assert np.allclose(evaluate(two_atom, 2j), 0.8j * np.eye(2))

    def test_real_z_rejected(self, single_atom):
        with pytest.raises(ValueError, match="Im z"):
            evaluate(single_atom, 2.0)

    def test_conjugate_symmetry(self, two_atom):
        v = evaluate(two_atom, -1j)
        assert np.allclose(v, evaluate(two_atom, 1j).conj().T)

    def test_herglotz_positivity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_herglotz(rng)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 3))
            v = evaluate(m, z)
            im = (v - v.conj().T) / 2j
            w = np.linalg.eigvalsh(im)
            assert w.min() >= -1e-12 * max(1.0, w.max())
            assert np.allclose(evaluate(m, np.conj(z)), v.conj().T, atol=1e-12)


class TestBoundaryValue:
    def test_off_atom_closed_form(self, single_atom):
        rep = boundary_value(single_atom, 2.0)
        assert rep.converged
        assert rep.m_boundary[0, 0] == pytest.approx(-0.5)

    def test_two_atom_midpoint(self, two_atom):
        rep = boundary_value(two_atom, 0.0)
        assert rep.converged
        assert np.allclose(rep.m_boundary, np.zeros((2, 2)), atol=1e-12)

    def test_pole_does_not_converge(self, single_atom):
        rep = boundary_value(single_atom, 0.0)
        assert not rep.converged
        assert rep.m_boundary is None
        assert not rep.t_finite

    def test_finite_t_implies_boundary_present(self, two_atom):
        rep = boundary_value(two_atom, 0.3)
        assert rep.t_finite and rep.converged
        assert np.allclose(rep.m_boundary, rep.m_boundary.conj().T)

    def test_eps_path_agrees_with_closed_form(self):
        # force the limit path by evaluating inside an AC support where the
        # fast path is unavailable, then compare off-support points directly
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_herglotz(rng, with_offset=True)
            x = float(rng.uniform(5.0, 6.0))
            rep = boundary_value(m, x)
            from specstab.herglotz import richardson_limit
            val, _, ok = richardson_limit(lambda e: evaluate(m, x + 1j * e))
            assert ok
            assert np.linalg.norm(val - rep.m_boundary) < 1e-7

    def test_inside_ac_piece_limit_exists(self):
        # boundary limit inside an AC support exists (principal value + i*pi*rho)
        # but T diverges there, so the value is advisory only
        omega = MatrixMeasure(1, ac_pieces=[ACPiece(-1.0, 1.0, [[1.0]])])
        m = HerglotzMatrix.from_measure(omega)
        rep = boundary_value(m, 0.0)
        assert rep.converged
        assert not rep.t_finite


    def test_non_hermitian_limit_with_finite_t_is_an_error(self, single_atom, monkeypatch):
        # unreachable with consistent tolerances; it must raise, not assert
        monkeypatch.setattr(herglotz, "t_matrix", lambda m, x: np.eye(1))
        monkeypatch.setattr(herglotz, "richardson_limit",
                            lambda sample, tols: (np.array([[1j]]), [], True))
        with pytest.raises(InconsistencyError, match="not Hermitian"):
            boundary_value(single_atom, 0.0)


class TestRichardsonLimit:
    FULL = DEFAULT_TOLS.max_halvings + 1

    def test_blow_up_is_divergent_before_the_schedule_ends(self):
        val, trace, ok = richardson_limit(lambda e: np.diag([1.0 / e, 1.0]))
        assert not ok and isinstance(val, Divergent) and val.directions == (0,)
        assert len(trace) < self.FULL
        # no real diagonal entry grows: every direction is reported
        val, trace, ok = richardson_limit(lambda e: np.diag([1j / e, 1.0]))
        assert not ok and val.directions == (0, 1) and len(trace) < self.FULL

    def test_oscillation_is_undecided(self):
        val, trace, ok = richardson_limit(lambda e: np.array([[np.sin(1.0 / e)]]))
        assert val is None and not ok
        assert len(trace) == self.FULL

    def test_second_order_error_converges(self):
        a = np.array([[2.0, 1j], [-1j, 3.0]])
        val, trace, ok = richardson_limit(lambda e: a + 5.0 * e ** 2 + 7.0 * e ** 3,
                                          order=2)
        assert ok and np.linalg.norm(val - a) < 1e-8
        assert len(trace) == 7      # first-order extrapolation needs 12 samples


class TestTMatrix:
    def test_single_atom(self, single_atom):
        assert t_matrix(single_atom, 2.0)[0, 0] == pytest.approx(0.25)

    def test_two_atom(self, two_atom):
        assert np.allclose(t_matrix(two_atom, 0.0), 2 * np.eye(2))

    def test_divergent_inside_piece(self):
        omega = MatrixMeasure(1, ac_pieces=[ACPiece(0.0, 1.0, [[1.0]])])
        t = t_matrix(HerglotzMatrix.from_measure(omega), 0.5)
        assert is_divergent(t) and t.directions == (0,)

    def test_im_over_eps_tends_to_t(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_herglotz(rng)
            lo, hi = m.omega.support_bounds()
            x = hi + float(rng.uniform(0.5, 1.5))
            t = t_matrix(m, x)
            eps = 1e-7
            v = evaluate(m, x + 1j * eps)
            approx = (v - v.conj().T) / (2j * eps)
            assert np.linalg.norm(approx - t) < 1e-5 * max(1.0, np.linalg.norm(t))


class TestAtomMass:
    def test_recovers_atom(self, single_atom):
        assert atom_mass(single_atom, 0.0)[0, 0] == pytest.approx(1.0)

    def test_zero_off_atom(self, single_atom):
        assert abs(atom_mass(single_atom, 5.0)[0, 0]) < 1e-9

    def test_extension_weyl_mass(self, two_atom):
        # M_D with D=0 is (z^2-1)/(2z) I; residue at 0 gives I/2
        from specstab.extensions import extension_weyl
        fn = extension_weyl(two_atom, np.zeros((2, 2)))
        assert np.allclose(atom_mass(fn, 0.0), np.eye(2) / 2, atol=1e-8)

    def test_mass_consistency_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = random_herglotz(rng, with_offset=False)
            for at in m.omega.atoms:
                got = atom_mass(m, at.x)
                assert np.linalg.norm(got - at.W) < 1e-6
