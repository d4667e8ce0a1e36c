import math

import numpy as np
import pytest

from specstab import (DEFAULT_TOLS, ACPiece, Atom, ConditioningError, Divergent,
                      ExtensionParameter, HerglotzMatrix, MatrixMeasure,
                      PreconditionError, Tolerances,
                      extension_for_point, is_divergent, mass_at_max_mult,
                      max_mult_test, max_mult_test_via,
                      resolvent_identity_residual)
from specstab.extensions import _inv_checked, extension_weyl
from specstab.herglotz import EPS, atom_mass, boundary_value, richardson_limit
from specstab.measure import hermitian_part
from specstab.randgen import (random_gap_matrix, random_herglotz, random_hermitian,
                              random_psd, point_off_atoms)


class TestExtensionParameter:
    def test_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ExtensionParameter(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            ExtensionParameter(np.zeros((2, 3)))


class TestWeylOfExtension:
    def test_scalar_closed_form(self, single_atom):
        v = extension_weyl(single_atom, [[-0.5]])(3j)
        assert v[0, 0] == pytest.approx(1.0 / (-0.5 - 1j / 3))

    def test_two_atom_closed_form(self, two_atom):
        for z in [1j, 2 + 0.5j]:
            v = extension_weyl(two_atom, np.zeros((2, 2)))(z)
            assert np.allclose(v, (z ** 2 - 1) / (2 * z) * np.eye(2))

    def test_conjugate_symmetry(self, two_atom):
        d = random_hermitian(np.random.default_rng(1), 2)
        z = 0.7 + 1.3j
        assert np.allclose(extension_weyl(two_atom, d)(np.conj(z)),
                           extension_weyl(two_atom, d)(z).conj().T)

    def test_herglotz_sign(self, two_atom):
        d = random_hermitian(np.random.default_rng(2), 2)
        v = extension_weyl(two_atom, d)(0.4 + 0.9j)
        w = np.linalg.eigvalsh((v - v.conj().T) / 2j)
        assert w.min() >= -1e-12


class TestStackedInverse:
    def test_singular_members_of_a_stack_are_nan(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [0.5, 1.0]], 4.0 * np.eye(2)], dtype=complex)
        out = _inv_checked(stack, "A")
        assert np.isnan(out[1]).all()
        np.testing.assert_allclose(out[[0, 2]], [np.eye(2), 0.25 * np.eye(2)])
        with pytest.raises(ConditioningError, match="A is numerically singular"):
            _inv_checked(stack[1], "A")

    def test_weyl_function_singular_off_the_axis(self):
        # no mass in the second direction and D = 0 there: D - M(z) is
        # singular at every z, so the eps-limit fails at its first sample
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([1.0, 0.0]))])
        fn = extension_weyl(HerglotzMatrix.from_measure(omega), np.diag([1.0, 0.0]))
        assert np.isnan(fn(np.array([1j, 2.0 - 0.5j]))).all()
        with pytest.raises(ConditioningError, match="D - M"):
            fn(1j)
        with pytest.raises(ConditioningError, match="eps="):
            atom_mass(fn, 0.0)


class TestResolventIdentity:
    def test_equal_parameters(self, single_atom):
        assert resolvent_identity_residual(single_atom, [[1.0]], [[1.0]], 1j) == 0.0

    def test_scalar_instance(self, single_atom):
        assert resolvent_identity_residual(single_atom, [[1.0]], [[2.0]], 1j) <= 1e-12

    def test_random_two_dim(self, two_atom):
        rng = np.random.default_rng(3)
        d, dp = random_hermitian(rng, 2), random_hermitian(rng, 2)
        assert resolvent_identity_residual(two_atom, d, dp, 1 + 1j) <= 1e-10


class TestMaxMultTest:
    def test_scalar_true(self, single_atom):
        ev = max_mult_test(single_atom, [[-0.5]], 2.0)
        assert ev.verdict and ev.t_finite
        assert np.asarray(ev.t_value)[0, 0] == pytest.approx(0.25)

    def test_two_atom_true_at_zero(self, two_atom):
        ev = max_mult_test(two_atom, np.zeros((2, 2)), 0.0)
        assert ev.verdict
        assert np.allclose(np.asarray(ev.t_value), 2 * np.eye(2))

    def test_false_at_atom(self, two_atom):
        ev = max_mult_test(two_atom, np.zeros((2, 2)), 1.0)
        assert not ev.verdict
        assert not ev.t_finite

    def test_d_matching_is_sharp(self):
        # perturbing D by 10*tol_match flips the verdict
        rng = np.random.default_rng(4)
        m = random_herglotz(rng, n=2, with_offset=False)
        lo, hi = m.omega.support_bounds()
        x = point_off_atoms(rng, m.omega, lo, hi)
        d = boundary_value(m, x).m_boundary
        assert max_mult_test(m, d, x).verdict
        e = random_hermitian(rng, 2)
        e /= np.linalg.norm(e)
        d_bad = d + 10 * DEFAULT_TOLS.tol_match * e
        assert not max_mult_test(m, d_bad, x).verdict


    def test_the_measures_tol_match_decides(self, two_atom):
        # x=0 is a max-mult point of D = M(0) = 0; a 1e-12 offset passes
        # the default tol_match and fails a measure built with 1e-30
        d = 1e-12 * np.eye(2)
        strict = HerglotzMatrix.from_measure(
            MatrixMeasure(2, two_atom.omega.atoms, tols=Tolerances(tol_match=1e-30)))
        for m, want in ((two_atom, True), (strict, False)):
            assert max_mult_test(m, d, 0.0).verdict == want
            assert max_mult_test(m, d, [0.0])[0].verdict == want
            assert max_mult_test_via(m, d, np.eye(2), 0.0).verdict == want


class TestMaxMultTestVia:
    def test_agrees_with_direct_scalar(self, single_atom):
        ev = max_mult_test_via(single_atom, [[-0.5]], [[0.0]], 2.0)
        direct = max_mult_test(single_atom, [[-0.5]], 2.0)
        assert ev.verdict == direct.verdict == True  # noqa: E712

    def test_equal_parameters_rejected(self, single_atom):
        with pytest.raises(PreconditionError):
            max_mult_test_via(single_atom, [[1.0]], [[1.0]], 2.0)

    def test_two_atom_identity_dprime(self, two_atom):
        ev = max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 0.0)
        assert ev.verdict
        assert np.allclose(ev.m_boundary, np.eye(2), atol=1e-7)

    def test_false_where_direct_false(self, two_atom):
        # x=0.5 is off the support: T finite, but M(x+i0) != 0
        ev = max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 0.5)
        assert not ev.verdict
        assert not max_mult_test(two_atom, np.zeros((2, 2)), 0.5).verdict

    def test_agreement_random(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_herglotz(rng, with_offset=False)
            n = m.dim
            lo, hi = m.omega.support_bounds()
            x = point_off_atoms(rng, m.omega, lo, hi)
            d = boundary_value(m, x).m_boundary
            assert max_mult_test(m, d, x).verdict
            for _ in range(5):
                dp = d + random_gap_matrix(rng, n)
                assert max_mult_test_via(m, d, dp, x).verdict


    def test_off_the_support_no_eps_limit(self, two_atom, eps_calls):
        # T(x) finite: F = (D' - M(x))^{-1} and F T F are closed form
        ev = max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 0.0)
        assert ev.verdict and eps_calls == []
        np.testing.assert_allclose(ev.t_value, 2 * np.eye(2), atol=1e-14)
        # on the support both limits are taken over one evaluation
        max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 1.0)
        assert eps_calls == ["evaluate", "richardson_limit", "richardson_limit"]

    def test_in_a_piece_no_eps_limit(self, unit_piece, eps_calls):
        # M(0.5+i0) = -log 3 + iπ, so F = 1/(D' + log 3 - iπ), with Im F ≠ 0
        ev = max_mult_test_via(unit_piece, [[0.0]], [[1.0]], 0.5)
        boundary_value(unit_piece, 0.5)
        max_mult_test(unit_piece, [[0.0]], 0.5)
        assert eps_calls == []
        f = 1.0 / (1.0 + math.log(3.0) - 1j * math.pi)
        assert ev.t_value == Divergent((0,)) and not ev.verdict
        assert abs(ev.m_boundary[0, 0] - f.real) <= 1e-14

    def test_piece_ends_and_atoms_in_a_piece_keep_the_eps_limit(self, eps_calls):
        # an atom inside the piece, and points within tol_x of it or of an
        # end, take both ε-limits; 2·tol_x inside an end is a piece interior
        omega = MatrixMeasure(1, [Atom(0.25, [[1.0]])], [ACPiece(-1.0, 1.0, [[1.0]])])
        m = HerglotzMatrix.from_measure(omega)
        tol_x = omega.tols.tol_x
        for x in (-1.0, -1.0 + tol_x / 2, 1.0 - tol_x / 2, 1.0 + tol_x / 2,
                  0.25, 0.25 + tol_x / 2):
            eps_calls.clear()
            max_mult_test_via(m, [[0.0]], [[1.0]], x)
            assert eps_calls[0] == "evaluate", x
        eps_calls.clear()
        ev = max_mult_test_via(m, [[0.0]], [[1.0]], 1.0 - 2 * tol_x)
        assert eps_calls == [] and ev.t_value == Divergent((0,))

    def test_at_a_pole_of_the_dprime_weyl_function(self, single_atom):
        # M(2) = -1/2 = D': D' - M(x) is singular, so the ε-limit decides
        ev = max_mult_test_via(single_atom, [[0.0]], [[-0.5]], 2.0)
        assert ev.t_value == Divergent((0,)) and not ev.verdict

    def test_near_a_pole_of_the_dprime_weyl_function(self, single_atom):
        # 1e-9 away from the pole T_{D'} = F T(x) F = F²/x² is finite
        dp = -0.5 + 1e-9
        ev = max_mult_test_via(single_atom, [[0.0]], [[dp]], 2.0)
        f = 1.0 / (dp + 0.5)
        assert ev.t_finite and not ev.verdict
        assert ev.t_value[0, 0] == pytest.approx(f * f / 4.0, rel=1e-12)
        assert ev.m_boundary[0, 0] == pytest.approx(f, rel=1e-12)


def _eps_reference(m, dp, x):
    """Both ε-limits of M_{D'} at x, taken as the schedule defines them:
    T_{D'} (Divergent(()) when undecided) and the boundary value (None
    unless T_{D'} is decided and the limit converges)."""
    v = extension_weyl(m, dp)(x + 1j * EPS)
    im_over_eps = hermitian_part((v - v.conj().swapaxes(1, 2)) / 2j) / EPS[:, None, None]
    t, _, t_ok = richardson_limit(im_over_eps, m.omega.tols, order=2)
    if t is None:
        return Divergent(()), None
    b, _, b_ok = richardson_limit(v, m.omega.tols)
    return (hermitian_part(t) if t_ok else t), (hermitian_part(b) if b_ok else None)


class TestViaAgreesWithEpsLimits:
    """max_mult_test_via against the ε-limits of M_{D'} computed here."""

    @staticmethod
    def mixed(rng):
        # random atoms plus one AC piece to the right of them
        m = random_herglotz(rng)
        lo, hi = m.omega.support_bounds()
        piece = ACPiece(hi + 0.5, hi + 1.5, random_psd(rng, m.dim))
        omega = MatrixMeasure(m.dim, m.omega.atoms, [piece])
        return HerglotzMatrix(m.C, omega), lo, hi

    def test_closed_form_off_the_support(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            m, lo, hi = self.mixed(rng)
            for _ in range(4):
                x = point_off_atoms(rng, m.omega, lo - 0.5, hi + 0.4)
                d = boundary_value(m, x).m_boundary
                dp = d + random_gap_matrix(rng, m.dim)
                ev = max_mult_test_via(m, d, dp, x)
                t_ref, b_ref = _eps_reference(m, dp, x)
                assert ev.verdict
                assert np.linalg.norm(ev.t_value - t_ref) <= 1e-8 * np.linalg.norm(t_ref)
                assert np.linalg.norm(ev.m_boundary - b_ref) <= 1e-8 * np.linalg.norm(b_ref)

    def test_eps_limits_in_a_piece(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            m, lo, hi = self.mixed(rng)
            for _ in range(4):
                x = float(rng.uniform(hi + 0.6, hi + 1.4))
                d = random_hermitian(rng, m.dim)
                dp = d + random_gap_matrix(rng, m.dim)
                ev = max_mult_test_via(m, d, dp, x)
                t_ref, b_ref = _eps_reference(m, dp, x)
                # the Sokhotski–Plemelj closed form diverges in the same
                # directions and sits within the off-support bound of the limit
                assert is_divergent(t_ref) and ev.t_value == t_ref
                assert np.linalg.norm(ev.m_boundary - b_ref) <= 1e-8 * np.linalg.norm(b_ref)


class TestExtensionForPoint:
    def test_scalar(self, single_atom):
        d = extension_for_point(single_atom, 2.0)
        assert d is not None
        assert d.D[0, 0] == pytest.approx(-0.5)

    def test_two_atom_zero(self, two_atom):
        d = extension_for_point(two_atom, 0.0)
        assert np.allclose(d.D, np.zeros((2, 2)), atol=1e-12)

    def test_none_at_atom(self, two_atom):
        assert extension_for_point(two_atom, 1.0) is None

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_herglotz(rng)
            lo, hi = m.omega.support_bounds()
            x = point_off_atoms(rng, m.omega, lo - 0.5, hi + 0.5)
            d = extension_for_point(m, x)
            assert d is not None
            assert max_mult_test(m, d, x).verdict


class TestMassAtMaxMult:
    def test_scalar(self, single_atom):
        assert mass_at_max_mult(single_atom, [[-0.5]], 2.0)[0, 0] == pytest.approx(4.0)

    def test_two_atom(self, two_atom):
        assert np.allclose(mass_at_max_mult(two_atom, np.zeros((2, 2)), 0.0),
                           np.eye(2) / 2)

    def test_matches_eps_limit_mass(self, single_atom, two_atom):
        for m, d, x in [(single_atom, np.array([[-0.5]]), 2.0),
                        (two_atom, np.zeros((2, 2)), 0.0)]:
            direct = mass_at_max_mult(m, d, x)
            eps_path = atom_mass(extension_weyl(m, d), x)
            assert np.linalg.norm(direct - eps_path) < 1e-7

    def test_mass_inverse_duality(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_herglotz(rng, with_offset=False)
            lo, hi = m.omega.support_bounds()
            x = point_off_atoms(rng, m.omega, lo, hi)
            d = boundary_value(m, x).m_boundary
            ev = max_mult_test(m, d, x)
            assert ev.verdict
            mass = mass_at_max_mult(m, d, x)
            assert np.linalg.norm(np.asarray(ev.t_value) @ mass - np.eye(m.dim)) < 1e-8

    def test_precondition(self, single_atom):
        with pytest.raises(PreconditionError):
            mass_at_max_mult(single_atom, [[3.0]], 2.0)


class TestGapDecomposedOnce:
    def test_gap_singular_relative_to_its_norm(self, two_atom):
        # used to pass the absolute check and fail the inverse: ConditioningError
        with pytest.raises(PreconditionError,
                           match=r"det\(D - D'\) vanishes within tolerance \(smallest sv 1\.000e-05\)"):
            max_mult_test_via(two_atom, np.zeros((2, 2)), np.diag([1e9, 1e-5]), 0.5)

    def test_off_the_support_two_svds(self, two_atom, monkeypatch):
        # one of D' - D and one of D' - M(x); the gap used to be decomposed twice
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        ev = max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 0.0)
        assert ev.verdict and shapes == [(2, 2), (2, 2)]
