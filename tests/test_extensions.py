import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specstab import (DEFAULT_TOLS, ACPiece, Atom, ConditioningError, Divergent,
                      ExtensionParameter, HerglotzMatrix, MatrixMeasure,
                      PreconditionError, Tolerances, classify,
                      extension_for_point, mass_at_max_mult,
                      max_mult_test, max_mult_test_via)
import specstab.extensions as ext
import specstab.measure as measure
from specstab.extensions import MIN_GAP_SV, _inv_certified, _inv_checked, extension_weyl
from specstab.herglotz import atom_mass, boundary_value
from specstab.randgen import point_off_atoms, random_gap_matrix
from specstab.verify import MASS_AGREE_TOL, N_DPRIME

from helpers import random_herglotz, random_hermitian, resolvent_identity_residual

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import instances  # noqa: E402  (the benchmark's seeded layouts)


class TestExtensionParameter:
    def test_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ExtensionParameter(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            ExtensionParameter(np.zeros((2, 3)))

    def test_a_raw_parameter_is_checked_once_and_never_wrapped(self, two_atom, monkeypatch):
        # as_parameter wrapped each raw d in a frozen ExtensionParameter
        checks, built = [], []
        check, post_init = measure.is_hermitian, ExtensionParameter.__post_init__
        monkeypatch.setattr(measure, "is_hermitian", lambda a: checks.append(1) or check(a))
        monkeypatch.setattr(ExtensionParameter, "__post_init__",
                            lambda p: built.append(1) or post_init(p))
        d, dp = np.zeros((2, 2)), 2.0 * np.eye(2)
        calls = {"max_mult_test": (lambda: ext.max_mult_test(two_atom, d, 0.5), 1),
                 "on a batch": (lambda: ext.max_mult_test(two_atom, d, [0.5, 2.0]), 1),
                 "max_mult_test_via": (lambda: ext.max_mult_test_via(two_atom, d, dp, 0.5), 2),
                 "extension_weyl": (lambda: ext.extension_weyl(two_atom, d)(1j), 1)}
        for name, (call, raw) in calls.items():
            checks.clear()
            call()
            assert len(checks) == raw, name
        assert built == []
        # classify wraps a raw d once, for its pole search and residues
        checks.clear()
        classify(two_atom, d, (-3.0, 3.0))
        assert built == [1] and checks == [1]

    def test_the_weyl_function_keeps_its_own_copy(self, two_atom):
        d = np.zeros((2, 2), dtype=complex)
        fn = extension_weyl(two_atom, d)
        before = fn(1j)
        d[0, 0] = 5.0
        assert fn(1j).tobytes() == before.tobytes()


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

    @pytest.mark.parametrize("z", [1j, -1j, 2 + 0.5j, -2 - 0.5j, 0.5 + 3j, 0.5 - 0.1j])
    def test_two_atom_on_both_sides_of_the_axis(self, two_atom, z):
        rng = np.random.default_rng(5)
        d, dp = random_hermitian(rng, 2), random_hermitian(rng, 2)
        assert resolvent_identity_residual(two_atom, d, dp, z) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_instance(self, n):
        rng = np.random.default_rng(10 + n)
        m = random_herglotz(rng, n=n)
        d, dp = random_hermitian(rng, n), random_hermitian(rng, n)
        assert resolvent_identity_residual(m, d, dp, 0.5 + 1j) <= 1e-10


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
        # nor at an atom: the atom's weight is split off
        max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 1.0)
        assert eps_calls == []

    def test_in_a_piece_no_eps_limit(self, unit_piece, eps_calls):
        # M(0.5+i0) = -log 3 + iπ, so F = 1/(D' + log 3 - iπ), with Im F ≠ 0
        ev = max_mult_test_via(unit_piece, [[0.0]], [[1.0]], 0.5)
        boundary_value(unit_piece, 0.5)
        max_mult_test(unit_piece, [[0.0]], 0.5)
        assert eps_calls == []
        f = 1.0 / (1.0 + math.log(3.0) - 1j * math.pi)
        assert ev.t_value == Divergent((0,)) and not ev.verdict
        assert abs(ev.m_boundary[0, 0] - f.real) <= 1e-14

    def test_piece_ends_and_atoms_in_a_piece_are_closed_form(self, eps_calls):
        # an atom inside the piece, and points within tol_x of it or of an
        # end: W and J are full rank, so M_{D'}(x+i0) = 0.  At an end the
        # jump makes T_{D'} divergent; at the atom the density does not
        # reach ker W = {0}, and T_{D'} = W⁻¹.  2·tol_x inside an end is a
        # piece interior
        omega = MatrixMeasure(1, [Atom(0.25, [[1.0]])], [ACPiece(-1.0, 1.0, [[1.0]])])
        m = HerglotzMatrix.from_measure(omega)
        tol_x = omega.tols.tol_x
        for x in (-1.0, -1.0 + tol_x / 2, 1.0 - tol_x / 2, 1.0 + tol_x / 2,
                  0.25, 0.25 + tol_x / 2):
            ev = max_mult_test_via(m, [[0.0]], [[1.0]], x)
            if abs(x - 0.25) < 0.5:
                assert ev.t_value.tolist() == [[1.0]], x
            else:
                assert ev.t_value == Divergent((0,)), x
            assert ev.m_boundary[0, 0] == 0.0 and ev.residual == 1.0 and not ev.verdict, x
        ev = max_mult_test_via(m, [[0.0]], [[1.0]], 1.0 - 2 * tol_x)
        assert ev.t_value == Divergent((0,)) and ev.m_boundary[0, 0] != 0.0
        assert eps_calls == []

    def test_at_a_pole_of_the_dprime_weyl_function(self, single_atom):
        # M(2) = -1/2 = D': D' - M(x) is singular, so M_{D'} has a pole at x
        # with mass along the kernel, the one direction
        ev = max_mult_test_via(single_atom, [[0.0]], [[-0.5]], 2.0)
        assert ev.t_value == Divergent((0,)) and ev.m_boundary is None
        assert ev.residual == math.inf and not ev.verdict

    def test_a_pole_at_an_atom_diverges_along_its_kernel(self):
        # W = e₀e₀* at 0, and the unit atom at 1 makes M_fin(0) = I/2: with
        # D' = diag(3, 1/2), N*AN = 0 on ker W = span e₁, so the pole's mass,
        # and T_{D'}'s divergence, lie along e₁
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([1.0, 0.0])), Atom(1.0, np.eye(2))])
        m = HerglotzMatrix.from_measure(omega)
        ev = max_mult_test_via(m, np.zeros((2, 2)), np.diag([3.0, 0.5]), 0.0)
        assert ev.t_value == Divergent((1,)) and ev.m_boundary is None and not ev.verdict
        # off the pole, G = e₁e₁*/(D'₁₁ - 1/2) and T_{D'} = G T_rest G + (GA - I)W⁺(AG - I)
        ev = max_mult_test_via(m, np.zeros((2, 2)), np.diag([3.0, 2.5]), 0.0)
        g = np.diag([0.0, 0.5])
        a = np.diag([2.5, 2.0])
        t = g @ np.eye(2) @ g + (g @ a - np.eye(2)) @ np.diag([1.0, 0.0]) @ (a @ g - np.eye(2))
        np.testing.assert_allclose(ev.m_boundary, g, atol=1e-15)
        np.testing.assert_allclose(ev.t_value, t, atol=1e-15)

    def test_a_full_rank_atom_is_closed_form(self, single_atom):
        # G = 0 and T_{D'} = W⁻¹ = 1: finite, yet M_{D'}(0+i0) = 0 is not
        # (D' - D)^{-1} = 2; the relative residual is |0 - 2|/2
        ev = max_mult_test_via(single_atom, [[-0.5]], [[0.0]], 0.0)
        assert ev.t_value.tolist() == [[1.0]] and ev.m_boundary.tolist() == [[0.0]]
        assert ev.residual == 1.0 and ev.verdict is False

    def test_near_a_pole_of_the_dprime_weyl_function(self, single_atom):
        # 1e-9 away from the pole T_{D'} = F T(x) F = F²/x² is finite
        dp = -0.5 + 1e-9
        ev = max_mult_test_via(single_atom, [[0.0]], [[dp]], 2.0)
        f = 1.0 / (dp + 0.5)
        assert ev.t_finite and not ev.verdict
        assert ev.t_value[0, 0] == pytest.approx(f * f / 4.0, rel=1e-12)
        assert ev.m_boundary[0, 0] == pytest.approx(f, rel=1e-12)


@pytest.mark.parametrize("k", range(12))
def test_the_mixed_set_on_the_support_answers_false(k):
    # the 12 bench mixed instances of default_rng(99): at the atoms D is the
    # boundary value 0.05 to the right, D' = D + the query's gap; 33 of the
    # 216 atom queries used to raise ConditioningError and 11 to report a
    # finite T_{D'} as Divergent (the ε-limits); piece ends took all 41 samples
    rng = np.random.default_rng(99)
    for _ in range(k + 1):
        inst = instances.mixed_instance(rng)
    m = HerglotzMatrix.from_measure(inst.layout.matrix_measure())
    ends = np.concatenate([inst.layout.a, inst.layout.b]).tolist()
    cases = [(q.x, q.gap) for q in inst.queries if q.kind == instances.AT_ATOM]
    cases += [(x, np.eye(m.dim)) for x in ends]
    for x, gap in cases:
        d = boundary_value(m, x + 0.05).m_boundary
        ev = max_mult_test_via(m, d, d + gap, x)
        assert not ev.verdict and ev.m_boundary is not None
        assert ev.t_finite == (x not in ends)
        if x in ends:   # full-rank densities: the jump leaves nothing
            assert not np.abs(ev.m_boundary).any()


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

    def test_no_mass_where_t_diverges(self, two_atom):
        # the evidence names x and the divergent directions; the verdict
        # refuses the point first in mass_at_max_mult
        ev = max_mult_test(two_atom, np.zeros((2, 2)), 1.0)
        with pytest.raises(PreconditionError,
                           match=r"T\(x\) diverges at x=1\.0 in directions \(0, 1\)"):
            ev.mass()
        with pytest.raises(PreconditionError,
                           match=r"^x=1\.0 is not a maximum-multiplicity point for this D$"):
            mass_at_max_mult(two_atom, np.zeros((2, 2)), 1.0)


class TestMassThroughSecondParameter:
    """Evidence through D' holds T_{D'} = F T F, F = M_{D'}(x+i0); its
    mass is still the eigenvalue mass T(x)^{-1} = F T_{D'}(x)^{-1} F."""

    def test_two_atoms_with_dprime_twice_the_identity(self, two_atom):
        # T(0) = 2I and F = (D' - D)^{-1} = I/2, so T_{D'} = I/2 and the
        # mass is I/2, where T_{D'}^{-1} would be 2I
        d, dp = np.zeros((2, 2)), 2.0 * np.eye(2)
        ev = max_mult_test_via(two_atom, d, dp, 0.0)
        assert ev.verdict
        assert np.allclose(ev.t_value, np.eye(2) / 2, rtol=0.0, atol=1e-14)
        assert np.allclose(ev.mass(), np.eye(2) / 2, rtol=0.0, atol=1e-14)
        assert np.linalg.norm(ev.mass() - mass_at_max_mult(two_atom, d, 0.0)) <= MASS_AGREE_TOL

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_constructed_points_of_atomic_layouts(self, seed):
        # the construction of a verify trial: D = M(x0+i0) at a point off
        # the atoms, then random well-separated D'
        rng = np.random.default_rng(seed)
        m = HerglotzMatrix.from_measure(instances.atomic_layout(rng).matrix_measure())
        lo, hi = m.omega.support_bounds()
        x0 = point_off_atoms(rng, m.omega, lo - 1.0, hi + 1.0)
        d = extension_for_point(m, x0)
        want = mass_at_max_mult(m, d, x0)
        for _ in range(N_DPRIME):
            ev = max_mult_test_via(m, d, d.D + random_gap_matrix(rng, m.dim), x0)
            assert ev.verdict
            assert np.linalg.norm(ev.mass() - want) <= MASS_AGREE_TOL


class TestGapDecomposedOnce:
    def test_gap_singular_relative_to_its_norm(self, two_atom):
        # used to pass the absolute check and fail the inverse: ConditioningError
        with pytest.raises(PreconditionError,
                           match=r"det\(D - D'\) vanishes within tolerance \(smallest sv 1\.000e-05\)"):
            max_mult_test_via(two_atom, np.zeros((2, 2)), np.diag([1e9, 1e-5]), 0.5)

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        return shapes

    def test_off_the_support_no_svd(self, two_atom, svd_shapes):
        # the inverses of D' - D and of D' - M(x) certify themselves; the gap
        # used to be decomposed twice, then once
        ev = max_mult_test_via(two_atom, np.zeros((2, 2)), np.eye(2), 0.0)
        assert ev.verdict and svd_shapes == []

    def test_gap_near_the_relative_threshold_takes_the_svd(self, two_atom, svd_shapes):
        # the threshold is 1e-13·1e9 = 1e-4: at 1.5× the certificate (which
        # needs 2×) falls short, and the SVD accepts the gap
        max_mult_test_via(two_atom, np.zeros((2, 2)), np.diag([1e9, 1.5e-4]), 0.5)
        assert svd_shapes == [(1, 2, 2)]
        with pytest.raises(PreconditionError, match=r"\(smallest sv 9\.000e-05\)"):
            max_mult_test_via(two_atom, np.zeros((2, 2)), np.diag([1e9, 9e-5]), 0.5)
        assert svd_shapes == [(1, 2, 2)] * 2


def _svd_rule(a, rel, floor):
    """The SVD test the certificate stands in for."""
    s = np.linalg.svd(a, compute_uv=False)
    return s[..., -1] > np.maximum(floor, rel * np.maximum(1.0, s[..., 0]))


def _with_singular_values(rng, s):
    """U diag(s) V* with Haar-like unitary U and V."""
    u, v = (np.linalg.qr(rng.normal(size=(s.size, s.size))
                         + 1j * rng.normal(size=(s.size, s.size)))[0] for _ in range(2))
    return (u * s) @ v.conj().T


class TestCertifiedInverse:
    """_inv_certified decides as the SVD test and returns np.linalg.inv."""

    @staticmethod
    def member(rng, n, kind, rel, floor):
        if kind == "singular":      # a zero column: inv itself finds it singular
            a = _with_singular_values(rng, np.ones(n))
            a[:, -1] = 0.0
            return a
        if kind in ("nan", "inf", "-inf"):
            a = _with_singular_values(rng, np.ones(n))
            a[0, -1] = float(kind)
            return a
        s_max = 10.0 ** rng.uniform(-2.0, 9.0)
        s_min = kind * max(floor, rel * max(1.0, s_max))
        s = np.sort(np.exp(rng.uniform(np.log(s_min), np.log(s_max), size=n)))[::-1]
        s[0], s[-1] = s_max, s_min
        return _with_singular_values(rng, s)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           size=st.one_of(st.none(), st.integers(1, 6)),
           rel=st.sampled_from([1e-13, 1e-10]), floor=st.sampled_from([0.0, MIN_GAP_SV]),
           # σ_min as a multiple of the threshold, drawn twice as often as
           # each kind of member that is singular or not finite
           kinds=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 0.5, 1.0, 2.0, 4.0,
                                           "singular", "nan", "inf", "-inf"]),
                          min_size=6, max_size=6))
    def test_decides_as_the_svd_and_returns_inv(self, seed, n, size, rel, floor, kinds):
        rng = np.random.default_rng(seed)
        a = np.array([self.member(rng, n, kinds[k], rel, floor) for k in range(size or 1)])
        if size is None:
            a = a[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                want = _svd_rule(a, rel, floor)
            except np.linalg.LinAlgError:       # NaN: the SVD does not converge
                with pytest.raises(np.linalg.LinAlgError):
                    _inv_certified(a, rel, floor)
                return
            inv, ok, smin = _inv_certified(a, rel, floor)
        assert np.array_equal(ok, want)
        for member, accepted, out, s in zip(a.reshape(-1, n, n), np.ravel(ok),
                                            inv.reshape(-1, n, n), np.ravel(smin)):
            if accepted:
                assert np.array_equal(out, np.linalg.inv(member))
            else:       # the SVD rejected it and reported its smallest value
                assert np.isnan(out).all()
                assert np.isfinite(s) or not np.isfinite(member).all()


def test_one_uncertified_matrix_is_inverted_once(monkeypatch):
    # the one-matrix path used to run the gufunc again on a[None] before the SVD
    shapes = []

    class Spy:
        @staticmethod
        def inv(a, **kw):
            shapes.append(a.shape)
            return np.linalg._umath_linalg.inv(a, **kw)

    monkeypatch.setattr(ext, "_umath_linalg", Spy)
    a = np.diag([1.0, 1e-14]).astype(complex)
    inv, ok, smin = _inv_certified(a, 1e-13)
    assert shapes == [(2, 2)]
    assert not ok and np.isnan(inv).all() and smin == 1e-14
    shapes.clear()
    inv, ok, smin = _inv_certified(np.diag([1.0, 1e-6]).astype(complex), 1e-13)
    assert shapes == [(2, 2)] and ok
    assert np.array_equal(inv, np.linalg.inv(np.diag([1.0, 1e-6]).astype(complex)))
