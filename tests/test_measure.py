import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specstab import (ACPiece, Atom, CauchyKernel, DEFAULT_TOLS, Divergent,
                      ExtensionParameter, HerglotzMatrix, MatrixMeasure, MeasureError,
                      PoissonSquareKernel, RegularizedKernel, Tolerances,
                      boundary_value, integrate, is_divergent, matrix_rank)
from specstab.io import InputError, load_hermitian
from specstab.measure import as_point, is_hermitian

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import instances  # noqa: E402

from helpers import random_atomic_measure


def two_atoms_eye2():
    return MatrixMeasure(2, [Atom(-1.0, np.eye(2)), Atom(1.0, np.eye(2))])


class TestValidation:
    def test_non_psd_weight_rejected(self):
        with pytest.raises(MeasureError, match="positive semidefinite"):
            MatrixMeasure(2, [Atom(0.0, [[1, 0], [0, -1]])])

    def test_non_hermitian_weight_rejected(self):
        with pytest.raises(MeasureError):
            MatrixMeasure(2, [Atom(0.0, [[1, 1], [0, 1]])])

    def test_coincident_atoms_rejected(self):
        with pytest.raises(MeasureError, match="coincide"):
            MatrixMeasure(1, [Atom(0.0, [[1.0]]), Atom(0.0, [[2.0]])])

    def test_trivial_measure_rejected(self):
        with pytest.raises(MeasureError, match="trivial"):
            MatrixMeasure(1, [Atom(0.0, [[0.0]])])

    def test_inverted_piece_rejected(self):
        with pytest.raises(MeasureError):
            MatrixMeasure(1, ac_pieces=[ACPiece(1.0, 0.0, [[1.0]])])

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(MeasureError, match="overlap"):
            MatrixMeasure(1, ac_pieces=[ACPiece(0.0, 1.0, [[1.0]]),
                                        ACPiece(0.5, 2.0, [[1.0]])])

    def test_rank_deficient_weight_allowed(self):
        MatrixMeasure(2, [Atom(0.0, np.diag([3.0, 0.0]))])

    @pytest.mark.parametrize("atoms, pieces, where", [
        ([Atom(np.nan, [[1.0]]), Atom(1.0, [[1.0]])], [], "x"),
        ([Atom(np.inf, [[1.0]])], [], "x"),
        ([Atom(0.0, [[np.nan]])], [], "W"),
        ([Atom(0.0, [[1.0]])], [ACPiece(-np.inf, 1.0, [[1.0]])], "ends"),
        ([Atom(0.0, [[1.0]])], [ACPiece(1.0, 2.0, [[np.inf]])], "rho"),
    ])
    def test_non_finite_data_rejected(self, atoms, pieces, where):
        with pytest.raises(MeasureError, match=f"{where}.* not finite"):
            MatrixMeasure(1, atoms, pieces)

    def test_weight_of_the_wrong_shape_is_named(self):
        # the ragged list of weights fails np.array; the entry at fault is named
        with pytest.raises(MeasureError, match=r"atoms\[1\].W: expected 2x2 matrix, got shape \(3,\)"):
            MatrixMeasure(2, [Atom(0.0, np.eye(2)), Atom(1.0, [1.0, 0.0, 0.0])])

    def test_dimension_must_be_positive(self):
        with pytest.raises(MeasureError, match="positive"):
            MatrixMeasure(0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, np.bool_(True), None, "2"])
    def test_dimension_must_be_an_integer(self, dim):
        # 2.5 and 2.0 built a 2-dimensional measure, True a 1-dimensional one;
        # None and "2" raised a bare TypeError
        with pytest.raises(MeasureError, match="dim must be a positive integer"):
            MatrixMeasure(dim, [Atom(0.0, np.eye(2))])

    def test_a_numpy_dimension_is_an_integer(self):
        assert MatrixMeasure(np.int64(2), [Atom(0.0, np.eye(2))]).dim == 2

    @pytest.mark.parametrize("atoms, pieces, match", [
        ([Atom(0.0, [[1.0]]), Atom("1.0", [[1.0]])], [], r"atoms\[1\].x is not a real number"),
        ([Atom(True, [[1.0]])], [], r"atoms\[0\].x is not a real number"),
        ([Atom(2.0, [[1.0]]), Atom(1 + 0j, [[1.0]])], [], r"atoms\[1\].x is not a real number"),
        ([Atom(None, [[1.0]])], [], r"atoms\[0\].x is not a real number"),
        ([], [ACPiece(0.0, "1", [[1.0]])], r"ac\[0\]: ends are not real numbers"),
        ([], [ACPiece(2.0, 3.0, [[1.0]]), ACPiece(np.True_, 1.0, [[1.0]])],
         r"ac\[1\]: ends are not real numbers"),
    ], ids=["str", "bool", "complex", "None", "str end", "numpy bool end"])
    def test_term_points_must_be_real_numbers(self, atoms, pieces, match):
        # "1.0" and True were read as 1.0; 1+0j raised a bare TypeError
        with pytest.raises(MeasureError, match=match):
            MatrixMeasure(1, atoms, pieces)

    def test_numpy_term_points_are_real_numbers(self):
        omega = MatrixMeasure(1, [Atom(np.float64(0.5), [[1.0]]), Atom(np.int64(2), [[1.0]])],
                              [ACPiece(np.float32(3.0), 4, [[1.0]])])
        assert omega.xs.tolist() == [0.5, 2.0] and omega.b.tolist() == [4.0]

    def test_divergent_has_no_truth_value(self):
        with pytest.raises(TypeError, match="used as a value"):
            bool(Divergent((0,)))


class TestMasslessTerms:
    """A zero weight adds nothing, not even at a kernel pole."""

    def zero_atom(self):
        return MatrixMeasure(2, [Atom(0.0, np.zeros((2, 2))), Atom(1.0, np.eye(2))])

    def test_poisson_square_at_zero_weight_atom(self):
        omega = self.zero_atom()
        assert not omega.on_support(0.0)
        assert not any(v.any() for v in omega.mass_at(0.0))
        np.testing.assert_allclose(integrate(PoissonSquareKernel(0.0), omega), np.eye(2))

    def test_boundary_value_at_zero_weight_atom(self):
        rep = boundary_value(HerglotzMatrix.from_measure(self.zero_atom()), 0.0)
        assert rep.converged
        np.testing.assert_allclose(rep.t_matrix, np.eye(2))


class TestIntegrate:
    def test_inv_onepy2_two_atoms(self):
        v = integrate(RegularizedKernel(0.0, 1.0), two_atoms_eye2())
        assert np.allclose(v, np.eye(2))

    def test_regularization_level_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RegularizedKernel(0.0, 0)

    def test_poisson_square_two_atoms(self):
        v = integrate(PoissonSquareKernel(0.0), two_atoms_eye2())
        assert np.allclose(v, 2.0 * np.eye(2))

    def test_poisson_square_divergent_inside_piece(self):
        # scalar antiderivative of 1/(0.5-y)^2 blows up inside [0,1]
        omega = MatrixMeasure(1, ac_pieces=[ACPiece(0.0, 1.0, [[1.0]])])
        v = integrate(PoissonSquareKernel(0.5), omega)
        assert is_divergent(v)
        assert v.directions == (0,)

    def test_poisson_square_divergence_is_directional(self):
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([0.0, 2.0])),
                                  Atom(1.0, np.eye(2))])
        v = integrate(PoissonSquareKernel(0.0), omega)
        assert is_divergent(v)
        assert v.directions == (1,)

    def test_cauchy_real_axis_rejection_path(self):
        # real z sitting on an atom is reported divergent, not evaluated
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        assert is_divergent(integrate(CauchyKernel(0.0 + 0j), omega))

    def test_cauchy_piece_segment_against_quadrature(self):
        omega = MatrixMeasure(1, ac_pieces=[ACPiece(-0.5, 1.5, [[2.0]])])
        z = 0.3 + 0.7j
        v = integrate(CauchyKernel(z), omega)[0, 0]
        ys = np.linspace(-0.5, 1.5, 400001)
        f = 1.0 / (ys - z) - ys / (1 + ys ** 2)
        assert abs(v - 2.0 * np.trapezoid(f, ys)) < 1e-9

    def test_real_kernel_gives_hermitian_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            omega = random_atomic_measure(rng, 3)
            x = float(rng.uniform(4.0, 5.0))
            v = integrate(PoissonSquareKernel(x), omega)
            assert np.linalg.norm(v - v.conj().T) < 1e-12 * max(1, np.linalg.norm(v))

    def test_positive_kernel_gives_psd_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            omega = random_atomic_measure(rng, 3)
            v = integrate(RegularizedKernel(float(rng.uniform(-2, 2)), 8.0), omega)
            w = np.linalg.eigvalsh(0.5 * (v + v.conj().T))
            assert w.min() >= -1e-12 * max(1.0, w.max())

    def test_regularized_monotone_in_m_and_converges(self):
        rng = np.random.default_rng(9)
        omega = random_atomic_measure(rng, 2)
        x = 4.2  # off the support, so the limit is finite
        prev = None
        for m in [1, 2, 4, 8, 16, 1024, 2 ** 20]:
            diag = np.real(np.diag(integrate(RegularizedKernel(x, m), omega)))
            if prev is not None:
                assert np.all(diag >= prev - 1e-12)
            prev = diag
        limit = np.real(np.diag(integrate(PoissonSquareKernel(x), omega)))
        assert np.allclose(prev, limit, rtol=1e-6)


class TestMassAt:
    """The mass at a point, and the trace-normalized density and local
    multiplicity a caller reads from it."""

    @staticmethod
    def density(omega, t):
        w, rho, _ = omega.mass_at(t)
        w = w if w.any() else rho
        psi = w / np.trace(w).real
        return psi, matrix_rank(psi, omega.tols.rank_tol)

    def test_identity_atom(self):
        omega = MatrixMeasure(2, [Atom(1.0, np.eye(2))])
        w, rho, jump = omega.mass_at(1.0)
        assert np.array_equal(w, np.eye(2)) and not rho.any() and not jump.any()
        psi, mult = self.density(omega, 1.0)
        assert np.allclose(psi, np.eye(2) / 2) and mult == 2

    def test_rank_one_atom(self):
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([3.0, 0.0]))])
        assert np.array_equal(omega.mass_at(0.0)[0], np.diag([3.0, 0.0]))
        psi, mult = self.density(omega, 0.0)
        assert np.allclose(psi, np.diag([1.0, 0.0])) and mult == 1

    def test_inside_piece(self):
        omega = MatrixMeasure(2, ac_pieces=[ACPiece(0.0, 1.0, np.diag([2.0, 2.0]))])
        w, rho, jump = omega.mass_at(0.5)
        assert not w.any() and np.array_equal(rho, np.diag([2.0, 2.0])) and not jump.any()
        psi, mult = self.density(omega, 0.5)
        assert np.allclose(psi, np.eye(2) / 2) and mult == 2

    def test_unit_trace_and_bounded_multiplicity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            omega = random_atomic_measure(rng, 3)
            k = int(rng.integers(len(omega.atoms)))
            at = omega.atoms[k]
            w, rho, jump = omega.mass_at(at.x)
            assert np.array_equal(w, omega.W[k]) and not rho.any() and not jump.any()
            psi, mult = self.density(omega, at.x)
            assert abs(np.trace(psi).real - 1.0) < 1e-12
            assert 0 <= mult <= 3

    def test_piece_ends_answer_for_their_side(self):
        # at an end within tol_x the piece holds x on its side only: the mean
        # density is ρ/2, the jump ±ρ, and the normalized density as inside
        rho_in = np.diag([2.0, 1.0])
        omega = MatrixMeasure(2, ac_pieces=[ACPiece(0.0, 1.0, rho_in)])
        inside = self.density(omega, 0.5)
        for t, sign in ((0.0, 1.0), (1e-13, 1.0), (1.0, -1.0),
                        (1.0 + 0.5 * omega.tols.tol_x, -1.0)):
            w, rho, jump = omega.mass_at(t)
            assert not w.any(), t
            assert np.array_equal(rho, 0.5 * rho_in) and np.array_equal(jump, sign * rho_in), t
            psi, mult = self.density(omega, t)
            assert np.array_equal(psi, inside[0]) and mult == 2, t

    def test_no_mass_is_zero(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        assert all(v.shape == (1, 1) and not v.any() for v in omega.mass_at(5.0))


class TestAsPoint:
    def test_numbers_and_batches(self):
        assert as_point(1) == 1.0 and isinstance(as_point(1), float)
        assert as_point(1 + 2j) == 1 + 2j
        assert as_point([1, 2]).dtype == float and as_point([1j]).dtype == complex

    def test_a_batch_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            as_point(np.zeros((2, 2)))


def _weight(rng, n, rank):
    """PSD weight of the given rank, rank 0 the zero matrix; about 40 % of
    its canonical directions are cut off, so some diagonal entries are
    exactly 0 (and the whole weight may be 0: a massless term)."""
    b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    b[rng.random(n) < 0.4] = 0.0
    return b @ b.conj().T


@st.composite
def lookup_measures(draw):
    """Atoms and pieces with every case the support lookup must tell apart:
    touching pieces, atoms on or within tol_x of a piece end, atoms inside
    pieces, and massless atoms and pieces (dropped from the arrays)."""
    n = draw(st.integers(1, 3))
    tol_x = draw(st.sampled_from([1e-12, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = st.integers(0, n)
    pieces, cur = [], -4.0
    for rank, touching in draw(st.lists(st.tuples(ranks, st.booleans()), max_size=4)):
        a = cur if touching else cur + float(rng.uniform(0.1, 1.0))
        cur = a + float(rng.uniform(0.05, 1.0))
        pieces.append(ACPiece(a, cur, _weight(rng, n, rank)))
    # free atoms on slots 0.1 apart; an atom at a piece end is kept only
    # 1e-3 or more from the others, so no two atoms coincide
    slots = draw(st.lists(st.integers(-50, 50), unique=True, max_size=8))
    xs = [0.1 * k + float(rng.uniform(-0.02, 0.02)) for k in slots]
    ends = sorted({e for pc in pieces for e in (pc.a, pc.b)})
    for e in draw(st.lists(st.sampled_from(ends), unique=True, max_size=3)) if ends else []:
        x = e + draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0])) * tol_x
        if all(abs(x - y) > 1e-3 for y in xs):
            xs.append(x)
    atoms = [Atom(x, _weight(rng, n, draw(ranks))) for x in xs]
    atoms.append(Atom(9.0, np.eye(n)))      # the measure must carry mass
    return MatrixMeasure(n, atoms, pieces, Tolerances(tol_x=tol_x))


def lookup_points(omega, rng):
    """On, within, at and just beyond tol_x of every atom and piece end,
    massless ones included, inside every piece, and anywhere."""
    tol = omega.tols.tol_x
    ends = [e for pc in omega.ac_pieces for e in (pc.a, pc.b)]
    near = [y + f * tol for y in [at.x for at in omega.atoms] + ends
            for f in (0.0, 0.5, -0.5, 1.0, -1.0, 1.01, -1.01, 2.0, -2.0)]
    inside = [t for pc in omega.ac_pieces
              for t in (0.5 * (pc.a + pc.b), pc.a + 2 * tol, pc.b - 2 * tol)]
    return near + inside + rng.uniform(-6.0, 10.0, size=8).tolist()


def check_lookups(omega, xs):
    """Every scalar support lookup against its definition from xs, a, b,
    tol_x and the weight diagonals of the terms carrying mass."""
    tol = omega.tols.tol_x

    def diag(w):        # a weight's directions with diagonal mass
        return np.flatnonzero(w.diagonal().real > 0.0).tolist()

    for x in xs:
        atoms = [k for k, y in enumerate(omega.xs.tolist()) if y - tol <= x <= y + tol]
        pieces = [p for p, (a, b) in enumerate(zip(omega.a.tolist(), omega.b.tolist()))
                  if a - tol <= x <= b + tol]
        assert omega.on_support(x) is bool(atoms or pieces), x
        assert omega.on_support(np.array([x])).tolist() == [omega.on_support(x)], x
        dirs = {i for k in atoms for i in diag(omega.W[k])}
        dirs |= {i for p in pieces for i in diag(omega.rho[p])}
        assert omega._divergent_directions(x) == tuple(sorted(dirs)), x
        # mass_at: a piece holds x on a side unless x is within tol_x of that end
        below = [p for p in pieces if omega.a[p] + tol < x]
        above = [p for p in pieces if x < omega.b[p] - tol]
        w, rho, jump = omega.mass_at(x)
        rho_b, rho_a = (omega.rho[side].sum(axis=0) for side in (below, above))
        assert np.array_equal(w, omega.W[atoms].sum(axis=0)), x
        assert np.array_equal(rho, rho_b if below == above else 0.5 * (rho_b + rho_a)), x
        assert np.array_equal(jump, rho_a - rho_b), x
        # the finite part drops the atoms and the piece ends within tol_x
        k, p = omega.xs.size, omega.a.size
        near = atoms + [k + q for q in pieces if q not in below]
        near += [k + p + q for q in pieces if q not in above]
        assert sorted(omega._at(x)[3]) == sorted(near), x
    batch = np.array(xs)
    assert omega.on_support(batch).tolist() == [omega.on_support(x) for x in xs]
    assert omega._divergent_directions(batch) == tuple(sorted(
        {i for x in xs for i in omega._divergent_directions(x)}))


class TestSupportLookup:
    def test_touching_pieces_an_atom_at_an_end_and_massless_terms(self):
        tol = DEFAULT_TOLS.tol_x
        omega = MatrixMeasure(3, [Atom(1.0 + 0.5 * tol, np.diag([1.0, 0.0, 0.0])),
                                  Atom(0.5, np.diag([0.0, 0.0, 2.0])),
                                  Atom(3.0, np.zeros((3, 3)))],
                              [ACPiece(0.0, 1.0, np.diag([0.0, 1.0, 0.0])),
                               ACPiece(1.0, 2.0, np.diag([0.0, 0.0, 3.0])),
                               ACPiece(2.5, 2.75, np.zeros((3, 3)))])
        assert omega.xs.tolist() == [0.5, 1.0 + 0.5 * tol] and omega.b.tolist() == [1.0, 2.0]
        assert omega._divergent_directions(1.0) == (0, 1, 2)
        assert omega._divergent_directions(0.5) == (1, 2)
        assert omega._divergent_directions(3.0) == () and not omega.on_support(2.6)
        # at 1.0 an atom and a junction: ρ(1−) = e₁, ρ(1+) = 3e₂
        w, rho, jump = omega.mass_at(1.0)
        assert np.array_equal(w, np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(rho, np.diag([0.0, 0.5, 1.5]))
        assert np.array_equal(jump, np.diag([0.0, -1.0, 3.0]))
        assert not omega._at(1.5)[3] and omega.mass_at(1.5)[1][2, 2] == 3.0
        assert not any(v.any() for v in omega.mass_at(3.0))
        check_lookups(omega, lookup_points(omega, np.random.default_rng(0)))

    @settings(max_examples=150, deadline=None)
    @given(omega=lookup_measures(), seed=st.integers(0, 2 ** 32 - 1))
    def test_scalar_lookups_match_their_definitions(self, omega, seed):
        check_lookups(omega, lookup_points(omega, np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", [1, 2, 3, 99])
    def test_one_point_answers_as_the_batch_on_the_mixed_measures(self, seed):
        # a one-point on_support reads _terms_at; the batch keeps its searchsorted
        omega = instances.mixed_instance(np.random.default_rng(seed)).layout.matrix_measure()
        ends, tol = np.concatenate([omega.xs, omega.a, omega.b]), omega.tols.tol_x
        xs = np.concatenate([ends + f * tol for f in (0.0, 1.0, -1.0, 2.0, -2.0)]
                            + [0.5 * (omega.a + omega.b)]).tolist()
        one = [omega.on_support(x) for x in xs]
        assert all(type(v) is bool for v in one)
        assert one == omega.on_support(np.array(xs)).tolist()
        assert any(one) and not all(one)


def frobenius_hermitian(a):
    """The definition: ‖a − a*‖ <= 1e-12·max(1, ‖a‖), Frobenius norms."""
    a = np.asarray(a)
    d = a - a.conj().swapaxes(-1, -2)
    return (np.linalg.norm(d, axis=(-2, -1))
            <= 1e-12 * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1))))


def perturbed(rng, n, scale, factor):
    """A Hermitian matrix of norm ``scale`` plus an anti-Hermitian part
    making ‖a − a*‖ ``factor`` times the threshold 1e-12·max(1, ‖a‖)."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h, k = g + g.conj().T, g - g.conj().T
    h *= scale / np.linalg.norm(h)
    # ‖h + s k̂‖² = ‖h‖² + s² (h ⟂ k), and ‖a − a*‖ = 2s
    s = 0.5 * factor * 1e-12 * max(1.0, scale)
    return h + s * k / np.linalg.norm(k)


class TestIsHermitian:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 1e3])
    @pytest.mark.parametrize("factor", [0.0, 0.5, 2.0])
    def test_one_matrix_matches_the_frobenius_definition(self, n, scale, factor):
        rng = np.random.default_rng(int(10 * scale) + n)
        for _ in range(20):
            a = perturbed(rng, n, scale, factor)
            want = bool(frobenius_hermitian(a))
            assert want == (factor < 1.0 or n == 1 and factor == 0.0)
            assert bool(is_hermitian(a)) is want

    def test_a_stack_matches_the_frobenius_definition(self):
        rng = np.random.default_rng(4)
        stack = np.array([perturbed(rng, 3, scale, factor)
                          for scale in (0.1, 1.0, 1e3) for factor in (0.0, 0.5, 2.0)])
        got = is_hermitian(stack)
        assert got.tolist() == frobenius_hermitian(stack).tolist()
        assert got.tolist() == [True, True, False] * 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
                                     complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "inf+0j", "nan*1j"])
    @pytest.mark.parametrize("at", [(0, 0), (0, 2)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entries_are_not_hermitian(self, bad, at):
        a = np.eye(3, dtype=complex)
        a[at] = bad
        assert not is_hermitian(a)
        assert is_hermitian(np.array([np.eye(3), a, np.eye(3)])).tolist() == [True, False, True]
        assert not is_hermitian(np.array([[bad]]))

    def test_the_must_be_hermitian_errors_are_unchanged(self, tmp_path):
        skew = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="^D must be Hermitian$"):
            ExtensionParameter(skew)
        with pytest.raises(ValueError, match="^D must be Hermitian$"):
            ExtensionParameter([[0.0, math.inf], [0.0, 0.0]])   # was accepted
        with pytest.raises(ValueError, match="^C must be Hermitian$"):
            HerglotzMatrix.from_measure(two_atoms_eye2(), skew)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(skew))
        with pytest.raises(InputError, match=f"^{path}: matrix is not Hermitian$"):
            load_hermitian(str(path))
