import numpy as np
import pytest

from specstab import (ACPiece, Atom, CauchyKernel, DEFAULT_TOLS, Divergent,
                      HerglotzMatrix, IndicatorKernel, IntervalUnion,
                      InvOnePlusY2Kernel, MatrixMeasure, MeasureError,
                      PoissonSquareKernel, RegularizedKernel, boundary_value,
                      density_matrix, integrate, is_divergent, measure_of_set,
                      trace_measure)
from specstab.herglotz import as_point
from specstab.measure import DefinedNowhereError
from specstab.randgen import random_atomic_measure


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


class TestMasslessTerms:
    """A zero weight adds nothing, not even at a kernel pole."""

    def zero_atom(self):
        return MatrixMeasure(2, [Atom(0.0, np.zeros((2, 2))), Atom(1.0, np.eye(2))])

    def test_poisson_square_at_zero_weight_atom(self):
        omega = self.zero_atom()
        assert not omega.on_support(0.0)
        assert omega.atom_at(0.0) is None
        np.testing.assert_allclose(integrate(PoissonSquareKernel(0.0), omega), np.eye(2))

    def test_boundary_value_at_zero_weight_atom(self):
        rep = boundary_value(HerglotzMatrix.from_measure(self.zero_atom()), 0.0)
        assert rep.converged
        np.testing.assert_allclose(rep.t_matrix, np.eye(2))


class TestMeasureOfSet:
    def test_empty_set(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        assert np.allclose(measure_of_set(omega, IntervalUnion.empty()), 0.0)

    def test_atom_in_interval(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        v = measure_of_set(omega, IntervalUnion.of((-1.0, 1.0)))
        assert np.allclose(v, [[1.0]])

    def test_ac_slice(self):
        # length-1 slice of constant density diag(1,2), cross-checked by
        # scalar quadrature of the indicator
        omega = MatrixMeasure(2, ac_pieces=[ACPiece(0.0, 2.0, np.diag([1.0, 2.0]))])
        v = measure_of_set(omega, IntervalUnion.of((0.0, 1.0)))
        xs = np.linspace(0, 2, 200001)
        quad = np.trapezoid((xs <= 1.0).astype(float), xs)
        assert np.allclose(v, quad * np.diag([1.0, 2.0]), atol=1e-4)
        assert np.allclose(v, np.diag([1.0, 2.0]), atol=1e-12)

    def test_endpoint_inclusion_flags(self):
        omega = MatrixMeasure(1, [Atom(1.0, [[1.0]])])
        closed = measure_of_set(omega, IntervalUnion.of((0.0, 1.0, True, True)))
        open_ = measure_of_set(omega, IntervalUnion.of((0.0, 1.0, True, False)))
        assert np.allclose(closed, [[1.0]])
        assert np.allclose(open_, [[0.0]])

    def test_additivity_over_disjoint_pieces(self):
        rng = np.random.default_rng(7)
        omega = random_atomic_measure(rng, 2)
        left = IntervalUnion.of((-4.0, 0.0, True, False))
        right = IntervalUnion.of((0.0, 4.0, True, True))
        both = IntervalUnion.of((-4.0, 0.0, True, False), (0.0, 4.0, True, True))
        assert np.allclose(measure_of_set(omega, left) + measure_of_set(omega, right),
                           measure_of_set(omega, both), atol=1e-12)


class TestTraceMeasure:
    def test_two_identity_atoms(self):
        assert trace_measure(two_atoms_eye2(), IntervalUnion.of((-2.0, 2.0))) == pytest.approx(4.0)

    def test_empty(self):
        assert trace_measure(two_atoms_eye2(), IntervalUnion.empty()) == 0.0

    def test_ac_slice(self):
        omega = MatrixMeasure(2, ac_pieces=[ACPiece(0.0, 2.0, np.diag([1.0, 2.0]))])
        assert trace_measure(omega, IntervalUnion.of((0.0, 1.0))) == pytest.approx(3.0)

    def test_matches_sum_of_diagonal_entries(self):
        rng = np.random.default_rng(3)
        omega = random_atomic_measure(rng, 3)
        region = IntervalUnion.of((-2.0, 1.0))
        m = measure_of_set(omega, region)
        assert trace_measure(omega, region) == pytest.approx(float(np.trace(m).real))


class TestIntegrate:
    def test_inv_onepy2_two_atoms(self):
        v = integrate(InvOnePlusY2Kernel(), two_atoms_eye2())
        assert np.allclose(v, np.eye(2))

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

    def test_indicator_consistent_with_measure_of_set(self):
        rng = np.random.default_rng(11)
        omega = random_atomic_measure(rng, 2)
        region = IntervalUnion.of((0.0, 1.0))
        assert np.allclose(integrate(IndicatorKernel(region), omega),
                           measure_of_set(omega, region), atol=1e-14)

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


class TestDensityMatrix:
    def test_identity_atom(self):
        omega = MatrixMeasure(2, [Atom(1.0, np.eye(2))])
        dv = density_matrix(omega, 1.0)
        assert np.allclose(dv.psi, np.eye(2) / 2)
        assert dv.multiplicity == 2

    def test_rank_one_atom(self):
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([3.0, 0.0]))])
        dv = density_matrix(omega, 0.0)
        assert np.allclose(dv.psi, np.diag([1.0, 0.0]))
        assert dv.multiplicity == 1

    def test_inside_piece(self):
        omega = MatrixMeasure(2, ac_pieces=[ACPiece(0.0, 1.0, np.diag([2.0, 2.0]))])
        dv = density_matrix(omega, 0.5)
        assert np.allclose(dv.psi, np.eye(2) / 2)
        assert dv.multiplicity == 2

    def test_unit_trace_and_bounded_multiplicity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            omega = random_atomic_measure(rng, 3)
            at = omega.atoms[int(rng.integers(len(omega.atoms)))]
            dv = density_matrix(omega, at.x)
            assert abs(np.trace(dv.psi).real - 1.0) < 1e-12
            assert 0 <= dv.multiplicity <= 3

    def test_no_mass_raises(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        with pytest.raises(DefinedNowhereError):
            density_matrix(omega, 5.0)


class TestAsPoint:
    def test_numbers_and_batches(self):
        assert as_point(1) == 1.0 and isinstance(as_point(1), float)
        assert as_point(1 + 2j) == 1 + 2j
        assert as_point([1, 2]).dtype == float and as_point([1j]).dtype == complex

    def test_a_batch_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            as_point(np.zeros((2, 2)))
