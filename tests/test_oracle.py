import warnings

import numpy as np
import pytest

from specstab import (DEFAULT_TOLS, Atom, HerglotzMatrix, MatrixMeasure,
                      OracleError, Tolerances, classify, oracle, real_poles,
                      residue_mass, run_verify)
from specstab.cli import main
from specstab.extensions import extension_weyl
from specstab.herglotz import atom_mass, boundary_value, integrate_cauchy, t_matrix
from specstab.measure import hermitian_part, ACPiece
from specstab.randgen import random_atomic_measure, point_off_atoms


class TestRealPoles:
    def test_scalar_single_pole(self, single_atom):
        assert real_poles(single_atom, [[-0.5]], (1.0, 3.0)) == [(pytest.approx(2.0, abs=1e-10), 1)]

    def test_two_atom_full_kernel(self, two_atom):
        poles = real_poles(two_atom, np.zeros((2, 2)), (-0.5, 0.5))
        assert len(poles) == 1
        p, kdim = poles[0]
        assert abs(p) < 1e-10 and kdim == 2

    def test_no_sign_change_no_pole(self, single_atom):
        assert real_poles(single_atom, [[-0.5]], (3.0, 4.0)) == []

    def test_requires_atomic(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])], [ACPiece(1.0, 2.0, [[1.0]])])
        m = HerglotzMatrix.from_measure(omega)
        with pytest.raises(OracleError, match="atomic"):
            real_poles(m, [[0.0]], (3.0, 4.0))

    def test_inverted_window_rejected(self, single_atom):
        with pytest.raises(OracleError, match=r"inverted interval \[3.0, 1.0\]"):
            real_poles(single_atom, [[-0.5]], (3.0, 1.0))

    def test_endpoint_on_atom_rejected(self, single_atom):
        with pytest.raises(OracleError, match="endpoints"):
            real_poles(single_atom, [[-0.5]], (0.0, 3.0))

    def test_endpoint_within_the_measures_tol_x_rejected(self, single_atom):
        assert real_poles(single_atom, [[-0.5]], (1e-4, 3.0)) == [(pytest.approx(2.0), 1)]
        wide = HerglotzMatrix.from_measure(
            MatrixMeasure(1, single_atom.omega.atoms, tols=Tolerances(tol_x=1e-3)))
        with pytest.raises(OracleError, match="endpoints"):
            real_poles(wide, [[-0.5]], (1e-4, 3.0))

    def test_monotone_branches_along_brackets(self):
        # sorted eigenvalue branches of D - M(x) strictly decrease between atoms
        rng = np.random.default_rng(19)
        omega = random_atomic_measure(rng, 3)
        m = HerglotzMatrix.from_measure(omega)
        d = boundary_value(m, omega.support_bounds()[1] + 1.0).m_boundary
        pts = [at.x for at in omega.atoms]
        for l, r in zip(pts[:-1], pts[1:]):
            xs = np.linspace(l + 1e-6, r - 1e-6, 7)
            eigs = [np.linalg.eigvalsh(hermitian_part(d - integrate_cauchy(m, x)))
                    for x in xs]
            for a, b in zip(eigs[:-1], eigs[1:]):
                assert np.all(b < a)

    def test_interlacing_bound(self):
        # between consecutive atoms there are at most n poles
        rng = np.random.default_rng(29)
        for _ in range(10):
            omega = random_atomic_measure(rng, 2)
            m = HerglotzMatrix.from_measure(omega)
            lo, hi = omega.support_bounds()
            x0 = point_off_atoms(rng, omega, lo, hi)
            d = boundary_value(m, x0).m_boundary
            pts = [at.x for at in omega.atoms]
            for l, r in zip(pts[:-1], pts[1:]):
                poles = real_poles(m, d, (l + 1e-7, r - 1e-7))
                assert sum(k for _, k in poles) <= omega.dim


class TestResidueMass:
    def test_scalar(self, single_atom):
        assert residue_mass(single_atom, [[-0.5]], 2.0)[0, 0] == pytest.approx(4.0)

    def test_two_atom_full_kernel(self, two_atom):
        assert np.allclose(residue_mass(two_atom, np.zeros((2, 2)), 0.0),
                           np.eye(2) / 2)

    def test_rank_deficient_weights_full_kernel_pole(self):
        # weights of rank one at 0 and 3; D := M(1+i0) makes x=1 a
        # full-kernel pole whose mass is T(1)^{-1}
        omega = MatrixMeasure(2, [Atom(0.0, np.diag([1.0, 0.0])),
                                  Atom(3.0, np.diag([0.0, 1.0]))])
        m = HerglotzMatrix.from_measure(omega)
        d = boundary_value(m, 1.0).m_boundary
        poles = real_poles(m, d, (0.5, 1.5))
        assert len(poles) == 1
        p, kdim = poles[0]
        assert abs(p - 1.0) < 1e-10 and kdim == 2
        mass = residue_mass(m, d, p, kdim)
        t_inv = np.linalg.inv(np.asarray(t_matrix(m, 1.0)))
        assert np.linalg.norm(mass - t_inv) < 1e-8

    def test_not_a_pole(self, single_atom):
        with pytest.raises(OracleError, match="not a pole"):
            residue_mass(single_atom, [[-0.5]], 2.5)

    @pytest.mark.parametrize("kdim", [0, 2])
    def test_kernel_dim_outside_one_to_n_rejected(self, single_atom, kdim):
        with pytest.raises(OracleError, match=f"kernel_dim={kdim} at p=2.0"):
            residue_mass(single_atom, [[-0.5]], 2.0, kdim)

    def test_one_bad_kernel_dim_in_a_batch_rejected(self, single_atom):
        with pytest.raises(OracleError, match="kernel_dim=2 at p=2.0"):
            residue_mass(single_atom, [[-0.5]], [2.0, 2.0], [1, 2])

    def test_agrees_with_eps_limit(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            omega = random_atomic_measure(rng, 2)
            m = HerglotzMatrix.from_measure(omega)
            lo, hi = omega.support_bounds()
            x0 = point_off_atoms(rng, omega, lo, hi)
            d = boundary_value(m, x0).m_boundary
            mass = residue_mass(m, d, x0)
            eps_mass = atom_mass(extension_weyl(m, d), x0)
            assert np.linalg.norm(mass - eps_mass) < 1e-6


class TestClassify:
    def test_scalar_report(self, single_atom):
        rep = classify(single_atom, [[-0.5]], (-1.0, 5.0))
        assert len(rep) == 1
        pr = rep[0]
        assert pr.p == pytest.approx(2.0, abs=1e-10)
        assert pr.rank == 1 and pr.is_max_mult
        assert pr.mass[0, 0] == pytest.approx(4.0)

    def test_two_atom_single_full_pole(self, two_atom):
        rep = classify(two_atom, np.zeros((2, 2)), (-5.0, 5.0))
        assert len(rep) == 1
        pr = rep[0]
        assert abs(pr.p) < 1e-10 and pr.rank == 2 and pr.is_max_mult

    def test_far_window_empty(self, two_atom):
        rep = classify(two_atom, np.zeros((2, 2)), (10.0, 11.0))
        assert rep == []
        # min singular value floor along the window
        for x in np.linspace(10, 11, 50):
            h = -integrate_cauchy(two_atom, x)
            assert np.linalg.svd(h, compute_uv=False)[-1] > 0.1

    def test_poles_sorted_and_ranks_bounded(self):
        rng = np.random.default_rng(41)
        omega = random_atomic_measure(rng, 3)
        m = HerglotzMatrix.from_measure(omega)
        lo, hi = omega.support_bounds()
        x0 = point_off_atoms(rng, omega, lo, hi)
        d = boundary_value(m, x0).m_boundary
        rep = classify(m, d, (lo - 1.0, hi + 1.0))
        ps = [pr.p for pr in rep]
        assert ps == sorted(ps)
        assert all(1 <= pr.rank <= 3 for pr in rep)
        assert all(pr.is_max_mult == (pr.rank == 3) for pr in rep)

    def test_rank_disagreement_is_reported(self, single_atom, single_atom_file, monkeypatch):
        monkeypatch.setattr(oracle, "matrix_rank",
                            lambda a, rank_tol: np.zeros(len(a), dtype=int))
        pr, = classify(single_atom, [[-0.5]], (-1.0, 5.0))
        assert (pr.rank, pr.kernel_dim, pr.is_max_mult) == (0, 1, False)
        trial, = run_verify(single_atom, 1, 7)["results"]
        assert not trial["ok"]
        assert "rank_disagrees" in [mm["kind"] for mm in trial["mismatches"]]
        assert main(["verify", "--measure", single_atom_file, "--trials", "1"]) == 1

    def test_criterion_disagreement_is_reported(self, two_atom, two_atom_file, capsys):
        # no residual meets tol_match = 1e-30: the criterion says "no" at
        # the oracle's max-mult pole, and the trial reports it
        omega = MatrixMeasure(2, two_atom.omega.atoms,
                              tols=DEFAULT_TOLS.with_overrides(tol_match=1e-30))
        trial, = run_verify(HerglotzMatrix.from_measure(omega), 1, 0)["results"]
        assert not trial["ok"]
        kinds = {mm["kind"] for mm in trial["mismatches"]}
        assert {"criterion_disagrees", "dprime_disagrees"} <= kinds
        assert "mass_disagrees" not in kinds
        assert main(["verify", "--measure", two_atom_file, "--trials", "1",
                     "--tol-match", "1e-30"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and '"ok": false' in captured.out


class TestLinearization:
    def test_singular_everywhere_raises(self):
        # every weight lives on e1, and D = C leaves H(x) e2 = 0 for all x
        omega = MatrixMeasure(2, [Atom(-1.0, np.diag([1.0, 0.0])),
                                  Atom(1.0, np.diag([1.0, 0.0]))])
        m = HerglotzMatrix.from_measure(omega)
        with pytest.raises(OracleError, match="singular"):
            real_poles(m, np.zeros((2, 2)), (-3.0, 3.0))

    def test_ill_conditioned_projection_raises_without_warning(self, two_atom, monkeypatch):
        monkeypatch.setattr(oracle, "t_matrix",
                            lambda m, xs: np.tile(np.diag([1.0, 1e-12]), (len(xs), 1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match="ill-conditioned"):
                residue_mass(two_atom, np.zeros((2, 2)), 0.0, 2)
