import dataclasses
import math

import numpy as np
import pytest

from specstab import (DEFAULT_TOLS, ACPiece, Atom, ConditioningError, Divergent,
                      HerglotzMatrix, MatrixMeasure, NotConvergedError,
                      PreconditionError, atom_mass, boundary_value, evaluate,
                      hermitian_part, is_divergent, max_mult_test, max_mult_test_via,
                      t_matrix)
from specstab.herglotz import _I_EPS, _MINUS_I_EPS, EPS, richardson_limit

from helpers import random_herglotz


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

    def test_offset_of_the_wrong_shape_rejected(self, two_atom):
        with pytest.raises(ValueError, match=r"C must be 2x2, got \(3, 3\)"):
            HerglotzMatrix(np.eye(3), two_atom.omega)

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
            val, _, ok = richardson_limit(evaluate(m, x + 1j * EPS))
            assert ok
            assert np.linalg.norm(val - rep.m_boundary) < 1e-7

    def test_inside_ac_piece_limit_exists(self, unit_piece):
        # inside an AC piece the boundary value is the principal value plus
        # iπρ, in closed form: PV∫_{-1}^{1} dy/(y-x) = log((1-x)/(1+x)) and
        # the compensator is odd; T diverges there, so it is advisory only
        for x, want in [(0.5, -math.log(3.0)), (0.0, 0.0)]:
            rep = boundary_value(unit_piece, x)
            assert rep.converged and rep.eps_trace == []
            assert rep.t_matrix == Divergent((0,))
            assert abs(rep.m_boundary[0, 0] - want) <= 1e-14


    def test_atoms_and_jumps_have_no_limit_without_an_eps_limit(self, eps_calls):
        # an atom inside a piece and the piece ends, within tol_x: no limit,
        # decided from the mass at x; 2·tol_x inside is a piece interior
        omega = MatrixMeasure(1, [Atom(0.25, [[1.0]])], [ACPiece(-1.0, 1.0, [[1.0]])])
        m = HerglotzMatrix.from_measure(omega)
        tol_x = omega.tols.tol_x
        for x in (-1.0, -1.0 + tol_x / 2, 1.0 - tol_x / 2, 1.0 + tol_x / 2,
                  0.25, 0.25 - tol_x / 2):
            rep = boundary_value(m, x)
            assert not rep.converged and rep.m_boundary is None and not rep.t_finite, x
        for x in (-1.0 + 2 * tol_x, 0.25 + 2 * tol_x, 0.5):
            assert boundary_value(m, x).converged, x
        assert eps_calls == []

    def test_a_matched_junction_is_the_principal_value(self):
        # density 1 on [0, 1] and on [1, 3]: M(1+i0) = log 2 - log(10)/2 + iπ,
        # exactly the one-piece value on [0, 3]
        one = HerglotzMatrix.from_measure(MatrixMeasure(1, ac_pieces=[ACPiece(0.0, 3.0, [[1.0]])]))
        two = HerglotzMatrix.from_measure(MatrixMeasure(
            1, ac_pieces=[ACPiece(0.0, 1.0, [[1.0]]), ACPiece(1.0, 3.0, [[1.0]])]))
        want = math.log(2.0) - 0.5 * math.log(10.0)
        for m in (one, two):
            rep = boundary_value(m, 1.0)
            assert rep.converged and rep.t_matrix == Divergent((0,))
            assert abs(rep.m_boundary[0, 0] - want) <= 1e-15
        # unequal densities jump: no limit
        jump = HerglotzMatrix.from_measure(MatrixMeasure(
            1, ac_pieces=[ACPiece(0.0, 1.0, [[1.0]]), ACPiece(1.0, 3.0, [[2.0]])]))
        assert not boundary_value(jump, 1.0).converged


class TestOnePointMemo:
    """T(x) and M(x) at the last real point, kept on the HerglotzMatrix."""

    def test_both_criteria_at_one_point_integrate_once(self, two_atom, real_x_calls):
        d = boundary_value(two_atom, 0.5).m_boundary
        ev = max_mult_test_via(two_atom, d, d + np.eye(2), 0.5)
        assert ev.verdict and real_x_calls == ["t_matrix", "integrate_cauchy"]
        assert max_mult_test(two_atom, d, 0.5).verdict
        assert len(real_x_calls) == 2

    def test_another_point_misses(self, two_atom, real_x_calls):
        for x in (0.5, 0.25, 0.0, -0.0, 0.0, 0.0):
            boundary_value(two_atom, x)
        assert real_x_calls == ["t_matrix", "integrate_cauchy"] * 5

    def test_equal_matrices_keep_their_own_slot(self, two_atom, real_x_calls):
        twin = dataclasses.replace(two_atom)
        assert twin.C is two_atom.C and twin.omega is two_atom.omega and repr(twin) == repr(two_atom)
        boundary_value(two_atom, 0.5)
        boundary_value(twin, 0.5)
        assert len(real_x_calls) == 4

    def test_handed_out_matrices_are_read_only(self, two_atom):
        rep = boundary_value(two_atom, 0.5)
        before = rep.m_boundary.tobytes(), rep.t_matrix.tobytes()
        ev = max_mult_test(two_atom, rep.m_boundary, 0.5)
        for a in (rep.m_boundary, rep.t_matrix, ev.m_boundary, ev.t_value):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 7.0
        again = boundary_value(two_atom, 0.5)
        assert (again.m_boundary.tobytes(), again.t_matrix.tobytes()) == before


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_input_errors(two_atom, x):
    # NaN used to give a NaN T that reported t_finite, ±inf a true verdict
    # with T = 0, and the second-parameter test a bare LinAlgError
    d, dp = np.zeros((2, 2)), np.eye(2)
    calls = [lambda: max_mult_test(two_atom, d, x),
             lambda: max_mult_test(two_atom, d, [0.0, x]),
             lambda: max_mult_test_via(two_atom, d, dp, x),
             lambda: boundary_value(two_atom, x),
             lambda: t_matrix(two_atom, x),
             lambda: t_matrix(two_atom, np.array([x, 0.5]))]
    for call in calls:
        with pytest.raises(PreconditionError, match="finite") as info:
            call()
        assert not isinstance(info.value, np.linalg.LinAlgError)


def diag_stack(*columns):
    """The stack of diagonal matrices whose i-th diagonal entry runs
    through columns[i] (one entry per ε)."""
    cols = np.broadcast_arrays(*columns)
    out = np.zeros(cols[0].shape + (len(cols), len(cols)), dtype=complex)
    for i, c in enumerate(cols):
        out[:, i, i] = c
    return out


class TestRichardsonLimit:
    FULL = len(EPS)

    def test_blow_up_uses_the_whole_schedule(self):
        # convergence is the one stopping rule: a limit that grows without
        # bound is not converged after every sample, as an oscillation is
        for diverging in (1.0 / EPS, 1j / EPS):
            val, trace, ok = richardson_limit(diag_stack(diverging, 1.0))
            assert val is None and not ok and len(trace) == self.FULL

    def test_oscillation_is_undecided(self):
        val, trace, ok = richardson_limit(np.sin(1.0 / EPS)[:, None, None])
        assert val is None and not ok
        assert len(trace) == self.FULL


def sequential_limit(sample, tols=DEFAULT_TOLS):
    """Reference for richardson_limit: the scan as a loop that asks for one
    ε at a time, so it stops sampling where it converges; ``sample(eps)``
    raises ConditioningError where the sample cannot be formed."""
    schedule = EPS.tolist()
    prev = sample(schedule[0])
    trace = [(schedule[0], prev)]
    prev_r = None
    for eps in schedule[1:]:
        cur = sample(eps)
        trace.append((eps, cur))
        r = 2.0 * cur - prev
        if (prev_r is not None and np.linalg.norm(r - prev_r)
                <= tols.tol_bv * max(1.0, float(np.linalg.norm(r)))):
            return r, trace, True
        prev, prev_r = cur, r
    return None, trace, False


_A = np.array([[2.0, 1j, 0.0], [-1j, 3.0, 0.5], [0.0, 0.5, -1.0]])
_B = np.array([[1.0, 0.0, 2j], [0.0, -4.0, 0.0], [-2j, 0.0, 0.5]])
SEQUENCES = {
    "linear": lambda e: _A + 3.0 * e * _B,
    "quadratic": lambda e: _A + 5.0 * e ** 2 * _B + 7.0 * e ** 3 * np.eye(3),
    "sqrt": lambda e: _A + np.sqrt(e) * _B,
    "blow_up": lambda e: _A + np.diag([1.0 / e, 0.0, 0.0]),
    "blow_up_imaginary": lambda e: _A + 1j * _B / e ** 2,
    "oscillating": lambda e: np.sin(1.0 / e) * _B,
    # a small oscillation growing like 1/ε delays convergence to sample 33
    # at first order; one growing like 1/ε² never settles
    "noise_then_converged": lambda e: _A + 5.0 * e ** 2 * _B + 1e-13 * np.sin(1e9 * e) * _B / e,
    "noise_blow_up": lambda e: _A + 3.0 * e * _B + 1e-12 * np.cos(e ** -0.5) * _B / e ** 2,
}


def _samplers(fn, unformed):
    """The same sequence as a scalar sampler that raises and as the stack
    on ``EPS`` that marks the unformed schedule indices with NaN."""
    schedule = EPS.tolist()

    def scalar(e):
        if schedule.index(e) in unformed:
            raise ConditioningError(f"no sample at eps={e}")
        return np.asarray(fn(e), dtype=complex)

    stacked = np.array([fn(e) for e in schedule], dtype=complex)
    stacked[list(unformed)] = np.nan
    return scalar, stacked


def _run(limit, sampler, tols):
    try:
        return limit(sampler, tols)
    except ConditioningError:
        return "raised"


class TestVectorizedScan:
    # the default tol_bv, and the looser one of verify's ε mass
    @pytest.mark.parametrize("tol_bv", [DEFAULT_TOLS.tol_bv, 1e-6])
    @pytest.mark.parametrize("unformed", [(), (0,), (3,), (6, 7), (12,), (30,), (40,)])
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_matches_the_sequential_loop(self, name, unformed, tol_bv):
        scalar, stacked = _samplers(SEQUENCES[name], set(unformed))
        tols = DEFAULT_TOLS.with_overrides(tol_bv=tol_bv)
        want = _run(sequential_limit, scalar, tols)
        got = _run(richardson_limit, stacked, tols)
        if want == "raised" or got == "raised":
            assert got == want
            return
        (v0, trace0, ok0), (v1, trace1, ok1) = want, got
        assert ok1 == ok0
        assert [e for e, _ in trace1] == [e for e, _ in trace0]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(trace1, trace0))
        if v0 is None:
            assert v1 is None
        else:
            assert np.array_equal(v1, v0)

    def test_every_kind_of_outcome_is_covered(self):
        outcomes = set()
        for fn in SEQUENCES.values():
            _, trace, ok = sequential_limit(_samplers(fn, set())[0], DEFAULT_TOLS)
            assert ok or len(trace) == len(EPS)
            outcomes.add("converged early" if ok and len(trace) < 20 else
                         "converged late" if ok else "not converged")
        assert outcomes == {"converged early", "converged late", "not converged"}

    def test_raises_only_for_an_unformed_sample_it_consumes(self):
        fn = SEQUENCES["quadratic"]
        _, trace, ok = richardson_limit(_samplers(fn, set())[1])
        used = len(trace)
        assert ok and used < len(EPS)
        # singular only after the stop: never looked at, no error
        val, trace, ok = richardson_limit(_samplers(fn, {used, used + 5})[1])
        assert ok and len(trace) == used
        # singular at the last sample the scan consumes: an error
        with pytest.raises(ConditioningError, match="eps="):
            richardson_limit(_samplers(fn, {used - 1})[1])

    def test_schedule_is_a_read_only_constant(self):
        np.testing.assert_array_equal(EPS, 1e-2 * 0.5 ** np.arange(41))
        with pytest.raises(ValueError, match="read-only"):
            EPS[0] = 1.0

    @pytest.mark.parametrize("size", [0, 40, 42])
    def test_a_stack_of_another_length_is_rejected(self, size):
        with pytest.raises(ValueError, match="41"):
            richardson_limit(np.ones((size, 1, 1)))


def one_call_mass(f, x, tols=DEFAULT_TOLS):
    """Reference for atom_mass: one richardson_limit call on the whole schedule."""
    val, _, ok = richardson_limit(_MINUS_I_EPS * np.asarray(f(x + _I_EPS)), tols)
    if not ok:
        raise NotConvergedError(f"atom mass limit at x={x} did not converge")
    return hermitian_part(val)


def _weyl_like(fn, unformed, sizes):
    """A callable on a batch z = iε over ε of the schedule whose -iε-scaled
    samples follow fn, NaN at the unformed schedule indices (by ε, not by
    place in the batch); it records the size of each batch it is given."""
    schedule = EPS.tolist()

    def f(zs):
        sizes.append(len(zs))
        eps = zs.imag.tolist()
        out = np.array([1j * fn(e) / e for e in eps], dtype=complex)
        out[[k for k, e in enumerate(eps) if schedule.index(e) in unformed]] = np.nan
        return out
    return f


class TestStagedLimit:
    HALF = len(EPS) // 2

    @pytest.mark.parametrize("tol_bv", [DEFAULT_TOLS.tol_bv, 1e-6])
    @pytest.mark.parametrize("unformed", [(), (3,), (12,), (19,), (20,), (30,), (40,)])
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_the_first_half_gives_the_whole_stacks_bits(self, name, unformed, tol_bv):
        _, stacked = _samplers(SEQUENCES[name], set(unformed))
        tols = DEFAULT_TOLS.with_overrides(tol_bv=tol_bv)
        whole = _run(richardson_limit, stacked, tols)
        half = _run(richardson_limit, stacked[:self.HALF], tols)
        if half == "raised":
            assert whole == "raised"
        elif half[2]:
            assert whole != "raised" and whole[2]
            assert half[0].tobytes() == whole[0].tobytes()
            assert [e for e, _ in half[1]] == [e for e, _ in whole[1]]
            assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(half[1], whole[1]))
        else:   # unsettled: every sample of the half consumed, none past it
            assert half[0] is None and len(half[1]) == self.HALF
            assert whole == "raised" or len(whole[1]) > self.HALF

    @pytest.mark.parametrize("unformed", [(), (5,), (19,), (25,), (40,)])
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_atom_mass_is_one_call_on_the_whole_schedule(self, name, unformed):
        # the same mass bits, or the same error, as the single call it replaced
        def outcome(mass, sizes):
            f = _weyl_like(SEQUENCES[name], unformed, sizes)
            try:
                return mass(f, 0.0).tobytes()
            except (ConditioningError, NotConvergedError) as exc:
                return type(exc)

        whole, sizes = [], []
        assert outcome(atom_mass, sizes) == outcome(one_call_mass, whole)
        assert sizes in ([self.HALF], [self.HALF, len(EPS) - self.HALF])

    @pytest.mark.parametrize("name, sizes", [("quadratic", [20]),
                                             ("noise_then_converged", [20, 21]),
                                             ("oscillating", [20, 21])])
    def test_the_whole_schedule_only_where_the_half_does_not_settle(self, name, sizes):
        seen = []
        f = _weyl_like(SEQUENCES[name], (), seen)
        if name == "oscillating":
            with pytest.raises(NotConvergedError, match="x=0.0"):
                atom_mass(f, 0.0)
            assert seen == sizes
        else:
            got = atom_mass(f, 0.0).tobytes()
            assert seen == sizes
            assert got == one_call_mass(f, 0.0).tobytes()

    def test_a_sample_of_another_length_is_named(self):
        with pytest.raises(ValueError, match="41 or 20"):
            richardson_limit(np.ones((21, 1, 1)))


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

    def test_a_limit_that_blows_up_does_not_converge(self):
        # -iε f(1 + iε) = i/ε·I for f(z) = I/(z - 1)²: no finite mass
        with pytest.raises(NotConvergedError, match="x=1.0"):
            atom_mass(lambda z: np.eye(2) / ((z - 1.0) ** 2)[:, None, None], 1.0)

    def test_extension_weyl_mass(self, two_atom):
        # M_D with D=0 is (z^2-1)/(2z) I; residue at 0 gives I/2
        from specstab.extensions import extension_weyl
        fn = extension_weyl(two_atom, np.zeros((2, 2)))
        assert np.allclose(atom_mass(fn, 0.0), np.eye(2) / 2, atol=1e-8)

    def test_reads_the_measures_tolerances(self, tol_bv_seen):
        # a HerglotzMatrix brings its own tol_bv; another callable the default
        omega = MatrixMeasure(1, [Atom(2.0, [[1.0]])], [ACPiece(0.0, 1.0, [[1.0]])],
                              tols=DEFAULT_TOLS.with_overrides(tol_bv=1e-3))
        m = HerglotzMatrix.from_measure(omega)
        assert atom_mass(m, 2.0)[0, 0] == pytest.approx(1.0, abs=1e-3)
        atom_mass(lambda z: evaluate(m, z), 2.0)
        atom_mass(m, 2.0, DEFAULT_TOLS)
        assert tol_bv_seen == [1e-3, DEFAULT_TOLS.tol_bv, DEFAULT_TOLS.tol_bv]

    def test_mass_consistency_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = random_herglotz(rng, with_offset=False)
            for at in m.omega.atoms:
                got = atom_mass(m, at.x)
                assert np.linalg.norm(got - at.W) < 1e-6
