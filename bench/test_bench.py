"""Tests of the benchmark's own parts: span arithmetic, the tracer's
bindings, the numpy scan reference and the seeded instance builders."""

import numpy as np
import pytest

import specstab
from specstab import (Divergent, PoissonSquareKernel, RegularizedKernel,
                      ScanConfig, integrate, scan_forbidden)

import instances
import tracer
from workloads import reference_scan


def test_self_times_on_synthetic_tree():
    # root [0,10] has children A [1,4], B [5,9] and C [8,9.5] (C overlaps B
    # and outlives the root's last child); A has child A1 [2,3]; a second
    # root R2 [11,12] has no children
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 12.0]
    parent = [-1, 0, 1, 0, 0, -1]
    got = tracer.self_times(start, end, parent)
    assert got == pytest.approx([10.0 - 3.0 - 4.5, 2.0, 1.0, 4.0, 1.5, 1.0])


def test_child_outliving_parent_only_covers_inside():
    got = tracer.self_times([0.0, 0.5], [1.0, 2.0], [-1, 0])
    assert got == pytest.approx([0.5, 1.5])


def test_union_length():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracer.union_length([]) == 0.0


def test_wrapped_calls_nest_and_aggregate():
    tr = tracer.Tracer()

    def leaf(x):
        return x + 1

    leaf_t = tr.wrap("a.leaf", leaf)
    outer_t = tr.wrap("b.outer", lambda x: leaf_t(x) + leaf_t(x))
    assert outer_t(1) == 4
    assert list(tr.parent) == [-1, 0, 0]
    prof = tr.profile()
    assert prof.get("a.leaf").calls == 2
    outer = prof.get("b.outer")
    assert outer.self_s == pytest.approx(outer.incl_s - prof.get("a.leaf").incl_s)
    assert prof.cover_s("a", "b") == pytest.approx(outer.incl_s)


def test_install_rebinds_every_namespace_and_restores():
    from specstab import herglotz, measure, oracle, scan
    original = measure.integrate
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (measure, scan, specstab):
            assert mod.integrate is not original
        assert oracle.integrate_cauchy is herglotz.integrate_cauchy
        assert scan.t_matrix is herglotz.t_matrix
        omega = instances.atomic_layout(np.random.default_rng(0), n=2, atoms=3).matrix_measure()
        scan.scan_forbidden(omega, ScanConfig(-2.0, 2.0, 3))
    finally:
        tr.uninstall()
    assert measure.integrate is original and scan.integrate is original
    prof = tr.profile()
    names = [tr.names[i] for i in tr.name]
    t_spans = [i for i, n in enumerate(names) if n == "herglotz.t_matrix"]
    assert len(t_spans) == 3
    # each T(x) evaluation integrates once, as a child of its t_matrix span
    assert all(names[i + 1] == "measure.integrate" and tr.parent[i + 1] == i
               for i in t_spans)
    assert prof.get("measure.integrate").calls == 3 * (1 + len(scan.DEFAULT_M_SCHEDULE))
    assert prof.get("measure.integrate").attrs["terms"] == 3 * prof.get("measure.integrate").calls


def test_numpy_reference_matches_integrate_on_tiny_mixed_measure():
    inst = instances.scan_instance(np.random.default_rng(3), n=2, atoms=6, pieces=2,
                                   steps=24, grid_atoms=2)
    omega = inst.layout.matrix_measure()
    grid = np.linspace(inst.lo, inst.hi, inst.steps)
    ms = (1, 8, 64)
    t_ref, bad_ref, reg_ref = reference_scan(inst.layout, grid, ms, omega.tols.tol_x)
    assert bad_ref.any(axis=1).sum() == inst.in_support.sum() > 0
    for g, x in enumerate(grid):
        t = integrate(PoissonSquareKernel(x), omega)
        if bad_ref[g].any():
            assert isinstance(t, Divergent)
            assert t.directions == tuple(np.flatnonzero(bad_ref[g]))
        else:
            np.testing.assert_allclose(t, t_ref[g], rtol=1e-12)
        for m in ms:
            reg = np.real(np.diag(integrate(RegularizedKernel(x, m), omega)))
            np.testing.assert_allclose(reg, reg_ref[m][g], rtol=1e-12)


def test_builders_are_deterministic_and_valid():
    def build(seed):
        rng = np.random.default_rng(seed)
        return (instances.scan_instance(rng, atoms=64, pieces=4, steps=80, grid_atoms=4),
                instances.atomic_layout(rng), instances.mixed_instance(rng))

    first, again, other = build(11), build(11), build(12)
    assert not np.array_equal(first[1].xs, other[1].xs)
    for a, b in zip(first, again):
        lay_a = getattr(a, "layout", a)
        lay_b = getattr(b, "layout", b)
        for field in ("xs", "W", "a", "b", "rho"):
            assert np.array_equal(getattr(lay_a, field), getattr(lay_b, field))

    scan_inst, atomic, mixed = first
    assert [q.x for q in mixed.queries] == [q.x for q in again[2].queries]
    for lay in (scan_inst.layout, atomic, mixed.layout):
        omega = lay.matrix_measure()          # runs MatrixMeasure validation
        assert len(omega.atoms) == len(lay.xs)
        assert np.diff(lay.xs).min() > 1e6 * omega.tols.tol_x
        assert np.all(lay.a[1:] > lay.b[:-1])
        assert not np.any((lay.a[None, :] <= lay.xs[:, None]) & (lay.xs[:, None] <= lay.b[None, :]))
        assert np.linalg.eigvalsh(lay.W.sum(axis=0)).min() > 0.0
    assert atomic.matrix_measure().purely_atomic

    ranks = [np.linalg.matrix_rank(w, tol=1e-9) for w in scan_inst.layout.W]
    assert 0.15 < np.mean(np.array(ranks) < 3) < 0.45
    grid = np.linspace(scan_inst.lo, scan_inst.hi, scan_inst.steps)
    omega = scan_inst.layout.matrix_measure()
    assert [omega.on_support(float(x)) for x in grid] == list(scan_inst.in_support)
    kinds = {q.kind for q in mixed.queries}
    assert kinds == {instances.OFF_SUPPORT, instances.IN_PIECE, instances.AT_ATOM}


def test_scan_check_accepts_library_output_and_rejects_a_perturbed_one():
    import workloads
    wl = workloads.ScanWide.__new__(workloads.ScanWide)
    wl.inst = instances.scan_instance(np.random.default_rng(5), atoms=32, pieces=2,
                                      steps=40, grid_atoms=3)
    wl.work_per_op = wl.inst.steps // wl.slices
    wl.setup()
    wl.prepare()
    for i in range(wl.slices):
        assert wl.check(i, scan_forbidden(wl.omega, wl.configs[i]))
    records = scan_forbidden(wl.omega, wl.configs[3])
    records[1].regularized_diagonals[4][0] *= 1.0 + 1e-6
    assert not wl.check(3, records)
    assert not wl.check(4, scan_forbidden(wl.omega, wl.configs[3]))
