"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines.
"""

import json
import time

import numpy as np
import pytest

from specstab import (ACPiece, Atom, HerglotzMatrix, MatrixMeasure,
                      ScanConfig, classify, evaluate, extension_for_point,
                      mass_at_max_mult, max_mult_test, max_mult_test_via,
                      scan_forbidden, t_matrix)
from specstab.extensions import extension_weyl
from specstab.herglotz import atom_mass, boundary_value, richardson_limit
from specstab.oracle import residue_mass
from specstab.randgen import point_off_atoms, random_gap_matrix
from specstab.verify import run_verify

from helpers import (random_atomic_measure, random_herglotz, random_hermitian,
                     resolvent_identity_residual)


def report(name, detail=""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_herglotz_contract():
    """1000 random (measure, z), Im z > 0: positivity and conjugate symmetry."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    measures = [random_herglotz(rng) for _ in range(50)]
    worst_eig, worst_sym = 0.0, 0.0
    for _ in range(1000):
        m = measures[int(rng.integers(len(measures)))]
        z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 4.0))
        v = evaluate(m, z)
        im = (v - v.conj().T) / 2j
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(im).min()))
        worst_sym = max(worst_sym, float(np.linalg.norm(evaluate(m, np.conj(z)) - v.conj().T)))
    dt = time.time() - t0
    assert worst_eig >= -1e-10
    assert worst_sym <= 1e-10
    assert dt < 5.0
    report("1 Herglotz contract",
           f"min eig {worst_eig:.2e}, sym defect {worst_sym:.2e}, {dt:.2f}s")


def test_criterion_2_resolvent_identity():
    """1000 random (M, D, D', z): both composed forms within 1e-10 relative."""
    rng = np.random.default_rng(1002)
    t0 = time.time()
    measures = [random_herglotz(rng) for _ in range(50)]
    worst = 0.0
    count = 0
    while count < 1000:
        m = measures[int(rng.integers(len(measures)))]
        n = m.dim
        d = random_hermitian(rng, n)
        dp = random_hermitian(rng, n)
        z = complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * rng.uniform(0.1, 3.0))
        # keep the brackets well-conditioned, as the criterion stipulates
        mdp = extension_weyl(m, dp)(z)
        br = (d - dp) @ mdp + np.eye(n)
        if np.linalg.svd(br, compute_uv=False)[-1] < 1e-3:
            continue
        worst = max(worst, resolvent_identity_residual(m, d, dp, z))
        count += 1
    dt = time.time() - t0
    assert worst <= 1e-10
    assert dt < 5.0
    report("2 resolvent identity", f"worst relative residual {worst:.2e}, {dt:.2f}s")


def test_criterion_3_mass_recovery():
    """Every atom of 50 random atomic measures recovered to 1e-6."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        m = random_herglotz(rng, with_offset=False)
        for at in m.omega.atoms:
            got = atom_mass(m, at.x)
            worst = max(worst, float(np.linalg.norm(got - at.W)))
    assert worst <= 1e-6
    report("3 mass recovery", f"worst mass error {worst:.2e}")


@pytest.fixture(scope="module")
def equivalence_campaign():
    """50 random atomic instances: oracle vs criterion, shared by 4 and 5."""
    rng = np.random.default_rng(1004)
    t0 = time.time()
    instances = []
    for _ in range(50):
        n = int(rng.integers(1, 4))
        omega = random_atomic_measure(rng, n)
        m = HerglotzMatrix.from_measure(omega)
        lo, hi = omega.support_bounds()
        x0 = point_off_atoms(rng, omega, lo - 0.5, hi + 0.5)
        d = boundary_value(m, x0).m_boundary
        a = lo - 1.0 - float(rng.uniform(0, 0.3))
        b = hi + 1.0 + float(rng.uniform(0, 0.3))
        rep = classify(m, d, (a, b))
        instances.append((m, d, x0, rep, rng.integers(2 ** 32)))
    return instances, time.time() - t0


def test_criterion_4_theorem_equivalence(equivalence_campaign):
    """Oracle classification agrees exactly with the boundary criterion."""
    instances, build_dt = equivalence_campaign
    t0 = time.time()
    worst_x, worst_mass = np.inf, 0.0
    for m, d, x0, rep, _ in instances:
        oracle_max = [pr.p for pr in rep if pr.is_max_mult]
        # constructed point appears among the oracle's max-mult poles
        gap = min((abs(p - x0) for p in oracle_max), default=np.inf)
        assert gap <= 1e-9, f"constructed point {x0} missed by the oracle"
        worst_x = min(worst_x, gap) if gap < worst_x else worst_x
        # criterion verdict matches the oracle at every pole, both ways
        for pr in rep:
            ev = max_mult_test(m, d, pr.p)
            assert ev.verdict == pr.is_max_mult, (
                f"disagreement at p={pr.p}: oracle {pr.is_max_mult}, "
                f"criterion {ev.verdict} (residual {ev.residual:.2e})")
            if pr.is_max_mult:
                mass = mass_at_max_mult(m, d, pr.p)
                err = float(np.linalg.norm(mass - residue_mass(m, d, pr.p, pr.rank)))
                worst_mass = max(worst_mass, err)
                assert err <= 1e-6
    dt = build_dt + (time.time() - t0)
    assert dt < 60.0
    report("4 theorem equivalence (central)",
           f"50 instances, worst mass gap {worst_mass:.2e}, {dt:.1f}s")


def test_criterion_5_second_parameter(equivalence_campaign):
    """The D'-criterion agrees on every max-mult point, 5 random D' each."""
    instances, _ = equivalence_campaign
    checked = 0
    for m, d, x0, rep, seed in instances:
        rng = np.random.default_rng(seed)
        n = m.dim
        for pr in rep:
            if not pr.is_max_mult:
                continue
            for _ in range(5):
                dp = d + random_gap_matrix(rng, n, min_abs_eig=1e-3)
                ev = max_mult_test_via(m, d, dp, pr.p)
                assert ev.verdict, (
                    f"D'-criterion failed at p={pr.p} (residual {ev.residual:.2e})")
                checked += 1
    report("5 second-parameter criterion", f"{checked} (point, D') checks")


def test_criterion_6_union_theorem_scan():
    """2000-point scan of a mixed measure: finite-T points are all attainable."""
    t0 = time.time()
    omega = MatrixMeasure(2,
                          [Atom(-2.0, np.diag([1.0, 0.5])), Atom(2.0, np.eye(2))],
                          [ACPiece(0.0, 1.0, 0.3 * np.eye(2))])
    m = HerglotzMatrix.from_measure(omega)
    records = scan_forbidden(omega, ScanConfig(-3.0, 3.0, steps=2000))
    n_finite = 0
    for rec in records:
        on_atom = omega.mass_at(rec.x)[0].any()
        in_ac = 0.0 < rec.x < 1.0
        if on_atom or in_ac:
            assert not rec.t_finite, f"support point x={rec.x} reported finite T"
        if rec.t_finite:
            d = extension_for_point(m, rec.x)
            assert d is not None
            assert max_mult_test(m, d, rec.x).verdict, f"union theorem fails at {rec.x}"
            n_finite += 1
    dt = time.time() - t0
    assert dt < 30.0
    report("6 union theorem scan", f"{n_finite} attainable grid points, {dt:.1f}s")


def test_criterion_7_closed_form_fixtures(single_atom, two_atom):
    """Hand-computable fixtures reproduce to 1e-10."""
    assert abs(evaluate(single_atom, 1j)[0, 0] - 1j) <= 1e-10
    for z in [2j, 1.5 + 0.25j]:
        assert np.linalg.norm(evaluate(two_atom, z)
                              - (-2 * z / (z * z - 1)) * np.eye(2)) <= 1e-10
    rep1 = classify(single_atom, [[-0.5]], (-1.0, 5.0))
    assert len(rep1) == 1
    assert abs(rep1[0].p - 2.0) <= 1e-10
    assert abs(rep1[0].mass[0, 0] - 4.0) <= 1e-10
    rep2 = classify(two_atom, np.zeros((2, 2)), (-5.0, 5.0))
    assert len(rep2) == 1
    assert abs(rep2[0].p) <= 1e-10
    assert np.linalg.norm(rep2[0].mass - np.eye(2) / 2) <= 1e-10
    assert np.linalg.norm(np.asarray(t_matrix(two_atom, 0.0)) - 2 * np.eye(2)) <= 1e-10
    report("7 closed-form fixtures")


def test_criterion_8_verify_determinism(two_atom):
    """Identical seeds produce byte-identical verification reports."""
    r1 = run_verify(two_atom, trials=4, seed=20260826)
    r2 = run_verify(two_atom, trials=4, seed=20260826)
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    assert r1["ok"] and b1 == b2
    report("8 verify determinism", f"{len(b1)} byte report")
