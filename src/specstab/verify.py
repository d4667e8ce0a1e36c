"""Oracle-vs-criterion verification campaigns.

Each trial picks a point x0 off the atoms, takes D := M(x0+i0) so that x0
is a maximum-multiplicity point by construction, and then demands that

  * the brute-force pole scan finds x0 among its maximum-multiplicity
    poles (to x-tolerance), with no other disagreement: the boundary
    criterion holds exactly at the oracle's max-mult poles and fails at
    the rest;
  * the rank of every residue mass equals the kernel dimension at its
    pole;
  * the residue mass, the eps-limit mass and T(x)^{-1} all agree;
  * the second-parameter criterion gives the same verdict for several
    random well-separated D'.

Reports are plain dicts, deterministic given the seed, so serialized
output is byte-identical across reruns.
"""

from __future__ import annotations

import numpy as np

from .extensions import (_inv_certified, extension_for_point, extension_weyl,
                         max_mult_test, max_mult_test_via)
from .herglotz import ConditioningError, HerglotzMatrix, atom_mass, integrate_cauchy
from .io import matrix_out
from .measure import MatrixMeasure, _fro, is_count, shown
from .oracle import classify
from .randgen import point_off_atoms, random_gap_matrix


X_AGREE_TOL = 1e-9
MASS_AGREE_TOL = 1e-6
N_DPRIME = 3        # random second parameters D' tried per max-mult pole


def _scan_window(rng, omega: MatrixMeasure, x0: float, m: HerglotzMatrix, d):
    """Bounded window containing x0 and all atoms, each end's D - M with its
    smallest singular value above 1e-6 (``_inv_certified``)."""
    lo, hi = omega.support_bounds()
    lo = min(lo, x0) - 0.5
    hi = max(hi, x0) + 0.5
    for _ in range(50):
        a = lo - float(rng.uniform(0.0, 0.5))
        b = hi + float(rng.uniform(0.0, 0.5))
        if _inv_certified(d.D - integrate_cauchy(m, np.array([a, b])), 0.0, 1e-6)[1].all():
            return a, b
    raise ConditioningError("could not pick nonsingular window endpoints")


def run_trial(rng: np.random.Generator, m: HerglotzMatrix) -> dict:
    """One equivalence trial on a purely atomic Herglotz function."""
    omega = m.omega
    n = m.dim
    lo, hi = omega.support_bounds()
    x0 = point_off_atoms(rng, omega, lo - 1.0, hi + 1.0)
    # T(x0) is finite off the atoms; every criterion and oracle call takes d as is
    d = extension_for_point(m, x0)
    window = _scan_window(rng, omega, x0, m, d)
    poles = classify(m, d, window)

    mismatches = []
    oracle_max = [pr.p for pr in poles if pr.is_max_mult]
    if not any(abs(p - x0) <= X_AGREE_TOL for p in oracle_max):
        mismatches.append({"kind": "missed_constructed_point", "x0": x0,
                           "oracle_max_mult": oracle_max})

    pole_rows = []
    evidence = max_mult_test(m, d, np.array([pr.p for pr in poles]))
    for pr, ev in zip(poles, evidence):
        row = {"p": pr.p, "rank": pr.rank, "oracle_max_mult": pr.is_max_mult,
               "criterion": bool(ev.verdict), "residual": ev.residual}
        if ev.verdict != pr.is_max_mult:
            mismatches.append({"kind": "criterion_disagrees", **row})
        if pr.rank != pr.kernel_dim:
            mismatches.append({"kind": "rank_disagrees", "kernel_dim": pr.kernel_dim, **row})
        if pr.is_max_mult:
            mass_t = ev.mass()
            # the pole location carries up to ~1e-13 error, which caps the
            # attainable eps-limit precision well above tol_bv
            mass_eps = atom_mass(extension_weyl(m, d), pr.p,
                                 omega.tols.with_overrides(tol_bv=1e-6))
            d_res = _fro(mass_t - pr.mass)
            d_eps = _fro(mass_eps - pr.mass)
            row["mass_residue_vs_tinv"] = d_res
            row["mass_residue_vs_eps"] = d_eps
            if max(d_res, d_eps) > MASS_AGREE_TOL:
                mismatches.append({"kind": "mass_disagrees", **row})
            via_ok = True
            for _ in range(N_DPRIME):
                dp = d.D + random_gap_matrix(rng, n)
                ev2 = max_mult_test_via(m, d, dp, pr.p)
                via_ok = via_ok and bool(ev2.verdict)
            row["dprime_criterion"] = via_ok
            if not via_ok:
                mismatches.append({"kind": "dprime_disagrees", **row})
        pole_rows.append(row)

    return {
        "x0": x0,
        "d_matrix": matrix_out(d.D),
        "window": list(window),
        "poles": pole_rows,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_verify(m: HerglotzMatrix, trials: int, seed: int) -> dict:
    """Full campaign on one measure; deterministic given the seed."""
    if not m.omega.purely_atomic:
        raise ValueError("verification campaigns require a purely atomic measure")
    if not is_count(trials) or trials < 1:
        raise ValueError(f"a campaign needs at least one trial, as an integer, got {shown(trials)}")
    rng = np.random.default_rng(seed)
    results = [run_trial(rng, m) for _ in range(trials)]
    ok = all(r["ok"] for r in results)
    return {"seed": int(seed), "trials": int(trials), "dim": m.dim,
            "ok": ok, "results": results}
