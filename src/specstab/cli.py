"""Command-line front end.

Commands: eval, boundary, tmatrix, masses, eigs, test, scan, verify.
Inputs are the JSON measure/matrix files documented in ``specstab.io``;
outputs go to stdout or --out as JSON (default) or CSV where meaningful.
At a real x, T(x) chooses the boundary-value path: closed form where it
is finite, the ε-limit where it diverges.
Exit codes: 0 ok, 1 verification mismatch, 2 input error (NaN or ±inf
among the real arguments included), 3 numerical failure (a limit that
did not converge, a numerically singular matrix).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .config import DEFAULT_TOLS
from .extensions import (extension_weyl, max_mult_test, max_mult_test_via,
                         weyl_of_extension)
from .herglotz import (ConditioningError, NotConvergedError, atom_mass,
                       boundary_value, evaluate, t_matrix)
from .io import dump_json, load_herglotz, load_hermitian, matrix_out
from .measure import is_divergent
from .oracle import classify
from .scan import ScanConfig, csv_header, record_to_dict, record_to_row, scan_forbidden
from .verify import run_verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# error type -> exit code, first match wins: ConditioningError is a
# ValueError (through LinAlgError), and every other ValueError, the input,
# precondition and oracle errors included, is an input error
EXIT_CODES = ((NotConvergedError, EXIT_NUMERIC), (ConditioningError, EXIT_NUMERIC),
              (ValueError, EXIT_INPUT))


# argument types: a bad value makes the parser exit with EXIT_INPUT
def finite_float(spec) -> float:
    """float(spec), rejecting NaN and ±inf with ValueError."""
    v = float(spec)
    if not math.isfinite(v):
        raise ValueError(f"not a finite real number: {spec!r}")
    return v


def _parse_grid(spec: str):
    try:
        a, b, steps = spec.split(":")
        return finite_float(a), finite_float(b), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b:steps with finite a, b, got {spec!r}")


def _parse_complex(spec: str) -> complex:
    try:
        if "," in spec:
            re, im = spec.split(",")
        else:
            z = complex(spec)
            re, im = z.real, z.imag
        return complex(finite_float(re), finite_float(im))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite complex number as RE,IM or python literal, got {spec!r}")


def _emit(doc, args):
    if args.out:
        with open(args.out, "w") as fh:
            dump_json(doc, fh)
    else:
        dump_json(doc, sys.stdout)


def _maybe_matrix(v):
    return matrix_out(v) if not is_divergent(v) else {"divergent_directions": list(v.directions)}


def _evidence_doc(ev) -> dict:
    doc = {"x": ev.x, "verdict": bool(ev.verdict), "residual": ev.residual,
           "t_finite": ev.t_finite}
    if ev.t_finite:
        doc["t"] = matrix_out(np.asarray(ev.t_value))
    else:
        doc["divergent_directions"] = list(ev.t_value.directions)
    if ev.m_boundary is not None:
        doc["m_boundary"] = matrix_out(ev.m_boundary)
    return doc


def cmd_eval(args, m, tols):
    if args.d_matrix:
        val = weyl_of_extension(m, load_hermitian(args.d_matrix), args.z)
    else:
        val = evaluate(m, args.z)
    _emit({"z": [args.z.real, args.z.imag], "value": matrix_out(val)}, args)
    return EXIT_OK


def cmd_boundary(args, m, tols):
    rep = boundary_value(m, args.x, tols)
    doc = {"x": rep.x, "converged": rep.converged, "t_finite": rep.t_finite,
           "t": _maybe_matrix(rep.t_matrix)}
    if rep.converged:
        doc["m_boundary"] = matrix_out(rep.m_boundary)
    _emit(doc, args)
    return EXIT_OK


def cmd_tmatrix(args, m, tols):
    t = t_matrix(m, args.x)
    _emit({"x": args.x, "t_finite": not is_divergent(t), "t": _maybe_matrix(t)}, args)
    return EXIT_OK


def cmd_masses(args, m, tols):
    fn = extension_weyl(m, load_hermitian(args.d_matrix)) if args.d_matrix else m
    w = atom_mass(fn, args.x, tols)
    _emit({"x": args.x, "mass": matrix_out(w)}, args)
    return EXIT_OK


def cmd_eigs(args, m, tols):
    d = load_hermitian(args.d_matrix)
    a, b, _ = args.grid
    report = classify(m, d, (a, b), tols)
    doc = {"interval": [a, b], "dim": m.dim, "measure": args.measure,
           "poles": [{"p": pr.p, "rank": pr.rank, "is_max_mult": pr.is_max_mult,
                      "mass": matrix_out(pr.mass)} for pr in report.poles]}
    _emit(doc, args)
    return EXIT_OK


def cmd_test(args, m, tols):
    d = load_hermitian(args.d_matrix)
    if args.d_prime:
        dp = load_hermitian(args.d_prime)
        ev = max_mult_test_via(m, d, dp, args.x, tols)
    else:
        ev = max_mult_test(m, d, args.x, tols)
    _emit(_evidence_doc(ev), args)
    return EXIT_OK


def cmd_scan(args, m, tols):
    a, b, steps = args.grid
    config = ScanConfig(a, b, steps)
    records = scan_forbidden(m.omega, config)
    n = m.dim
    if args.format == "csv":
        fh = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.writer(fh)
            writer.writerow(csv_header(n, config.m_schedule))
            for rec in records:
                writer.writerow(record_to_row(rec, n, config.m_schedule))
        finally:
            if args.out:
                fh.close()
    else:
        _emit({"grid": [a, b, steps], "records": [record_to_dict(r) for r in records]}, args)
    return EXIT_OK


def cmd_verify(args, m, tols):
    report = run_verify(m, args.trials, args.seed, tols)
    _emit(report, args)
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specstab",
        description="Spectral-stability toolkit: Herglotz matrix functions, "
                    "extension parameters, multiplicity criteria and scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_matrix=False, d_prime=False, x=False, z=False, grid=False,
               seed=False, trials=False):
        p.add_argument("--measure", required=True, help="measure JSON file")
        if d_matrix:
            p.add_argument("--d-matrix", help="Hermitian parameter JSON file")
        if d_prime:
            p.add_argument("--d-prime", help="second Hermitian parameter JSON file")
        if x:
            p.add_argument("--x", type=finite_float, required=True, help="real energy")
        if z:
            p.add_argument("--z", type=_parse_complex, required=True, help="complex point as RE,IM")
        if grid:
            p.add_argument("--grid", type=_parse_grid, required=True, help="a:b:steps")
        if trials:
            p.add_argument("--trials", type=int, default=10)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.add_argument("--tol-rank", type=finite_float, dest="tol_rank")
        p.add_argument("--tol-bv", type=finite_float, dest="tol_bv")
        p.add_argument("--tol-match", type=finite_float, dest="tol_match")
        p.add_argument("--tol-x", type=finite_float, dest="tol_x")

    p = sub.add_parser("eval", help="evaluate M(z) or M_D(z)")
    common(p, d_matrix=True, z=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("boundary", help="boundary value M(x+i0) and T(x)")
    common(p, x=True)
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("tmatrix", help="divergence matrix T(x)")
    common(p, x=True)
    p.set_defaults(fn=cmd_tmatrix)

    p = sub.add_parser("masses", help="point mass via -ieps M(x+ieps)")
    common(p, d_matrix=True, x=True)
    p.set_defaults(fn=cmd_masses)

    p = sub.add_parser("eigs", help="brute-force pole/multiplicity report")
    common(p, d_matrix=True, grid=True)
    p.set_defaults(fn=cmd_eigs)
    p = sub.add_parser("test", help="maximum-multiplicity criterion at x")
    common(p, d_matrix=True, d_prime=True, x=True)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("scan", help="forbidden-energy grid scan")
    common(p, grid=True)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="oracle-vs-criterion campaign")
    common(p, trials=True, seed=True)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tols = DEFAULT_TOLS.with_overrides(
            rank_tol=args.tol_rank, tol_bv=args.tol_bv,
            tol_match=args.tol_match, tol_x=args.tol_x)
        return args.fn(args, load_herglotz(args.measure, tols), tols)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
