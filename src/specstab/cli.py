"""Command-line front end.

Commands: eval, boundary, tmatrix, masses, eigs, test, scan, verify, each
declaring only the options it reads (``build_parser`` lists them).
Inputs are the JSON measure/matrix files documented in ``specstab.io``.
Each command returns its document, which ``main`` alone writes to stdout or
--out: as JSON, or as CSV rows for ``scan --format csv``.
Only ``masses`` takes an ε-limit, so only it reads --tol-bv.
Exit codes: 0 ok, 1 a ``verify`` report whose "ok" is false, 2 input error
(NaN or ±inf in an argument, which the library check reading it rejects, or
in a matrix entry, a malformed file or an unwritable --out included), 3
numerical failure (a limit that did not converge, a numerically singular matrix).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import re
import sys

import numpy as np

from .extensions import extension_weyl, max_mult_test, max_mult_test_via
from .herglotz import (ConditioningError, NotConvergedError, atom_mass,
                       boundary_value, t_matrix)
from .io import dump_json, load_herglotz, load_hermitian, matrix_out
from .measure import DEFAULT_TOLS, is_divergent, shown
from .oracle import classify
from .scan import ScanConfig, csv_header, record_to_dict, record_to_row, scan_forbidden
from .verify import run_verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# error type -> exit code, first match wins: ConditioningError is a
# ValueError (through LinAlgError), and every other ValueError, the input,
# precondition and oracle errors included, is an input error; so is an
# OSError, which only writing the document can raise (reads raise InputError)
EXIT_CODES = ((NotConvergedError, EXIT_NUMERIC), (ConditioningError, EXIT_NUMERIC),
              (ValueError, EXIT_INPUT), (OSError, EXIT_INPUT))


# argument types: a value that does not parse exits EXIT_INPUT; NaN and ±inf parse
def _parse_grid(spec: str):
    try:
        a, b, steps = spec.split(":")
        return float(a), float(b), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b:steps, got {shown(spec)}")


def _parse_complex(spec: str) -> complex:
    try:
        if "," not in spec:
            return complex(spec)
        re, im = spec.split(",")
        return complex(float(re), float(im))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex number as RE,IM or python literal, got {shown(spec)}")


def _emit(doc, out, fmt):
    """doc to the file out or stdout: as JSON, or for fmt "csv" as a list of rows."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "csv":
            csv.writer(fh).writerows(doc)
        else:
            dump_json(doc, fh)


def _maybe_matrix(v):
    return matrix_out(v) if not is_divergent(v) else {"divergent_directions": list(v.directions)}


def _weyl(args, m):
    """M, or M_D = (D - M)^{-1} when --d-matrix names D: a function of z."""
    return extension_weyl(m, load_hermitian(args.d_matrix)) if args.d_matrix else m


def cmd_eval(args, m):
    return {"z": [args.z.real, args.z.imag], "value": matrix_out(_weyl(args, m)(args.z))}


def cmd_boundary(args, m):
    rep = boundary_value(m, args.x)
    doc = {"x": rep.x, "converged": rep.converged, "t_finite": rep.t_finite,
           "t": _maybe_matrix(rep.t_matrix)}
    if rep.converged:
        doc["m_boundary"] = matrix_out(rep.m_boundary)
    return doc


def cmd_tmatrix(args, m):
    t = t_matrix(m, args.x)
    return {"x": args.x, "t_finite": not is_divergent(t), "t": _maybe_matrix(t)}


def cmd_masses(args, m):
    return {"x": args.x, "mass": matrix_out(atom_mass(_weyl(args, m), args.x, m.omega.tols))}


def cmd_eigs(args, m):
    d = load_hermitian(args.d_matrix)
    a, b, _ = args.grid
    return {"interval": [a, b], "dim": m.dim, "measure": args.measure,
            "poles": [{"p": pr.p, "rank": pr.rank, "is_max_mult": pr.is_max_mult,
                       "mass": matrix_out(pr.mass)} for pr in classify(m, d, (a, b))]}


def cmd_test(args, m):
    d = load_hermitian(args.d_matrix)
    if args.d_prime:
        ev = max_mult_test_via(m, d, load_hermitian(args.d_prime), args.x)
    else:
        ev = max_mult_test(m, d, args.x)
    doc = {"x": ev.x, "verdict": bool(ev.verdict), "residual": ev.residual,
           "t_finite": ev.t_finite}
    if ev.t_finite:
        doc["t"] = matrix_out(np.asarray(ev.t_value))
    else:
        doc["divergent_directions"] = list(ev.t_value.directions)
    if ev.m_boundary is not None:
        doc["m_boundary"] = matrix_out(ev.m_boundary)
    return doc


def cmd_scan(args, m):
    a, b, steps = args.grid
    records = scan_forbidden(m.omega, ScanConfig(a, b, steps))
    if args.format == "csv":
        return [csv_header(m.dim), *(record_to_row(rec, m.dim) for rec in records)]
    return {"grid": [a, b, steps], "records": [record_to_dict(r) for r in records]}


def cmd_verify(args, m):
    return run_verify(m, args.trials, args.seed)


# every option a command may declare; argparse derives each dest from the flag
OPTIONS = {
    "--measure": dict(help="measure JSON file"),
    "--d-matrix": dict(help="Hermitian parameter JSON file"),
    "--d-prime": dict(help="second Hermitian parameter JSON file"),
    "--x": dict(type=float, help="real energy"),
    "--z": dict(type=_parse_complex, help="complex point as RE,IM"),
    "--grid": dict(type=_parse_grid, help="a:b:steps"),
    "--trials": dict(type=int, default=10),
    "--seed": dict(type=int, default=0),
    "--out": dict(help="output file (default stdout)"),
    "--format": dict(choices=["csv", "json"], default="json"),
    **{f"--tol-{name}": dict(type=float) for name in ("rank", "bv", "match", "x")},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specstab",
        description="Spectral-stability toolkit: Herglotz matrix functions, "
                    "extension parameters, multiplicity criteria and scans.")
    # a tolerance that a command does not take keeps its default
    parser.set_defaults(tol_bv=None, tol_match=None, format="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *options):
        """Subcommand whose document is fn(args, m); an option written "--opt!" is required."""
        p = sub.add_parser(name, help=help)
        for opt in ("--measure!", *options, "--out", "--tol-rank", "--tol-x"):
            flag = opt.rstrip("!")
            p.add_argument(flag, required=opt.endswith("!"), **OPTIONS[flag])
        p.set_defaults(fn=fn)

    command("eval", cmd_eval, "evaluate M(z) or M_D(z)", "--d-matrix", "--z!")
    command("boundary", cmd_boundary, "boundary value M(x+i0) and T(x)", "--x!")
    command("tmatrix", cmd_tmatrix, "divergence matrix T(x)", "--x!")
    command("masses", cmd_masses, "point mass via -ieps M(x+ieps)",
            "--d-matrix", "--x!", "--tol-bv")
    command("eigs", cmd_eigs, "brute-force pole/multiplicity report", "--d-matrix!", "--grid!")
    command("test", cmd_test, "maximum-multiplicity criterion at x",
            "--d-matrix!", "--d-prime", "--x!", "--tol-match")
    command("scan", cmd_scan, "forbidden-energy grid scan", "--grid!", "--format")
    command("verify", cmd_verify, "oracle-vs-criterion campaign",
            "--trials", "--seed", "--tol-match")
    return parser


def main(argv=None) -> int:
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        # argparse reads "--x -1e-3" as two options; it reads "--x=-1e-3" as one
        if words and words[-1] in OPTIONS and re.match(r"-[\d.]", word):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        tols = DEFAULT_TOLS.with_overrides(
            rank_tol=args.tol_rank, tol_bv=args.tol_bv,
            tol_match=args.tol_match, tol_x=args.tol_x)
        doc = args.fn(args, load_herglotz(args.measure, tols))
        _emit(doc, args.out, args.format)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return EXIT_MISMATCH if args.command == "verify" and not doc["ok"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
