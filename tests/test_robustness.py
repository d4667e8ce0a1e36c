import ast
import builtins
import copy
import dataclasses
import functools
import importlib
import inspect
import json
import math
import pkgutil
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import specstab
from specstab import (ACPiece, Atom, ConditioningError, ExtensionParameter, HerglotzMatrix,
                      MatrixMeasure, MeasureError, OracleError, PoissonSquareKernel,
                      PreconditionError, RegularizedKernel, ScanConfig, Tolerances, atom_mass,
                      boundary_value, classify, cli, evaluate, extension_for_point,
                      extension_weyl, integrate, mass_at_max_mult, max_mult_test,
                      max_mult_test_via, real_poles, residue_mass, scan_forbidden, t_matrix,
                      verify)
from specstab.io import InputError, dump_json, load_herglotz
from specstab.measure import as_matrix, is_count, is_real, shown
from specstab.scan import record_to_dict
from specstab.randgen import point_off_atoms, random_gap_matrix
from specstab.verify import run_verify

from helpers import random_atomic_measure, random_psd

SRC = Path(specstab.__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_library_code(path):
    # asserts vanish under python -O, so none may decide an outcome
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


def test_settings_census():
    # every tolerance lives in the measure's record, which only the
    # measure's builders take; settings nothing set are constants
    assert ({f.name for f in dataclasses.fields(specstab.Tolerances)}
            == {"rank_tol", "tol_bv", "tol_match", "tol_x"})
    assert {f.name for f in dataclasses.fields(specstab.ScanConfig)} == {"a", "b", "steps"}
    takes_tols = set()
    for info in pkgutil.iter_modules(specstab.__path__):
        mod = importlib.import_module(f"specstab.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            fns = vars(obj).values() if isinstance(obj, type) else [obj]
            takes_tols |= {f"{info.name}.{f.__qualname__.removesuffix('.__init__')}"
                           for f in fns if inspect.isfunction(f)
                           and "tols" in inspect.signature(f).parameters}
    assert takes_tols == {"measure.MatrixMeasure", "io.measure_from_dict",
                          "io.load_herglotz", "herglotz.richardson_limit",
                          "herglotz.atom_mass"}


def test_tolerances_live_with_the_measure():
    # config.py held nothing but the record the measure carries
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("specstab.config")
    assert specstab.measure.Tolerances is specstab.Tolerances
    assert specstab.measure.DEFAULT_TOLS is specstab.DEFAULT_TOLS


def test_public_api_census():
    # adding or removing a public name of the package is done here, on purpose
    public = {name for name, obj in vars(specstab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == {
        "ACPiece", "Atom", "BoundaryReport", "CauchyKernel", "ConditioningError",
        "DEFAULT_TOLS", "Divergent", "ExtensionParameter", "GridRecord",
        "HerglotzMatrix",
        "MatrixMeasure", "MaxMultEvidence", "MeasureError", "NotConvergedError", "OracleError",
        "PoissonSquareKernel", "PoleRecord", "PreconditionError", "RegularizedKernel",
        "ScanConfig", "Tolerances", "atom_mass", "boundary_value", "classify",
        "evaluate", "extension_for_point", "extension_weyl",
        "hermitian_part", "integrate", "is_divergent", "mass_at_max_mult", "matrix_rank",
        "max_mult_test", "max_mult_test_via", "real_poles", "residue_mass",
        "run_verify", "scan_forbidden", "t_matrix"}


def test_run_verify_rejects_zero_trials(two_atom):
    with pytest.raises(ValueError, match="at least one trial"):
        run_verify(two_atom, trials=0, seed=1)


@pytest.mark.parametrize("trials", [1.5, 2.0, "2", None, True, np.bool_(True)])
def test_run_verify_rejects_a_non_integral_trial_count(two_atom, trials):
    # int() ran 1.5 as one trial and "2" as two
    with pytest.raises(ValueError, match="at least one trial, as an integer"):
        run_verify(two_atom, trials=trials, seed=1)


def test_run_verify_reports_a_numpy_trial_count_as_an_int(two_atom):
    assert type(run_verify(two_atom, trials=np.int64(1), seed=1)["trials"]) is int


def test_run_verify_requires_an_atomic_measure(unit_piece):
    with pytest.raises(ValueError, match="purely atomic"):
        run_verify(unit_piece, trials=1, seed=1)


def test_atom_sampler_gives_up_on_impossible_layout():
    # 40 atoms 0.2 apart cannot fit in [-3, 3]; the sampler used to spin forever
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="K=40"):
        random_atomic_measure(np.random.default_rng(0), 2, n_atoms=40)
    assert time.perf_counter() - t0 < 10.0


def test_atom_sampler_needs_an_atom():
    # K = 0 failed in eigvalsh with a LinAlgError about a 0-d array
    with pytest.raises(ValueError, match="K=0"):
        random_atomic_measure(np.random.default_rng(0), 2, n_atoms=0)


def test_atom_sampler_keeps_off_the_atoms_with_mass():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega = random_atomic_measure(rng, 2)
        lo, hi = omega.support_bounds()
        for _ in range(20):
            x = point_off_atoms(rng, omega, lo - 0.5, hi + 0.5)
            assert np.abs(omega.xs - x).min() >= 0.05
    # an atom without mass, which no analysis reads, no longer blocks a draw
    omega = MatrixMeasure(1, [Atom(0.0, [[0.0]]), Atom(1.0, [[1.0]])])
    assert point_off_atoms(np.random.default_rng(0), omega, 0.0, 0.0) == 0.0


def test_atom_sampler_repairs_a_nearly_singular_total():
    # seed 161 draws one 2x2 weight with eigenvalues 2.1e-3 and 4.27, under
    # the 1e-3·max(1, top) bound, so the sampler adds a full-rank term to it
    raw_rng = np.random.default_rng(161)
    raw_rng.uniform(0.1, 5.9, size=1)       # the atom's point, then its weight
    raw = np.linalg.eigvalsh(random_psd(raw_rng, 2))
    assert raw[0] < 1e-3 * max(1.0, raw[-1])
    omega = random_atomic_measure(np.random.default_rng(161), 2, n_atoms=1)
    total = np.linalg.eigvalsh(omega.atoms[0].W)
    assert not np.allclose(total, raw)
    assert total[0] >= 1e-3 * max(1.0, total[-1])


def test_every_raised_exception_maps_to_an_exit_code():
    # an exception outside cli.EXIT_CODES escapes cli.main as a traceback with
    # exit 1, the code of a verification mismatch; argparse turns its own type
    # error into exit 2, and Divergent.__bool__ raises TypeError on misuse
    mapped = tuple(kind for kind, _ in cli.EXIT_CODES)
    unmapped = set()
    for path in sorted(SRC.glob("*.py")):
        raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Raise) and node.exc is not None]
        if not raised:
            continue
        mod = importlib.import_module(f"specstab.{path.stem}")
        for exc in raised:
            head, *rest = ast.unparse(exc).split(".")
            kind = functools.reduce(getattr, rest, getattr(mod, head, None)
                                    or getattr(builtins, head))
            if not issubclass(kind, mapped):
                unmapped.add(f"{path.stem}: {ast.unparse(exc)}")
    assert unmapped == {"cli: argparse.ArgumentTypeError", "measure: TypeError"}


def test_measure_fro_is_the_only_frobenius_norm():
    # np.linalg.norm costs about twice its own arithmetic on a 3x3 matrix;
    # measure._fro runs that arithmetic alone, bit for bit
    uses = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "norm":
                uses.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                uses += [f"{path.stem}:{node.lineno}: from {node.module} import {a.name}"
                         for a in node.names if a.name == "norm"]
    assert uses == []


def _calls_by_function(tree: ast.Module, module: str, attr: str):
    """``module.function`` for every call in the tree of a callable named
    ``attr`` (``np.linalg.svd``, ``linalg.svd``, a bare ``svd``)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == attr:
                    found.append(".".join([module] + scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_svd_census():
    # a singular-or-not decision goes through extensions._inv_certified,
    # whose certificate skips the SVD where the inverse decides; the only
    # other SVD is the pole branch of max_mult_test_via, which needs the
    # kernel's vectors
    calls = []
    for path in sorted(SRC.glob("*.py")):
        calls += _calls_by_function(ast.parse(path.read_text()), path.stem, "svd")
    assert calls == ["extensions._inv_certified", "extensions.max_mult_test_via"]


def test_the_lapack_gufunc_is_the_only_inverse():
    # _inv_certified runs the gufunc np.linalg.inv wraps, without the
    # wrapper's type checks, and its certificate: no second inverse path
    uses, loads = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "inv"
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg", "linalg")):
                uses.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                uses += [f"{path.stem}:{node.lineno}: from {node.module} import {a.name}"
                         for a in node.names if a.name == "inv"]
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "_umath_linalg" in ast.unparse(node):
                loads.append(path.stem)
    assert uses == []
    assert loads == ["extensions"]


def _memos(tree: ast.Module, module: str):
    """Memos in a module: functions decorated with functools' cache,
    lru_cache or cached_property, and object.__setattr__ on an instance
    after construction (outside __init__ and __post_init__)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                for dec in child.decorator_list:
                    called = dec.func if isinstance(dec, ast.Call) else dec
                    if ast.unparse(called).split(".")[-1] in ("cache", "lru_cache",
                                                              "cached_property"):
                        found.append(f"{module}.{name}")
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__"
                    and scope[-1:] not in (["__init__"], ["__post_init__"])):
                found.append(f"{module}.{'.'.join(scope)} sets {ast.literal_eval(child.args[1])}")
            visit(child, scope)

    visit(tree, [])
    return found


def test_memo_census():
    # a memo trades memory and staleness for speed, so each is added here on
    # purpose; its key is its whole input, never an id (ids are reused)
    memos = []
    for path in sorted(SRC.glob("*.py")):
        memos += _memos(ast.parse(path.read_text()), path.stem)
    assert sorted(memos) == ["herglotz._t_and_m sets _last", "measure.MatrixMeasure.atom_eigh"]


def test_randgen_census():
    # randgen holds the draws verify makes; the tests' own generators live in
    # tests/helpers.py, so a draw added to the library is added here on purpose
    tree = ast.parse((SRC / "randgen.py").read_text())
    public = [fn.name for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    assert sorted(public) == ["point_off_atoms", "random_gap_matrix", "random_unitary"]


def test_internal_failures_are_typed(monkeypatch):
    # both used to raise a bare RuntimeError, a traceback and exit 1 in the CLI
    omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
    with pytest.raises(ValueError, match="away from the atoms"):
        point_off_atoms(np.random.default_rng(0), omega, 0.0, 0.0)
    monkeypatch.setattr(verify, "integrate_cauchy", lambda m, xs: np.zeros((len(xs), 1, 1)))
    with pytest.raises(ConditioningError, match="window"):
        verify._scan_window(np.random.default_rng(0), omega, 0.5,
                            HerglotzMatrix.from_measure(omega), ExtensionParameter([[0.0]]))


NON_FINITE_POINT_CALLS = {
    "evaluate at nan+1j": lambda m: evaluate(m, complex(math.nan, 1.0)),
    "evaluate at 1+inf*1j": lambda m: evaluate(m, complex(1.0, math.inf)),
    "evaluate on a batch": lambda m: evaluate(m, np.array([1j, complex(math.nan, 1.0)])),
    "atom_mass of M": lambda m: atom_mass(m, math.nan),
    "atom_mass of a callable": lambda m: atom_mass(lambda z: np.zeros((len(z), 2, 2)), math.nan),
    "extension_weyl": lambda m: extension_weyl(m, np.eye(2))(complex(math.nan, 1.0)),
    "PoissonSquareKernel": lambda m: integrate(PoissonSquareKernel(math.nan), m.omega),
    "RegularizedKernel": lambda m: integrate(RegularizedKernel(math.inf, 1.0), m.omega),
    "mass_at": lambda m: m.omega.mass_at(math.nan),
}


@pytest.mark.parametrize("call", NON_FINITE_POINT_CALLS.values(), ids=NON_FINITE_POINT_CALLS)
def test_non_finite_points_are_precondition_errors(two_atom, call):
    # these returned NaN matrices or raised ConditioningError or a bare LinAlgError;
    # mass_at returned zero mass
    with pytest.raises(PreconditionError, match="finite"):
        call(two_atom)


def test_complex_points_keep_their_imaginary_part(two_atom):
    # a 0-d complex array or a numpy complex64 point must not lose Im z
    want = evaluate(two_atom, 1 + 1j)
    for z in (np.array(1 + 1j), np.complex64(1 + 1j)):
        assert np.allclose(evaluate(two_atom, z), want)


@pytest.mark.parametrize("x", [1j, np.complex64(2 + 1j), np.array([1j, 2.0])],
                         ids=["complex", "complex64", "complex batch"])
def test_divergence_kernel_rejects_complex_points(two_atom, x):
    # T(x) is defined for real x only; a complex x used to fail inside integrate
    with pytest.raises(PreconditionError, match="real points"):
        t_matrix(two_atom, x)


@pytest.mark.parametrize("x", [2j, np.complex128(2 + 1j), np.array(2 + 1j)],
                         ids=["complex", "complex128", "0-d complex array"])
def test_regularized_kernel_rejects_complex_points(x):
    # a numpy complex point lost Im x with a ComplexWarning; a Python complex raised TypeError
    with pytest.raises(PreconditionError, match="real points"):
        RegularizedKernel(x, 1.0)


@pytest.mark.parametrize("x, match", [
    (np.array([0.5, 2.0 + 1j]), "real points"),
    (np.array([[0.5, 2.0], [1.5, 3.0]]), "1-D"),
    (np.array([0.5, math.nan, 2.0]), "finite"),
], ids=["complex batch", "2-D", "batch with nan"])
def test_regularized_kernel_checks_a_batch_of_points(x, match):
    with pytest.raises(PreconditionError, match=match):
        RegularizedKernel(x, np.array([1.0, 4.0]))


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                               np.array([1.0, math.nan, 4.0]), [2.0, math.inf], np.array([8.0, 0.0]),
                               True, np.bool_(True), "2", [True, 2.0], np.array(["1", "2"]), None],
                         ids=["nan", "inf", "-inf", "zero", "negative", "batch with nan",
                              "batch with inf", "batch with zero", "bool", "numpy bool", "str",
                              "batch with a bool", "batch of str", "None"])
def test_regularization_levels_must_be_finite_and_positive(two_atom, m):
    # a NaN level passed the old `m <= 0` check and integrated to a NaN
    # matrix; an infinite one gave a zero width (inf at an atom); True, "2"
    # and [True, 2.0] were read as the levels 1.0, 2.0 and [1.0, 2.0]
    with pytest.raises(PreconditionError, match="finite and positive"):
        integrate(RegularizedKernel(0.5, m), two_atom.omega)


@pytest.mark.parametrize("m", [2, np.int64(2), np.float32(2.0), Fraction(1, 2), [1, 2.0],
                               np.array([1, 4]), np.array(2.0)])
def test_numeric_levels_are_levels(two_atom, m):
    kernel = RegularizedKernel(0.5, m)
    assert np.array_equal(kernel.m, np.array(m, dtype=float))


def test_a_batch_of_levels_must_be_one_dimensional():
    with pytest.raises(PreconditionError, match="1-D"):
        RegularizedKernel(0.5, np.ones((2, 2)))


ONE_POINT_CALLS = {
    "boundary_value": boundary_value,
    "extension_for_point": extension_for_point,
    "mass_at_max_mult": lambda m, x: mass_at_max_mult(m, np.zeros((2, 2)), x),
    "max_mult_test_via": lambda m, x: max_mult_test_via(m, np.zeros((2, 2)), np.eye(2), x),
    "atom_mass": atom_mass,
    "mass_at": lambda m, x: m.omega.mass_at(x),
}
REAL_X_CALLS = {
    **ONE_POINT_CALLS,
    "max_mult_test": lambda m, x: max_mult_test(m, np.zeros((2, 2)), x),
    "residue_mass": lambda m, x: residue_mass(m, np.zeros((2, 2)), x),
}


@pytest.mark.parametrize("x", [1 + 1j, np.array(2 + 1j), np.complex128(2 + 1j)],
                         ids=["complex", "0-d complex array", "complex128"])
@pytest.mark.parametrize("call", REAL_X_CALLS.values(), ids=REAL_X_CALLS)
def test_real_x_entry_points_reject_complex_points(two_atom, call, x):
    # float(x) raised a bare TypeError, which cli.EXIT_CODES does not map, or
    # for a numpy complex warned and went on at Re x; atom_mass returned a matrix,
    # and mass_at the zero mass of a numpy complex
    with pytest.raises(PreconditionError, match="real point"):
        call(two_atom, x)


NOT_A_NUMBER_CALLS = {
    "boundary_value": boundary_value,
    "t_matrix": t_matrix,
    "max_mult_test": lambda m, x: max_mult_test(m, np.zeros((2, 2)), x),
    "evaluate": evaluate,
    "atom_mass": atom_mass,
}


@pytest.mark.parametrize("x", [None, object(), {}], ids=["None", "object", "dict"])
@pytest.mark.parametrize("call", NOT_A_NUMBER_CALLS.values(), ids=NOT_A_NUMBER_CALLS)
def test_objects_that_are_not_numbers_are_not_points(two_atom, call, x):
    # float() or complex() raised a bare TypeError, which cli.EXIT_CODES does not map
    with pytest.raises(PreconditionError, match="points must be numbers"):
        call(two_atom, x)


@pytest.mark.parametrize("x", [Fraction(5, 2), Decimal("2.5")], ids=["Fraction", "Decimal"])
def test_fractions_and_decimals_are_points(two_atom, x):
    assert t_matrix(two_atom, x).tobytes() == t_matrix(two_atom, 2.5).tobytes()
    assert boundary_value(two_atom, x).x == 2.5


@pytest.mark.parametrize("x", [np.array([0.5, 2.0]), np.array([0.5, 1.0])],
                         ids=["batch", "batch holding an atom"])
@pytest.mark.parametrize("call", ONE_POINT_CALLS.values(), ids=ONE_POINT_CALLS)
def test_one_point_entry_points_reject_a_batch(two_atom, call, x):
    # max_mult_test_via gave one evidence over all the points, atom_mass a bare
    # broadcast ValueError, mass_at_max_mult an AttributeError and mass_at an
    # ambiguous truth value
    with pytest.raises(PreconditionError, match="one real point"):
        call(two_atom, x)


NOT_NUMBERS = {"str": "0.5", "bytes": b"0.5", "bool": True, "numpy bool": np.bool_(False),
               "batch of str": ["0.5", "2.0"], "batch of bool": np.array([True, False])}


@pytest.mark.parametrize("x", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("call", [t_matrix, lambda m, x: max_mult_test(m, np.zeros((2, 2)), x),
                                  atom_mass],
                         ids=["t_matrix", "max_mult_test", "atom_mass"])
def test_strings_and_bools_are_not_points(two_atom, call, x):
    # float() read "0.5" as 0.5 and True as 1.0, and max_mult_test's evidence kept "0.5" as x
    with pytest.raises(PreconditionError, match="points must be numbers"):
        call(two_atom, x)


@pytest.mark.parametrize("x", [0, np.float64(0.5), np.int64(0)], ids=["int", "float64", "int64"])
def test_evidence_records_the_checked_point(two_atom, x):
    ev = max_mult_test(two_atom, np.zeros((2, 2)), x)
    assert type(ev.x) is float and ev.x == float(x)


def test_a_complex_batch_is_named_whole(two_atom):
    # the message named only the points off the support, here [0.5]
    xs = np.array([0.5, 1.0, 2.0 + 1j])
    with pytest.raises(PreconditionError, match=re.escape(str(xs))):
        max_mult_test(two_atom, np.zeros((2, 2)), xs)


def test_non_finite_grid_and_window_ends_are_rejected(two_atom):
    # the grid was accepted and failed inside t_matrix; the window failed the pole count
    with pytest.raises(ValueError, match="finite, got \\[-inf, 1"):
        ScanConfig(-math.inf, 1.0, 3)
    with pytest.raises(OracleError, match="finite") as info:
        real_poles(two_atom, np.zeros((2, 2)), (-math.inf, 1.0))
    assert "-inf" in str(info.value)


@pytest.mark.parametrize("window", [("-3", "3"), (False, 3.0), (-3.0, True), (None, 1.0),
                                    (-3.0, 1 + 0j)],
                         ids=["str", "bool start", "bool end", "None", "complex"])
@pytest.mark.parametrize("call", [real_poles, classify], ids=["real_poles", "classify"])
def test_window_ends_must_be_real_numbers(two_atom, call, window):
    # float() read ("-3", "3") as a window and False as 0.0
    with pytest.raises(OracleError, match="must be finite real numbers"):
        call(two_atom, np.zeros((2, 2)), window)


def test_numpy_window_ends_are_real_numbers(two_atom):
    want = real_poles(two_atom, np.zeros((2, 2)), (-3.0, 3.0))
    assert real_poles(two_atom, np.zeros((2, 2)), np.array([-3, 3])) == want
    assert real_poles(two_atom, np.zeros((2, 2)), (np.float64(-3.0), 3)) == want


@pytest.mark.parametrize("v, real", [
    (1, True), (1.5, True), (np.int64(1), True), (np.float64(1.5), True), (np.float32(1.5), True),
    (np.uint8(1), True), (Fraction(1, 2), True), ("1", False), (b"1", False), (None, False),
    (True, False), (np.bool_(True), False), (np.array(1.0), False), (np.array([1.0]), False),
    (1 + 0j, False), (Decimal("1"), False)], ids=repr)
def test_is_real_accepts_what_scan_config_accepted(v, real):
    # the predicate that replaced ScanConfig's inline numbers.Real test
    assert is_real(v) is real
    try:
        ScanConfig(v, 1e6, 3)
    except ValueError:
        assert not real
    else:
        assert real


def test_functions_validate_a_copy_of_the_callers_parameter(two_atom):
    # as_parameter used to wrap a complex D without a copy and freeze it
    d, dp, c = np.zeros((2, 2), complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    max_mult_test(two_atom, d, 0.5)
    max_mult_test(two_atom, d, [0.5, 2.0])
    max_mult_test_via(two_atom, d, dp, 0.5)
    extension_weyl(two_atom, d)(1j)
    classify(two_atom, d, (-3.0, 3.0))
    residue_mass(two_atom, d, 0.0)
    HerglotzMatrix.from_measure(two_atom.omega, c)
    assert d.flags.writeable and dp.flags.writeable and c.flags.writeable
    # the constructors take ownership
    ExtensionParameter(d)
    HerglotzMatrix(c, two_atom.omega)
    assert not d.flags.writeable and not c.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_gap_matrix_makes_the_draws_of_the_diagonal_product(n):
    # the signs were rng.choice([-1.0, 1.0]) and the product q @ diag @ q*
    for seed in range(200):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_gap_matrix(rng, n, 0.1)
        q, r = np.linalg.qr(old.normal(size=(n, n)) + 1j * old.normal(size=(n, n)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        mags = old.uniform(0.1, 2.0, size=n)
        want = q @ np.diag(mags * old.choice([-1.0, 1.0], size=n)) @ q.conj().T
        assert got.tobytes() == want.tobytes()
        assert rng.random() == old.random()     # the generator is left where it was


def _cli(measure_file, command, *argv):
    """cli.main's exit code for a command on the measure file; ``test`` gets
    D = [[0.5]], written beside the file."""
    if command == "test":
        d_file = Path(measure_file).with_name("d.json")
        d_file.write_text("[[[0.5, 0]]]")
        argv = ("--d-matrix", str(d_file), *argv)
    return cli.main([command, "--measure", measure_file, *argv])


BEYOND = {"10**400": 10**400, "Fraction(10**400)": Fraction(10**400)}
# each entry point names its own error for a number no float can hold
BEYOND_CALLS = {
    "t_matrix": (lambda m, v: t_matrix(m, v), PreconditionError, "finite"),
    "t_matrix on a list": (lambda m, v: t_matrix(m, [0.5, v]), PreconditionError, "finite"),
    "boundary_value": (boundary_value, PreconditionError, "finite"),
    "atom_mass": (atom_mass, PreconditionError, "finite"),
    "max_mult_test": (lambda m, v: max_mult_test(m, np.zeros((2, 2)), v), PreconditionError, "finite"),
    "max_mult_test_via": (lambda m, v: max_mult_test_via(m, np.zeros((2, 2)), np.eye(2), v),
                          PreconditionError, "finite"),
    "evaluate": (evaluate, PreconditionError, "finite"),
    "atom": (lambda m, v: MatrixMeasure(1, [Atom(v, [[1.0]])]), MeasureError,
             r"atoms\[0\].x is not a real number"),
    "piece end": (lambda m, v: MatrixMeasure(1, [], [ACPiece(0.0, v, [[1.0]])]), MeasureError,
                  r"ac\[0\]: ends are not real numbers"),
    "grid end": (lambda m, v: ScanConfig(0.0, v, 3), ValueError, "grid ends must be real numbers"),
    "level": (lambda m, v: RegularizedKernel(0.5, v), PreconditionError, "finite and positive"),
    "window end": (lambda m, v: real_poles(m, np.zeros((2, 2)), (-3.0, v)), OracleError,
                   "finite real numbers"),
    "tolerance": (lambda m, v: Tolerances(tol_x=v), ValueError, "tol_x must be a finite number"),
}
# every input this table names was accepted, or failed with an error of the wrong
# kind or text: a bare OverflowError or TypeError, NaN output, exit 0 or exit 3
MENDED_INPUTS = {
    **{f"{name} at {big}": (lambda m, f, call=call, v=v: call(m, v), expected)
       for big, v in BEYOND.items() for name, (call, *expected) in BEYOND_CALLS.items()},
    "point list with a bool": (lambda m, f: t_matrix(m, [True, 2.0]),
                               (PreconditionError, "points must be numbers, got True")),
    "point list with None": (lambda m, f: t_matrix(m, [None, 2.0]),
                             (PreconditionError, "points must be numbers, got None")),
    "negative tolerance": (lambda m, f: Tolerances(rank_tol=-1e-9),
                           (ValueError, "rank_tol must be a finite number >= 0, got -1e-09")),
    "NaN tolerance": (lambda m, f: Tolerances(tol_bv=math.nan),
                      (ValueError, "tol_bv must be a finite number >= 0, got nan")),
    "infinite tolerance": (lambda m, f: Tolerances(tol_match=math.inf),
                           (ValueError, "tol_match must be a finite number >= 0, got inf")),
    "string tolerance": (lambda m, f: Tolerances(tol_x="1e-12"),
                         (ValueError, "tol_x must be a finite number >= 0, got '1e-12'")),
    "long double tolerance": (lambda m, f: Tolerances(tol_x=np.longdouble("1e400")),
                              (ValueError, "tol_x must be a finite number >= 0")),
    "long double level": (lambda m, f: RegularizedKernel(0.5, np.longdouble("1e400")),
                          (PreconditionError, "finite and positive")),
    "negative override": (lambda m, f: m.omega.tols.with_overrides(tol_x=-1.0),
                          (ValueError, "tol_x must be a finite number >= 0")),
    "--tol-x -1": (lambda m, f: _cli(f, "tmatrix", "--x", "0", "--tol-x", "-1"),
                   "tol_x must be a finite number >= 0, got -1.0"),
    "--tol-rank -5": (lambda m, f: _cli(f, "tmatrix", "--x", "2", "--tol-rank", "-5"),
                      "rank_tol must be a finite number >= 0, got -5.0"),
    "--tol-bv -1": (lambda m, f: _cli(f, "masses", "--x", "0", "--tol-bv", "-1"),
                    "tol_bv must be a finite number >= 0, got -1.0"),
    "--tol-match -1": (lambda m, f: _cli(f, "test", "--x", "0.3", "--tol-match", "-1"),
                       "tol_match must be a finite number >= 0, got -1.0"),
    "grid of 10**20 steps": (lambda m, f: ScanConfig(0.0, 1.0, 10**20),
                             (ValueError, "^grid needs 2 to 1000000 integer steps, got 1(0){20}$")),
    "grid of 10**6 + 1 steps": (lambda m, f: ScanConfig(0.0, 1.0, 10**6 + 1),
                                (ValueError, "^grid needs 2 to 1000000 integer steps, got 1000001$")),
    "--grid 0:1:10**20": (lambda m, f: _cli(f, "scan", "--grid", f"0:1:{10**20}"),
                          f"grid needs 2 to 1000000 integer steps, got {10**20}"),
    # ragged rows were "must be numbers, got [1, 0]"
    **{f"ragged {what}": (lambda m, f, call=call: call(m, [[1, 0], [0]]),
                          (ValueError, f"^{what} must have rows of one length, got lengths 2, 1$"))
       for what, call in [("W", lambda m, a: Atom(0.0, a)),
                          ("D", lambda m, a: ExtensionParameter(a)),
                          ("C", lambda m, a: HerglotzMatrix(a, m.omega))]},
    "ragged rows of three": (lambda m, f: ACPiece(0.0, 1.0, [[1, 0, 0], [0], [0, 1]]),
                             (ValueError, "^rho must have rows of one length, got lengths 3, 1, 2$")),
    # numpy keeps ndarray rows of unequal lengths as the entries of a 1-D object array
    "ragged ndarray rows": (lambda m, f: Atom(0.0, [np.zeros(2), np.zeros(1)]),
                            (ValueError, "^W must have rows of one length, got lengths 2, 1$")),
    "a 0-d array among ndarray rows": (lambda m, f: Atom(0.0, [np.zeros(2), np.array(1.0)]),
                                       (ValueError, r"^W must be numbers, got array\(\[0., 0.\]\)$")),
    # a bare AttributeError on tols.rank_tol
    "tols None": (lambda m, f: MatrixMeasure(1, [Atom(0.0, [[1.0]])], tols=None),
                  (MeasureError, "^tols must be a Tolerances, got None$")),
    "tols a dict": (lambda m, f: MatrixMeasure(1, [Atom(0.0, [[1.0]])], tols={"tol_x": 1e-12}),
                    (MeasureError, r"^tols must be a Tolerances, got \{'tol_x': 1e-12\}$")),
    # an IndexError, a TypeError, and a third end silently dropped
    "window of one end": (lambda m, f: real_poles(m, np.zeros((2, 2)), (-1.0,)),
                          (OracleError, r"^the window must be two numbers \(a, b\), got \(-1.0,\)$")),
    "window a number": (lambda m, f: real_poles(m, np.zeros((2, 2)), 5),
                        (OracleError, r"^the window must be two numbers \(a, b\), got 5$")),
    "window of three ends": (lambda m, f: classify(m, np.zeros((2, 2)), (-1.0, 1.0, 3.0)),
                             (OracleError, r"^the window must be two numbers \(a, b\), "
                                           r"got \(-1.0, 1.0, 3.0\)$")),
}


@pytest.mark.parametrize("call, expected", MENDED_INPUTS.values(), ids=MENDED_INPUTS)
def test_each_mended_input_is_rejected(two_atom, single_atom_file, capsys, call, expected):
    if isinstance(expected, str):   # a CLI command: exit 2 with one error line naming the field
        assert call(two_atom, single_atom_file) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {expected}\n"
        return
    kind, match = expected
    with pytest.raises(kind, match=match):
        call(two_atom, single_atom_file)


def _measure_doc(atoms, pieces):
    """A measure file's document (n = 1) holding the (x, W) atoms and (a, b, ρ) pieces."""
    return {"n": 1, "atoms": [{"x": x, "W": w} for x, w in atoms],
            "ac": [{"a": a, "b": b, "rho": r} for a, b, r in pieces]}


# The term at fault is second in the caller's list and first once sorted by
# its point or its start: each message named it by its sorted index, 0.  The
# last column is the file's message where io's matrix reader decides first.
GOOD_ATOM, GOOD_PIECE = (5.0, [[1.0]]), (6.0, 7.0, [[1.0]])
CALLER_ORDER = {
    "W of the wrong shape": ([GOOD_ATOM, (1.0, [[1.0, 0.0], [0.0, 1.0]])], [],
                             "atoms[1].W: expected 1x1 matrix, got shape (2, 2)",
                             "atoms[1].W: expected 1 rows"),
    "x not finite": ([GOOD_ATOM, (-math.inf, [[1.0]])], [], "atoms[1].x is not finite", None),
    "W not finite": ([GOOD_ATOM, (1.0, [[math.nan]])], [], "atoms[1].W is not finite",
                     "atoms[1].W[0][0]: not a finite number"),
    "end not finite": ([], [GOOD_PIECE, (-math.inf, 1.0, [[1.0]])], "ac[1]: ends are not finite", None),
    "rho not finite": ([], [GOOD_PIECE, (1.0, 2.0, [[math.inf]])], "ac[1].rho is not finite",
                       "ac[1].rho[0][0]: not a finite number"),
    "W not PSD": ([GOOD_ATOM, (1.0, [[-1.0]])], [], "atoms[1].W is not Hermitian positive semidefinite",
                  None),
    "rho not PSD": ([GOOD_ATOM], [GOOD_PIECE, (1.0, 2.0, [[-1.0]])],
                    "ac[1].rho is not Hermitian positive semidefinite", None),
    "b < a": ([GOOD_ATOM], [GOOD_PIECE, (2.0, 1.0, [[1.0]])], "ac[1]: requires a < b, got [2.0, 1.0]", None),
}


@pytest.mark.parametrize("atoms, pieces, message, in_file", CALLER_ORDER.values(), ids=CALLER_ORDER)
def test_each_term_is_named_by_the_callers_index(tmp_path, capsys, atoms, pieces, message, in_file):
    with pytest.raises(MeasureError) as exc:
        MatrixMeasure(1, [Atom(*t) for t in atoms], [ACPiece(*t) for t in pieces])
    assert str(exc.value) == message
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_measure_doc(atoms, pieces)))
    with pytest.raises(InputError) as exc:
        load_herglotz(str(path))
    assert str(exc.value) == f"{path}: {in_file or message}"
    assert cli.main(["tmatrix", "--measure", str(path), "--x", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: {in_file or message}\n"


# io said "atoms[1].x missing or not a real number" or "ac[1] needs real fields a, b"
MALFORMED_TERMS = {
    "x missing": ("atoms", {"W": [[1.0]]}),
    "x null": ("atoms", {"x": None, "W": [[1.0]]}),
    "x a string": ("atoms", {"x": "0.5", "W": [[1.0]]}),
    "x a bool": ("atoms", {"x": True, "W": [[1.0]]}),
    "x 10**400": ("atoms", {"x": 10**400, "W": [[1.0]]}),
    "x a list": ("atoms", {"x": [0.5], "W": [[1.0]]}),
    "a missing": ("ac", {"b": 1.0, "rho": [[1.0]]}),
    "a a bool": ("ac", {"a": True, "b": 1.0, "rho": [[1.0]]}),
    "b a string": ("ac", {"a": 0.0, "b": "1", "rho": [[1.0]]}),
    "a a list": ("ac", {"a": [0.0], "b": 1.0, "rho": [[1.0]]}),
}


@pytest.mark.parametrize("key, term", MALFORMED_TERMS.values(), ids=MALFORMED_TERMS)
def test_a_malformed_term_in_a_file_has_the_constructors_message(tmp_path, key, term):
    doc = _measure_doc([GOOD_ATOM], [GOOD_PIECE])
    doc[key].append(term)
    with pytest.raises(MeasureError) as want:
        MatrixMeasure(1, [Atom(t.get("x"), t["W"]) for t in doc["atoms"]],
                      [ACPiece(t.get("a"), t.get("b"), t["rho"]) for t in doc["ac"]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as got:
        load_herglotz(str(path))
    assert str(got.value) == f"{path}: {want.value}"


def test_a_fraction_is_the_float_it_names(two_atom, tmp_path):
    # real_poles raised a TypeError from np.isfinite on an object array, and
    # the scan kept Fraction points, which dump_json could not write
    half = Fraction(1, 2)
    window = (-half, Fraction(3))
    assert real_poles(two_atom, np.zeros((2, 2)), window) == real_poles(
        two_atom, np.zeros((2, 2)), (-0.5, 3.0))
    records = scan_forbidden(two_atom.omega, ScanConfig(half, 3, 3))
    assert [(r.x, type(r.x)) for r in records] == [(0.5, float), (1.75, float), (3.0, float)]
    with open(tmp_path / "scan.json", "w") as fh:
        dump_json([record_to_dict(r) for r in records], fh)


REALS = {"10**400": (10**400, False), "-10**400": (-10**400, False),
         "Fraction(10**400)": (Fraction(10**400), False),
         "Fraction(-10**400, 3)": (Fraction(-10**400, 3), False),
         "int(float max)": (int(sys.float_info.max), True),
         "Fraction(10**300, 3)": (Fraction(10**300, 3), True), "int64": (np.int64(2), True),
         "uint64 max": (np.uint64(2**64 - 1), True), "inf": (math.inf, True), "nan": (math.nan, True)}


@pytest.mark.parametrize("v, real", REALS.values(), ids=REALS)
def test_is_real_holds_what_a_float_can_hold(v, real):
    # io's rule, now the only one: a rational beyond the float range is not a real number
    assert is_real(v) is real


@pytest.mark.parametrize("v, count", [
    (2, True), (np.int64(2), True), (np.uint8(2), True), (-1, True), (2**64, True),
    (True, False), (np.bool_(True), False), (2.0, False), (np.float64(2.0), False),
    (Fraction(2), False), ("2", False), (None, False), (np.array(2), False)], ids=repr)
def test_is_count_is_an_integral_number_that_is_not_a_bool(v, count):
    assert is_count(v) is count


def test_a_far_point_squares_to_zero_without_a_warning(two_atom):
    # numpy's "overflow encountered in square" was a RuntimeWarning, an error
    # under this suite's filter; 1/inf = 0 is the correctly rounded value
    zero = np.zeros((2, 2), dtype=complex)
    for x in (1e200, -1e200):
        assert t_matrix(two_atom, x).tobytes() == zero.tobytes()
        assert integrate(RegularizedKernel(x, 1.0), two_atom.omega).tobytes() == zero.tobytes()
    stack = t_matrix(two_atom, np.array([1e200, 2.0]))
    assert stack[0].tobytes() == zero.tobytes()
    assert stack[1].tobytes() == t_matrix(two_atom, 2.0).tobytes()


def test_a_far_atom_adds_zero_without_a_warning(two_atom):
    # the square overflows at a far atom seen from a near point as well
    near = two_atom.omega
    far = HerglotzMatrix.from_measure(MatrixMeasure(2, [*near.atoms, Atom(1e200, np.eye(2))]))
    for x in (0.5, np.array([0.5, 2.0])):
        assert t_matrix(far, x).tobytes() == t_matrix(two_atom, x).tobytes()
        assert integrate(RegularizedKernel(x, 1.0), far.omega).tobytes() == integrate(
            RegularizedKernel(x, 1.0), near).tobytes()
    assert boundary_value(far, 0.5).t_matrix.tobytes() == boundary_value(two_atom, 0.5).t_matrix.tobytes()
    assert max_mult_test(far, np.zeros((2, 2)), 0.5).verdict == max_mult_test(
        two_atom, np.zeros((2, 2)), 0.5).verdict


RECORDS = {
    "Atom": lambda m: Atom(0.0, np.eye(2)),
    "ACPiece": lambda m: ACPiece(0.0, 1.0, np.eye(2)),
    "ExtensionParameter": lambda m: ExtensionParameter(np.eye(2)),
    "HerglotzMatrix": lambda m: HerglotzMatrix(np.eye(2), m.omega),
    "PoleRecord": lambda m: classify(m, np.zeros((2, 2)), (-3.0, 3.0))[0],
    "MaxMultEvidence": lambda m: max_mult_test(m, np.zeros((2, 2)), 0.5),
    "BoundaryReport": lambda m: boundary_value(m, 0.5),
    "GridRecord": lambda m: scan_forbidden(m.omega, ScanConfig(0.5, 2.0, 2))[0],
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_records_holding_arrays_compare_by_identity(two_atom, make):
    # == compared the fields as tuples, and two equal but distinct arrays
    # raised numpy's ambiguous truth value
    one, other = make(two_atom), make(HerglotzMatrix.from_measure(two_atom.omega))
    assert one == one and one != other


def _number_check_copies(tree: ast.Module, module: str):
    """What decides a number outside measure's predicates: operator.index,
    __index__, np.isfinite over a list or tuple literal, and every function
    named like is_real, is_count or finite_float, as ``module.name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and re.fullmatch(
                r"_*(is_real|is_count|finite_float)", node.name):
            found.append(f"{module}.{node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "operator" in ast.unparse(node):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute) and node.attr in ("index", "__index__") and (
                node.attr == "__index__" or ast.unparse(node.value) == "operator"):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Constant) and node.value == "__index__":
            found.append(f"{module}:{node.lineno}: '__index__'")
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("isfinite")
              and node.args and isinstance(node.args[0], (ast.List, ast.Tuple))):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_number_check_census():
    # measure alone decides what a real number and a count are; the CLI's
    # finite_float and io's _is_real were second copies that disagreed
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _number_check_copies(ast.parse(path.read_text()), path.stem)
    assert found == ["measure.is_real", "measure.is_count"]


def test_a_million_steps_is_still_a_grid():
    # constructed, not scanned: the bound is the largest grid accepted
    assert ScanConfig(0, 1, 10**6).steps == 10**6


def _hermitian_census(tree: ast.Module, module: str):
    """The functions of a module that call is_hermitian, as ``module.name``."""
    return [f"{module}.{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call) and ast.unparse(node.func).endswith("is_hermitian")
                    for node in ast.walk(fn))]


def test_is_hermitian_census():
    # D, D' and C are checked by as_hermitian alone, the weights by is_psd and
    # a parameter file by io's reader; extensions and HerglotzMatrix had their own copies
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _hermitian_census(ast.parse(path.read_text()), path.stem)
    assert found == ["io.load_hermitian", "measure.as_hermitian", "measure.is_psd"]


MATRIX_CALLS = {
    "Atom": (lambda m, a: Atom(0.0, a), "W"),
    "ACPiece": (lambda m, a: ACPiece(0.0, 1.0, a), "rho"),
    "HerglotzMatrix": (lambda m, a: HerglotzMatrix(a, m.omega), "C"),
    "from_measure": (lambda m, a: HerglotzMatrix.from_measure(m.omega, a), "C"),
    "ExtensionParameter": (lambda m, a: ExtensionParameter(a), "D"),
    "max_mult_test": (lambda m, a: max_mult_test(m, a, 0.5), "D"),
    "max_mult_test_via D'": (lambda m, a: max_mult_test_via(m, np.zeros((2, 2)), a, 0.5), "D"),
    "extension_weyl": (lambda m, a: extension_weyl(m, a), "D"),
    "classify": (lambda m, a: classify(m, a, (-3.0, 3.0)), "D"),
    "real_poles": (lambda m, a: real_poles(m, a, (-3.0, 3.0)), "D"),
    "residue_mass": (lambda m, a: residue_mass(m, a, 0.0), "D"),
}
# each matrix with the text its first bad entry is shown by
NOT_NUMBER_MATRICES = {
    "bool entry": ([[True, 0.0], [0.0, 1.0]], "True"),
    "string entry": ([["0.5", 0.0], [0.0, 1.0]], "'0.5'"),
    "None entry": ([[None, 0.0], [0.0, 1.0]], "None"),
    "10**400 entry": ([[10**400, 0.0], [0.0, 1.0]], f"{10**39}... (401 characters)"),
    "bool array": (np.eye(2, dtype=bool), "True"),
}


@pytest.mark.parametrize("a, text", NOT_NUMBER_MATRICES.values(), ids=NOT_NUMBER_MATRICES)
@pytest.mark.parametrize("call, what", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
def test_matrix_entries_must_be_numbers(two_atom, call, what, a, text):
    # a bool or a string was read as the number it spells, None as NaN,
    # and 10**400 raised numpy's bare OverflowError
    with pytest.raises(ValueError, match=f"^{what} must be numbers, got {re.escape(text)}$"):
        call(two_atom, a)


@pytest.mark.parametrize("call, what", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
def test_a_list_entry_in_rows_of_one_length_is_not_a_number(two_atom, call, what):
    # the ragged-rows message is for rows of different lengths only
    with pytest.raises(ValueError, match=f"^{what} must be numbers, got \\[0.0\\]$"):
        call(two_atom, [[[0.0], 0.0], [0.0, 1.0]])


# numpy keeps ndarray rows of unequal lengths as the entries of a 1-D object
# array; as_matrix reads them as rows for every matrix argument
NDARRAY_ROWS = {
    "ragged": ([np.zeros(2), np.zeros(1)], "must have rows of one length, got lengths 2, 1"),
    "a 0-d array among them": ([np.zeros(2), np.array(1.0)],
                               r"must be numbers, got array\(\[0., 0.\]\)"),
}


@pytest.mark.parametrize("a, text", NDARRAY_ROWS.values(), ids=NDARRAY_ROWS)
@pytest.mark.parametrize("call, what", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
def test_ndarray_rows_are_read_as_rows(two_atom, call, what, a, text):
    with pytest.raises(ValueError, match=f"^{what} {text}$"):
        call(two_atom, a)


NUMERIC_MATRICES = {
    "int8": np.array([[2, 1], [1, 3]], dtype=np.int8),
    "float32": np.array([[2.5, 0.1], [0.1, 3.0]], dtype=np.float32),
    "complex": np.array([[2.0, 1j], [-1j, 3.0]]),
    "Fractions": [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 7), 2]],
    "2**70": [[2**70, 0], [0, 2**70]],
}


@pytest.mark.parametrize("a", NUMERIC_MATRICES.values(), ids=NUMERIC_MATRICES)
def test_numeric_matrices_keep_their_bytes(two_atom, a):
    # np.asarray(a, dtype=complex) is the conversion every constructor made;
    # a complex array is the constructors' own, so each test takes a copy
    a = copy.deepcopy(a)
    c = np.asarray(a, dtype=complex)
    assert as_matrix(a, "W").tobytes() == c.tobytes()
    assert Atom(0.0, a).W.tobytes() == c.tobytes()
    assert ACPiece(0.0, 1.0, a).rho.tobytes() == c.tobytes()
    assert ExtensionParameter(a).D.tobytes() == c.tobytes()
    omega = two_atom.omega
    assert HerglotzMatrix(a, omega).C.tobytes() == HerglotzMatrix(c.copy(), omega).C.tobytes()
    assert HerglotzMatrix.from_measure(omega, a).C.tobytes() == HerglotzMatrix(c.copy(), omega).C.tobytes()
    ev, want = max_mult_test(two_atom, a, 0.5), max_mult_test(two_atom, c, 0.5)
    assert ev.residual == want.residual and ev.t_value.tobytes() == want.t_value.tobytes()


def test_a_complex_matrix_is_its_own_unless_copied():
    c = np.eye(2, dtype=complex)
    assert as_matrix(c, "D") is c
    assert as_matrix(c, "D", copy=True) is not c


HUGE = 10**5000     # more digits than Python prints (4300)
# each site built its message from repr(HUGE), which raised a ValueError of its own
HUGE_CALLS = {
    "atom point": (lambda m: MatrixMeasure(1, [Atom(HUGE, [[1.0]])]), MeasureError,
                   r"atoms\[0\].x is not a real number, got <int too long to print>"),
    "grid end": (lambda m: ScanConfig(0.0, HUGE, 3), ValueError,
                 "grid ends must be real numbers, got 0.0, <int too long to print>"),
    "grid steps": (lambda m: ScanConfig(0.0, 1.0, HUGE), ValueError,
                   "grid needs 2 to 1000000 integer steps, got <int too long to print>"),
    "tolerance": (lambda m: Tolerances(tol_x=HUGE), ValueError,
                  "tol_x must be a finite number >= 0, got <int too long to print>"),
    "level": (lambda m: RegularizedKernel(0.5, HUGE), PreconditionError,
              "regularization level m must be a finite and positive number, got <int too long"),
    "window end": (lambda m: real_poles(m, np.zeros((2, 2)), (-3.0, HUGE)), OracleError,
                   r"the window \[-3.0, <int too long to print>\] must be finite real numbers"),
}


@pytest.mark.parametrize("call, kind, match", HUGE_CALLS.values(), ids=HUGE_CALLS)
def test_a_value_too_long_to_print_keeps_its_own_error(two_atom, call, kind, match):
    with pytest.raises(kind, match=match):
        call(two_atom)


@pytest.mark.parametrize("v, text", [
    (-1e-9, "-1e-09"), ("1e-12", "'1e-12'"), (True, "True"), ("x" * 58, repr("x" * 58)),
    ("x" * 59, f"'{'x' * 39}... (61 characters)"), (HUGE, "<int too long to print>")],
    ids=shown)     # repr(HUGE) raises
def test_shown_is_repr_cut_to_size(v, text):
    assert shown(v) == text


FAR_PIECES = {"[0, 1e200]": (0.0, 1e200), "[1e200, 2e200]": (1e200, 2e200),
              "[-1e200, 0]": (-1e200, 0.0), "[-1e308, 1e300]": (-1e308, 1e300)}


@pytest.mark.parametrize("a, b", FAR_PIECES.values(), ids=FAR_PIECES)
def test_a_far_piece_end_keeps_a_finite_cauchy_offset(a, b):
    # 0.5·log((1 + b²)/(1 + a²)) overflowed to inf or NaN beyond ±1.34e154
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        want = float(mp.log((1 + mp.mpf(b) ** 2) / (1 + mp.mpf(a) ** 2)) / 2)
    omega = MatrixMeasure(1, [], [ACPiece(a, b, [[1.0]])])
    assert omega.cauchy_offset[0] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert np.isfinite(evaluate(HerglotzMatrix.from_measure(omega), 1j)).all()


def test_a_far_piece_end_evaluates_in_the_cli(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text('{"n": 1, "ac": [{"a": 0.0, "b": 1e200, "rho": [[[1, 0]]]}]}')
    assert cli.main(["eval", "--measure", str(path), "--z", "0,1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "null" not in captured.out


def test_piece_offsets_within_the_float_range_keep_their_bits():
    # the overflow branch is taken only where 1 + a² or 1 + b² is inf
    rng = np.random.default_rng(11)
    ends = np.sort(rng.choice([-1.0, 1.0], size=(300, 2)) * np.exp(rng.uniform(-20, 400, size=(300, 2))))
    kept = 0
    for a, b in ends[ends[:, 0] < ends[:, 1]]:
        offset = MatrixMeasure(1, [], [ACPiece(a, b, [[1.0]])]).cauchy_offset
        assert np.isfinite(offset).all()
        if max(abs(a), abs(b)) < 1.3e154:
            old = 0.5 * np.log((1.0 + np.array([b]) ** 2) / (1.0 + np.array([a]) ** 2))
            assert offset.real.tobytes() == old.tobytes() and not offset.imag.any()
            kept += 1
    assert 100 < kept < 250     # both branches taken
