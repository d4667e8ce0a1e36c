import ast
import builtins
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

import specstab
from specstab import (Atom, ConditioningError, ExtensionParameter, HerglotzMatrix,
                      MatrixMeasure, OracleError, PoissonSquareKernel, PreconditionError,
                      RegularizedKernel, ScanConfig, atom_mass, classify, cli, evaluate,
                      extension_weyl, integrate, max_mult_test, max_mult_test_via,
                      real_poles, residue_mass, resolvent_identity_residual, t_matrix, verify)
from specstab.randgen import point_off_atoms, random_atomic_measure
from specstab.verify import run_verify

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
    assert takes_tols == {"measure.MatrixMeasure", "io.measure_from_dict", "io.load_measure",
                          "io.load_herglotz", "herglotz.richardson_limit",
                          "herglotz.atom_mass"}


def test_run_verify_rejects_zero_trials(two_atom):
    with pytest.raises(ValueError, match="at least one trial"):
        run_verify(two_atom, trials=0, seed=1)


def test_atom_sampler_gives_up_on_impossible_layout():
    # 40 atoms 0.2 apart cannot fit in [-3, 3]; the sampler used to spin forever
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="K=40"):
        random_atomic_measure(np.random.default_rng(0), 2, n_atoms=40)
    assert time.perf_counter() - t0 < 10.0


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
    "resolvent_identity_residual": lambda m: resolvent_identity_residual(
        m, np.zeros((2, 2)), np.eye(2), complex(math.nan, 1.0)),
    "PoissonSquareKernel": lambda m: integrate(PoissonSquareKernel(math.nan), m.omega),
    "RegularizedKernel": lambda m: integrate(RegularizedKernel(math.inf, 1.0), m.omega),
}


@pytest.mark.parametrize("call", NON_FINITE_POINT_CALLS.values(), ids=NON_FINITE_POINT_CALLS)
def test_non_finite_points_are_precondition_errors(two_atom, call):
    # these returned NaN matrices or raised ConditioningError or a bare LinAlgError
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


def test_non_finite_grid_and_window_ends_are_rejected(two_atom):
    # the grid was accepted and failed inside t_matrix; the window failed the pole count
    with pytest.raises(ValueError, match="finite, got \\[-inf, 1"):
        ScanConfig(-math.inf, 1.0, 3)
    with pytest.raises(OracleError, match="finite") as info:
        real_poles(two_atom, np.zeros((2, 2)), (-math.inf, 1.0))
    assert "-inf" in str(info.value)


def test_functions_validate_a_copy_of_the_callers_parameter(two_atom):
    # as_parameter used to wrap a complex D without a copy and freeze it
    d, dp, c = np.zeros((2, 2), complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    max_mult_test(two_atom, d, 0.5)
    max_mult_test(two_atom, d, [0.5, 2.0])
    max_mult_test_via(two_atom, d, dp, 0.5)
    extension_weyl(two_atom, d)(1j)
    resolvent_identity_residual(two_atom, d, dp, 1j)
    classify(two_atom, d, (-3.0, 3.0))
    residue_mass(two_atom, d, 0.0)
    HerglotzMatrix.from_measure(two_atom.omega, c)
    assert d.flags.writeable and dp.flags.writeable and c.flags.writeable
    # the constructors take ownership
    ExtensionParameter(d)
    HerglotzMatrix(c, two_atom.omega)
    assert not d.flags.writeable and not c.flags.writeable
