import ast
import dataclasses
import importlib
import inspect
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

import specstab
from specstab.randgen import random_atomic_measure
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
