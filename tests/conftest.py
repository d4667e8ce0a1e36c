import json

import numpy as np
import pytest

import specstab.extensions as ext
import specstab.herglotz as hz
from specstab import Atom, ACPiece, HerglotzMatrix, MatrixMeasure


@pytest.fixture
def single_atom():
    """n=1, unit mass at the origin: M(z) = -1/z."""
    omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
    return HerglotzMatrix.from_measure(omega)


@pytest.fixture
def two_atom():
    """n=2, identity masses at -1 and 1: M(z) = -2z/(z^2-1) I."""
    omega = MatrixMeasure(2, [Atom(-1.0, np.eye(2)), Atom(1.0, np.eye(2))])
    return HerglotzMatrix.from_measure(omega)


@pytest.fixture
def mixed_measure():
    """Atoms plus an absolutely continuous piece, n=1."""
    return MatrixMeasure(1, [Atom(2.0, [[1.0]])], [ACPiece(0.0, 1.0, [[1.0]])])


@pytest.fixture
def tol_bv_seen(monkeypatch):
    """The tol_bv handed to each richardson_limit call, in call order."""
    seen = []
    real = hz.richardson_limit

    def spy(samples, tols):
        seen.append(tols.tol_bv)
        return real(samples, tols)

    monkeypatch.setattr(hz, "richardson_limit", spy)
    return seen


def _call_log(monkeypatch, *names):
    """The names of the calls to the named ``herglotz`` functions made by
    the Herglotz and extension layers, in call order."""
    calls = []

    def count(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        for mod in (ext, hz):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, count(getattr(hz, name)))
    return calls


@pytest.fixture
def eps_calls(monkeypatch):
    """The ``evaluate`` and ``richardson_limit`` calls, in order."""
    return _call_log(monkeypatch, "evaluate", "richardson_limit")


@pytest.fixture
def real_x_calls(monkeypatch):
    """The ``t_matrix`` and ``integrate_cauchy`` calls, in order."""
    return _call_log(monkeypatch, "t_matrix", "integrate_cauchy")


@pytest.fixture
def unit_piece():
    """n=1, density 1 on [-1, 1]: M(x+i0) = log((1-x)/(1+x)) + iπ inside."""
    return HerglotzMatrix.from_measure(MatrixMeasure(1, ac_pieces=[ACPiece(-1.0, 1.0, [[1.0]])]))


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def single_atom_file(tmp_path):
    return write_json(tmp_path / "single.json",
                      {"n": 1, "atoms": [{"x": 0.0, "W": [[[1, 0]]]}]})


@pytest.fixture
def two_atom_file(tmp_path):
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    return write_json(tmp_path / "two.json",
                      {"n": 2, "atoms": [{"x": -1.0, "W": eye}, {"x": 1.0, "W": eye}]})
