import argparse
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from specstab import (ACPiece, Atom, ConditioningError, HerglotzMatrix, MatrixMeasure,
                      NotConvergedError, RegularizedKernel, ScanConfig, cli, integrate,
                      is_divergent, scan_forbidden, t_matrix)
from specstab.cli import main
from specstab.io import InputError, load_herglotz, load_hermitian


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


class TestScanForbidden:
    def test_piece_plus_atom(self, mixed_measure):
        # piece on [0,1] with unit density, atom at 2
        config = ScanConfig(-0.5, 2.5, steps=61)
        records = scan_forbidden(mixed_measure, config)
        by_x = {round(r.x, 9): r for r in records}
        for r in records:
            if 0.0 < r.x < 1.0:
                assert not r.t_finite and r.in_support
        assert not by_x[2.0].t_finite  # the atom
        r15 = by_x[1.5]
        assert r15.t_finite and not r15.in_support
        # 1/(1.5-1) - 1/1.5 + 1/(1.5-2)^2 = 16/3
        assert np.asarray(r15.t_value)[0, 0] == pytest.approx(16.0 / 3.0)

    def test_far_point_finite(self):
        omega = MatrixMeasure(1, [Atom(0.0, [[1.0]])])
        records = scan_forbidden(omega, ScanConfig(5.0, 6.0, steps=3))
        assert all(r.t_finite and not r.in_support for r in records)

    def test_regularized_diagonals_nondecreasing_in_m(self, mixed_measure):
        config = ScanConfig(-0.5, 2.5, steps=31)
        for rec in scan_forbidden(mixed_measure, config):
            ms = sorted(rec.regularized_diagonals)
            for m1, m2 in zip(ms[:-1], ms[1:]):
                a = np.array(rec.regularized_diagonals[m1])
                b = np.array(rec.regularized_diagonals[m2])
                assert np.all(b >= a - 1e-12)

    def test_dyadic_demo_divergence_spreads(self):
        # atoms at j/2^m with weights 16^-m: every atom gridpoint diverges,
        # and the divergence points fill [0,1] as the depth grows
        for depth in [2, 4, 6]:
            seen = {}
            for m in range(depth + 1):
                for j in range(2 ** m + 1):
                    seen.setdefault(j / 2 ** m, 16.0 ** -m)
            atoms = [Atom(x, [[w]]) for x, w in sorted(seen.items())]
            omega = MatrixMeasure(1, atoms)
            grid = ScanConfig(0.0, 1.0, steps=2 ** depth + 1)
            records = scan_forbidden(omega, grid)
            assert all(not r.t_finite for r in records)

    def test_records_equal_the_per_point_library_calls(self):
        # a grid point on an atom (-1), within tol_x of an atom (0.5), on
        # piece ends (1, 1.75), within tol_x of a piece end (2.5) and inside
        # a piece (1.25, 1.5): every value is the one the library gives at
        # that point, bit for bit
        omega = MatrixMeasure(2, [Atom(-1.0, np.diag([1.0, 0.0])),
                                  Atom(0.5 + 4e-13, [[1.0, 0.5j], [-0.5j, 1.0]])],
                              [ACPiece(1.0, 1.75, np.diag([1.0, 0.5])),
                               ACPiece(2.5 - 6e-13, 2.75, np.diag([0.0, 1.0]))])
        config = ScanConfig(-2.0, 3.0, 21)
        xs = config.grid().tolist()
        assert {-1.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.5} <= set(xs)
        h = HerglotzMatrix.from_measure(omega)
        records = scan_forbidden(omega, config)
        assert [r.x for r in records] == xs
        for r in records:
            assert r.in_support is omega.on_support(r.x)
            t = t_matrix(h, r.x)
            if is_divergent(t):
                assert r.t_value == t and not r.t_finite
            else:
                assert r.t_finite and np.array_equal(r.t_value, t)
            assert list(r.regularized_diagonals) == list(ScanConfig.m_schedule)
            for m, diag in r.regularized_diagonals.items():
                v = integrate(RegularizedKernel(r.x, m), omega)
                assert diag == v.real.diagonal().tolist()
        on = {r.x: r.in_support for r in records}
        assert all(on[x] for x in (-1.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.5))
        assert [r.divergence_directions for r in records if r.x in (-1.0, 2.5)] == [(0,), (1,)]

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(1.0, 0.0, steps=10)
        with pytest.raises(ValueError):
            ScanConfig(0.0, 1.0, steps=1)

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))],
                             ids=["float", "float64"])
    def test_a_span_that_overflows_is_rejected(self, a, b):
        # the grid was accepted and grid() then overflowed in b - a, a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"span must be finite, got \[-1"):
                ScanConfig(a, b, 5)

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3"])
    def test_non_integral_steps_rejected(self, steps):
        # 2.5 was accepted and then failed in np.linspace with a bare TypeError
        with pytest.raises(ValueError, match="integer"):
            ScanConfig(0.0, 1.0, steps)

    @pytest.mark.parametrize("a, b", [("0", "1"), (None, 1.0), (0.0, None), (True, 2.0),
                                      (np.bool_(False), 1.0), (np.array(0.0), 1.0)],
                             ids=["str", "None", "None end", "bool", "numpy bool", "0-d array"])
    def test_ends_that_are_not_real_numbers_rejected(self, a, b):
        # "0" failed in grid() with numpy's DTypePromotionError, None with a bare
        # TypeError, and True was taken as 1.0
        with pytest.raises(ValueError, match="grid ends must be real numbers"):
            ScanConfig(a, b, 3)

    def test_numpy_ends_accepted(self):
        grid = ScanConfig(np.float32(0.0), np.int64(1), 3).grid()
        assert grid.tolist() == [0.0, 0.5, 1.0]

    def test_numpy_integer_steps_accepted(self):
        assert ScanConfig(0.0, 1.0, np.int64(3)).grid().tolist() == [0.0, 0.5, 1.0]

    @staticmethod
    def _spy(monkeypatch):
        """The shapes of the RegularizedKernel blocks formed and the kernels
        integrated by scan and herglotz, in call order."""
        from specstab import herglotz, scan
        blocks, calls = [], []
        coefficients = RegularizedKernel.coefficients

        def block(kernel, pts, k):
            out = coefficients(kernel, pts, k)
            blocks.append(out.shape)
            return out

        def counted(kernel, omega):
            calls.append(kernel)
            return integrate(kernel, omega)

        monkeypatch.setattr(RegularizedKernel, "coefficients", block)
        for mod in (scan, herglotz):
            monkeypatch.setattr(mod, "integrate", counted)
        return blocks, calls

    def test_one_coefficient_block_per_chunk(self, mixed_measure, monkeypatch):
        # every (point, level) row of a chunk comes from one block; each level
        # and T(x) still integrate once, the call count the benchmark's tracer pins
        blocks, calls = self._spy(monkeypatch)
        g, levels = 7, len(ScanConfig.m_schedule)
        scan_forbidden(mixed_measure, ScanConfig(-0.5, 2.5, g))
        assert blocks == [(g, levels, mixed_measure._pts.size)]
        assert len(calls) == g * (1 + levels)

    def test_a_grid_longer_than_a_chunk_is_scanned_chunk_by_chunk(self, mixed_measure,
                                                                  monkeypatch):
        # the block of a long grid is bounded by the chunk's entry budget, and
        # chunking moves no bit: the grid -5, -4, ..., 5 in chunks of three
        # points gives the records of scanning each chunk on its own
        from specstab import scan
        levels, terms = len(ScanConfig.m_schedule), mixed_measure._pts.size
        # an entry budget one short of four points' blocks: chunks of three
        monkeypatch.setattr(scan, "_BLOCK_ENTRIES", 4 * levels * terms - 1)
        blocks, calls = self._spy(monkeypatch)
        records = scan_forbidden(mixed_measure, ScanConfig(-5.0, 5.0, 11))
        assert blocks == [(3, levels, terms)] * 3 + [(2, levels, terms)]
        assert len(calls) == 11 * (1 + levels)

        def bits(rec):
            t = np.asarray(rec.t_value).tobytes() if rec.t_finite else rec.t_value.directions
            return (rec.x, rec.in_support, rec.t_finite, t,
                    [(m, np.array(v).tobytes()) for m, v in rec.regularized_diagonals.items()])

        one_by_one = [r for a, b, g in [(-5.0, -3.0, 3), (-2.0, 0.0, 3), (1.0, 3.0, 3),
                                        (4.0, 5.0, 2)]
                      for r in scan_forbidden(mixed_measure, ScanConfig(a, b, g))]
        assert [r.x for r in records] == [float(x) for x in range(-5, 6)]
        assert [bits(r) for r in records] == [bits(r) for r in one_by_one]
        assert any(not r.t_finite for r in records) and any(r.t_finite for r in records)


class TestIO:
    def test_load_measure_with_offset(self, tmp_path):
        path = write_json(tmp_path / "m.json", {
            "n": 1, "atoms": [{"x": 0.0, "W": [[[1, 0]]]}], "C": [[[0.5, 0]]]})
        m = load_herglotz(path)
        assert m.C[0, 0] == 0.5

    def test_non_psd_weight_names_atom(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "n": 1, "atoms": [{"x": 0.0, "W": [[[1, 0]]]},
                              {"x": 1.0, "W": [[[-1, 0]]]}]})
        with pytest.raises(InputError, match=r"atoms\[1\]"):
            load_herglotz(path)

    def test_bad_complex_entry(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "n": 1, "atoms": [{"x": 0.0, "W": [["nope"]]}]})
        with pytest.raises(InputError, match="re, im"):
            load_herglotz(path)

    def test_unreadable_files_fail_alike_in_both_loaders(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (str(tmp_path / "missing.json"), str(bad)):
            messages = set()
            for load in (load_herglotz, load_hermitian):
                with pytest.raises(InputError) as exc:
                    load(path)
                messages.add(str(exc.value))
            assert len(messages) == 1 and messages.pop().startswith(f"{path}: ")

    @pytest.mark.parametrize("doc, match", [
        ({"atoms": []}, "field 'n'"),
        ({"n": "two"}, "field 'n'"),
        ({"n": 1, "atoms": [{"W": [[[1, 0]]]}]}, r"atoms\[0\].x is not a real number, got None$"),
        ({"n": 1, "atoms": [{"x": "left", "W": [[[1, 0]]]}]}, r"atoms\[0\].x is not a real number, got 'left'$"),
        ({"n": 1, "ac": [{"a": 0.0, "rho": [[[1, 0]]]}]}, r"ac\[0\]: ends are not real numbers$"),
        ({"n": 1, "ac": [{"a": [0.0], "b": 1.0, "rho": [[[1, 0]]]}]}, r"ac\[0\]: ends are not real numbers$"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[[1, 0]], [[1, 0]]]}]},
         r"atoms\[0\].W: expected 1 rows"),
        ({"n": 2, "atoms": [{"x": 0.0, "W": [[[1, 0]], [[0, 0], [1, 0]]]}]},
         r"atoms\[0\].W: row 0 must have 2 entries"),
        ({"n": 1, "atoms": None}, "field 'atoms' must be a list"),
        ({"n": 1, "atoms": 5}, "field 'atoms' must be a list"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[[1, 0]]]}], "ac": None},
         "field 'ac' must be a list"),
        ({"n": 1.7, "atoms": [{"x": 0.0, "W": [[[1, 0]]]}]}, "field 'n'"),
        ({"n": "1", "atoms": [{"x": 0.0, "W": [[[1, 0]]]}]}, "field 'n'"),
        ({"n": True, "atoms": [{"x": 0.0, "W": [[[1, 0]]]}]}, "field 'n'"),
        # a string or a bool is not read as the number it spells
        ({"n": 1, "atoms": [{"x": "0.5", "W": [[[1, 0]]]}]},
         r"atoms\[0\].x is not a real number, got '0.5'$"),
        ({"n": 1, "atoms": [{"x": True, "W": [[[1, 0]]]}]},
         r"atoms\[0\].x is not a real number, got True$"),
        ({"n": 1, "ac": [{"a": "0", "b": 1.0, "rho": [[[1, 0]]]}]},
         r"ac\[0\]: ends are not real numbers$"),
        ({"n": 1, "ac": [{"a": 0.0, "b": True, "rho": [[[1, 0]]]}]},
         r"ac\[0\]: ends are not real numbers$"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[["1", "0"]]]}]},
         r"atoms\[0\].W\[0\]\[0\]: \[re, im\] entries must be real numbers"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[[1, False]]]}]},
         r"atoms\[0\].W\[0\]\[0\]: \[re, im\] entries must be real numbers"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[True]]}]},
         r"atoms\[0\].W\[0\]\[0\]: expected \[re, im\] pair, got True"),
        ({"n": 1, "ac": [{"a": 0.0, "b": 1.0, "rho": [["1"]]}]},
         r"ac\[0\].rho\[0\]\[0\]: expected \[re, im\] pair"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[1]]}], "C": [[[0, "0"]]]},
         r"C\[0\]\[0\]: \[re, im\] entries must be real numbers"),
        # an integer no float can hold raised a bare OverflowError
        ({"n": 1, "atoms": [{"x": 10 ** 400, "W": [[[1, 0]]]}]},
         r"atoms\[0\].x is not a real number, got 1(0){39}\.\.\. \(401 characters\)$"),
        ({"n": 1, "atoms": [{"x": 0.0, "W": [[[-10 ** 400, 0]]]}]},
         r"atoms\[0\].W\[0\]\[0\]: \[re, im\] entries must be real numbers"),
    ])
    def test_malformed_measure_file_names_the_field(self, tmp_path, doc, match):
        with pytest.raises(InputError, match=match):
            load_herglotz(write_json(tmp_path / "m.json", doc))

    @pytest.mark.parametrize("entry", ["1", True, ["1", 0], [1, True]])
    def test_load_hermitian_reads_only_json_numbers(self, tmp_path, entry):
        with pytest.raises(InputError, match=r"D\[0\]\[0\]: "):
            load_hermitian(write_json(tmp_path / "d.json", [[entry]]))

    def test_load_hermitian_rejects_an_empty_matrix(self, tmp_path):
        with pytest.raises(InputError, match="expected a matrix"):
            load_hermitian(write_json(tmp_path / "d.json", []))

    def test_load_hermitian_rejects_nonhermitian(self, tmp_path):
        path = write_json(tmp_path / "d.json", [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
        with pytest.raises(InputError, match="Hermitian"):
            load_hermitian(path)

    def test_non_finite_entry_names_its_location(self, tmp_path):
        # json reads NaN and Infinity; each must be named where it stands
        d = write_json(tmp_path / "d.json", {"D": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]})
        with pytest.raises(InputError) as exc:
            load_hermitian(d)
        assert str(exc.value) == f"{d}: D[1][1]: not a finite number"
        atom = {"x": 0.0, "W": [[[1, 0]]]}
        for doc, where in [({"n": 1, "atoms": [atom], "C": [[[0, float("-inf")]]]}, "C[0][0]"),
                           ({"n": 1, "atoms": [{"x": 0.0, "W": [[float("inf")]]}]},
                            "atoms[0].W[0][0]"),
                           ({"n": 1, "atoms": [atom], "ac": [{"a": 1.0, "b": 2.0,
                                                              "rho": [[[float("nan"), 0]]]}]},
                            "ac[0].rho[0][0]")]:
            path = write_json(tmp_path / "m.json", doc)
            with pytest.raises(InputError) as exc:
                load_herglotz(path)
            assert str(exc.value) == f"{path}: {where}: not a finite number"


class TestCLI:
    def run(self, *argv):
        return main(list(argv))

    def test_eval(self, single_atom_file, capsys):
        assert self.run("eval", "--measure", single_atom_file, "--z", "0,1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"][0][0] == [0.0, 1.0]

    def test_eval_of_an_extension(self, single_atom_file, tmp_path, capsys):
        # M_D(z) = (D - M(z))^{-1} = z for D = 0 and M(z) = -1/z
        d = write_json(tmp_path / "d.json", [[[0, 0]]])
        assert self.run("eval", "--measure", single_atom_file, "--d-matrix", d, "--z", "0,2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"][0][0] == pytest.approx([0.0, 2.0])

    def test_boundary(self, single_atom_file, capsys):
        assert self.run("boundary", "--measure", single_atom_file, "--x", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] and doc["m_boundary"][0][0][0] == pytest.approx(-0.5)

    def test_tmatrix(self, single_atom_file, capsys):
        assert self.run("tmatrix", "--measure", single_atom_file, "--x", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_finite"] and doc["t"][0][0][0] == pytest.approx(0.25)

    def test_masses(self, single_atom_file, capsys):
        assert self.run("masses", "--measure", single_atom_file, "--x", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mass"][0][0][0] == pytest.approx(1.0)

    def test_eigs(self, single_atom_file, tmp_path, capsys):
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        assert self.run("eigs", "--measure", single_atom_file,
                        "--d-matrix", d, "--grid=-1:5:2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["poles"]) == 1
        assert doc["poles"][0]["p"] == pytest.approx(2.0, abs=1e-9)
        assert doc["poles"][0]["is_max_mult"]

    def test_test_command(self, single_atom_file, tmp_path, capsys):
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        assert self.run("test", "--measure", single_atom_file,
                        "--d-matrix", d, "--x", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] and doc["t_finite"]

    def test_non_finite_residual_is_strict_json_null(self, single_atom_file, tmp_path, capsys):
        # at the atom the boundary value does not converge: residual is inf
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        assert self.run("test", "--measure", single_atom_file,
                        "--d-matrix", d, "--x", "0") == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["residual"] is None and not doc["verdict"]

    def test_test_command_with_dprime(self, single_atom_file, tmp_path, capsys):
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        dp = write_json(tmp_path / "dp.json", [[[0.0, 0]]])
        assert self.run("test", "--measure", single_atom_file, "--d-matrix", d,
                        "--d-prime", dp, "--x", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"]

    def test_test_command_at_an_atom_is_closed_form(self, single_atom_file, tmp_path,
                                                    capsys):
        # at the unit atom M_{D'}(0+i0) = 0 and T_{D'}(0) = W⁻¹ = 1, while
        # (D' - D)^{-1} = 2: false, with the relative residual |0 - 2|/2
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        dp = write_json(tmp_path / "dp.json", [[[0.0, 0]]])
        assert self.run("test", "--measure", single_atom_file, "--d-matrix", d,
                        "--d-prime", dp, "--x", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert not doc["verdict"] and doc["t_finite"] and doc["residual"] == 1.0
        assert doc["t"] == [[[1.0, 0.0]]] and doc["m_boundary"] == [[[0.0, 0.0]]]

    def test_masses_of_an_extension_read_tol_bv(self, single_atom_file, tmp_path,
                                                tol_bv_seen):
        # M_D carries no tolerances of its own: --tol-bv reaches the limit
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        for extra in ((), ("--d-matrix", d)):
            assert self.run("masses", "--measure", single_atom_file, "--x", "0",
                            "--tol-bv", "1e-3", *extra) == 0
        assert tol_bv_seen == [1e-3, 1e-3]

    @pytest.mark.parametrize("args", [
        ("tmatrix", "--x", "-1e-3"), ("boundary", "--x", "-0.56"), ("eval", "--z", "-0.56,0.1"),
        ("scan", "--grid", "-5:5:8"), ("eigs", "--grid", "-1:5:2", "--d-matrix", "D")])
    def test_value_after_a_space_parses_like_the_equals_form(self, single_atom_file,
                                                             tmp_path, capsys, args):
        # "--x -1e-3" and the like used to exit 2 with "expected one argument"
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        args = [d if a == "D" else a for a in args]
        spaced = [args[0], "--measure", single_atom_file, *args[1:]]
        joined = [args[0], "--measure", single_atom_file, f"{args[1]}={args[2]}", *args[3:]]
        assert self.run(*spaced) == 0
        out = capsys.readouterr().out
        assert self.run(*joined) == 0
        assert capsys.readouterr().out == out

    def test_scan_json_names_the_divergent_directions(self, two_atom_file, capsys):
        assert self.run("scan", "--measure", two_atom_file, "--grid=-1:1:3") == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r.get("divergent_directions") for r in records] == [[0, 1], None, [0, 1]]
        assert [("t_diagonal" in r) for r in records] == [False, True, False]

    def test_scan_csv(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {
            "n": 1,
            "atoms": [{"x": 2.0, "W": [[[1, 0]]]}],
            "ac": [{"a": 0.0, "b": 1.0, "rho": [[[1, 0]]]}]})
        out = tmp_path / "scan.csv"
        assert self.run("scan", "--measure", path, "--grid=-0.5:2.5:61",
                        "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x,in_support,t_finite,divergent_directions")
        assert len(lines) == 62

    def test_verify_ok_and_deterministic(self, single_atom_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert self.run("verify", "--measure", single_atom_file, "--trials", "3",
                        "--seed", "7", "--out", str(out1)) == 0
        assert self.run("verify", "--measure", single_atom_file, "--trials", "3",
                        "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_mismatch_exits_1_after_writing_the_report(self, single_atom_file,
                                                               tmp_path):
        out = tmp_path / "r.json"
        assert self.run("verify", "--measure", single_atom_file, "--trials", "2",
                        "--seed", "7", "--tol-match", "1e-30", "--out", str(out)) == 1
        assert json.loads(out.read_text())["ok"] is False

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "n": 1, "atoms": [{"x": 0.0, "W": [[[-1, 0]]]}]})
        assert self.run("tmatrix", "--measure", path, "--x", "2") == 2
        assert "atoms[0]" in capsys.readouterr().err

    def test_non_hermitian_c_exits_2_naming_the_file(self, tmp_path, capsys):
        # HerglotzMatrix's ValueError reached the CLI without the path
        path = write_json(tmp_path / "m.json", {
            "n": 2, "atoms": [{"x": 0.0, "W": [[1, 0], [0, 1]]}],
            "C": [[0, [1, 0]], [0, 0]]})
        assert self.run("tmatrix", "--measure", path, "--x", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: C must be Hermitian\n"

    def test_term_list_that_is_not_a_list_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"n": 1, "atoms": None})
        assert self.run("tmatrix", "--measure", path, "--x", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field 'atoms' must be a list\n"

    @pytest.mark.parametrize("args", [("tmatrix", "--x", "2"),
                                      ("scan", "--grid=-1:1:3", "--format", "csv")])
    def test_unwritable_out_exits_2(self, single_atom_file, tmp_path, capsys, args):
        out = tmp_path / "missing" / "doc.out"
        assert self.run(args[0], "--measure", single_atom_file, *args[1:],
                        "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_nan_atom_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json", {
            "n": 1, "atoms": [{"x": float("nan"), "W": [[[1, 0]]]},
                              {"x": 1.0, "W": [[[1, 0]]]}]})
        assert self.run("boundary", "--measure", path, "--x", "2") == 2
        captured = capsys.readouterr()
        assert "atoms[" in captured.err
        assert "NaN" not in captured.out + captured.err

    @pytest.mark.parametrize("args", [
        ("boundary", "--x", "nan"), ("boundary", "--x", "inf"),
        ("tmatrix", "--x=-inf"), ("eval", "--z", "nan,1"), ("eval", "--z", "1+infj"),
        ("scan", "--grid", "0:nan:3"), ("masses", "--x", "1", "--tol-bv", "nan")])
    def test_non_finite_real_argument_exits_2(self, single_atom_file, capsys, args):
        # the parser reads NaN and ±inf; the library check reading the value rejects it
        assert self.run(args[0], "--measure", single_atom_file, *args[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_a_grid_span_that_overflows_exits_2(self, single_atom_file, capsys):
        # two numpy overflow warnings used to precede "points must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("scan", "--measure", single_atom_file, "--grid=-1e308:1e308:5") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: grid ends and their span must be finite, got [-1e+308, 1e+308]\n")

    def test_nan_in_d_file_exits_2_naming_the_entry(self, single_atom_file, tmp_path, capsys):
        d = write_json(tmp_path / "d.json", [[[float("nan"), 0]]])
        assert self.run("test", "--measure", single_atom_file, "--d-matrix", d, "--x", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {d}: D[0][0]: not a finite number\n"

    def test_non_numeric_entry_exits_2_naming_the_entry(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"n": 1, "atoms": [{"x": 0.0, "W": [[["abc", 0]]]}]})
        assert self.run("tmatrix", "--measure", path, "--x", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {path}: atoms[0].W[0][0]: [re, im] entries must be real numbers, "
            "got ['abc', 0]\n")

    @pytest.mark.parametrize("args", [("test", "--x", "0.3"), ("eigs", "--grid=-1:1:2")])
    def test_d_of_the_wrong_size_exits_2(self, single_atom_file, tmp_path, capsys, args):
        d = write_json(tmp_path / "d.json", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        assert self.run(args[0], "--measure", single_atom_file, "--d-matrix", d, *args[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: the parameter is 2x2 but the measure has n=1\n")

    @pytest.mark.parametrize("args", [("test", "--x", "0.3"), ("eigs", "--grid=-1:1:2")])
    def test_d_matrix_is_required(self, single_atom_file, capsys, args):
        with pytest.raises(SystemExit) as exc:
            self.run(args[0], "--measure", single_atom_file, *args[1:])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--d-matrix" in captured.err

    @pytest.mark.parametrize("args", [("boundary", "--x", "2", "--format", "csv"),
                                      ("eval", "--z", "0,1", "--tol-bv", "1e-8"),
                                      ("boundary", "--x", "2", "--tol-bv", "1e-8")])
    def test_option_the_command_does_not_read_exits_2(self, single_atom_file, capsys, args):
        with pytest.raises(SystemExit) as exc:
            self.run(args[0], "--measure", single_atom_file, *args[1:])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_option_census(self):
        # each command declares exactly the options its code reads
        base = {"--measure", "--out", "--tol-rank", "--tol-x"}
        expected = {
            "eval": base | {"--d-matrix", "--z"},
            "boundary": base | {"--x"},
            "tmatrix": base | {"--x"},
            "masses": base | {"--d-matrix", "--x", "--tol-bv"},
            "eigs": base | {"--d-matrix", "--grid"},
            "test": base | {"--d-matrix", "--d-prime", "--x", "--tol-match"},
            "scan": base | {"--grid", "--format"},
            "verify": base | {"--trials", "--seed", "--tol-match"},
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {opt for action in p._actions for opt in action.option_strings
                           if opt not in ("-h", "--help")}
                    for name, p in sub.choices.items()}
        assert declared == expected
        assert sum(map(len, declared.values())) == 50

    def test_verify_rejects_negative_trials(self, single_atom_file, capsys):
        assert self.run("verify", "--measure", single_atom_file, "--trials", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least one trial" in captured.err

    @pytest.mark.parametrize("error", [
        NotConvergedError("atom mass limit at x=0.0 did not converge"),
        ConditioningError("D - M(z) is numerically singular (smallest sv 1.000e-17)")])
    def test_numerical_failure_exits_3(self, single_atom_file, tmp_path, capsys,
                                       monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "atom_mass", fail)
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        assert self.run("masses", "--measure", single_atom_file, "--d-matrix", d,
                        "--x", "0") == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    def test_unformed_eps_sample_exits_3(self, single_atom_file, tmp_path, capsys,
                                         monkeypatch):
        # M_D singular all along the schedule: the limit cannot be formed
        monkeypatch.setattr(cli, "extension_weyl",
                            lambda m, d: lambda z: np.full((np.size(z), 1, 1), np.nan))
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        assert self.run("masses", "--measure", single_atom_file, "--d-matrix", d,
                        "--x", "0") == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "numerically singular" in captured.err and captured.err.count("\n") == 1

    def test_module_entry_point(self, single_atom_file):
        proc = subprocess.run(
            [sys.executable, "-m", "specstab.cli", "tmatrix",
             "--measure", single_atom_file, "--x", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["t_finite"]
