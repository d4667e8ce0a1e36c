import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from specstab import (ACPiece, Atom, ConditioningError, MatrixMeasure,
                      NotConvergedError, ScanConfig, cli, scan_forbidden)
from specstab.cli import main
from specstab.io import InputError, load_herglotz, load_hermitian, load_measure


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

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(1.0, 0.0, steps=10)
        with pytest.raises(ValueError):
            ScanConfig(0.0, 1.0, steps=1)


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
            for load in (load_measure, load_hermitian):
                with pytest.raises(InputError) as exc:
                    load(path)
                messages.add(str(exc.value))
            assert len(messages) == 1 and messages.pop().startswith(f"{path}: ")

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

    def test_masses_of_an_extension_read_tol_bv(self, single_atom_file, tmp_path,
                                                tol_bv_seen):
        # M_D carries no tolerances of its own: --tol-bv reaches the limit
        d = write_json(tmp_path / "d.json", [[[-0.5, 0]]])
        for extra in ((), ("--d-matrix", d)):
            assert self.run("masses", "--measure", single_atom_file, "--x", "0",
                            "--tol-bv", "1e-3", *extra) == 0
        assert tol_bv_seen == [1e-3, 1e-3]

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

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "n": 1, "atoms": [{"x": 0.0, "W": [[[-1, 0]]]}]})
        assert self.run("tmatrix", "--measure", path, "--x", "2") == 2
        assert "atoms[0]" in capsys.readouterr().err

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
        ("scan", "--grid", "0:nan:3"), ("boundary", "--x", "1", "--tol-bv", "nan")])
    def test_non_finite_real_argument_exits_2(self, single_atom_file, capsys, args):
        with pytest.raises(SystemExit) as exc:
            self.run(args[0], "--measure", single_atom_file, *args[1:])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

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
                                      ("eval", "--z", "0,1", "--tol-bv", "1e-8")])
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
            "boundary": base | {"--x", "--tol-bv"},
            "tmatrix": base | {"--x"},
            "masses": base | {"--d-matrix", "--x", "--tol-bv"},
            "eigs": base | {"--d-matrix", "--grid"},
            "test": base | {"--d-matrix", "--d-prime", "--x", "--tol-bv", "--tol-match"},
            "scan": base | {"--grid", "--format"},
            "verify": base | {"--trials", "--seed", "--tol-bv", "--tol-match"},
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {opt for action in p._actions for opt in action.option_strings
                           if opt not in ("-h", "--help")}
                    for name, p in sub.choices.items()}
        assert declared == expected
        assert sum(map(len, declared.values())) == 53

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
