"""The four benchmark workloads.

Each workload loads a different ``specstab`` layer:

* ``scan-wide``: ``scan_forbidden`` over G=400 points on K=512 atoms plus
  P=16 AC pieces (n=3), in twenty 20-point slices.  Nearly all the time is in
  ``measure.integrate``, called a dozen times per point over all K+P terms.
* ``verify-atomic``: one-trial ``run_verify`` campaigns on purely atomic
  K=24, n=3 measures.  Nearly all the time is in the oracle's bisection
  through thousands of small ``integrate_cauchy`` calls.
* ``criterion-mixed``: single-energy criterion queries on K=8 atoms plus
  P=4 AC pieces (n=3).  The ε-schedules of ``herglotz`` and ``extensions``
  dominate, through many tiny complex-kernel ``integrate`` calls.
* ``cli-calls``: sequential ``python -m specstab.cli`` processes, one at a
  time (a closed loop with one client); the only workload through
  ``io``/``cli`` and process start-up.

A workload object is built from the seed alone.  ``setup`` holds exactly
the library calls made before the timed loop (it is what ``setup_s``
times); ``prepare`` makes the benchmark's own references and warms up; ``run(i)``
is operation i, worth ``work_per_op`` work units, and ``check(i, out)``
says whether its output is correct.
Operation i is the same on every call, so a traced pass can be replayed
untraced.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
# library functions are always called through their module, so the tracer's
# rebinding of module attributes sees every call
from specstab import cli, extensions, herglotz, scan, verify
from specstab import io as sio

import instances
import speed

SRC = Path(__file__).resolve().parent.parent / "src"


# -- scan-wide ----------------------------------------------------------------


def reference_scan(layout: instances.Layout, grid: np.ndarray, m_schedule,
                   tol_x: float):
    """Numpy broadcast reference for a scan: T(x), divergent directions and
    the regularized diagonals, for every grid point at once."""
    x = grid[:, None]
    dx_atoms = x - layout.xs[None, :]                            # (G, K)
    on_atom = np.abs(dx_atoms) <= tol_x
    in_piece = (layout.a[None, :] - tol_x <= x) & (x <= layout.b[None, :] + tol_x)
    wd = np.real(np.einsum("kii->ki", layout.W))                 # (K, n)
    rd = np.real(np.einsum("pii->pi", layout.rho))               # (P, n)
    bad = (on_atom @ (wd > 0) + in_piece @ (rd > 0)) > 0         # (G, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(on_atom, 0.0, 1.0 / dx_atoms ** 2)
        seg = np.where(in_piece, 0.0, 1.0 / (x - layout.b) - 1.0 / (x - layout.a))
    t = np.einsum("gk,kij->gij", inv2, layout.W) + np.einsum("gp,pij->gij", seg, layout.rho)
    reg = {}
    for m in m_schedule:
        m = float(m)
        atoms = 1.0 / (dx_atoms ** 2 + 1.0 / m ** 2)
        pieces = m * (np.arctan(m * (layout.b - x)) - np.arctan(m * (layout.a - x)))
        reg[int(m)] = atoms @ wd + pieces @ rd                   # (G, n)
    return t, bad, reg


class ScanWide:
    """Each operation scans one 20-point slice of the G=400 grid, short
    enough for the machine-speed probe to bracket it closely."""

    name = "scan-wide"
    work_unit = "grid points"
    speed_probe = speed.SpeedProbe
    slices = 20
    layers = ("measure.integrate", "measure.on_support", "herglotz.t_matrix",
              "scan.scan_forbidden")

    def __init__(self, seed: int, workdir: Path):
        self.inst = instances.scan_instance(np.random.default_rng(seed))
        self.work_per_op = self.inst.steps // self.slices

    def setup(self):
        self.omega = self.inst.layout.matrix_measure()
        grid = np.linspace(self.inst.lo, self.inst.hi, self.inst.steps)
        w = self.work_per_op
        self.configs = [scan.ScanConfig(grid[k * w], grid[(k + 1) * w - 1], w)
                        for k in range(self.slices)]

    def prepare(self):
        grid = np.concatenate([c.grid() for c in self.configs])
        self.t_ref, self.bad_ref, self.reg_ref = reference_scan(
            self.inst.layout, grid, self.configs[0].m_schedule, self.omega.tols.tol_x)
        self.run(0)

    def run(self, i: int):
        return scan.scan_forbidden(self.omega, self.configs[i % self.slices])

    def check(self, i: int, records) -> bool:
        if len(records) != self.work_per_op:
            return False
        first = (i % self.slices) * self.work_per_op
        for g, rec in enumerate(records, start=first):
            if rec.in_support != bool(self.inst.in_support[g]):
                return False
            dirs = tuple(int(k) for k in np.flatnonzero(self.bad_ref[g]))
            if rec.divergence_directions != dirs or rec.t_finite != (not dirs):
                return False
            if rec.t_finite:
                t = np.asarray(rec.t_value)
                if np.linalg.norm(t - self.t_ref[g]) > 1e-9 * np.linalg.norm(self.t_ref[g]):
                    return False
            for m, ref in self.reg_ref.items():
                if not np.allclose(rec.regularized_diagonals[m], ref[g], rtol=1e-9, atol=0.0):
                    return False
        return True


# -- verify-atomic ------------------------------------------------------------


class VerifyAtomic:
    name = "verify-atomic"
    work_unit = "trials"
    speed_probe = speed.SpeedProbe
    work_per_op = 1
    pool = 128      # a fresh instance per trial: a run averages over instances
    layers = ("verify.run_verify", "verify.run_trial", "oracle.classify",
              "oracle.real_poles", "oracle.residue_mass", "herglotz.integrate_cauchy",
              "measure.integrate", "herglotz.boundary_value", "herglotz.atom_mass",
              "herglotz.richardson_limit", "extensions.max_mult_test",
              "extensions.max_mult_test_via")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.layouts = [instances.atomic_layout(rng) for _ in range(self.pool)]
        self.seed = seed

    def setup(self):
        self.ms = [herglotz.HerglotzMatrix.from_measure(lay.matrix_measure())
                   for lay in self.layouts]

    def prepare(self):
        self.run(-1)

    def trial_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i + 1]).generate_state(1)[0])

    def run(self, i: int):
        return verify.run_verify(self.ms[i % self.pool], 1, self.trial_seed(i))

    def check(self, i: int, report) -> bool:
        return bool(report["ok"])


# -- criterion-mixed ----------------------------------------------------------


class CriterionMixed:
    name = "criterion-mixed"
    work_unit = "queries"
    speed_probe = speed.SpeedProbe
    work_per_op = 1
    pool = 4
    layers = ("extensions.max_mult_test", "extensions.max_mult_test_via",
              "herglotz.boundary_value", "herglotz.richardson_limit",
              "herglotz.evaluate", "herglotz.integrate_cauchy", "herglotz.t_matrix",
              "herglotz.atom_mass", "measure.integrate")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.insts = [instances.mixed_instance(rng) for _ in range(self.pool)]
        self.queries = [(k, q) for k, inst in enumerate(self.insts) for q in inst.queries]
        order = rng.permutation(len(self.queries))
        self.queries = [self.queries[j] for j in order]

    def setup(self):
        self.ms = [herglotz.HerglotzMatrix.from_measure(inst.layout.matrix_measure())
                   for inst in self.insts]
        self.d = []
        for k, q in self.queries:
            if q.kind == instances.AT_ATOM:
                self.d.append(None)
            else:
                d = herglotz.boundary_value(self.ms[k], q.x).m_boundary
                self.d.append((d, d + q.gap))

    def prepare(self):
        for i in range(3):
            self.run(i)

    def run(self, i: int):
        j = i % len(self.queries)
        k, q = self.queries[j]
        m = self.ms[k]
        if q.kind == instances.AT_ATOM:
            return herglotz.atom_mass(m, q.x)
        d, d_prime = self.d[j]
        return (extensions.max_mult_test(m, d, q.x).verdict,
                extensions.max_mult_test_via(m, d, d_prime, q.x).verdict)

    def check(self, i: int, out) -> bool:
        k, q = self.queries[i % len(self.queries)]
        if q.kind == instances.AT_ATOM:
            w = self.insts[k].layout.W[q.index]
            return float(np.linalg.norm(out - w)) <= verify.MASS_AGREE_TOL
        want = q.kind == instances.OFF_SUPPORT
        return out == (want, want)


# -- cli-calls --------------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class CliCalls:
    """CLI processes, timed against a bare interpreter's start."""

    name = "cli-calls"
    work_unit = "calls"
    work_per_op = 1
    speed_probe = staticmethod(speed.start_up_probe)
    layers = ("cli.main", "io.load_herglotz", "io.dump_json", "herglotz.t_matrix",
              "herglotz.boundary_value", "extensions.max_mult_test",
              "scan.scan_forbidden", "measure.integrate")

    def __init__(self, seed: int, workdir: Path):
        self.inst = instances.mixed_instance(np.random.default_rng(seed), queries=12)
        self.dir = workdir
        self.env = _cli_env()

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.measure_path = self.dir / "measure.json"
        with open(self.measure_path, "w") as fh:
            sio.dump_json(self.inst.layout.to_doc(), fh)
        m = sio.load_herglotz(str(self.measure_path))
        off = [q for q in self.inst.queries if q.kind == instances.OFF_SUPPORT][:2]
        piece = [q for q in self.inst.queries if q.kind == instances.IN_PIECE][:1]
        meas = ["--measure", str(self.measure_path)]
        self.argvs = []
        for j, q in enumerate(off):
            d_path = self.dir / f"d{j}.json"
            with open(d_path, "w") as fh:
                d = herglotz.boundary_value(m, q.x).m_boundary
                sio.dump_json({"D": sio.matrix_out(d)}, fh)
            x = ["--x", repr(q.x)]
            self.argvs += [["tmatrix", *meas, *x], ["boundary", *meas, *x],
                           ["test", *meas, "--d-matrix", str(d_path), *x]]
        self.argvs += [["boundary", *meas, "--x", repr(q.x)] for q in piece]
        # a small scan, so that every command costs about the same and the
        # latency percentiles do not sit on a boundary between commands
        self.argvs.append(["scan", *meas, "--grid=-5:5:8"])

    def run_in_process(self, i: int):
        """The same call as ``run(i)``, through ``cli.main`` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(self.argvs[i % len(self.argvs)]))
        return code, buf.getvalue()

    def prepare(self):
        self.refs = [self.run_in_process(i) for i in range(len(self.argvs))]
        self.run(0)

    def run(self, i: int):
        argv = self.argvs[i % len(self.argvs)]
        proc = subprocess.run([sys.executable, "-m", "specstab.cli", *argv],
                              capture_output=True, text=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, i: int, out) -> bool:
        return out == self.refs[i % len(self.argvs)] and out[0] == 0

    def _probe(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``, or the number
        it prints if it prints one."""
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=self.env, timeout=120, check=True)
        wall = time.perf_counter() - t
        return float(proc.stdout) if proc.stdout.strip() else wall

    def start_up_times(self, repeats: int = 5) -> dict:
        """Median bare-interpreter wall time, and median time to import the
        CLI module measured inside a fresh interpreter."""
        return {
            "cli.interpreter_s": median(self._probe("pass") for _ in range(repeats)),
            "cli.import_s": median(self._probe(
                "import time; t = time.perf_counter(); import specstab.cli; "
                "print(time.perf_counter() - t)") for _ in range(repeats))}


WORKLOADS = {w.name: w for w in (ScanWide, VerifyAtomic, CriterionMixed, CliCalls)}
