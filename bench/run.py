#!/usr/bin/env python3
"""specstab benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
benchmark writes only under ``.bench_work/`` in the root.

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics are reported: ``setup_s`` (median time of the library
calls that build a workload's inputs, set up once before the run and again
at even intervals during it), ``ops_per_s`` (work units per second spent
in the library: grid points, trials, queries or CLI calls), and
``op_p50_ms`` / ``op_p90_ms`` (per-operation latency: one 20-point scan
slice, one trial, one query, one CLI process).

All times are scaled to a reference machine speed by ``speed.SpeedProbe``,
which times a fixed reference between operations (an in-process kernel, or
a bare interpreter start on ``cli-calls``); the unscaled throughput and the
mean scale factor are printed on the line before the result.

With ``--trace 1`` the library functions are wrapped by the span tracer for
half of ``--seconds``, the same operations are then replayed untraced, and
the per-layer metrics are reported, normalised per operation.  Spans are
written to ``.bench_work/<workload>/spans.npz``.

Every operation's output is checked; an exception or a wrong output counts
as one failed operation.  The last line of standard output is the result
as one JSON object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = ("measure", "herglotz", "extensions", "oracle", "scan", "verify", "io", "cli")
SETUPS = 10        # set-ups per untraced run, spread evenly over the run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}}


class Runner:
    """Runs operations and set-ups of one workload, timing each, checking
    each output, and sampling the machine's speed in between."""

    def __init__(self, wl, op, probe, tracer=None):
        self.wl = wl
        self.op = op
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setups = []          # (start, end) of each set-up

    def setup(self) -> None:
        self.probe.sample()
        t = time.perf_counter()
        self.wl.setup()
        self.setups.append((t, time.perf_counter()))

    def one(self, i: int) -> tuple:
        """Run and check operation i; returns its (start, end)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
        t = time.perf_counter()
        try:
            out = self.op(i)
        except Exception:
            span = (t, time.perf_counter())
            self._fail(i, traceback.format_exc())
            return span
        span = (t, time.perf_counter())
        try:
            ok, why = self.wl.check(i, out), "wrong output"
        except Exception:
            ok, why = False, traceback.format_exc()
        if not ok:
            self._fail(i, why)
        return span

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {i} failed: {why}", file=sys.stderr)

    def for_seconds(self, seconds: float, setup_every: float = math.inf) -> list:
        """Run operations 0, 1, ... while the next one is expected to end
        within ``seconds`` of the start (always at least one), setting up
        again whenever ``setup_every`` seconds have passed since the last
        set-up.  Returns the operations' (start, end)."""
        spans = []
        busy = 0.0
        start = last_setup = time.perf_counter()
        while not spans or time.perf_counter() - start + busy / len(spans) <= seconds:
            if time.perf_counter() - last_setup >= setup_every:
                self.setup()
                last_setup = time.perf_counter()
            self.probe.sample_if_due()
            spans.append(self.one(len(spans)))
            busy += spans[-1][1] - spans[-1][0]
        self.probe.sample()
        return spans

    def replay(self, count: int) -> list:
        spans = []
        for i in range(count):
            self.probe.sample_if_due()
            spans.append(self.one(i))
        self.probe.sample()
        return spans

    def at_reference_speed(self, spans) -> list:
        """Durations of the (start, end) spans, scaled to reference speed."""
        return [(e - s) * self.probe.scale(s, e) for s, e in spans]


def end_to_end(wl, setup_times, times) -> dict:
    return {"setup_s": (median(setup_times), "s"),
            "ops_per_s": (wl.work_per_op * len(times) / sum(times), "1/s"),
            "op_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
            "op_p90_ms": (1e3 * float(np.percentile(times, 90)), "ms")}


def per_layer(prof, ops: int, traced_s: float, overhead: float, extra: dict,
              scale: float) -> dict:
    """Per-layer metrics of a traced run of ``ops`` operations that took
    ``traced_s`` (as measured); span times are scaled by ``scale`` to
    reference speed, like the operation times."""
    g = prof.get

    def ratio(a, b):
        return a / b if b else 0.0

    integ, rich, rp = g("measure.integrate"), g("herglotz.richardson_limit"), g("oracle.real_poles")
    bv, via = g("herglotz.boundary_value"), g("extensions.max_mult_test_via")
    poles = rp.attrs.get("poles", 0.0)
    m = {
        "measure.integrate.calls": (integ.calls / ops, "count/op"),
        "measure.integrate.self_s": (integ.self_s / ops, "s/op"),
        "measure.integrate.terms": (integ.attrs.get("terms", 0.0) / ops, "count/op"),
        "measure.integrate.divergent_ratio": (ratio(integ.attrs.get("divergent", 0.0), integ.calls), "ratio"),
        "measure.on_support.self_s": (g("measure.on_support").self_s / ops, "s/op"),
        "herglotz.boundary_value.self_s": (bv.self_s / ops, "s/op"),
        "herglotz.boundary_value.closed_form_ratio": (ratio(bv.attrs.get("closed_form", 0.0), bv.calls), "ratio"),
        "herglotz.richardson_limit.calls": (rich.calls / ops, "count/op"),
        "herglotz.richardson_limit.samples_per_call": (ratio(rich.attrs.get("samples", 0.0), rich.calls), "count"),
        "herglotz.richardson_limit.converged_ratio": (ratio(rich.attrs.get("converged", 0.0), rich.calls), "ratio"),
        "herglotz.evaluate.calls": (g("herglotz.evaluate").calls / ops, "count/op"),
        "herglotz.integrate_cauchy.calls": (g("herglotz.integrate_cauchy").calls / ops, "count/op"),
        "herglotz.t_matrix.self_s": (g("herglotz.t_matrix").self_s / ops, "s/op"),
        "herglotz.atom_mass.self_s": (g("herglotz.atom_mass").self_s / ops, "s/op"),
        "extensions.max_mult_test.self_s": (g("extensions.max_mult_test").self_s / ops, "s/op"),
        "extensions.max_mult_test_via.self_s": (via.self_s / ops, "s/op"),
        "extensions.max_mult_test_via.undecided": (via.attrs.get("undecided", 0.0) / ops, "count/op"),
        "oracle.classify.self_s": (g("oracle.classify").self_s / ops, "s/op"),
        "oracle.real_poles.self_s": (rp.self_s / ops, "s/op"),
        "oracle.real_poles.incl_ratio": (ratio(rp.incl_s, traced_s), "ratio"),
        "oracle.real_poles.integrate_share": (
            ratio(prof.inside_real_poles("measure.integrate").self_s, rp.incl_s), "ratio"),
        "oracle.residue_mass.self_s": (g("oracle.residue_mass").self_s / ops, "s/op"),
        "oracle.poles": (poles / ops, "count/op"),
        "oracle.cauchy_evals_per_pole": (
            ratio(prof.inside_real_poles("herglotz.integrate_cauchy").calls, poles), "count"),
        "scan.scan_forbidden.self_s": (g("scan.scan_forbidden").self_s / ops, "s/op"),
        "verify.run_trial.self_s": (g("verify.run_trial").self_s / ops, "s/op"),
        "verify.mismatches": (g("verify.run_trial").attrs.get("mismatches", 0.0) / ops, "count/op"),
        "cli.interpreter_s": (extra.get("cli.interpreter_s", 0.0), "s"),
        "cli.import_s": (extra.get("cli.import_s", 0.0), "s"),
        "cli.main_inproc_s": (extra.get("cli.main_inproc_s", 0.0), "s"),
        "io.load_herglotz.self_s": (g("io.load_herglotz").self_s / ops, "s/op"),
        "io.dump_json.self_s": (g("io.dump_json").self_s / ops, "s/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.cover_ratio"] = (ratio(prof.cover_s(layer), traced_s), "ratio")
    m["herglotz_or_extensions.cover_ratio"] = (
        ratio(prof.cover_s("herglotz", "extensions"), traced_s), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    for name, (value, unit) in m.items():
        if unit in ("s", "s/op") and name not in extra:
            m[name] = (value * scale, unit)
    return m


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    env = environment()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK / args.workload)
    probe = wl.speed_probe()
    if not args.trace:
        runner = Runner(wl, wl.run, probe)
        runner.setup()
        wl.prepare()
        # repeated set-ups sample the machine across the whole run, not only
        # at its start; they do not count in the operations' times
        spans = runner.for_seconds(args.seconds, args.seconds / SETUPS)
        times = runner.at_reference_speed(spans)
        metrics = end_to_end(wl, runner.at_reference_speed(runner.setups), times)
        detail = {"ops": len(times), "work_unit": wl.work_unit,
                  "raw_ops_per_s": wl.work_per_op * len(spans) / sum(e - s for s, e in spans)}
    else:
        # subprocesses cannot be traced: cli-calls traces cli.main in process
        tr = tracer.Tracer()
        runner = Runner(wl, getattr(wl, "run_in_process", wl.run), probe, tr)
        runner.setup()
        wl.prepare()
        tr.install()
        try:
            traced_spans = runner.for_seconds(0.5 * args.seconds)
        finally:
            tr.uninstall()
        runner.tracer = None
        traced = runner.at_reference_speed(traced_spans)
        replay = runner.at_reference_speed(runner.replay(len(traced)))
        prof = tr.profile()
        missing = [name for name in wl.layers if prof.get(name).calls == 0]
        if missing:
            print(f"error: layers recorded no calls on {wl.name}: {missing}", file=sys.stderr)
            return 3
        extra = {}
        if hasattr(wl, "start_up_times"):
            extra = {k: v * probe.mean_scale() for k, v in wl.start_up_times().items()}
            extra["cli.main_inproc_s"] = median(replay)
        metrics = per_layer(prof, len(traced), sum(e - s for s, e in traced_spans),
                            sum(traced) / sum(replay), extra, probe.mean_scale())
        metrics["failed_ratio"] = (runner.failed / runner.attempted, "ratio")
        WORK.joinpath(wl.name).mkdir(parents=True, exist_ok=True)
        tr.save(str(WORK / wl.name / "spans.npz"))
        detail = {"ops": len(traced), "spans": len(tr.start), "work_unit": wl.work_unit,
                  "top_self_s": sorted(((round(s.self_s, 6), n) for n, s in prof.stats.items()),
                                       reverse=True)[:8]}

    detail["speed_scale"] = probe.mean_scale()
    print(json.dumps({"env": env, "workload": wl.name, "seed": args.seed, **detail}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-wide", "verify-atomic", "criterion-mixed", "cli-calls"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "specstab" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
