"""Machine-speed probe for normalising the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by a
factor of 1.5 or more, both within seconds and from one minute to the next
(measured on a 2-vCPU Intel Xeon VM: the same verify trial took 160 ms or
360 ms depending on when it ran).  Such drift swamps the differences the
benchmark exists to show.  So every run also times a small fixed reference
kernel (interpreted arithmetic plus 3x3 numpy calls, the same kind of work
the library does) at short intervals, and each measured time is scaled by
``REF_BURST_S / (reference time at that moment)``: timings are reported as
they would read on a machine that runs the reference kernel in
``REF_BURST_S``.  Over 25-second windows this cut the window-to-window
spread of two workloads' times from about 10 % to about 3 %.  Workloads
that start processes are scaled by a bare interpreter's start time instead,
which tracked the CLI calls' time (window spread 4.5 % raw, 1.9 % scaled)
where the kernel did not (5.4 %).
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable, List

import numpy as np

# median times on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6): the
# reference kernel, and the start of a bare interpreter
REF_BURST_S = 2.35e-3
REF_START_S = 16.2e-3

_A = np.array([[2.0, 1j, 0.5], [-1j, 3.0, 0.2], [0.5, 0.2, 1.0]])


def burst() -> float:
    """Time one run of the fixed reference kernel."""
    t = time.perf_counter()
    acc = np.zeros((3, 3), dtype=complex)
    for k in range(150):
        acc += (1.0 / (k + 1.5)) * _A
        np.linalg.eigvalsh(acc)
        s = 0.0
        for j in range(40):
            s += j * 0.5
    return time.perf_counter() - t


def bare_start() -> float:
    """Time one start and exit of a bare interpreter (no site import)."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t


class SpeedProbe:
    """Reference samples over a run; each sample is the mean of a few runs
    of ``kernel``, stamped with the midpoint of the time it took."""

    def __init__(self, kernel: Callable[[], float] = burst, ref: float = REF_BURST_S,
                 every: float = 0.25, bursts: int = 4):
        self.kernel = kernel
        self.ref = ref
        self.every = every
        self.bursts = bursts
        self.at: List[float] = []
        self.ref_s: List[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        ref = sum(self.kernel() for _ in range(self.bursts)) / self.bursts
        self.at.append(0.5 * (t + time.perf_counter()))
        self.ref_s.append(ref)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into reference
        speed: the reference time over the sampled one, interpolated at the
        interval's midpoint."""
        return self.ref / float(np.interp(0.5 * (start + end), self.at, self.ref_s))

    def mean_scale(self) -> float:
        return self.ref / float(np.mean(self.ref_s))


def start_up_probe() -> SpeedProbe:
    """Probe for workloads that start processes: a process start (exec, page
    faults, file reads) does not follow the in-process kernel's speed, but
    does follow a bare interpreter's start."""
    return SpeedProbe(bare_start, REF_START_S, bursts=2)
