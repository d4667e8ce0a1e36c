"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public layer functions of ``specstab`` from the outside:
each target is replaced, by identity, in every ``specstab.*`` namespace that
binds it (``scan`` binds ``integrate``, ``oracle`` binds ``integrate_cauchy``
and ``t_matrix``, ``extensions`` binds ``evaluate`` and so on), so calls
between modules are recorded as nested spans.  The library source is not
touched.  Spans live in flat arrays while the run lasts and are written out
once at the end.

Every span has a name, a start and an end, the id of the span that was open
when it started (its parent, -1 at top level), and the id of the benchmark
operation it belongs to.  Spans are stored in start order, which the
analysis below relies on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from specstab.measure import is_divergent

# span name -> (module, attribute path); the span name's prefix is the layer
TARGETS = {
    "measure.integrate": ("specstab.measure", "integrate"),
    "measure.on_support": ("specstab.measure", "MatrixMeasure.on_support"),
    "herglotz.evaluate": ("specstab.herglotz", "evaluate"),
    "herglotz.integrate_cauchy": ("specstab.herglotz", "integrate_cauchy"),
    "herglotz.t_matrix": ("specstab.herglotz", "t_matrix"),
    "herglotz.boundary_value": ("specstab.herglotz", "boundary_value"),
    "herglotz.richardson_limit": ("specstab.herglotz", "richardson_limit"),
    "herglotz.atom_mass": ("specstab.herglotz", "atom_mass"),
    "extensions.max_mult_test": ("specstab.extensions", "max_mult_test"),
    "extensions.max_mult_test_via": ("specstab.extensions", "max_mult_test_via"),
    "extensions.mass_at_max_mult": ("specstab.extensions", "mass_at_max_mult"),
    "oracle.classify": ("specstab.oracle", "classify"),
    "oracle.real_poles": ("specstab.oracle", "real_poles"),
    "oracle.residue_mass": ("specstab.oracle", "residue_mass"),
    "scan.scan_forbidden": ("specstab.scan", "scan_forbidden"),
    "verify.run_verify": ("specstab.verify", "run_verify"),
    "verify.run_trial": ("specstab.verify", "run_trial"),
    "io.load_herglotz": ("specstab.io", "load_herglotz"),
    "io.dump_json": ("specstab.io", "dump_json"),
    "cli.main": ("specstab.cli", "main"),
}


def _integrate_attrs(args, kwargs, result):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    return {"terms": len(omega.atoms) + len(omega.ac_pieces),
            "divergent": int(is_divergent(result))}


def _via_attrs(args, kwargs, result):
    t = result.t_value
    return {"undecided": int(is_divergent(t) and t.directions == ())}


# span name -> function (args, kwargs, result) -> {attribute: number}
RECORDERS: Dict[str, Callable] = {
    "measure.integrate": _integrate_attrs,
    "herglotz.boundary_value": lambda a, k, r: {"closed_form": int(not r.eps_trace)},
    "herglotz.richardson_limit": lambda a, k, r: {"samples": len(r[1]),
                                                  "converged": int(bool(r[2]))},
    "extensions.max_mult_test_via": _via_attrs,
    "oracle.real_poles": lambda a, k, r: {"poles": len(r)},
    "verify.run_trial": lambda a, k, r: {"mismatches": len(r["mismatches"])},
}


class Tracer:
    """Collects spans from wrapped functions; one thread at a time."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self.attrs: Dict[int, dict] = {}
        self.op = -1
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    def wrap(self, span_name: str, fn: Callable,
             record: Optional[Callable] = None) -> Callable:
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_ids.append(self.op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if record is not None:
                self.attrs[sid] = record(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target, by identity, wherever specstab binds it."""
        for span_name, (module, path) in TARGETS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, RECORDERS.get(span_name))
            bindings = [(owner, attr)]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "specstab"
                                       or mod_name.startswith("specstab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        bindings.append((mod, key))
            for obj, key in bindings:
                setattr(obj, key, wrapper)
                self._installed.append((obj, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._installed):
            setattr(obj, key, original)
        self._installed.clear()

    def save(self, path: str) -> None:
        """Write all spans (and their attributes) as one compressed npz."""
        ids = sorted(self.attrs)
        keys = sorted({k for a in self.attrs.values() for k in a})
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32),
            op=np.frombuffer(self.op_ids, np.int32),
            attr_keys=np.array(keys), attr_span=np.array(ids, dtype=np.int64),
            attr_values=np.array([[self.attrs[i].get(k, 0) for k in keys] for i in ids],
                                 dtype=float).reshape(len(ids), len(keys)))

    def profile(self) -> "Profile":
        return analyse(self.names, self.name, self.start, self.end, self.parent,
                       self.attrs)


# -- analysis ---------------------------------------------------------------------


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans must be in start order.  Children that overlap each other (as
    they would if they ran on several threads) are counted once, and a child
    that outlives its parent only covers the part inside the parent.
    """
    covered = [0.0] * len(start)
    reach: Dict[int, float] = {}     # parent -> end of its children's union so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), hi)
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals sorted by start."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


@dataclass
class Profile:
    """Per-span-name totals, per-layer span intervals, and per-span-name
    totals of the spans that run inside ``oracle.real_poles``."""

    stats: Dict[str, Stat]
    layer_spans: Dict[str, list]
    under_real_poles: Dict[str, Stat]

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def inside_real_poles(self, name: str) -> Stat:
        return self.under_real_poles.get(name, Stat())

    def cover_s(self, *layers: str) -> float:
        """Time covered by the spans of any of the given layers."""
        return union_length(sorted(iv for layer in layers
                                   for iv in self.layer_spans.get(layer, ())))


def analyse(names, name, start, end, parent, attrs) -> Profile:
    selfs = self_times(start, end, parent)
    stats: Dict[str, Stat] = {}
    under: Dict[str, Stat] = {}
    layer_spans: Dict[str, list] = {}
    rp = names.index("oracle.real_poles") if "oracle.real_poles" in names else -2
    inside = [False] * len(start)
    for i in range(len(start)):
        label = names[name[i]]
        p = parent[i]
        inside[i] = p >= 0 and (inside[p] or name[p] == rp)
        targets = [stats] + ([under] if inside[i] else [])
        for table in targets:
            st = table.setdefault(label, Stat())
            st.calls += 1
            st.incl_s += end[i] - start[i]
            st.self_s += selfs[i]
            for k, v in attrs.get(i, {}).items():
                st.attrs[k] = st.attrs.get(k, 0.0) + v
        layer_spans.setdefault(label.split(".")[0], []).append((start[i], end[i]))
    return Profile(stats, layer_spans, under)
