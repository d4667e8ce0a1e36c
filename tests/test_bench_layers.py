"""Every layer a benchmark workload lists records calls under the tracer.

``bench/run.py`` exits 3 from a traced run in which a listed layer
recorded no calls.  This test makes the same check on a few operations of
each workload (enough to reach every query kind), so a change that stops
reaching a layer fails here first.  It reads ``bench/`` and changes nothing
there.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 20


def _operations(wl) -> list:
    """Operation ids that between them reach every query kind."""
    if hasattr(wl, "argvs"):            # one of each CLI call
        return list(range(len(wl.argvs)))
    if hasattr(wl, "queries"):          # the first query of each kind
        first = {}
        for i, (_, q) in enumerate(wl.queries):
            first.setdefault(q.kind, i)
        return sorted(first.values())
    return [0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_listed_layer_records_calls(name, tmp_path):
    wl = workloads.WORKLOADS[name](SEED, tmp_path)
    wl.setup()
    run = getattr(wl, "run_in_process", wl.run)     # as the traced run does
    tr = tracer.Tracer()
    tr.install()
    try:
        for i in _operations(wl):
            tr.op = i
            run(i)
    finally:
        tr.uninstall()
    prof = tr.profile()
    missing = [layer for layer in wl.layers if prof.get(layer).calls == 0]
    assert missing == [], f"{name}: layers recorded no calls: {missing}"
