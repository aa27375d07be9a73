"""The benchmark's layer trace must still find every layer it names.

bench/tracing.py wraps functions by (module, attribute) and silently skips
a name that no longer resolves, so moving a traced function would only
show up as a per-layer metric stuck at 0 calls.  This loads the span table
without changing the file and checks each span name still resolves, and
that the tracer's archive totals still read the front members it expects.
"""

import importlib
import importlib.util
from pathlib import Path

from crashplan.evaluate import Chromosome, ObjectiveVector
from crashplan.pareto import ParetoArchive

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(module_name)
    cls_name, _, attr = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
    return callable(getattr(owner, attr, None))


def test_every_span_name_resolves():
    tracing = _load_tracing()
    missing = [name for name in tracing.SPAN_NAMES
               if not any(_resolves(module, attr)
                          for module, attr, span in tracing.SPANS
                          if span == name)]
    assert missing == []


def test_end_op_counts_archive_members():
    """end_op reads each front member's `contributors`; one per point."""
    archive = ParetoArchive()
    for cost, makespan, durations in ((100.0, 6, (0, 1)), (90.0, 7, (0, 2)),
                                      (90.0, 7, (0, 3))):
        archive.add(ObjectiveVector(cost, makespan, 0.5),
                    Chromosome((1, 2), (1, 1), durations))
    tracer = _load_tracing().Tracer()
    tracer.archives[id(archive)] = archive
    out = tracer.end_op()
    assert out["archive_size"] == 2 and out["contributors"] == 2
