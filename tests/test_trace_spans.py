"""The benchmark's layer trace must still find every layer it names.

bench/tracing.py wraps functions by (module, attribute) and silently skips
a name that no longer resolves, so moving a traced function would only
show up as a per-layer metric stuck at 0 calls.  This loads the span table
without changing the file and checks each span name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

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
