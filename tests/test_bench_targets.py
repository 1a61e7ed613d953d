import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def test_every_traced_name_exists_and_is_callable():
    # The benchmark's tracer raises TraceError for a traced name that is gone;
    # this catches a deletion before a benchmark run does.
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layertrace
    try:
        spec.loader.exec_module(layertrace)
    finally:
        del sys.modules[spec.name]
    missing = [
        f"cellgraph.{t.module}.{t.attr}"
        for t in layertrace.TARGETS
        if not callable(getattr(importlib.import_module(f"cellgraph.{t.module}"), t.attr, None))
    ]
    assert layertrace.TARGETS and missing == []
