"""The benchmark's tracer patches program attributes by name; a rename in
the program would make `bench/run.py --trace 1` fail with AttributeError.
This checks every traced attribute exists, reading bench/spans.py only."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TRACED if not hasattr(owner, attr)]
    assert missing == []
