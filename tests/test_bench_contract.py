"""The traced benchmark wraps public functions by name; they must all exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_call_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.CALLS
    for module, name, _, _ in tracing.CALLS:
        assert callable(getattr(importlib.import_module(f"bcoloring.{module}"), name, None)), (module, name)
