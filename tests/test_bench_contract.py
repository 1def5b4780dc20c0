"""The traced benchmark wraps public functions by name; they must all exist."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_call_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.CALLS
    for module, name, _, _ in tracing.CALLS:
        assert callable(getattr(importlib.import_module(f"bcoloring.{module}"), name, None)), (module, name)


def test_bench_imports_load_every_traced_module():
    # The tracer reads sys.modules["bcoloring.<m>"] for each module CALLS names,
    # right after the bench has imported these three; lazy loading must keep them there.
    src = BENCH.parent / "src"
    script = (
        "import sys, bcoloring, bcoloring.fixtures, bcoloring.cli\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from tracing import CALLS\n"
        "print(sorted(m for m, _, _, _ in CALLS if 'bcoloring.' + m not in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_names_follow_a_patched_module(monkeypatch):
    # The tracer swaps a function in its module and restores it after; the
    # package must hand out whichever binding the module holds at that moment.
    import bcoloring
    import bcoloring.coloring

    original = bcoloring.coloring.find_colorful_coloring
    assert bcoloring.find_colorful_coloring is original

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(bcoloring.coloring, "find_colorful_coloring", patched)
    assert bcoloring.find_colorful_coloring is patched
    monkeypatch.undo()
    assert bcoloring.find_colorful_coloring is original
