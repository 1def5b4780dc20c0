"""Spans around calls into bcoloring's public functions, and the per-layer report.

The traced run swaps each public function listed in ``CALLS`` for a
wrapper wherever a ``bcoloring`` module binds it, so calls made inside the
library (``b_spectrum`` calling ``chromatic_number``, ``read_map`` calling
``read_col``) are recorded too, each under its caller's span. Nothing
inside the functions is traced. Spans are kept in memory; ``write_spans``
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from workloads import tuple_space


def _path_bytes(index, key):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index] if len(args) > index else kwargs[key])}
    return count


def _colorful_counts(args, kwargs, result):
    g, k = args[0], args[1]
    return {
        "nodes": result.nodes,
        "tuple_space": tuple_space(g, k),
        "budget_hit": int(result.status.name == "BUDGET_EXCEEDED"),
    }


# (module, public function, span name, counter of the call's work)
CALLS = (
    ("kneser", "kneser_graph", "kneser.build", lambda a, kw, r: {"vertices": r.graph.n}),
    ("graphs", "graph_from_edges", "graphs.validate", None),
    ("graphs", "read_col", "graphs.read_col", _path_bytes(0, "path")),
    ("graphs", "write_col", "graphs.write_col", _path_bytes(1, "path")),
    ("coloring", "chromatic_number", "chromatic", lambda a, kw, r: {"chi": r[0]}),
    ("coloring", "greedy_clique", "chromatic.clique", lambda a, kw, r: {"size": len(r)}),
    ("coloring", "find_colorful_coloring", "colorful", _colorful_counts),
    ("coloring", "b_spectrum", "bspectrum", None),
    ("coloring", "is_proper", "verify", None),
    ("coloring", "is_colorful", "verify", None),
    ("coloring", "read_coloring", "coloring.io", None),
    ("coloring", "write_coloring", "coloring.io", None),
    ("homomorphism", "kneser_step_hom", "hom.step", None),
    ("homomorphism", "is_homomorphism", "hom.sls", None),
    ("homomorphism", "is_surjective", "hom.sls", None),
    ("homomorphism", "is_semi_locally_surjective", "hom.sls", None),
    ("homomorphism", "compose", "hom.compose", None),
    ("homomorphism", "lift_coloring", "hom.lift", None),
    ("homomorphism", "read_map", "hom.map_io", _path_bytes(0, "path")),
    ("homomorphism", "write_map", "hom.map_io", _path_bytes(1, "path")),
)

LAYER_OF_PREFIX = {
    "kneser": "kneser",
    "graphs": "graphs",
    "chromatic": "coloring",
    "colorful": "coloring",
    "bspectrum": "coloring",
    "verify": "coloring",
    "coloring": "coloring",
    "hom": "homomorphism",
    "cli": "cli",
}
LAYERS = ("kneser", "graphs", "coloring", "homomorphism", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "counts")

    def __init__(self, name, parent, query):
        self.name, self.parent, self.query = name, parent, query
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """In-memory spans: name, start, end, parent span index, query id, counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = None
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        span = Span(name, self._stack[-1] if self._stack else -1, self.query)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs or {}, result)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    @contextmanager
    def instrumented(self):
        """Route every binding of the ``CALLS`` functions through spans."""
        modules = [m for n, m in sys.modules.items() if n == "bcoloring" or n.startswith("bcoloring.")]
        patched = []
        for module, attr, name, counter in CALLS:
            original = getattr(sys.modules[f"bcoloring.{module}"], attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        patched.append((mod, binding, original))
        graph = sys.modules["bcoloring.graphs"].Graph
        patched.append((graph, "__init__", graph.__init__))
        graph.__init__ = self.wrap("graphs.validate", graph.__init__)
        try:
            yield self
        finally:
            for target, binding, original in reversed(patched):
                setattr(target, binding, original)


def layer_of(name):
    return LAYER_OF_PREFIX.get(name.split(".")[0], "bench")


def pass_metrics(spans):
    """Per-layer times and counts of one traced pass, from its tracer's spans."""
    def ancestors(span):
        while span.parent >= 0:
            span = spans[span.parent]
            yield span

    def top(name, under=None):
        """Spans called name, not nested in one of that name, and nested in one called under."""
        out = []
        for s in spans:
            if s.name != name:
                continue
            up = [a.name for a in ancestors(s)]
            if name in up or (under is not None and under not in up):
                continue
            out.append(s)
        return out

    def seconds(name, under=None):
        return sum(s.end - s.start for s in top(name, under))

    def total(name, key):
        return sum(s.counts[key] for s in spans if s.name == name and s.counts)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s, covered in zip(spans, child_time):
        layer = layer_of(s.name)
        if layer in self_time:
            self_time[layer] += s.end - s.start - covered

    # The first greedy_clique call under chromatic_number is its lower bound.
    clique_lb = gap = 0
    first_clique = {}
    for s in spans:
        if s.name == "chromatic.clique" and s.parent >= 0:
            first_clique.setdefault(s.parent, s.counts["size"])
    for i, s in enumerate(spans):
        if s.name == "chromatic" and s.counts:
            lb = max(1, first_clique.get(i, 0))
            clique_lb += lb
            gap += s.counts["chi"] - lb

    colorful_s = seconds("colorful")
    nodes = total("colorful", "nodes")
    metrics = {
        "kneser.build_s": seconds("kneser.build"),
        "kneser.vertices": sum(s.counts["vertices"] for s in top("kneser.build") if s.counts),
        "graphs.validate_s": seconds("graphs.validate"),
        "graphs.read_col_s": seconds("graphs.read_col"),
        "graphs.write_col_s": seconds("graphs.write_col"),
        "graphs.col_bytes": total("graphs.read_col", "bytes") + total("graphs.write_col", "bytes"),
        "chromatic.s": seconds("chromatic"),
        "chromatic.clique_s": seconds("chromatic.clique"),
        "chromatic.clique_lb": clique_lb,
        "chromatic.gap": gap,
        "colorful.s": colorful_s,
        "colorful.nodes": nodes,
        "colorful.nodes_per_s": nodes / colorful_s if colorful_s else 0.0,
        "colorful.tuple_space": total("colorful", "tuple_space"),
        "colorful.budget_hits": total("colorful", "budget_hit"),
        "bspectrum.chi_s": seconds("chromatic", under="bspectrum"),
        "bspectrum.k_s": seconds("colorful", under="bspectrum"),
        "verify.s": seconds("verify"),
        "verify.calls": len(top("verify")),
        "hom.step_s": seconds("hom.step"),
        "hom.sls_s": seconds("hom.sls"),
        "hom.compose_s": seconds("hom.compose"),
        "hom.lift_s": seconds("hom.lift"),
        "hom.map_io_s": seconds("hom.map_io"),
        "hom.map_bytes": total("hom.map_io", "bytes"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = self_time[layer]
    return metrics


def median_metrics(per_pass):
    """Median over passes of each metric."""
    def median(values):
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)
    return {key: median([m[key] for m in per_pass]) for key in per_pass[0]}


def write_spans(path, passes):
    """One JSON object per span; passes is a list of (pass number, spans)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for number, spans in passes:
            for s in spans:
                fh.write(json.dumps({
                    "pass": number, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent if s.parent >= 0 else None,
                    "query": s.query, "counts": s.counts,
                }) + "\n")
