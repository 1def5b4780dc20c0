"""The four workloads: seeded input generators, queries and recorded verdicts.

Every input graph is made here, from edge lists built by the generators
below or by the library's own Kneser and fixture constructors, and handed
to the library as a ``Graph``. The random graphs use the instance seeds
written in the tables: exact search on G(n,p) varies tenfold in cost from
one seed to the next (G(60,0.5) takes 0.4 s on seed 1 and 3 s on seed 2),
so the instances are part of the workload definition and their verdicts
are recorded beside them. The run's ``--seed`` orders the queries of each
pass and the independent steps of the pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Generators (edge lists on vertices 0..n-1)


def gnp_edges(n, p, seed):
    """G(n,p): each pair i < j, in lexicographic order, kept with probability p."""
    rng = random.Random(seed)
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def cycle_edges(n):
    """C_n: vertex i adjacent to i+1 mod n."""
    return n, [(i, (i + 1) % n) for i in range(n)]


def mycielski_edges(base, times):
    """The Mycielskian taken ``times`` times of the graph ``base`` = (n, edges).

    Each step keeps the graph triangle-free if it was, and raises its
    chromatic number by exactly one.
    """
    n, edges = base
    for _ in range(times):
        # Vertex v gets a shadow n+v adjacent to N(v); the apex 2n sees every shadow.
        grown = list(edges)
        for u, v in edges:
            grown += [(u, n + v), (v, n + u)]
        grown += [(n + v, 2 * n) for v in range(n)]
        n, edges = 2 * n + 1, grown
    return n, edges


def hypercube_edges(d):
    """Q_d: d-bit words, adjacent when they differ in one bit."""
    n = 1 << d
    return n, [(u, u | (1 << b)) for u in range(n) for b in range(d) if not u >> b & 1]


# ---------------------------------------------------------------------------
# Reference work: fixed pure-Python work that runs no bcoloring code. The
# end-to-end run times it around every query to gauge how fast the machine
# is at that moment; no change to the library can change its time.


def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


_REFERENCE_ADJ = _adjacency(*gnp_edges(60, 0.5, 0))


def reference_work(rounds=40):
    """Greedy colorings of a fixed G(60,0.5), each from another start vertex:
    bit tests on int rows, sets and loops, like the library's own search."""
    adj, n = _REFERENCE_ADJ, len(_REFERENCE_ADJ)
    total = 0
    for r in range(rounds):
        color = {}
        for i in range(n):
            v = (i + r) % n
            used = {color[u] for u in color if adj[v] >> u & 1}
            c = 0
            while c in used:
                c += 1
            color[v] = c
        total += max(color.values()) + 1
    return total


# ---------------------------------------------------------------------------
# Input graphs: name -> builder(lib)


def _from_edges(generator, *params):
    return lambda lib: lib.graph_from_edges(*generator(*params))


def _kneser(n, m):
    return lambda lib: lib.kneser_graph(n, m).graph


def _fixture(name):
    return lambda lib: getattr(lib.fixtures, name)()


# (n, p, instance seed) -> chromatic number, as chromatic_number computed it,
# for the chromatic workload.
_GNP_CHROMATIC = {
    (50, 0.5, 1): 9, (50, 0.5, 2): 10, (50, 0.5, 3): 10, (50, 0.5, 4): 9,
    (60, 0.3, 1): 7, (60, 0.3, 2): 7, (45, 0.6, 1): 11, (45, 0.6, 2): 11,
    (60, 0.5, 1): 10, (70, 0.3, 5): 8,
}

GRAPHS = {
    "KG(6,2)": _kneser(6, 2),
    "KG(7,2)": _kneser(7, 2),
    "KG(7,3)": _kneser(7, 3),
    "KG(8,3)": _kneser(8, 3),
    "KG(9,4)": _kneser(9, 4),
    "KG(10,4)": _kneser(10, 4),
    "KG(11,5)": _kneser(11, 5),
    "Petersen": _kneser(5, 2),
    "Q3": _from_edges(hypercube_edges, 3),
    "mu2(C7)": _from_edges(mycielski_edges, cycle_edges(7), 2),
    "mu2(C9)": _from_edges(mycielski_edges, cycle_edges(9), 2),
    "fixture:petersen": _fixture("petersen"),
    "fixture:q3": _fixture("q3"),
    "fixture:heawood": _fixture("heawood"),
}
for _seed in range(1, 6):
    GRAPHS[f"G(25,0.3)#{_seed}"] = _from_edges(gnp_edges, 25, 0.3, _seed)
for _n, _p, _seed in _GNP_CHROMATIC:
    GRAPHS[f"G({_n},{_p})#{_seed}"] = _from_edges(gnp_edges, _n, _p, _seed)


def known_chromatic(lib, name):
    """Chromatic number known independently of the search, where there is one."""
    if name.startswith("KG("):
        n, m = (int(x) for x in name[3:-1].split(","))
        return lib.lovasz_chromatic(n, m)
    if name.startswith("mu2(C"):
        return 5  # an odd cycle has chi 3, and each Mycielskian adds one
    n, p, seed = name[2:].replace(")#", ",").split(",")
    return _GNP_CHROMATIC[int(n), float(p), int(seed)]


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class Query:
    """One library call and the verdict recorded for it.

    ``expect`` is "found" or "not_exists" for a colorful search,
    "frontier" for a search recorded as BUDGET_EXCEEDED at ``budget``
    nodes (any later verdict is accepted if its evidence checks), the
    chromatic number for "chromatic", and the spectrum for "bspectrum".
    """

    kind: str
    graph: str
    k: int = 0
    budget: int | None = None
    expect: object = None

    @property
    def label(self):
        if self.kind == "colorful":
            return f"{self.graph} k={self.k}"
        return f"{self.kind} {self.graph}"


def _colorful(graph, ks, expect, budget=None):
    return [Query("colorful", graph, k, budget, expect) for k in ks]


# The node budget of the frontier queries. At this budget KG(8,3) k=11 and
# KG(7,2) k=8..11 are BUDGET_EXCEEDED, each after exactly FRONTIER_BUDGET + 1
# nodes; a search that settles them shows as a rise in ``settled``.
FRONTIER_BUDGET = 20_000

# For each instance seed s, the k above b(G(25,0.3)#s) up to its m-degree
# bound, as b_spectrum computed them: every such k is refuted.
_G25_REFUTED = {1: (9, 10), 2: (9,), 3: (8,), 4: (10,), 5: (9,)}

QUERIES = {
    "witness": (
        _colorful("KG(8,3)", range(5, 11), "found")
        + _colorful("KG(7,2)", (6, 7), "found")
        + _colorful("KG(9,4)", (4, 5, 6), "found")
        + _colorful("KG(7,3)", (4, 5), "found")
        + [
            Query("bspectrum", "fixture:petersen", expect=(3,)),
            Query("bspectrum", "fixture:q3", expect=(2, 4)),
            Query("bspectrum", "fixture:heawood", expect=(2, 3, 4)),
        ]
    ),
    "refute": (
        _colorful("KG(6,2)", (7,), "not_exists")
        + _colorful("Q3", (3,), "not_exists")
        + _colorful("Petersen", (4,), "not_exists")
        + [q for s, ks in _G25_REFUTED.items() for q in _colorful(f"G(25,0.3)#{s}", ks, "not_exists")]
        + _colorful("KG(8,3)", (11,), "frontier", FRONTIER_BUDGET)
        + _colorful("KG(7,2)", range(8, 12), "frontier", FRONTIER_BUDGET)
    ),
    # Many instances of 20-600 ms each rather than a few long ones, so a run
    # times each query many times. mu2(C9) and mu2(C7) stand for the Mycielski
    # graph M6 (chi 6, clique bound 2): all three are triangle-free with three
    # or more k values to refute, but M6 takes 5-8 s a call.
    "chromatic": [
        Query("chromatic", name)
        for name in ("mu2(C7)", "mu2(C9)", "KG(10,4)", "KG(11,5)",
                     *(f"G({n},{p})#{seed}" for n, p, seed in _GNP_CHROMATIC))
    ],
}


def build_inputs(lib, workload):
    """Every input graph the workload's queries name (none for the pipeline)."""
    names = sorted({q.graph for q in QUERIES.get(workload, ())})
    return {name: GRAPHS[name](lib) for name in names}


def run_query(lib, g, q):
    if q.kind == "colorful":
        budget = lib.Budget(max_nodes=q.budget) if q.budget is not None else None
        return lib.find_colorful_coloring(g, q.k, budget)
    if q.kind == "chromatic":
        return lib.chromatic_number(g)
    return lib.b_spectrum(g)


def check_query(lib, g, q, result):
    """(settled, problem) for one query's result; problem is None when it checks."""
    if q.kind == "colorful":
        status = result.status.name
        if status == "FOUND":
            if q.expect == "not_exists":
                return True, "FOUND where NOT_EXISTS is recorded"
            c = result.coloring
            if c.k != q.k or not lib.is_colorful(g, c)[0]:
                return True, "witness fails is_colorful"
            return True, None
        if status == "NOT_EXISTS":
            if q.expect == "found":
                return True, "NOT_EXISTS where a witness is recorded"
            return True, None
        if q.expect != "frontier":
            return False, f"BUDGET_EXCEEDED where {q.expect} is recorded"
        if result.nodes <= q.budget:
            return False, f"BUDGET_EXCEEDED after {result.nodes} nodes, under the budget"
        return False, None
    if q.kind == "chromatic":
        chi, c = result
        if chi != known_chromatic(lib, q.graph):
            return True, f"chi {chi} differs from the known value"
        if c.k != chi or set(c.colors) != set(range(1, chi + 1)) or not lib.is_proper(g, c):
            return True, "chi witness is not a proper coloring with chi colors"
        return True, None
    if result.unknown:
        return False, f"b-spectrum left {sorted(result.unknown)} unknown"
    if tuple(sorted(result.spectrum)) != q.expect or result.chi != q.expect[0]:
        return True, f"spectrum {sorted(result.spectrum)} differs from the recorded one"
    for k, c in result.witnesses.items():
        if c.k != k or not lib.is_colorful(g, c)[0]:
            return True, f"k={k} witness fails is_colorful"
    return True, None


def tuple_space(g, k):
    """C(|candidates|, k), candidates being the vertices of degree >= k-1."""
    return math.comb(sum(1 for row in g.adj if row.bit_count() >= k - 1), k)


# ---------------------------------------------------------------------------
# Pipeline: the lifting story as a chain of CLI calls in a fresh directory

STEP_MAPS = ((13, 6), (11, 5), (9, 4))  # KG(n+2,m+1) -> KG(n,m)
LIFT_K = 6


def pipeline_steps(rng):
    """(subcommand, argv) for one pass; rng orders the independent calls."""
    steps = [(n, m, f"s{n}.map") for n, m in STEP_MAPS]
    gen = [("hom_kneser_step", ["hom", "kneser-step", "-n", str(n), "-m", str(m), "-o", out])
           for n, m, out in rng.sample(steps, len(steps))]
    verify = [("hom_verify", ["hom", "verify", "-f", out])
              for _, _, out in rng.sample(steps, len(steps))]
    rest = [
        ("hom_compose", ["hom", "compose", "-f", "s13.map", "-g", "s11.map", "-o", "c11.map"]),
        ("hom_compose", ["hom", "compose", "-f", "c11.map", "-g", "s9.map", "-o", "c9.map"]),
        ("kneser_gen", ["kneser", "gen", "-n", "9", "-m", "4", "-o", "kg94.col"]),
        ("color_bspectrum", ["color", "bspectrum", "-g", "kg94.col", "-o", "spectrum"]),
        ("hom_lift", ["hom", "lift", "-f", "c9.map", "-c", f"spectrum/bspectrum_k{LIFT_K}.coloring",
                      "-o", "lifted.coloring"]),
        ("color_verify", ["color", "verify", "-g", "s13.map.source.col", "-c", "lifted.coloring",
                          "--colorful"]),
    ]
    return [(sub, argv + ["--json"]) for sub, argv in gen + verify + rest]


SUBCOMMANDS = ("hom_kneser_step", "hom_verify", "hom_compose", "kneser_gen", "color_bspectrum",
               "hom_lift", "color_verify")

# Documented exit status 0 (verified/true) and the report keys each call must print.
_EXPECTED_REPORT = {
    "hom_verify": {"homomorphism": True, "surjective": True, "sls": True},
    "kneser_gen": {"vertices": 126, "edges": 315},
    "color_bspectrum": {"chi": 3, "b": 6, "spectrum": [3, 4, 5, 6], "unknown": [], "continuous": True},
    "color_verify": {"k": LIFT_K, "proper": True, "colorful": True},
}


def check_call(sub, code, report):
    """Problem with one CLI call's exit status and JSON report, or None."""
    if code != 0:
        return f"{sub} exited {code}, documented status is 0"
    if report is None:
        return f"{sub} printed no JSON report"
    for key, value in _EXPECTED_REPORT.get(sub, {}).items():
        if report.get(key) != value:
            return f"{sub} reported {key}={report.get(key)!r}, expected {value!r}"
    return None


def check_pipeline_files(lib, d):
    """Problems with the files one pass left in directory d, checked through the library."""
    problems = []
    maps = {}
    for name in ("s13.map", "s11.map", "s9.map", "c11.map", "c9.map"):
        f = maps[name] = lib.read_map(d / name)
        verdict = lib.is_semi_locally_surjective(f)
        if not verdict.ok or not verdict.certificate.verify(f):
            problems.append(f"{name} has no SLS certificate that verifies")
    for n, m in STEP_MAPS:
        f = maps[f"s{n}.map"]
        if (f.source.n, f.target.n) != (math.comb(n + 2, m + 1), math.comb(n, m)):
            problems.append(f"s{n}.map joins graphs of the wrong sizes")
    s13, s11, s9, c9 = maps["s13.map"], maps["s11.map"], maps["s9.map"], maps["c9.map"]
    chained = tuple(s9.mapping[s11.mapping[s13.mapping[v]]] for v in range(s13.source.n))
    if c9.mapping != chained or c9.source != s13.source or c9.target != s9.target:
        problems.append("c9.map is not the composite of the three step maps")
    g94 = lib.read_col(d / "kg94.col")
    if g94 != lib.kneser_graph(9, 4).graph:
        problems.append("kg94.col is not KG(9,4)")
    witness = lib.read_coloring(d / "spectrum" / f"bspectrum_k{LIFT_K}.coloring", g94)
    if witness.k != LIFT_K or not lib.is_colorful(g94, witness)[0]:
        problems.append(f"the k={LIFT_K} witness of KG(9,4) fails is_colorful")
    lifted = lib.read_coloring(d / "lifted.coloring", c9.source)
    if lifted.colors != tuple(witness.colors[image] for image in c9.mapping):
        problems.append("lifted.coloring is not the pull-back of the witness")
    if lifted.k != LIFT_K or not lib.is_colorful(c9.source, lifted)[0]:
        problems.append("lifted.coloring fails is_colorful")
    return problems
