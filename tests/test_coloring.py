import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import coloring
from bcoloring.coloring import (
    Budget,
    Coloring,
    SearchStatus,
    b_spectrum,
    chromatic_number,
    find_colorful_coloring,
    is_b_dominating,
    is_colorful,
    is_proper,
    m_degree_bound,
)
from bcoloring.errors import InputError
from bcoloring.fixtures import heawood, petersen, q3
from bcoloring.graphs import Graph, complete_graph, cycle_graph, graph_from_edges, path_graph
from bcoloring.kneser import kneser_graph

import oracles


@st.composite
def graph_with_coloring(draw, max_n=7, max_k=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool)) if pool else st.just([]))
    k = draw(st.integers(min_value=1, max_value=max_k))
    colors = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    return graph_from_edges(n, edges), Coloring(k, tuple(colors))


def test_coloring_rejects_out_of_range_colors():
    with pytest.raises(InputError):
        Coloring(2, (1, 3))
    with pytest.raises(InputError):
        Coloring(2, (0, 1))
    with pytest.raises(InputError):
        Coloring(-1, ())


def test_is_proper_triangle():
    k3 = complete_graph(3)
    assert is_proper(k3, Coloring(3, (1, 2, 3)))
    assert not is_proper(k3, Coloring(2, (1, 1, 2)))


def test_is_proper_requires_totality():
    with pytest.raises(InputError):
        is_proper(complete_graph(3), Coloring(2, (1, 2)))


def test_b_dominating_examples():
    k3 = complete_graph(3)
    c = Coloring(3, (1, 2, 3))
    assert all(is_b_dominating(k3, c, v) for v in range(3))
    isolated = graph_from_edges(2, [])
    two = Coloring(2, (1, 2))
    assert not is_b_dominating(isolated, two, 0)
    assert not is_b_dominating(isolated, two, 1)
    with pytest.raises(InputError):
        is_b_dominating(k3, c, 5)


def test_colorful_triangle_and_c4():
    ok, witnesses = is_colorful(complete_graph(3), Coloring(3, (1, 2, 3)))
    assert ok and witnesses == {1: 0, 2: 1, 3: 2}
    c4 = cycle_graph(4)
    assert is_colorful(c4, Coloring(2, (1, 2, 1, 2)))[0]
    assert not is_colorful(c4, Coloring(3, (1, 2, 1, 3)))[0]


def test_c4_has_no_colorful_3_coloring():
    c4 = cycle_graph(4)
    assert not oracles.naive_colorful_exists(c4, 3)
    result = find_colorful_coloring(c4, 3)
    assert result.status is SearchStatus.NOT_EXISTS


def test_colorful_requires_every_class_nonempty():
    # Proper 3-coloring of K2 that uses only 2 colors is not colorful.
    ok, _ = is_colorful(complete_graph(2), Coloring(3, (1, 2)))
    assert not ok


@settings(max_examples=200, deadline=None)
@given(graph_with_coloring())
def test_colorful_agrees_with_definition(gc):
    g, c = gc
    ok, witnesses = is_colorful(g, c)
    assert ok == oracles.naive_is_colorful(g, list(c.colors), c.k)
    if ok:
        assert sorted(witnesses) == list(range(1, c.k + 1))
        for color, v in witnesses.items():
            assert c.colors[v] == color
            assert is_b_dominating(g, c, v)
            assert v == min(
                u for u in range(g.n) if c.colors[u] == color and is_b_dominating(g, c, u)
            )


def test_chromatic_small_cases():
    assert chromatic_number(complete_graph(1))[0] == 1
    assert chromatic_number(graph_from_edges(4, []))[0] == 1
    assert chromatic_number(complete_graph(4))[0] == 4
    assert chromatic_number(cycle_graph(5))[0] == 3
    chi, witness = chromatic_number(petersen())
    assert chi == 3 and is_proper(petersen(), witness)
    with pytest.raises(InputError):
        chromatic_number(graph_from_edges(0, []))


def test_chromatic_matches_naive_enumeration(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        g = oracles.random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        chi, witness = chromatic_number(g)
        assert chi == oracles.naive_chromatic(g)
        assert is_proper(g, witness) and witness.k == chi


def test_chromatic_witness_is_colorful(rng):
    # Every minimum proper coloring is colorful; the witness must pass.
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randint(1, 7), 0.4)
        _, witness = chromatic_number(g)
        assert is_colorful(g, witness)[0]


_FAULTY_KERNEL = """
from bcoloring import coloring
from bcoloring.fixtures import petersen

kernel = coloring._backtrack

def all_ones(*args, **kwargs):
    status, colors, nodes = kernel(*args, **kwargs)
    return status, None if colors is None else [1] * len(colors), nodes

coloring._backtrack = all_ones
assert False, "asserts are not stripped"
try:
    coloring.{call}
except AssertionError as exc:
    print("AssertionError", exc)
"""


@pytest.mark.parametrize(
    "call",
    ["find_colorful_coloring(petersen(), 3)", "chromatic_number(petersen())"],
    ids=["colorful", "chromatic"],
)
def test_witness_checks_survive_python_O(call):
    # A kernel that returns all-1 colors must not pass as a witness, even
    # with assert statements stripped by -O.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = _FAULTY_KERNEL.format(call=call)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("AssertionError ")


def test_m_degree_bound_examples():
    assert m_degree_bound(petersen()) == 4
    assert m_degree_bound(complete_graph(3)) == 3
    assert m_degree_bound(graph_from_edges(5, [])) == 1
    assert m_degree_bound(kneser_graph(7, 3).graph) == 5
    with pytest.raises(InputError):
        m_degree_bound(graph_from_edges(0, []))


@settings(max_examples=150, deadline=None)
@given(graph_with_coloring())
def test_m_degree_bound_matches_definition(gc):
    g, _ = gc
    assert m_degree_bound(g) == oracles.naive_m_degree_bound(g)


def test_q3_memberships():
    g = q3()
    assert find_colorful_coloring(g, 2).status is SearchStatus.FOUND
    assert find_colorful_coloring(g, 3).status is SearchStatus.NOT_EXISTS
    assert find_colorful_coloring(g, 4).status is SearchStatus.FOUND


def test_petersen_has_no_colorful_4_coloring():
    assert find_colorful_coloring(petersen(), 4).status is SearchStatus.NOT_EXISTS


def test_k_equals_one_iff_edgeless():
    assert find_colorful_coloring(graph_from_edges(3, []), 1).status is SearchStatus.FOUND
    assert find_colorful_coloring(complete_graph(2), 1).status is SearchStatus.NOT_EXISTS
    with pytest.raises(InputError):
        find_colorful_coloring(complete_graph(2), 0)


def test_k_above_vertex_count_never_exists():
    assert find_colorful_coloring(complete_graph(3), 4).status is SearchStatus.NOT_EXISTS
    result = find_colorful_coloring(graph_from_edges(0, []), 1)
    assert result.status is SearchStatus.NOT_EXISTS and result.nodes == 0


def test_budget_exhaustion_is_inconclusive_not_refuted():
    result = find_colorful_coloring(heawood(), 4, Budget(max_nodes=3))
    assert result.status is SearchStatus.BUDGET_EXCEEDED
    assert result.coloring is None
    # With room to finish, the same search concludes.
    assert find_colorful_coloring(heawood(), 4).status is SearchStatus.FOUND


def test_wall_clock_cap_is_read_every_1024_nodes():
    # KG(7,2) k=10 runs far past 1,024 nodes, where the expired deadline is read.
    result = find_colorful_coloring(kneser_graph(7, 2).graph, 10, Budget(max_seconds=0))
    assert (result.status, result.nodes) == (SearchStatus.BUDGET_EXCEEDED, 1024)


def test_wall_clock_cap_is_read_every_1024_pruned_prefixes():
    # The support check refutes KG(7,2) k=11 in 0 nodes, after 2,329 dominator
    # prefixes it cut, so only the count of cut prefixes reads the deadline.
    result = find_colorful_coloring(kneser_graph(7, 2).graph, 11, Budget(max_seconds=0))
    assert (result.status, result.nodes) == (SearchStatus.BUDGET_EXCEEDED, 0)


def test_budget_rejects_negative_and_nan_caps():
    # NaN would never pass a deadline comparison, so it would not cap anything.
    for caps in ({"max_nodes": -1}, {"max_seconds": -1.0}, {"max_seconds": float("nan")}):
        with pytest.raises(InputError):
            Budget(**caps)
    assert Budget(max_nodes=0, max_seconds=float("inf")).max_nodes == 0


# Far above every pinned count (at most 25,558 nodes in one call), so a correct
# kernel never reaches it; a kernel that loses a prune then fails its pin in
# seconds instead of searching without end.
_PIN_CAP = Budget(max_nodes=100_000)


@pytest.fixture
def capped_kernel(monkeypatch):
    """Run every kernel call under _PIN_CAP, chromatic_number's uncapped ones
    included, and return the list of their (k, status, nodes).

    A kernel that visits other nodes then fails a chromatic pin in seconds
    rather than searching on."""
    kernel = coloring._backtrack
    calls = []

    def recording(adj, k, budget, *args):
        status, colors, nodes = kernel(adj, k, _PIN_CAP, *args)
        calls.append((k, status.name, nodes))
        return status, colors, nodes

    monkeypatch.setattr(coloring, "_backtrack", recording)
    return calls


@pytest.mark.parametrize(
    "make_graph, k, budget, status, nodes",
    [
        (lambda: kneser_graph(6, 2).graph, 7, None, SearchStatus.NOT_EXISTS, 0),
        (petersen, 4, None, SearchStatus.NOT_EXISTS, 310),
        (q3, 3, None, SearchStatus.NOT_EXISTS, 152),
        (lambda: kneser_graph(8, 3).graph, 5, None, SearchStatus.FOUND, 460),
        (lambda: kneser_graph(7, 2).graph, 11, Budget(max_nodes=20_000), SearchStatus.NOT_EXISTS, 0),
        # Without the support checks KG(8,3) k=6 took 130,130 nodes and the
        # next two ran past _PIN_CAP (KG(6,2) k=7 above took 6,435).
        (lambda: kneser_graph(8, 3).graph, 6, None, SearchStatus.FOUND, 60),
        (lambda: kneser_graph(8, 2).graph, 16, None, SearchStatus.NOT_EXISTS, 0),
        (lambda: kneser_graph(8, 3).graph, 4, None, SearchStatus.FOUND, 25_558),
        (lambda: kneser_graph(8, 3).graph, 9, None, SearchStatus.FOUND, 710),
    ],
)
def test_search_node_counts_are_pinned(make_graph, k, budget, status, nodes):
    # A node is one dominator tuple reached plus one extension assignment;
    # these counts change only if the search order, the node definition or
    # the support checks that cut subtrees do.
    result = find_colorful_coloring(make_graph(), k, budget or _PIN_CAP)
    assert (result.status, result.nodes) == (status, nodes)


def test_search_is_deterministic():
    first = find_colorful_coloring(q3(), 4)
    second = find_colorful_coloring(q3(), 4)
    assert first.coloring == second.coloring
    rep1 = b_spectrum(petersen())
    rep2 = b_spectrum(petersen())
    assert rep1.witnesses == rep2.witnesses


def test_oracle_equivalence_on_random_graphs(rng):
    # Fuller 200-graph sweep lives in the acceptance suite.
    for _ in range(60):
        n = rng.randint(1, 6)
        g = oracles.random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        bound = m_degree_bound(g)
        for k in range(1, 5):
            result = find_colorful_coloring(g, k)
            assert result.status is not SearchStatus.BUDGET_EXCEEDED
            exists = oracles.naive_colorful_exists(g, k)
            assert (result.status is SearchStatus.FOUND) == exists
            if exists:
                assert k <= bound  # bound soundness
                assert is_colorful(g, result.coloring)[0]
                assert result.coloring.k == k


def test_oracle_equivalence_at_k_five(rng):
    # Above the k <= 4 range the other sweeps use.
    for _ in range(20):
        n = rng.randint(5, 7)
        g = oracles.random_graph(rng, n, rng.choice([0.5, 0.7, 0.85]))
        result = find_colorful_coloring(g, 5)
        assert result.status is not SearchStatus.BUDGET_EXCEEDED
        assert (result.status is SearchStatus.FOUND) == oracles.naive_colorful_exists(g, 5)


def test_b_spectrum_q3():
    report = b_spectrum(q3())
    assert sorted(report.spectrum) == [2, 4]
    assert report.chi == 2 and report.b == 4
    assert report.continuous is False
    assert not report.unknown
    for k, witness in report.witnesses.items():
        assert witness.k == k and is_colorful(q3(), witness)[0]


def test_b_spectrum_triangle_and_petersen():
    assert sorted(b_spectrum(complete_graph(3)).spectrum) == [3]
    report = b_spectrum(petersen())
    assert sorted(report.spectrum) == [3]
    assert report.chi == 3 and report.b == 3 and report.continuous is True


def test_b_spectrum_degenerate_graphs():
    assert sorted(b_spectrum(complete_graph(1)).spectrum) == [1]
    report = b_spectrum(graph_from_edges(5, []))
    assert sorted(report.spectrum) == [1] and report.m_bound == 1
    with pytest.raises(InputError):
        b_spectrum(Graph(0, []))


def test_b_spectrum_reports_unknown_on_budget():
    report = b_spectrum(heawood(), Budget(max_nodes=3))
    assert report.chi == 2
    assert report.unknown == frozenset({3, 4})
    assert report.continuous is None
    assert sorted(report.spectrum) == [2]


def test_b_spectrum_invariants_on_random_graphs(rng):
    for _ in range(25):
        g = oracles.random_graph(rng, rng.randint(1, 7), 0.45)
        report = b_spectrum(g)
        assert report.chi == min(report.spectrum) == chromatic_number(g)[0]
        assert report.b == max(report.spectrum)
        assert not report.unknown
        assert report.continuous == (set(report.spectrum) == set(range(report.chi, report.b + 1)))
        for k, witness in report.witnesses.items():
            assert is_colorful(g, witness)[0] and witness.k == k
        for k in range(1, report.m_bound + 1):
            assert (k in report.spectrum) == oracles.naive_colorful_exists(g, k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_search_depth_is_not_bounded_by_the_recursion_limit(shape, k):
    # Each of the 2,000 vertices is one decision deep on the search stack,
    # twice Python's default recursion limit.
    g = path_graph(2000) if shape == "path" else cycle_graph(2000)
    result = find_colorful_coloring(g, k)
    assert result.status is SearchStatus.FOUND
    if shape == "path":
        # One node for the first dominator tuple, one per remaining vertex.
        assert result.nodes == 2000 - k + 1


def test_dominator_walk_deeper_than_the_recursion_limit():
    assert find_colorful_coloring(complete_graph(1100), 1100).status is SearchStatus.FOUND


def test_chromatic_bound_descends_a_long_odd_cycle():
    # The DSATUR bound colors all 2,001 vertices in one descent; the exact
    # search would start at k = max(clique size, 3) = 3, which is already
    # the bound, so the bound is the answer.
    chi, witness = chromatic_number(cycle_graph(2001))
    assert chi == 3 and is_proper(cycle_graph(2001), witness)


def test_chromatic_number_of_a_long_path():
    # A decision looks only at the uncolored neighbors of colored vertices,
    # so the descent is linear; scanning every vertex per decision took 8 s.
    g = path_graph(10_000)
    chi, witness = chromatic_number(g)
    assert chi == 2 and is_proper(g, witness)


def test_chromatic_number_of_the_largest_odd_graph():
    # KG(15,7) has 6,435 vertices, and 1,750 uncolored ones on average see
    # a color at a decision. The saturation bit planes pick the next vertex
    # in a few whole-mask operations; scanning those vertices took 2-3 s here,
    # the planes take 0.1-0.2 s.
    g = kneser_graph(15, 7).graph
    chi, witness = chromatic_number(g)
    assert chi == 3 and is_proper(g, witness)


def test_colorful_search_on_a_long_path():
    # One node for the dominator tuple, one per remaining vertex.
    result = find_colorful_coloring(path_graph(10_000), 3)
    assert result.status is SearchStatus.FOUND and result.nodes == 9_998


def _disjoint_triangles(count):
    edges = [(3 * i + a, 3 * i + b) for i in range(count) for a, b in ((0, 1), (1, 2), (0, 2))]
    return graph_from_edges(3 * count, edges)


def test_chromatic_number_of_many_components():
    # 3,333 disjoint triangles, just under MAX_VERTICES: each starts with an
    # empty frontier, and a scan of every vertex there took 2.5 s.
    g = _disjoint_triangles(3_333)
    chi, witness = chromatic_number(g)
    assert chi == 3 and is_proper(g, witness)


def test_colorful_search_on_many_components():
    # One node for the dominator tuple, one per remaining vertex.
    result = find_colorful_coloring(_disjoint_triangles(3_333), 3)
    assert result.status is SearchStatus.FOUND and result.nodes == 9_997


def test_colorful_search_ends_at_a_failing_fresh_component():
    # Three copies of K_{5,5}, then the Chvatal graph (chi 4), as CI's split.col. A tuple
    # that completes the copies has one dominator in each, so the Chvatal graph then starts
    # a fresh component with no dominator, and it has no proper 3-coloring: the search ends
    # there, without going back into the copies.
    nx = pytest.importorskip("networkx")
    union = nx.disjoint_union_all([nx.complete_bipartite_graph(5, 5)] * 3 + [nx.chvatal_graph()])
    g = graph_from_edges(union.number_of_nodes(), list(union.edges()))
    result = find_colorful_coloring(g, 3, Budget(max_nodes=100_000))
    assert result.status is SearchStatus.NOT_EXISTS and result.nodes == 2_936


def _grotzsch():
    # The Mycielskian of C5: 11 vertices of degrees 3, 4 and 5, chi 4.
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(a, 5 + b) for u, v in cycle for a, b in ((u, v), (v, u))]
    apex = [(5 + v, 10) for v in range(5)]
    return graph_from_edges(11, cycle + shadows + apex)


_IRREGULAR_9 = [
    (0, 2), (0, 5), (0, 6), (0, 7), (1, 2), (1, 4), (1, 6), (2, 4), (2, 6), (3, 4),
    (3, 5), (3, 6), (3, 7), (3, 8), (4, 6), (4, 8), (5, 6), (5, 7), (6, 7),
]


@pytest.mark.parametrize(
    "make_graph, chi, colors",
    [
        # The witness is the DSATUR bound: no 3-coloring exists.
        (_grotzsch, 4, (2, 1, 2, 3, 1, 2, 3, 2, 3, 4, 1)),
        # The witness comes from the exact search at k = 4, below the bound.
        (lambda: graph_from_edges(9, _IRREGULAR_9), 4, (1, 1, 4, 1, 2, 2, 3, 4, 3)),
    ],
)
@pytest.mark.usefixtures("capped_kernel")
def test_chromatic_witnesses_are_pinned(make_graph, chi, colors):
    # Ties between equally constrained vertices go to higher degree, then
    # lower index; breaking them by index alone gives other witnesses here.
    assert chromatic_number(make_graph()) == (chi, Coloring(chi, colors))


_WIDE_RANDOM = [(1, 60, 0.3), (5, 60, 0.3), (9, 50, 0.3), (9, 40, 0.5), (5, 50, 0.5), (9, 50, 0.5)]


def wide_chromatic_rows():
    """chi and the witness of chromatic_number on graphs whose frontier holds many vertices:
    KG(10,4), KG(11,5), KG(13,6), and G(n, p) drawn by oracles.random_graph(Random(seed), n, p)."""
    graphs = [(f"KG({m},{j})", kneser_graph(m, j).graph) for m, j in ((10, 4), (11, 5), (13, 6))]
    graphs += [(f"G({seed},{n},{p})", oracles.random_graph(random.Random(seed), n, p))
               for seed, n, p in _WIDE_RANDOM]
    rows = []
    for name, g in graphs:
        chi, witness = chromatic_number(g)
        rows.append(f"{name} chi {chi} {witness.colors}")
    return rows


@pytest.mark.usefixtures("capped_kernel")
def test_chromatic_witnesses_are_pinned_on_wide_frontiers():
    # Each decision chooses among hundreds of frontier vertices here; the
    # atlas and random-graph digests stop at 14 vertices.
    digest = hashlib.sha256("\n".join(wide_chromatic_rows()).encode()).hexdigest()
    assert digest == "e176b9512561cc14ce08b554a6ac2b43215bdefa8ced28e0067c1ce36765efc9"


_CHVATAL = [
    (0, 1), (0, 4), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (2, 3), (2, 6), (2, 8), (3, 4), (3, 7),
    (3, 9), (4, 5), (4, 8), (5, 10), (5, 11), (6, 10), (6, 11), (7, 8), (7, 11), (8, 10), (9, 10),
    (9, 11),
]


def _bicliques_and_chvatal(copies):
    """copies x K_{5,5} and then the Chvatal graph (chi 4, triangle-free), numbered
    as networkx.disjoint_union_all([complete_bipartite_graph(5, 5)] * copies + [chvatal_graph()])."""
    edges = [(10 * i + a, 10 * i + b) for i in range(copies) for a in range(5) for b in range(5, 10)]
    edges += [(10 * copies + a, 10 * copies + b) for a, b in _CHVATAL]
    return graph_from_edges(10 * copies + 12, edges)


@pytest.mark.parametrize(
    "make_graph, calls",
    [
        (_grotzsch, [(11, "FOUND", 11), (3, "NOT_EXISTS", 20)]),
        (lambda: graph_from_edges(9, _IRREGULAR_9), [(9, "FOUND", 9), (4, "FOUND", 5)]),
        (lambda: kneser_graph(10, 4).graph, [(210, "FOUND", 210), (3, "NOT_EXISTS", 2626)]),
        (
            lambda: oracles.random_graph(random.Random(9), 50, 0.5),
            [(50, "FOUND", 50), (8, "NOT_EXISTS", 90), (9, "NOT_EXISTS", 19_995),
             (10, "FOUND", 3_709)],
        ),
        # k = 3 2-colors each K_{5,5}, then fails on the Chvatal graph. A search
        # that backtracked into the finished components there tried every
        # coloring of them: 5,005 nodes with one copy, past _PIN_CAP with three.
        (lambda: _bicliques_and_chvatal(3), [(42, "FOUND", 42), (3, "NOT_EXISTS", 81)]),
        (lambda: _bicliques_and_chvatal(20), [(212, "FOUND", 212), (3, "NOT_EXISTS", 251)]),
    ],
)
def test_chromatic_node_counts_are_pinned(capped_kernel, make_graph, calls):
    # (k, status, nodes) of every kernel call chromatic_number makes: the
    # DSATUR bound at k = n, then each k from the clique size up. The values
    # were taken at 9aef4a1, before the saturation planes replaced the
    # saturation buckets: the planes must visit the same nodes. The two
    # disconnected graphs' values were taken from the code that starts each
    # component afresh. The calls are compared even when chromatic_number
    # raises on a capped result.
    try:
        chromatic_number(make_graph())
    finally:
        assert capped_kernel == calls


def test_chromatic_number_of_a_large_clique():
    # Every seed after the first has degree below the clique already found,
    # so greedy_clique grows one clique instead of one per vertex.
    chi, witness = chromatic_number(complete_graph(500))
    assert chi == 500 and witness.colors == tuple(range(1, 501))


def _graph_rows(g):
    """Rows for one graph: its edges, chi and its witness, then for k = 1..n+1,
    at _PIN_CAP ("cap=None") and at 5 nodes, the colorful search's status, nodes and witness."""
    chi, witness = chromatic_number(g)
    rows = [f"{g.edges()} chi {chi} {witness.colors}"]
    for k in range(1, g.n + 2):
        for cap in (None, 5):
            result = find_colorful_coloring(g, k, _PIN_CAP if cap is None else Budget(max_nodes=cap))
            colors = result.coloring.colors if result.coloring is not None else None
            rows.append(f"k={k} cap={cap} {result.status.name} {result.nodes} {colors}")
    return rows


def kernel_rows(n):
    """One text row per kernel result on the networkx atlas graphs with n vertices.

    To diff two commits, print the rows at each:
    PYTHONPATH=src:tests python -c "import test_coloring as t; print(*t.kernel_rows(7), sep='\\n')"
    """
    from networkx.generators.atlas import graph_atlas_g

    return [row for nxg in graph_atlas_g() if nxg.number_of_nodes() == n
            for row in _graph_rows(graph_from_edges(n, list(nxg.edges())))]


def random_kernel_rows():
    """kernel_rows for 200 seeded G(n, p) with 8 <= n <= 14 and p in {0.15, 0.3, 0.5, 0.7}.

    Every third graph is the union of two random parts on disjoint vertex
    sets, so the search also starts on a second component.
    """
    rng = random.Random(10)
    rows = []
    for i in range(200):
        n = rng.randint(8, 14)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        if i % 3 == 2:
            a = rng.randint(1, n - 1)
            left, right = oracles.random_graph(rng, a, p), oracles.random_graph(rng, n - a, p)
            g = graph_from_edges(n, left.edges() + [(a + u, a + v) for u, v in right.edges()])
        else:
            g = oracles.random_graph(rng, n, p)
        rows += _graph_rows(g)
    return rows


# SHA-256 of "\n".join(kernel_rows(n)): 1,252 graphs and 20,706 rows in all.
_KERNEL_ROW_DIGESTS = {
    1: "8bec8068120f33b2b4102b3e9bc4f6b20d4c59986e6c4a80ce5bb20b76eb4b8e",
    2: "97ec0e7683a954c43707d553426ebeaba5b058bc8ad73b4e2b7aa7712207559c",
    3: "c0abb6aef9811e701c3e6ed4fcf717b4c61d306ccb5ab376368ab1142f822796",
    4: "3b755b423cb63d573e743fb1d63f1b55b97214838eb706492dcda68b71877cba",
    5: "af488b6d5349331a1a14fe1bb65fd77257710adfe97632e57d44be82bdbbbc08",
    6: "c8962e882f7e9bc6638158f5f63cb164ab1e6a9f5c65488e6a16506436606cc4",
    7: "3a582e25a74d32dcc0d0dc8d8c150e7549609a92960aff5e34b970c5378e9ac9",
}


@pytest.mark.parametrize("n", sorted(_KERNEL_ROW_DIGESTS))
def test_kernel_results_are_pinned_on_the_atlas(n):
    # Verdicts, node counts and witnesses change only if the search order,
    # the node definition or the budget rule does.
    pytest.importorskip("networkx")
    assert hashlib.sha256("\n".join(kernel_rows(n)).encode()).hexdigest() == _KERNEL_ROW_DIGESTS[n]


def test_kernel_results_are_pinned_on_random_graphs():
    # Larger than the atlas graphs, and a third of them disconnected.
    digest = hashlib.sha256("\n".join(random_kernel_rows()).encode()).hexdigest()
    assert digest == "5c88c8faab352ec66b27802a4a17aa08df2da6ac4e1582f3dc7adf313f5f8c16"
