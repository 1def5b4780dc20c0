
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bcoloring.graphs import complete_graph, cycle_graph, graph_from_edges
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


def test_coloring_classes_partition_vertices():
    c = Coloring(3, (1, 2, 1, 3, 2))
    assert c.classes() == [[0, 2], [1, 4], [3]]


def test_coloring_rejects_out_of_range_colors():
    with pytest.raises(InputError):
        Coloring(2, (1, 3))
    with pytest.raises(InputError):
        Coloring(2, (0, 1))


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


def test_budget_exhaustion_is_inconclusive_not_refuted():
    result = find_colorful_coloring(heawood(), 4, Budget(max_nodes=3))
    assert result.status is SearchStatus.BUDGET_EXCEEDED
    assert result.coloring is None
    # With room to finish, the same search concludes.
    assert find_colorful_coloring(heawood(), 4).status is SearchStatus.FOUND


def test_budget_rejects_negative_and_nan_caps():
    # NaN would never pass a deadline comparison, so it would not cap anything.
    for caps in ({"max_nodes": -1}, {"max_seconds": -1.0}, {"max_seconds": float("nan")}):
        with pytest.raises(InputError):
            Budget(**caps)
    assert Budget(max_nodes=0, max_seconds=float("inf")).max_nodes == 0


@pytest.mark.parametrize(
    "make_graph, k, budget, status, nodes",
    [
        (lambda: kneser_graph(6, 2).graph, 7, None, SearchStatus.NOT_EXISTS, 6_435),
        (petersen, 4, None, SearchStatus.NOT_EXISTS, 310),
        (q3, 3, None, SearchStatus.NOT_EXISTS, 152),
        (lambda: kneser_graph(8, 3).graph, 5, None, SearchStatus.FOUND, 3_191),
        (
            lambda: kneser_graph(7, 2).graph,
            11,
            Budget(max_nodes=20_000),
            SearchStatus.BUDGET_EXCEEDED,
            20_001,
        ),
    ],
)
def test_search_node_counts_are_pinned(make_graph, k, budget, status, nodes):
    # A node is one dominator tuple reached plus one extension assignment;
    # these counts change only if the search order or the node definition does.
    result = find_colorful_coloring(make_graph(), k, budget)
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
    from bcoloring.graphs import path_graph

    g = path_graph(2000) if shape == "path" else cycle_graph(2000)
    result = find_colorful_coloring(g, k)
    assert result.status is SearchStatus.FOUND
    if shape == "path":
        # One node for the first dominator tuple, one per remaining vertex.
        assert result.nodes == 2000 - k + 1


def test_dominator_walk_deeper_than_the_recursion_limit():
    assert find_colorful_coloring(complete_graph(1100), 1100).status is SearchStatus.FOUND


def test_chromatic_bound_descends_a_long_odd_cycle():
    # The DSATUR bound colors all 2,001 vertices in one descent; k = 2 is
    # refuted by the bipartite test, so the bound is the answer.
    chi, witness = chromatic_number(cycle_graph(2001))
    assert chi == 3 and is_proper(cycle_graph(2001), witness)


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
def test_chromatic_witnesses_are_pinned(make_graph, chi, colors):
    # Ties between equally constrained vertices go to higher degree, then
    # lower index; breaking them by index alone gives other witnesses here.
    assert chromatic_number(make_graph()) == (chi, Coloring(chi, colors))
