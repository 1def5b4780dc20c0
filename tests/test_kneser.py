import math
from itertools import combinations

import pytest

from bcoloring.coloring import chromatic_number
from bcoloring.errors import InputError
from bcoloring.graphs import MAX_VERTICES, girth, is_bipartite
from bcoloring.kneser import format_subset, kneser_graph, lovasz_chromatic

import oracles


def colex_rank(members):
    """Closed-form colex rank of an ascending subset: sum of C(x-1, j+1)."""
    return sum(math.comb(x - 1, j + 1) for j, x in enumerate(members))


def test_colex_rank_endpoints():
    kg = kneser_graph(7, 3)
    assert kg.subsets[0] == (1, 2, 3) and kg.index_of((1, 2, 3)) == 0
    assert kg.subsets[34] == (5, 6, 7) and kg.index_of((5, 6, 7)) == 34


def test_rank_unrank_round_trip_kg73():
    kg = kneser_graph(7, 3)
    for index in range(35):
        assert kg.index_of(kg.subset_of(index)) == index
        assert kg.index_of(reversed(kg.subsets[index])) == index
    assert set(kg.subsets) == set(combinations(range(1, 8), 3))


@pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (9, 4), (8, 1), (15, 7)])
def test_rank_unrank_bijection(n, m):
    # The vertex order is frozen into every file written: vertex i is the
    # subset whose closed-form colex rank is i.
    kg = kneser_graph(n, m)
    assert len(kg.subsets) == kg.graph.n == math.comb(n, m)
    for index, members in enumerate(kg.subsets):
        assert len(members) == m and all(1 <= x <= n for x in members)
        assert colex_rank(members) == index
        assert kg.index_of(members) == index


def test_rank_rejects_malformed_labels():
    kg = kneser_graph(7, 3)
    for members in [(1, 1, 2), (0, 1, 2), (5, 6, 8), (1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(InputError, match="not a 3-subset of 1..7"):
            kg.index_of(members)


def test_subset_label_rendering():
    assert format_subset((1, 2, 3)) == "{1,2,3}"
    assert kneser_graph(7, 3).graph.labels[34] == "{5,6,7}"
    assert repr(kneser_graph(5, 2)) == "KneserGraph(5, 2)"


def test_petersen_is_kg52():
    kg = kneser_graph(5, 2)
    reference, pairs = oracles.petersen_from_scratch()
    assert kg.graph.n == 10 and kg.graph.edge_count() == 15
    assert all(kg.graph.degree(v) == 3 for v in range(10))
    # Same graph up to the pair ordering used by the reference construction.
    relabel = [kg.index_of(p) for p in pairs]
    for u, v in reference.edges():
        assert kg.graph.has_edge(relabel[u], relabel[v])


def test_kg31_is_triangle():
    kg = kneser_graph(3, 1)
    assert kg.graph.n == 3 and kg.graph.edge_count() == 3


def test_kg73_degrees():
    kg = kneser_graph(7, 3)
    assert kg.graph.n == 35
    assert all(kg.graph.degree(v) == 4 for v in range(35))


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 2), (7, 3), (9, 4)])
def test_adjacency_is_label_disjointness(n, m):
    # Independent pass: re-derive every adjacency bit from subset intersection.
    kg = kneser_graph(n, m)
    for i in range(kg.graph.n):
        for j in range(i + 1, kg.graph.n):
            disjoint = not set(kg.subsets[i]) & set(kg.subsets[j])
            assert kg.graph.has_edge(i, j) == disjoint


@pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (7, 3), (9, 4), (15, 7)])
def test_degree_formula(n, m):
    kg = kneser_graph(n, m)
    expected = math.comb(n - m, m)
    assert all(kg.graph.degree(v) == expected for v in range(kg.graph.n))


def test_edgeless_below_double_m():
    # n < 2m is allowed by the constructor and gives an edgeless graph.
    kg = kneser_graph(3, 2)
    assert kg.graph.n == 3 and kg.graph.edge_count() == 0


def test_constructor_rejects_bad_parameters():
    with pytest.raises(InputError):
        kneser_graph(3, 4)
    with pytest.raises(InputError):
        kneser_graph(3, 0)


def test_constructor_rejects_graphs_over_the_vertex_limit():
    # C(30,15) is about 1.55e8: the check must come before any subset is enumerated.
    assert math.comb(15, 7) <= MAX_VERTICES < math.comb(30, 15)
    with pytest.raises(InputError, match="limit"):
        kneser_graph(30, 15)
    # One vertex, but a ground set over the limit.
    with pytest.raises(InputError, match="limit"):
        kneser_graph(MAX_VERTICES + 1, MAX_VERTICES + 1)
    # 400 edgeless vertices listing 159,600 subset members.
    with pytest.raises(InputError, match="limit"):
        kneser_graph(400, 399)
    # Dense graphs under both limits above: K_10000 has 49,995,000 edges and
    # KG(141,2) 47,331,585; the edge count is checked before any subset is listed.
    with pytest.raises(InputError, match="limit"):
        kneser_graph(10_000, 1)
    with pytest.raises(InputError, match="limit"):
        kneser_graph(141, 2)
    # math.comb(10**9, 5 * 10**8) alone runs far longer than a test may wait.
    with pytest.raises(InputError, match="limit"):
        kneser_graph(10**9, 5 * 10**8)


def test_odd_graph_girth():
    # KG(2k+1, k): a triangle, the Petersen graph, then girth 6 from k = 3 on.
    for k, want in zip(range(1, 7), (3, 5, 6, 6, 6, 6)):
        g = kneser_graph(2 * k + 1, k).graph
        assert girth(g) == want, k
        assert not is_bipartite(g)[0], k


def test_lovasz_formula_values():
    assert lovasz_chromatic(5, 2) == 3
    assert lovasz_chromatic(7, 3) == 3
    assert lovasz_chromatic(4, 2) == 2
    assert lovasz_chromatic(8, 4) == 2
    with pytest.raises(InputError):
        lovasz_chromatic(3, 2)


def test_exact_chromatic_matches_lovasz_full_sweep():
    # Every generated instance with n <= 9, m <= 4, n >= 2m.
    from bcoloring.coloring import is_proper

    for m in range(1, 5):
        for n in range(2 * m, 10):
            kg = kneser_graph(n, m)
            chi, witness = chromatic_number(kg.graph)
            assert chi == lovasz_chromatic(n, m), (n, m)
            assert witness.k == chi and is_proper(kg.graph, witness)
