import math
from itertools import combinations

import pytest

from bcoloring.coloring import chromatic_number
from bcoloring.errors import InputError
from bcoloring.graphs import MAX_VERTICES
from bcoloring.kneser import (
    format_subset,
    kneser_graph,
    lovasz_chromatic,
    parse_subset,
    rank_subset,
    unrank_subset,
)

import oracles


def test_colex_rank_endpoints():
    assert rank_subset(7, 3, (1, 2, 3)) == 0
    assert rank_subset(7, 3, (5, 6, 7)) == 34


def test_rank_unrank_round_trip_kg73():
    for index in range(35):
        members = unrank_subset(7, 3, index)
        assert rank_subset(7, 3, members) == index
    all_subsets = {unrank_subset(7, 3, i) for i in range(35)}
    assert all_subsets == set(combinations(range(1, 8), 3))


@pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (9, 4), (8, 1)])
def test_rank_unrank_bijection(n, m):
    count = math.comb(n, m)
    seen = set()
    for index in range(count):
        members = unrank_subset(n, m, index)
        assert len(members) == m and all(1 <= x <= n for x in members)
        assert rank_subset(n, m, members) == index
        seen.add(members)
    assert len(seen) == count


def test_rank_rejects_malformed_labels():
    with pytest.raises(InputError):
        rank_subset(7, 3, (1, 1, 2))
    with pytest.raises(InputError):
        rank_subset(7, 3, (0, 1, 2))
    with pytest.raises(InputError):
        rank_subset(7, 3, (5, 6, 8))
    with pytest.raises(InputError):
        unrank_subset(7, 3, 35)


def test_subset_label_rendering():
    assert format_subset((1, 2, 3)) == "{1,2,3}"
    assert parse_subset("{2,5,6}") == (2, 5, 6)
    with pytest.raises(InputError):
        parse_subset("{2,2}")
    with pytest.raises(InputError):
        parse_subset("1,2,3")


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


@pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (7, 3), (9, 4)])
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
    # C(30,15) is about 1.55e8: the check must come before any subset is unranked.
    assert math.comb(15, 7) <= MAX_VERTICES < math.comb(30, 15)
    with pytest.raises(InputError, match="limit"):
        kneser_graph(30, 15)


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
