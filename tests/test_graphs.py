import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring.errors import FileFormatError, InputError
from bcoloring.graphs import (
    INFINITE_GIRTH,
    Graph,
    complete_graph,
    cycle_graph,
    girth,
    graph_from_edges,
    is_bipartite,
    path_graph,
    read_col,
    regularity,
    write_col,
)
from bcoloring.kneser import kneser_graph

import oracles


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool)) if pool else st.just([]))
    return graph_from_edges(n, edges)


def test_triangle_from_edges():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count() == 3
    assert g == complete_graph(3)


def test_edgeless_graph():
    g = graph_from_edges(2, [])
    assert [g.degree(v) for v in range(2)] == [0, 0]


def test_duplicate_edges_collapse():
    g = graph_from_edges(4, [(0, 1), (0, 1), (1, 2)])
    assert g.edge_count() == 2


def test_out_of_range_endpoint_named_in_error():
    with pytest.raises(InputError, match=r"\(1, 7\)"):
        graph_from_edges(3, [(1, 7)])


def test_self_loop_rejected():
    with pytest.raises(InputError, match="self-loop"):
        graph_from_edges(3, [(2, 2)])


def test_constructor_rejects_asymmetry_and_bad_bits():
    with pytest.raises(InputError, match="asymmetric"):
        Graph(2, [0b10, 0b00])
    with pytest.raises(InputError, match="outside"):
        Graph(2, [0b100, 0b00])
    with pytest.raises(InputError, match="self-loop at vertex 0"):
        Graph(1, [0b1])
    with pytest.raises(InputError, match="expected 2 adjacency rows"):
        Graph(2, [0])
    with pytest.raises(InputError, match="nonnegative"):
        Graph(-1, [])
    with pytest.raises(InputError, match="expected 2 labels"):
        Graph(2, [0, 0], ["a"])


@pytest.mark.parametrize(
    "labels, vertex",
    [(["a", "a", "b"], "vertex 1"), (["c", "x", "y"], "vertex 0"), (["a b", "x", "y"], "vertex 0")],
)
def test_labels_must_name_their_vertices_in_files(labels, vertex):
    # Each of these once wrote a coloring file that its reader rejected.
    with pytest.raises(InputError, match=vertex):
        Graph(3, path_graph(3).adj, labels)


def test_petersen_structure_against_independent_construction():
    # Petersen rebuilt from raw disjoint 2-subsets of {1..5}: 3-regular,
    # every closed neighborhood has 4 vertices, girth 5, not bipartite.
    g, pairs = oracles.petersen_from_scratch()
    assert g.n == 10 and g.edge_count() == 15
    assert regularity(g) == 3
    for v in range(10):
        assert g.degree(v) + 1 == 4
    assert oracles.naive_girth(g) == 5
    assert girth(g) == 5
    ok, _ = is_bipartite(g)
    assert not ok and oracles.naive_has_odd_cycle(g)


def test_named_graphs_reject_too_few_vertices():
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        path_graph(0)


def test_regularity_examples():
    assert regularity(complete_graph(3)) == 2
    assert regularity(path_graph(3)) is None
    with pytest.raises(InputError):
        regularity(graph_from_edges(0, []))


def test_girth_examples():
    assert girth(complete_graph(3)) == 3
    assert girth(path_graph(3)) == INFINITE_GIRTH
    assert girth(cycle_graph(6)) == 6
    # A C7 and a C5 apart: no vertex has core degree 3, so no BFS root.
    two_cycles = [(v, (v + 1) % 7) for v in range(7)] + [(7 + v, 7 + (v + 1) % 5) for v in range(5)]
    assert girth(graph_from_edges(12, two_cycles)) == 5
    assert math.isinf(girth(graph_from_edges(0, [])))


def test_bipartite_examples():
    ok, sides = is_bipartite(cycle_graph(6))
    assert ok and sides == (0, 1, 0, 1, 0, 1)
    assert is_bipartite(graph_from_edges(3, []))[0]
    assert not is_bipartite(cycle_graph(5))[0]


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
def test_girth_matches_cycle_enumeration(g):
    got = girth(g)
    want = oracles.naive_girth(g)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
def test_girth_infinite_iff_forest(g):
    assert math.isinf(girth(g)) == oracles.naive_is_forest(g)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
def test_bipartite_matches_partition_and_odd_cycle_oracles(g):
    ok, sides = is_bipartite(g)
    assert ok == oracles.naive_bipartite(g)
    assert ok == (not oracles.naive_has_odd_cycle(g))
    if ok:
        assert all(sides[u] != sides[v] for u, v in g.edges())


@pytest.mark.parametrize("tail", [False, True])
def test_girth_peels_long_trees_and_tails(tail):
    # Peeling to the 2-core removes the whole path, or all of the tail but
    # the triangle, before any BFS; a BFS from every vertex took seconds
    # at a fifth of this size.
    n = 10_000
    cycle = [(0, 2)] if tail else []
    g = graph_from_edges(n, cycle + [(v, v + 1) for v in range(n - 1)])
    assert girth(g) == (3 if tail else INFINITE_GIRTH)


def test_girth_of_two_triangles_joined_by_a_long_path():
    # The path lies in the 2-core; only its two ends have core degree 3, so
    # only they root a BFS. Rooting one at every core vertex took 9 s.
    n = 5_006
    path = [0, *range(6, n), 3]
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert girth(graph_from_edges(n, triangles + list(zip(path, path[1:])))) == 3


def test_girth_oracle_agreement_up_to_ten_vertices():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(3, 10)
        g = oracles.random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        got, want = girth(g), oracles.naive_girth(g)
        assert (got == want) or (math.isinf(got) and math.isinf(want))


def test_col_round_trip(tmp_path):
    g, _ = oracles.petersen_from_scratch()
    path = tmp_path / "petersen.col"
    write_col(g, path, comment="petersen")
    assert read_col(path) == g


def test_col_round_trip_with_labels(tmp_path):
    g = graph_from_edges(3, [(0, 1)], labels=["{1,2}", "{3,4}", "{1,5}"])
    path = tmp_path / "labeled.col"
    write_col(g, path)
    back = read_col(path)
    assert back == g and back.labels == g.labels
    oracles.assert_passes_constructor_checks(back)


def test_unchecked_builders_pass_the_constructor_checks():
    # KneserGraph and complete_graph skip Graph's checks; the .col reader is
    # covered by the round trip above and by the reader fuzz.
    for n in range(1, 10):
        for m in range(1, n + 1):
            oracles.assert_passes_constructor_checks(kneser_graph(n, m).graph)
    for k in range(9):
        oracles.assert_passes_constructor_checks(complete_graph(k))


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("e 1 2\n", "expected header 'p edge <n> <m>'"),
        ("p edge 2 1\ne 1 3\n", "outside 1..2"),
        ("p edge 2 1\ne 1 1\n", "self-loop"),
        ("p edge 2 2\ne 1 2\n", "declared 2 edges"),
        ("c a\nc b\np edge 2 2\ne 1 2\n", ":3: declared 2 edges, found 1"),
        ("p edge x 1\ne 1 2\n", "non-integer"),
        ("q edge 2 1\n", "expected header 'p edge <n> <m>'"),
        ("p edge 100000000 0\n", "exceed the limit"),
        ("p edge -1 0\n", "negative problem parameters"),
        ("p edge 2 1\ne 1 2 3\n", "expected 'e <u> <v>'"),
        ("p edge 2 1\ne 1 x\n", "non-integer endpoint"),
        ("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate problem line"),
        # An edge line is checked in one order: its first field, its field
        # count, integer endpoints, their range, then loops. Each reads at line 2.
        ("p edge 2 1\nx 1 2\n", ":2: unknown line type 'x'"),
        ("p edge 2 1\ne 1\n", ":2: expected 'e <u> <v>'"),
        ("p edge 2 1\ne\n", ":2: expected 'e <u> <v>'"),
        ("p edge 2 1\np 2 1\n", ":2: duplicate problem line"),
        ("p edge 2 1\ne 0 1\n", r":2: endpoint of \(0, 1\) outside 1..2"),
        ("p edge 2 1\ne 3 3\n", r":2: endpoint of \(3, 3\) outside 1..2"),
        ("p edge 2 1\ne x 1\n", ":2: non-integer endpoint"),
        ("p edge 2 1\np\n", ":2: duplicate problem line"),
        ("p edge 2 1\nx 1\n", ":2: unknown line type 'x'"),
        ("p edge 2 1\ne 0 x\n", ":2: non-integer endpoint"),
    ],
)
def test_col_malformed_files(tmp_path, body, fragment):
    path = tmp_path / "bad.col"
    path.write_text(body)
    with pytest.raises(FileFormatError, match=fragment):
        read_col(path)


def test_col_label_sidecar_must_label_every_vertex(tmp_path):
    path = tmp_path / "p3.col"
    write_col(path_graph(3), path)
    (tmp_path / "p3.col.labels").write_text("a\nb\n")
    with pytest.raises(FileFormatError, match="expected 3 labels, found 2"):
        read_col(path)


def test_col_label_sidecar_skips_comments_and_rejects_two_fields(tmp_path):
    # "c" is no label, so a sidecar line starting with it is a comment, as in the other formats.
    path = tmp_path / "p3.col"
    write_col(path_graph(3), path)
    sidecar = tmp_path / "p3.col.labels"
    sidecar.write_text("c written by hand\na\nb\nc0\n")
    assert read_col(path).labels == ("a", "b", "c0")
    sidecar.write_text("a b\nx\ny\n")
    with pytest.raises(FileFormatError, match=r":1: label 'a b' of vertex 0 is not one field other than 'c'"):
        read_col(path)


def test_col_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("c comment\np edge 3 1\ne 1 9\n")
    with pytest.raises(FileFormatError) as err:
        read_col(path)
    assert err.value.lineno == 3


def test_col_reader_memory_is_bounded_by_the_rows(tmp_path):
    # Edge lines are counted, not kept, so memory is bounded by the rows, not by the file.
    path = tmp_path / "long.col"
    path.write_text("p edge 3 1\n" + "e 1 2\n" * 20_001)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=":1: declared 1 edges, found 20001"):
            read_col(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
