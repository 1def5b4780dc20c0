from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring.coloring import Coloring, chromatic_number, find_colorful_coloring, is_colorful
from bcoloring.errors import InputError
from bcoloring.fixtures import petersen, q3
from bcoloring.graphs import complete_graph, cycle_graph, graph_from_edges, path_graph
from bcoloring.homomorphism import (
    SlsCertificate,
    VertexMap,
    coloring_as_hom,
    compose,
    hom_as_coloring,
    is_homomorphism,
    is_semi_locally_surjective,
    is_surjective,
    kneser_step_hom,
    lift_coloring,
)
from bcoloring.kneser import kneser_graph

import oracles


def test_vertex_map_validation():
    with pytest.raises(InputError):
        VertexMap(complete_graph(2), complete_graph(2), (0,))
    with pytest.raises(InputError):
        VertexMap(complete_graph(2), complete_graph(2), (0, 5))


def test_identity_is_homomorphism():
    g = petersen()
    f = VertexMap(g, g, tuple(range(g.n)))
    assert is_homomorphism(f) and is_surjective(f)
    assert is_semi_locally_surjective(f).ok
    assert f(3) == 3
    with pytest.raises(InputError):
        f(10)


def test_collapsed_edge_is_not_a_homomorphism():
    f = VertexMap(complete_graph(2), complete_graph(1), (0, 0))
    assert not is_homomorphism(f)
    verdict = is_semi_locally_surjective(f)
    assert not verdict.ok and verdict.reason == "not a graph homomorphism"
    assert not verdict  # a verdict is as true as its ok, so `if verdict:` reads it


def test_sls_from_triangle_coloring():
    f = coloring_as_hom(complete_graph(3), Coloring(3, (1, 2, 3)))
    verdict = is_semi_locally_surjective(f)
    assert verdict.ok and verdict.certificate.verify(f)
    assert verdict


def test_sls_two_coloring_homs():
    c6 = VertexMap(cycle_graph(6), complete_graph(2), (0, 1, 0, 1, 0, 1))
    assert is_semi_locally_surjective(c6).ok
    assert oracles.naive_is_sls(cycle_graph(6), complete_graph(2), c6.mapping)
    # Path 0-1-2 with both endpoints in one class: middle vertex and one
    # endpoint serve as the witnesses.
    p3 = VertexMap(path_graph(3), complete_graph(2), (0, 1, 0))
    assert is_semi_locally_surjective(p3).ok
    assert oracles.naive_is_sls(path_graph(3), complete_graph(2), p3.mapping)


def test_sls_no_verdict_names_a_refutable_vertex():
    # Proper but not colorful: class of color 1 has no dominating vertex.
    f = coloring_as_hom(path_graph(3), Coloring(3, (1, 2, 3)))
    verdict = is_semi_locally_surjective(f)
    assert not verdict.ok
    assert verdict.failing_vertex is not None
    assert not oracles.naive_sls_witness_exists(
        f.source, f.target, f.mapping, verdict.failing_vertex
    )


def test_non_surjective_map_fails_with_reason():
    f = VertexMap(graph_from_edges(2, []), graph_from_edges(2, []), (0, 0))
    verdict = is_semi_locally_surjective(f)
    assert not verdict.ok and verdict.reason == "not surjective"
    assert verdict.failing_vertex == 1


def test_sls_verdict_matches_brute_force_exhaustively():
    # Every map between these small pairs, checked against the quantifier
    # translation of the definition. Yes certificates re-verify edge by
    # edge; a No that names a vertex is confirmed witness-free by brute force.
    pairs = [
        (cycle_graph(5), complete_graph(3)),
        (cycle_graph(4), path_graph(3)),
        (path_graph(4), complete_graph(2)),
        (complete_graph(3), complete_graph(3)),
    ]
    for source, target in pairs:
        for mapping in product(range(target.n), repeat=source.n):
            f = VertexMap(source, target, mapping)
            verdict = is_semi_locally_surjective(f)
            assert verdict.ok == oracles.naive_is_sls(source, target, mapping)
            if verdict.ok:
                assert verdict.certificate.verify(f)
                # The witnesses are the least valid ones, found by brute force.
                pre = [[b for b in range(source.n) if mapping[b] == v] for v in range(target.n)]
                for u in range(target.n):
                    around = target.neighbors(u)
                    a = min(
                        a for a in pre[u]
                        if all(any(source.has_edge(a, b) for b in pre[v]) for v in around)
                    )
                    assert verdict.certificate.witness[u] == a
            elif verdict.reason == "no valid preimage witness":
                assert not oracles.naive_sls_witness_exists(
                    source, target, mapping, verdict.failing_vertex
                )


def test_composition_of_discovered_sls_maps():
    # All SLS maps along two small chains, composed pairwise; the composite
    # must itself be SLS.
    chains = [
        (cycle_graph(4), path_graph(3), complete_graph(2)),
        (cycle_graph(6), complete_graph(2), complete_graph(2)),
    ]
    seen_any = False
    for g3, g2, g1 in chains:
        first_maps = [
            VertexMap(g3, g2, m)
            for m in product(range(g2.n), repeat=g3.n)
            if oracles.naive_is_sls(g3, g2, m)
        ][:8]
        second_maps = [
            VertexMap(g2, g1, m)
            for m in product(range(g1.n), repeat=g2.n)
            if oracles.naive_is_sls(g2, g1, m)
        ][:8]
        assert first_maps and second_maps
        for f in first_maps:
            for g in second_maps:
                composite = compose(f, g)
                seen_any = True
                assert composite.source == g3 and composite.target == g1
                assert is_semi_locally_surjective(composite).ok
    assert seen_any


def test_compose_with_identity_and_mismatch():
    c6, k2 = cycle_graph(6), complete_graph(2)
    f = VertexMap(c6, k2, (0, 1, 0, 1, 0, 1))
    assert compose(VertexMap(c6, c6, tuple(range(6))), f).mapping == f.mapping
    assert compose(f, VertexMap(k2, k2, (0, 1))).mapping == f.mapping
    with pytest.raises(InputError):
        compose(f, f)


def test_compose_of_non_surjective_maps_stays_non_surjective():
    two = graph_from_edges(2, [])
    f = VertexMap(two, two, (0, 0))
    assert not is_surjective(compose(f, f))


def test_kneser_step_paper_values():
    f = kneser_step_hom(7, 3)
    src = kneser_graph(9, 4)
    tgt = kneser_graph(7, 3)
    for a, want in [
        ((1, 2, 3, 4), (1, 2, 3)),
        ((3, 5, 8, 9), (3, 5, 7)),
        ((1, 2, 3, 9), (1, 2, 3)),
    ]:
        assert tgt.subset_of(f.mapping[src.index_of(a)]) == want


def test_kneser_step_requires_n_above_2m():
    with pytest.raises(InputError):
        kneser_step_hom(4, 2)
    with pytest.raises(InputError):
        kneser_step_hom(6, 3)


@pytest.mark.parametrize("n,m", [(5, 2), (7, 3)])
def test_kneser_step_images_are_valid_subsets(n, m):
    f = kneser_step_hom(n, m)
    src = kneser_graph(n + 2, m + 1)
    tgt = kneser_graph(n, m)
    for v in range(src.graph.n):
        image = tgt.subset_of(f.mapping[v])
        assert len(image) == m and all(1 <= x <= n for x in image)
    assert is_homomorphism(f) and is_surjective(f)


@pytest.mark.parametrize("n,m", [(5, 2), (7, 3)])
def test_kneser_step_witness_structure(n, m):
    # For every target X and every target neighbor Y, the pair
    # (X u {n+1}, Y u {n+2}) is an edge of the source graph, and both are
    # preimages of X and Y respectively.
    f = kneser_step_hom(n, m)
    src = kneser_graph(n + 2, m + 1)
    tgt = kneser_graph(n, m)
    for x in range(tgt.graph.n):
        xs = tgt.subset_of(x)
        a = src.index_of(xs + (n + 1,))
        assert f.mapping[a] == x
        for y in tgt.graph.neighbors(x):
            ys = tgt.subset_of(y)
            b = src.index_of(ys + (n + 2,))
            assert f.mapping[b] == y
            assert src.graph.has_edge(a, b)


def test_lift_through_identity_is_identity():
    g = cycle_graph(6)
    c = Coloring(2, (1, 2, 1, 2, 1, 2))
    assert lift_coloring(VertexMap(g, g, tuple(range(g.n))), c) == c


def test_lift_small_chain():
    f = VertexMap(cycle_graph(6), complete_graph(2), (0, 1, 0, 1, 0, 1))
    lifted = lift_coloring(f, Coloring(2, (1, 2)))
    assert lifted.colors == (1, 2, 1, 2, 1, 2)
    assert is_colorful(cycle_graph(6), lifted)[0]


def test_lift_preconditions_name_the_failure():
    sls = VertexMap(cycle_graph(6), complete_graph(2), (0, 1, 0, 1, 0, 1))
    not_sls = VertexMap(graph_from_edges(2, []), graph_from_edges(2, []), (0, 0))
    with pytest.raises(InputError, match="semi-locally-surjective"):
        lift_coloring(not_sls, Coloring(1, (1, 1)))
    with pytest.raises(InputError, match="not colorful"):
        lift_coloring(sls, Coloring(2, (1, 1)))


def test_lift_witnesses_come_from_the_certificate():
    # The certificate witness of each target class witness is b-dominating
    # in the lifted coloring.
    from bcoloring.coloring import is_b_dominating

    f = kneser_step_hom(5, 2)
    chi, witness = chromatic_number(kneser_graph(5, 2).graph)
    assert chi == 3
    lifted = lift_coloring(f, witness)
    ok, target_witnesses = is_colorful(f.target, witness)
    assert ok
    certificate = is_semi_locally_surjective(f).certificate
    for color, x in target_witnesses.items():
        a = certificate.witness[x]
        assert lifted.colors[a] == color
        assert is_b_dominating(f.source, lifted, a)


def test_certificate_verify_rejects_each_broken_witness():
    f = kneser_step_hom(5, 2)
    cert = is_semi_locally_surjective(f).certificate
    assert cert.verify(f)
    w = cert.witness
    v = f.target.neighbors(0)[0]
    # Source vertex 0 maps to 0 and precedes the least witness, so it misses
    # the preimage of some neighbor of 0.
    assert f.mapping[0] == 0 != w[0]
    broken = [
        # witness[0] is a preimage of v, not of 0
        SlsCertificate({**w, 0: f.mapping.index(v)}),
        # the witness of 0 is missing
        SlsCertificate({x: b for x, b in w.items() if x != 0}),
        # it is a preimage of 0 that misses the preimage of a neighbor
        SlsCertificate({**w, 0: 0}),
        # witnesses that are not source vertices: past the last one, or
        # negative, which as an index would read a real vertex from the end
        SlsCertificate({x: b + f.source.n for x, b in w.items()}),
        SlsCertificate({x: b - f.source.n for x, b in w.items()}),
        # the least witness of 0 as a float, which range() holds but 1 << a refuses
        SlsCertificate({**w, 0: float(w[0])}),
    ]
    assert not any(c.verify(f) for c in broken)
    # 4, 10 and 20 are the preimages of 0 that see a preimage of every
    # neighbor of 0; each is accepted, not only the least.
    assert w[0] == 4 and all(SlsCertificate({**w, 0: a}).verify(f) for a in (10, 20))
    # Every witness holds, but the edge {0, 1} of K_3 collapses: no homomorphism.
    collapse = VertexMap(complete_graph(3), complete_graph(2), (0, 0, 1))
    assert not SlsCertificate({0: 0, 1: 2}).verify(collapse)


def test_lift_of_kg52_witness_is_colorful_on_kg73():
    f = kneser_step_hom(5, 2)
    _, witness = chromatic_number(kneser_graph(5, 2).graph)
    lifted = lift_coloring(f, witness)
    assert lifted.k == 3
    assert is_colorful(kneser_graph(7, 3).graph, lifted)[0]


def test_lift_preserves_colorfulness_over_small_corpus():
    # For discovered SLS maps into small targets, every colorful coloring
    # of the target (found by exhaustive search) lifts to a colorful one.
    chains = [
        (cycle_graph(4), path_graph(3)),
        (cycle_graph(6), complete_graph(2)),
        (cycle_graph(5), complete_graph(3)),
    ]
    lifted_count = 0
    for source, target in chains:
        maps = [
            VertexMap(source, target, m)
            for m in product(range(target.n), repeat=source.n)
            if oracles.naive_is_sls(source, target, m)
        ][:6]
        assert maps
        for k in range(1, 4):
            for assign in product(range(1, k + 1), repeat=target.n):
                if not oracles.naive_is_colorful(target, assign, k):
                    continue
                c = Coloring(k, assign)
                for f in maps:
                    lifted = lift_coloring(f, c)
                    assert is_colorful(source, lifted)[0]
                    lifted_count += 1
    assert lifted_count > 0


def test_monotone_chain_memberships_reach_kg94():
    # Every known member of B(KG(7,3)) transfers to KG(9,4) by lifting:
    # 3 from the chromatic witness, 4 from the explicit fixture, 5 from
    # the search (pinned in tests/data).
    from bcoloring.fixtures import kg73_colorful_five, kg73_colorful_four

    f = kneser_step_hom(7, 3)
    kg94 = kneser_graph(9, 4)
    kg73 = kneser_graph(7, 3)
    chi, chi_witness = chromatic_number(kg73.graph)
    assert chi == 3
    for coloring in (chi_witness, kg73_colorful_four()[0], kg73_colorful_five()):
        lifted = lift_coloring(f, coloring)
        assert is_colorful(kg94.graph, lifted)[0]


def test_coloring_hom_round_trip():
    g = complete_graph(3)
    c = Coloring(3, (1, 2, 3))
    f = coloring_as_hom(g, c)
    assert f.target == complete_graph(3)
    assert hom_as_coloring(f) == c


def test_coloring_as_hom_rejects_bad_input():
    with pytest.raises(InputError, match="not proper"):
        coloring_as_hom(complete_graph(2), Coloring(2, (1, 1)))
    with pytest.raises(InputError, match="empty"):
        coloring_as_hom(graph_from_edges(2, []), Coloring(3, (1, 2)))
    with pytest.raises(InputError, match="complete"):
        hom_as_coloring(VertexMap(complete_graph(2), path_graph(3), (0, 1)))


def test_q3_colorful_four_coloring_gives_sls_map():
    g = q3()
    result = find_colorful_coloring(g, 4)
    assert result.found
    f = coloring_as_hom(g, result.coloring)
    assert is_semi_locally_surjective(f).ok


@st.composite
def colored_small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool)) if pool else st.just([]))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    colors = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    return graph_from_edges(n, edges), Coloring(k, tuple(colors))


@settings(max_examples=250, deadline=None)
@given(colored_small_graph())
def test_bridge_on_random_colorings(gc):
    # Thm-1.2-style bridge: a coloring is colorful exactly when the induced
    # map into the complete graph is SLS.
    g, c = gc
    colorful, witnesses = is_colorful(g, c)
    as_map = tuple(col - 1 for col in c.colors)
    assert colorful == oracles.naive_is_sls(g, complete_graph(c.k), as_map)
    if colorful:
        certificate = is_semi_locally_surjective(coloring_as_hom(g, c)).certificate
        assert witnesses == {u + 1: a for u, a in certificate.witness.items()}
