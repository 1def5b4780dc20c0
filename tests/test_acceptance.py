"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every expectation is exact; each criterion also enforces its stated
wall-clock allowance.
"""

import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest

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
    read_coloring,
)
from bcoloring.fixtures import (
    KG73_CLASSES,
    heawood,
    kg73_colorful_five,
    kg73_colorful_four,
    petersen,
)
from bcoloring.graphs import complete_graph, girth, is_bipartite, regularity
from bcoloring.homomorphism import (
    VertexMap,
    coloring_as_hom,
    compose,
    is_homomorphism,
    is_semi_locally_surjective,
    is_surjective,
    kneser_step_hom,
    lift_coloring,
)
from bcoloring.kneser import kneser_graph, lovasz_chromatic

import oracles


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = time.monotonic()

    def finish(self, passed, note=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if passed else "FAIL"
        suffix = f" ({note})" if note else ""
        print(f"criterion {self.number:2d} {status} [{elapsed:6.2f}s] {self.description}{suffix}")
        assert passed, f"criterion {self.number}: {self.description}{suffix}"
        assert elapsed < self.limit, (
            f"criterion {self.number} exceeded its {self.limit}s allowance ({elapsed:.1f}s)"
        )

    def unknown(self, note):
        elapsed = time.monotonic() - self.start
        print(f"criterion {self.number:2d} UNKNOWN [{elapsed:6.2f}s] {self.description} ({note})")


def test_criterion_01_kg73_fixture():
    crit = _Criterion(1, "KG(7,3) colorful 4-coloring fixture verifies", 1.0)
    kg = kneser_graph(7, 3)
    coloring, designated = kg73_colorful_four()
    ok = is_proper(kg.graph, coloring)
    ok = ok and is_colorful(kg.graph, coloring)[0]
    for class_number, v in enumerate(designated, start=1):
        ok = ok and coloring.colors[v] == class_number
        ok = ok and is_b_dominating(kg.graph, coloring, v)
    sizes = [len(cls) for cls in KG73_CLASSES]
    ok = ok and sizes == [8, 12, 5, 10]
    ok = ok and set().union(*KG73_CLASSES) == set(combinations(range(1, 8), 3))
    crit.finish(ok, f"class sizes {tuple(sizes)}")


def test_criterion_02_q3_spectrum():
    crit = _Criterion(2, "Q3 has spectrum {2,4}, not b-continuous", 10.0)
    from bcoloring.fixtures import q3

    report = b_spectrum(q3())
    ok = sorted(report.spectrum) == [2, 4]
    ok = ok and report.continuous is False
    ok = ok and not report.unknown
    ok = ok and report.chi == 2 and report.m_bound == 4  # searches covered k = 2, 3, 4
    crit.finish(ok, f"spectrum {sorted(report.spectrum)}")


def test_criterion_03_petersen_spectrum():
    crit = _Criterion(3, "Petersen = KG(5,2) has spectrum {3}", 30.0)
    report = b_spectrum(kneser_graph(5, 2).graph)
    ok = sorted(report.spectrum) == [3] and report.b == 3 and report.chi == 3
    ok = ok and not report.unknown
    crit.finish(ok)


def test_criterion_04_triangle_spectrum():
    crit = _Criterion(4, "K3 has spectrum {3}", 1.0)
    report = b_spectrum(complete_graph(3))
    crit.finish(sorted(report.spectrum) == [3])


def test_criterion_05_chromatic_oracle_agreement():
    crit = _Criterion(5, "exact chromatic number matches n-2m+2 on the ladder", 60.0)
    results = []
    ok = True
    for n, m in [(3, 1), (5, 2), (7, 3), (9, 4)]:
        kg = kneser_graph(n, m)
        chi, witness = chromatic_number(kg.graph)
        ok = ok and chi == lovasz_chromatic(n, m) and is_proper(kg.graph, witness)
        results.append(f"KG({n},{m})={chi}")
    crit.finish(ok, ", ".join(results))


def test_criterion_06_step_homomorphisms_are_sls():
    crit = _Criterion(6, "Kneser step maps are SLS with the stated witnesses", 5.0)
    ok = True
    for n, m in [(5, 2), (7, 3)]:
        f = kneser_step_hom(n, m)
        ok = ok and is_homomorphism(f) and is_surjective(f)
        verdict = is_semi_locally_surjective(f)
        ok = ok and verdict.ok and verdict.certificate.verify(f)
        src = kneser_graph(n + 2, m + 1)
        tgt = kneser_graph(n, m)
        for x in range(tgt.graph.n):
            a = src.index_of(tgt.subset_of(x) + (n + 1,))
            ok = ok and f.mapping[a] == x
            for y in tgt.graph.neighbors(x):
                b = src.index_of(tgt.subset_of(y) + (n + 2,))
                ok = ok and f.mapping[b] == y and src.graph.has_edge(a, b)
    crit.finish(ok)


def test_criterion_07_lifting():
    crit = _Criterion(7, "lifting along the step maps preserves colorfulness", 5.0)
    step73 = kneser_step_hom(7, 3)
    fixture, _ = kg73_colorful_four()
    lifted4 = lift_coloring(step73, fixture)
    ok = lifted4.k == 4 and is_colorful(kneser_graph(9, 4).graph, lifted4)[0]

    step52 = kneser_step_hom(5, 2)
    chi, witness = chromatic_number(kneser_graph(5, 2).graph)
    lifted3 = lift_coloring(step52, witness)
    ok = ok and chi == 3 and lifted3.k == 3
    ok = ok and is_colorful(kneser_graph(7, 3).graph, lifted3)[0]
    crit.finish(ok, "4 in B(KG(9,4)), 3 in B(KG(7,3))")


def test_criterion_08_composition():
    crit = _Criterion(8, "composite step map KG(9,4) -> KG(5,2) is SLS", 5.0)
    composite = compose(kneser_step_hom(7, 3), kneser_step_hom(5, 2))
    ok = composite.source.n == 126 and composite.target.n == 10
    verdict = is_semi_locally_surjective(composite)
    ok = ok and verdict.ok and verdict.certificate.verify(composite)
    crit.finish(ok)


def test_criterion_09_kg73_five_coloring():
    crit = _Criterion(9, "KG(7,3) admits a colorful 5-coloring; spectrum {3,4,5}", 600.0)
    kg = kneser_graph(7, 3)
    result = find_colorful_coloring(kg.graph, 5, Budget(max_seconds=600.0))
    if result.status is SearchStatus.BUDGET_EXCEEDED:
        crit.unknown("search budget exceeded; criteria 1-8 stand on their own")
        pytest.skip("criterion 9 inconclusive: budget exceeded")
    ok = result.status is SearchStatus.FOUND
    ok = ok and is_colorful(kg.graph, result.coloring)[0]
    # The pinned witness, the fixture and the deterministic search agree.
    pin = Path(__file__).resolve().parent / "data" / "kg73_colorful5.coloring"
    ok = ok and read_coloring(pin, kg.graph) == result.coloring == kg73_colorful_five()
    ok = ok and m_degree_bound(kg.graph) == 5
    # Spectrum assembly: 3 = chi (criterion 5), 4 from the fixture
    # (criterion 1), 5 from this search, and nothing above the bound.
    chi, _ = chromatic_number(kg.graph)
    fixture, _ = kg73_colorful_four()
    ok = ok and chi == 3 and is_colorful(kg.graph, fixture)[0]
    crit.finish(ok, "spectrum {3,4,5}")


def test_criterion_10_heawood_desk_check():
    crit = _Criterion(10, "Heawood: b = d+1 = 4, spectrum {2,3,4}", 300.0)
    g = heawood()
    ok = regularity(g) == 3 and girth(g) >= 5 and is_bipartite(g)[0]
    ok = ok and g.n != petersen().n  # different from the Petersen graph
    report = b_spectrum(g)
    ok = ok and report.b == 4 and sorted(report.spectrum) == [2, 3, 4]
    ok = ok and not report.unknown and report.continuous is True
    crit.finish(ok, f"spectrum {sorted(report.spectrum)}")


def test_criterion_11a_bridge_invariant(atlas_graphs):
    crit = _Criterion(
        11, "bridge: colorful k-coloring iff SLS map into K_k (all graphs <= 6 vertices)", 900.0
    )
    complete = {k: complete_graph(k) for k in range(1, 5)}
    compared = 0
    ok = True
    for g in atlas_graphs:
        edges = g.edges()
        for k in range(1, 5):
            if k > g.n:
                continue
            spot_checks = 3
            for assign in product(range(1, k + 1), repeat=g.n):
                improper = any(assign[u] == assign[v] for u, v in edges)
                surjective = len(set(assign)) == k
                if improper or not surjective:
                    # Both sides fail for the same structural reason; verify
                    # that on a few assignments per (graph, k) and skip the rest.
                    if spot_checks:
                        spot_checks -= 1
                        c = Coloring(k, assign)
                        f = VertexMap(g, complete[k], tuple(a - 1 for a in assign))
                        ok = ok and not is_colorful(g, c)[0]
                        ok = ok and not is_semi_locally_surjective(f).ok
                    continue
                c = Coloring(k, assign)
                colorful, witnesses = is_colorful(g, c)
                verdict = is_semi_locally_surjective(coloring_as_hom(g, c))
                ok = ok and colorful == verdict.ok
                if colorful and verdict.ok:
                    # Class i's witness is the certificate witness of K_k's vertex i-1.
                    certified = {i + 1: a for i, a in verdict.certificate.witness.items()}
                    ok = ok and witnesses == certified
                compared += 1
        if not ok:
            break
    crit.finish(ok, f"{compared} proper surjective colorings compared")


def test_criterion_11b_oracle_equivalence():
    crit = _Criterion(
        11, "search agrees with naive enumeration on 200 random graphs <= 8 vertices", 900.0
    )
    rng = random.Random(0xB0C0)
    ok = True
    graphs = 0
    while graphs < 200:
        n = rng.randint(1, 8)
        g = oracles.random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
        graphs += 1
        bound = m_degree_bound(g)
        for k in range(1, 5):
            result = find_colorful_coloring(g, k)
            ok = ok and result.status is not SearchStatus.BUDGET_EXCEEDED
            exists = oracles.naive_colorful_exists(g, k)
            ok = ok and (result.status is SearchStatus.FOUND) == exists
            if result.status is SearchStatus.FOUND:
                ok = ok and is_colorful(g, result.coloring)[0] and k <= bound
        if not ok:
            break
    crit.finish(ok, f"{graphs} graphs")


def test_criterion_11c_monotone_chain():
    crit = _Criterion(11, "B(KG(5,2)) is contained in B(KG(7,3))", 60.0)
    small = b_spectrum(kneser_graph(5, 2).graph)
    kg73 = kneser_graph(7, 3)
    ok = not small.unknown
    for k in small.spectrum:
        result = find_colorful_coloring(kg73.graph, k)
        ok = ok and result.status is SearchStatus.FOUND
    crit.finish(ok, f"chain {sorted(small.spectrum)} carried into KG(7,3)")
