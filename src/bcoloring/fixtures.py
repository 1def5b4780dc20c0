"""Golden combinatorial data: the explicit colorful 4-coloring of KG(7,3)
with its four designated b-dominating vertices, the small named graphs the
desk checks run on, and the colorful 5-coloring of KG(7,3) the search finds.

Every test that needs this data reads it from here; nothing re-types it.
"""

from __future__ import annotations

from itertools import combinations

from .coloring import Coloring, find_colorful_coloring
from .graphs import Graph, graph_from_edges
from .kneser import kneser_graph

# Class 1 and class 3 are explicit lists; classes 2 and 4 are set-builder
# expressions (all triples through a fixed element) with removals, class 4
# with three extra triples unioned in. tests/test_fixtures.py checks the
# expansion: a mistyped removed or extra triple changes a class size, and
# the classes must partition the 35 triples of {1..7} with each designated
# vertex in its own class.

_V1 = [(1, 2, 3), (1, 4, 5), (2, 5, 6), (1, 2, 6), (1, 2, 7), (1, 3, 6), (1, 6, 7), (1, 4, 6)]
_V2_REMOVED = [(1, 4, 5), (2, 5, 6), (4, 5, 7)]
_V3 = [(1, 2, 4), (1, 3, 7), (4, 5, 7), (1, 4, 7), (2, 6, 7)]
_V4_REMOVED = [(1, 2, 4), (1, 4, 6), (1, 4, 7)]
_V4_EXTRA = [(2, 3, 6), (2, 3, 7), (3, 6, 7)]

KG73_DESIGNATED = ((1, 2, 3), (5, 6, 7), (2, 6, 7), (1, 3, 4))


def _triples_through(pivot, others):
    return {tuple(sorted((pivot, x, y))) for x, y in combinations(others, 2)}


KG73_CLASSES = [
    set(_V1),
    _triples_through(5, (1, 2, 3, 4, 6, 7)) - set(_V2_REMOVED),
    set(_V3),
    (_triples_through(4, (1, 2, 3, 6, 7)) - set(_V4_REMOVED)) | set(_V4_EXTRA),
]


def kg73_colorful_four() -> tuple[Coloring, tuple[int, int, int, int]]:
    """The colorful 4-coloring of KG(7,3) and its designated b-dominating vertices.

    Returns the coloring (class i gets color i) and the vertex indices of
    the four designated dominating vertices, one per class in class order.
    """
    kg = kneser_graph(7, 3)
    colors = [0] * kg.graph.n
    for class_number, cls in enumerate(KG73_CLASSES, start=1):
        for triple in cls:
            colors[kg.index_of(triple)] = class_number
    designated = tuple(kg.index_of(triple) for triple in KG73_DESIGNATED)
    return Coloring(4, tuple(colors)), designated


def kg73_colorful_five() -> Coloring:
    """The colorful 5-coloring of KG(7,3) that find_colorful_coloring returns."""
    return find_colorful_coloring(kneser_graph(7, 3).graph, 5).coloring


def petersen() -> Graph:
    """The Petersen graph, materialized as KG(5,2)."""
    return kneser_graph(5, 2).graph


def q3() -> Graph:
    """The 3-dimensional cube: vertices are 3-bit words, edges flip one bit."""
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    return graph_from_edges(8, edges)


def heawood() -> Graph:
    """The Heawood graph: 14-vertex cycle plus chords i to i+5 for even i.

    3-regular, girth 6, bipartite; the desk-check subject for the
    d-regular girth >= 5 theorems (it is not the Petersen graph).
    """
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return graph_from_edges(14, edges)
