"""Kneser graphs KG(n, m) over one colex-ordered subset index.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly
when their subsets are disjoint. Vertex order is the colexicographic order
on subsets: the combinations sorted by their largest member first, then
the next largest, and so on. That order is frozen into every file this
package writes, and a test pins it with the closed-form colex rank.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import InputError, _Record
from .graphs import MAX_VERTICES, Graph


def _check_integers(n, m):
    for name, value in (("n", n), ("m", m)):
        if not isinstance(value, int):
            raise InputError(f"Kneser parameter {name}={value!r} is not an integer")


def _check_params(n, m):
    _check_integers(n, m)
    if m < 1 or m > n:
        raise InputError(f"need 1 <= m <= n, got n={n}, m={m}")


def format_subset(members) -> str:
    """Canonical label rendering: ascending members, no spaces, e.g. "{1,2,3}"."""
    return "{" + ",".join(str(x) for x in members) + "}"


class KneserGraph(_Record):
    """KG(n, m) plus the label/index bijection used by files and the CLI.

    A record of its fields (n, m), which ``graph``, ``subsets`` and the index
    behind ``index_of`` follow from: equal, hashed and copied by (n, m) alone.
    n < 2m is permitted (the graph is then edgeless); only the chromatic
    formula restricts to n >= 2m.
    """

    __slots__ = ("n", "m", "graph", "subsets", "_index")

    def __init__(self, n: int, m: int):
        _check_params(n, m)
        # C(n, m) >= n for m < n, so checking n first turns away only KG(n, n).
        # Only edgeless graphs list over 10 * MAX_VERTICES members; KG(16,6) lists 48,048.
        if n > MAX_VERTICES:
            raise InputError(f"KG({n},{m}) has a ground set of {n}, over the limit of {MAX_VERTICES}")
        count = math.comb(n, m)
        if count > MAX_VERTICES:
            raise InputError(f"KG({n},{m}) has {count} vertices, over the limit of {MAX_VERTICES}")
        if count * m > 10 * MAX_VERTICES:
            raise InputError(
                f"KG({n},{m}) has {count * m} subset members, over the limit of {10 * MAX_VERTICES}"
            )
        # Dense graphs pass both checks above (KG(n,1) is K_n), so cap the edges too: each vertex
        # has C(n-m,m) neighbours. KG(16,6), with 840,840 edges, stays inside.
        edges = count * math.comb(n - m, m) // 2
        if edges > 100 * MAX_VERTICES:
            raise InputError(f"KG({n},{m}) has {edges} edges, over the limit of {100 * MAX_VERTICES}")
        ground = range(1, n + 1)
        subsets = tuple(sorted(combinations(ground, m), key=lambda s: s[::-1]))
        index = {s: i for i, s in enumerate(subsets)}
        # member[x] is the mask of the subsets that hold x, so the neighbours of a subset, the
        # subsets disjoint from it, are everyone outside the union of its members' masks.
        # Disjointness is symmetric and no subset (m >= 1) is disjoint from itself, so
        # Graph._built need not check the rows.
        member = [0] * (n + 1)
        for i, s in enumerate(subsets):
            for x in s:
                member[x] |= 1 << i
        everyone = (1 << count) - 1
        adj = []
        for s in subsets:
            hit = 0
            for x in s:
                hit |= member[x]
            adj.append(everyone ^ hit)
        graph = Graph._built(count, adj, [format_subset(s) for s in subsets])
        super().__init__(n, m, graph, subsets, index)

    def _fields(self):
        return self.n, self.m

    def index_of(self, members) -> int:
        members = tuple(sorted(members))
        try:
            return self._index[members]
        except KeyError:
            raise InputError(f"{members} is not a {self.m}-subset of 1..{self.n}") from None

    def subset_of(self, index: int) -> tuple[int, ...]:
        self.graph.check_vertex(index)
        return self.subsets[index]

    def __repr__(self):
        return f"KneserGraph({self.n}, {self.m})"


def kneser_graph(n: int, m: int) -> KneserGraph:
    return KneserGraph(n, m)


def lovasz_chromatic(n: int, m: int) -> int:
    """Expected chromatic number n - 2m + 2; an oracle value, not a computation."""
    _check_params(n, m)
    if n < 2 * m:
        raise InputError(f"chromatic formula needs n >= 2m, got n={n}, m={m}")
    return n - 2 * m + 2
