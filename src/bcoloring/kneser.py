"""Kneser graphs KG(n, m) with colexicographic subset ranking.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly
when their subsets are disjoint. Vertex order is the colexicographic order
on subsets, which has a closed-form rank and is frozen into every file this
package writes.
"""

from __future__ import annotations

import math

from .errors import InputError
from .graphs import MAX_VERTICES, Graph


def _check_params(n, m):
    if m < 1 or m > n:
        raise InputError(f"need 1 <= m <= n, got n={n}, m={m}")


def _validate_members(n, m, members):
    members = tuple(members)
    if len(members) != m:
        raise InputError(f"expected {m} members, got {len(members)}")
    for i, x in enumerate(members):
        if not 1 <= x <= n:
            raise InputError(f"member {x} outside 1..{n}")
        if i and members[i - 1] >= x:
            raise InputError(f"members must be strictly increasing, got {members}")
    return members


def rank_subset(n: int, m: int, members) -> int:
    """Colex rank of an m-subset of {1..n}: sum of C(member-1, position)."""
    _check_params(n, m)
    members = _validate_members(n, m, members)
    return sum(math.comb(x - 1, i + 1) for i, x in enumerate(members))


def unrank_subset(n: int, m: int, index: int) -> tuple[int, ...]:
    """Inverse of rank_subset; greedy combinadic from the largest member down."""
    _check_params(n, m)
    if not 0 <= index < math.comb(n, m):
        raise InputError(f"index {index} outside 0..{math.comb(n, m) - 1}")
    out = []
    r = index
    c = n
    for i in range(m, 0, -1):
        while math.comb(c - 1, i) > r:
            c -= 1
        out.append(c)
        r -= math.comb(c - 1, i)
        c -= 1
    return tuple(reversed(out))


def format_subset(members) -> str:
    """Canonical label rendering: ascending members, no spaces, e.g. "{1,2,3}"."""
    return "{" + ",".join(str(x) for x in members) + "}"


def parse_subset(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise InputError(f"subset label must look like '{{a,b,c}}', got {text!r}")
    body = text[1:-1]
    try:
        members = tuple(int(part) for part in body.split(",")) if body else ()
    except ValueError:
        raise InputError(f"non-integer member in subset label {text!r}")
    for i in range(1, len(members)):
        if members[i - 1] >= members[i]:
            raise InputError(f"subset label members must be strictly increasing: {text!r}")
    return members


class KneserGraph:
    """KG(n, m) plus the label/rank bijection used by files and the CLI.

    n < 2m is permitted (the graph is then edgeless); only the chromatic
    formula restricts to n >= 2m.
    """

    __slots__ = ("n", "m", "graph", "subsets")

    def __init__(self, n: int, m: int):
        _check_params(n, m)
        count = math.comb(n, m)
        if count > MAX_VERTICES:
            raise InputError(f"KG({n},{m}) has {count} vertices, over the limit of {MAX_VERTICES}")
        subsets = tuple(unrank_subset(n, m, i) for i in range(count))
        masks = [0] * count
        for i, members in enumerate(subsets):
            for x in members:
                masks[i] |= 1 << (x - 1)
        adj = [0] * count
        for i in range(count):
            for j in range(i + 1, count):
                if masks[i] & masks[j] == 0:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        labels = [format_subset(members) for members in subsets]
        self.n = n
        self.m = m
        self.subsets = subsets
        self.graph = Graph(count, adj, labels)

    def index_of(self, members) -> int:
        return rank_subset(self.n, self.m, tuple(sorted(members)))

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
