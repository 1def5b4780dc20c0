"""Bit-set backed simple graphs, structural predicates, and .col file I/O.

Vertices are dense 0-based indices. Adjacency is one Python int per vertex,
bit u of ``adj[v]`` meaning u and v are adjacent, so neighborhood color
accumulation and disjointness tests are single word operations.
"""

from __future__ import annotations

import math
import os

from .errors import FileFormatError, InputError

INFINITE_GIRTH = math.inf

# Largest vertex count accepted from a .col header or a Kneser parameter
# pair, checked before anything of that size is allocated. KG(15,7), with
# 6,435 vertices, is the largest graph the command line is used on.
MAX_VERTICES = 10_000


def iter_bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _preimages(image, m) -> list[int]:
    """Bit mask of the preimage of each target 0..m-1 of the map v -> image[v]."""
    pre = [0] * m
    for v, t in enumerate(image):
        pre[t] |= 1 << v
    return pre


def _first_meeting(adj, candidates, required):
    """Least vertex in candidates whose row of adj meets every mask in required, or None."""
    for a in iter_bits(candidates):
        if all(adj[a] & mask for mask in required):
            return a
    return None


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The constructor rejects self-loops, asymmetric adjacency and
    out-of-range neighbors, so downstream algorithms can assume a clean
    simple graph. ``labels`` is an optional display layer (one string per
    vertex); no algorithm reads it.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj, labels=None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        adj = tuple(adj)
        if len(adj) != n:
            raise InputError(f"expected {n} adjacency rows, got {len(adj)}")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise InputError(f"vertex {v} has a neighbor outside [0, {n})")
            if (row >> v) & 1:
                raise InputError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.adj = adj
        self.labels = labels

    def check_vertex(self, v):
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range [0, {self.n})")

    def degree(self, v) -> int:
        self.check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v) -> list[int]:
        self.check_vertex(v)
        return list(iter_bits(self.adj[v]))

    def has_edge(self, u, v) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v] >> (v + 1)):
                out.append((v, v + 1 + u))
        return out

    def label_of(self, v) -> str:
        self.check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def label_index(self) -> dict[str, int]:
        if self.labels is None:
            return {}
        return {lab: v for v, lab in enumerate(self.labels)}

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    """Build a graph from unordered index pairs; duplicates collapse silently."""
    adj = [0] * n
    for edge in edges:
        u, v = edge
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, labels)


def regularity(g: Graph) -> int | None:
    """The common degree d when g is d-regular, else None."""
    if g.n == 0:
        raise InputError("regularity is undefined for the empty graph")
    d = g.adj[0].bit_count()
    if all(row.bit_count() == d for row in g.adj):
        return d
    return None


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE_GIRTH for forests.

    BFS from every root; at each non-tree edge (u, v) the value
    dist[u] + dist[v] + 1 bounds a cycle through the root from above, and
    for a root lying on a shortest cycle the bound is attained, so the
    minimum over all roots is exact.
    """
    best = INFINITE_GIRTH
    dist = [0] * g.n
    parent = [0] * g.n
    for root in range(g.n):
        for i in range(g.n):
            dist[i] = -1
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in iter_bits(g.adj[u]):
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cand = dist[u] + dist[v] + 1
                    if cand < best:
                        best = cand
    return best


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, side per vertex) when 2-colorable, else (False, None)."""
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in iter_bits(g.adj[u]):
                if side[v] == -1:
                    side[v] = side[u] ^ 1
                    queue.append(v)
                elif side[v] == side[u]:
                    return False, None
    return True, tuple(side)


def complete_graph(k: int) -> Graph:
    full = (1 << k) - 1
    return Graph(k, [full ^ (1 << v) for v in range(k)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("a path needs at least 1 vertex")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# DIMACS-like .col files: "c" comments, one "p edge <n> <m>" header, then
# m lines "e <u> <v>" with 1-based endpoints. Labels, when a graph has them,
# live in a sidecar file "<path>.labels" with one label per line.

def write_col(g: Graph, path, comment: str | None = None) -> None:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.edge_count()}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    _write_lines(path, lines)
    if g.labels is not None:
        _write_lines(str(path) + ".labels", g.labels)


def read_col(path) -> Graph:
    """Parse a .col file; attaches labels from "<path>.labels" when present."""
    n = None
    declared = None
    edges = []
    for lineno, parts in _read_fields(path):
        if parts[0] == "p":
            if n is not None:
                raise FileFormatError(path, lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FileFormatError(path, lineno, "expected 'p edge <n> <m>'")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FileFormatError(path, lineno, "non-integer problem parameters")
            if n < 0 or declared < 0:
                raise FileFormatError(path, lineno, "negative problem parameters")
            if n > MAX_VERTICES:
                raise FileFormatError(
                    path, lineno, f"{n} vertices exceed the limit of {MAX_VERTICES}"
                )
        elif parts[0] == "e":
            if n is None:
                raise FileFormatError(path, lineno, "edge line before problem line")
            if len(parts) != 3:
                raise FileFormatError(path, lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FileFormatError(path, lineno, "non-integer endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise FileFormatError(path, lineno, f"endpoint of ({u}, {v}) outside 1..{n}")
            if u == v:
                raise FileFormatError(path, lineno, f"self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise FileFormatError(path, lineno, f"unknown line type {parts[0]!r}")
    if n is None:
        raise FileFormatError(path, 1, "missing problem line")
    if len(edges) != declared:
        raise FileFormatError(path, 1, f"declared {declared} edges, found {len(edges)}")
    labels = _read_label_sidecar(path, n)
    return graph_from_edges(n, edges, labels)


def _read_label_sidecar(path, n):
    sidecar = str(path) + ".labels"
    if not os.path.exists(sidecar):
        return None
    labels = [line.strip() for _, line in _read_lines(sidecar) if line.strip()]
    if len(labels) != n:
        raise FileFormatError(sidecar, 1, f"expected {n} labels, found {len(labels)}")
    return labels


# ---------------------------------------------------------------------------
# Reading and writing shared by the .col, .coloring and .map formats

def _write_lines(path, lines) -> None:
    """Write each of lines, newline-terminated, as a UTF-8 text file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path):
    """Yield (line number, line) for each line of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # Decoding runs ahead of the lines read, so the line of the first
        # bad byte is counted in the raw bytes.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")
        raise FileFormatError(path, 1, "not UTF-8 text")


def _read_fields(path):
    """Yield (line number, fields) for each line that is neither blank nor a comment.

    A comment is a line whose first field is "c".
    """
    for lineno, line in _read_lines(path):
        fields = line.split()
        if fields and fields[0] != "c":
            yield lineno, fields


def _resolve_vertex(g: Graph, token, by_label, path, lineno) -> int:
    """The vertex a file names by its label (a key of by_label) or by its index."""
    if token in by_label:
        return by_label[token]
    try:
        v = int(token)
    except ValueError:
        raise FileFormatError(path, lineno, f"unknown vertex {token!r}")
    if not 0 <= v < g.n:
        raise FileFormatError(path, lineno, f"vertex index {v} outside 0..{g.n - 1}")
    return v
