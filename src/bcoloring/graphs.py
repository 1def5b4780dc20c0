"""Bit-set backed simple graphs, structural predicates, and .col file I/O.

Vertices are dense 0-based indices. Adjacency is one Python int per vertex,
bit u of ``adj[v]`` meaning u and v are adjacent, so neighborhood color
accumulation and disjointness tests are single word operations.
"""

from __future__ import annotations

import math
import os

from .errors import FileFormatError, InputError, _check_ints, _Record

INFINITE_GIRTH = math.inf

# Largest vertex count accepted from a .col header or a Kneser parameter
# pair, checked before anything of that size is allocated. KG(15,7), with
# 6,435 vertices, is the largest graph the command line is used on. A Kneser
# pair is also held to 100 * MAX_VERTICES edges, because its edge count, unlike
# a .col file's, does not follow the size of the input; K_n = KG(n,1) is
# turned away from n = 1,415 on.
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


class Graph(_Record):
    """Immutable simple undirected graph on vertices 0..n-1; a copy is checked again.

    The constructor rejects non-integer counts and rows, self-loops,
    asymmetric adjacency and out-of-range neighbors, so downstream
    algorithms can assume a clean simple graph. ``labels`` is an optional
    display layer (one string per vertex); no algorithm or equality test
    reads it. Files name vertices by their labels, so each label is one
    field without whitespace, not "c", and unique.

    ``Graph(...)`` and ``graph_from_edges`` check all of this. ``read_col``,
    ``KneserGraph`` and ``complete_graph`` build through ``Graph._built``,
    which checks nothing: their rows are symmetric, loop-free and in range
    by construction, and ``read_col`` has already checked its labels line
    by line.
    """

    __slots__ = ("n", "adj", "labels")
    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None

    def __init__(self, n: int, adj, labels=None):
        _check_ints((n,), "vertex count", 0)
        adj = tuple(adj)
        if len(adj) != n:
            raise InputError(f"expected {n} adjacency rows, got {len(adj)}")
        _check_ints(adj, lambda v: f"vertex {v}'s adjacency row")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise InputError(f"vertex {v} has a neighbor outside [0, {n})")
            if (row >> v) & 1:
                raise InputError(f"self-loop at vertex {v}")
            for u in iter_bits(row):  # row passed the range check, so iter_bits ends
                if not (adj[u] >> v) & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")
            fault = _label_fault(labels)
            if fault is not None:
                raise InputError(fault[1])
        super().__init__(n, adj, labels)

    @classmethod
    def _built(cls, n: int, adj, labels=None) -> Graph:
        """A graph whose rows and labels are valid by construction; nothing is checked."""
        g = cls.__new__(cls)
        _Record.__init__(g, n, tuple(adj), None if labels is None else tuple(labels))
        return g

    def check_vertex(self, v):
        _check_ints((v,), "vertex", 0, self.n - 1)

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

    def names(self) -> tuple[str, ...]:
        """label_of(v) for every vertex v, in vertex order."""
        return self.labels if self.labels is not None else tuple(map(str, range(self.n)))

    def label_index(self) -> dict[str, int]:
        if self.labels is None:
            return {}
        return {lab: v for v, lab in enumerate(self.labels)}

    def _key(self):
        return self.n, self.adj

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    """Build a graph from unordered index pairs; duplicates collapse silently."""
    _check_ints((n,), "vertex count", 0)
    ends = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InputError(f"edge {edge!r} is not a pair of vertices") from None
        ends.append(u)
        ends.append(v)
    _check_ints(ends, lambda i: f"edge {tuple(ends[i - i % 2:][:2])}'s endpoint", 0, n - 1)
    adj = [0] * n
    for u, v in zip(ends[::2], ends[1::2]):
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


def _bfs(adj, root, dist):
    """Breadth-first search of the component of root, whose vertices have dist -1.

    Fills dist there and yields, in BFS order, each edge (u, v) from a scanned
    u to a reached v with dist[v] >= dist[u]: every non-tree edge, from its nearer end.
    """
    dist[root] = 0
    queue = [root]
    for u in queue:  # the queue grows while it is read
        for v in iter_bits(adj[u]):
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
            elif dist[v] >= dist[u]:
                yield u, v


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE_GIRTH for forests.

    Every cycle lies in the 2-core (what is left after repeatedly deleting
    vertices of degree at most 1), so trees and tails are peeled off first.
    From a BFS root, each yielded edge (u, v) closes a walk of length
    dist[u] + dist[v] + 1 that holds a cycle, a bound from above, attained
    when the root lies on a shortest cycle. A shortest cycle whose vertices
    all have core degree 2 is a whole core component; one BFS per component
    finds its length, the single edge it yields closing that cycle. Every
    other shortest cycle passes through a core vertex of degree 3 or more,
    so only those are BFS roots. Edges come in BFS order, so no later one
    beats 2 * dist[u] + 1, and a root's BFS stops when that reaches best.
    """
    degree = [row.bit_count() for row in g.adj]
    core = (1 << g.n) - 1
    peel = [v for v, d in enumerate(degree) if d < 2]
    for v in peel:  # the list grows while it is read; each vertex joins it once
        core ^= 1 << v
        for u in iter_bits(g.adj[v] & core):
            degree[u] -= 1
            if degree[u] == 1:
                peel.append(u)
    adj = [row & core for row in g.adj]
    best = INFINITE_GIRTH
    dist = [-1] * g.n
    for root in iter_bits(core):
        if dist[root] == -1:
            for u, v in _bfs(adj, root, dist):
                best = min(best, dist[u] + dist[v] + 1)
    for root in iter_bits(core):
        if degree[root] < 3:
            continue
        dist = [-1] * g.n
        for u, v in _bfs(adj, root, dist):
            if 2 * dist[u] + 1 >= best:
                break
            best = min(best, dist[u] + dist[v] + 1)
    return best


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, side per vertex) when 2-colorable, else (False, None); side = BFS distance mod 2."""
    dist = [-1] * g.n
    for root in range(g.n):
        if dist[root] == -1:
            for u, v in _bfs(g.adj, root, dist):
                if dist[u] == dist[v]:
                    return False, None
    return True, tuple(d & 1 for d in dist)


def complete_graph(k: int) -> Graph:
    _check_ints((k,), "vertex count", 0)
    full = (1 << k) - 1
    return Graph._built(k, [full ^ (1 << v) for v in range(k)])


def cycle_graph(n: int) -> Graph:
    _check_ints((n,), "vertex count", 0)
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    _check_ints((n,), "vertex count", 0)
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
    sidecar = str(path) + ".labels"
    if g.labels is not None:
        _write_lines(sidecar, g.labels)
    elif os.path.exists(sidecar):  # it would label this graph when read back
        os.remove(sidecar)


def read_col(path) -> Graph:
    """Parse a .col file; attaches labels from "<path>.labels" when present."""
    records = _read_fields(path)
    header, (_, _, n, declared) = _read_header(path, records, "p edge <n> <m>")
    try:
        n, declared = int(n), int(declared)
    except ValueError:
        raise FileFormatError(path, header, "non-integer problem parameters")
    if n < 0 or declared < 0:
        raise FileFormatError(path, header, "negative problem parameters")
    if n > MAX_VERTICES:
        raise FileFormatError(path, header, f"{n} vertices exceed the limit of {MAX_VERTICES}")
    adj = [0] * n
    found = 0
    for lineno, parts in records:
        kind = parts[0]
        if kind != "e":
            reason = "duplicate problem line" if kind == "p" else f"unknown line type {kind!r}"
            raise FileFormatError(path, lineno, reason)
        if len(parts) != 3:
            raise FileFormatError(path, lineno, "expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError:
            raise FileFormatError(path, lineno, "non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise FileFormatError(path, lineno, f"endpoint of ({u + 1}, {v + 1}) outside 1..{n}")
        if u == v:
            raise FileFormatError(path, lineno, f"self-loop at vertex {u + 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        found += 1
    if found != declared:
        raise FileFormatError(path, header, f"declared {declared} edges, found {found}")
    return Graph._built(n, adj, _read_label_sidecar(path, n))


def _label_fault(labels):
    """(vertex, reason) for the first label that cannot name its vertex in a file, or None."""
    first = {}
    for v, label in enumerate(labels):
        if label.split() != [label] or label == "c":
            return v, f"label {label!r} of vertex {v} is not one field other than 'c'"
        if first.setdefault(label, v) != v:
            return v, f"label {label!r} of vertex {v} is also the label of vertex {first[label]}"
    return None


def _read_label_sidecar(path, n):
    sidecar = str(path) + ".labels"
    if not os.path.exists(sidecar):
        return None
    numbered = [(lineno, " ".join(fields)) for lineno, fields in _read_fields(sidecar)]
    if len(numbered) != n:
        raise FileFormatError(sidecar, 1, f"expected {n} labels, found {len(numbered)}")
    labels = [label for _, label in numbered]
    fault = _label_fault(labels)
    if fault is not None:
        v, reason = fault
        raise FileFormatError(sidecar, numbered[v][0], reason)
    return labels


# ---------------------------------------------------------------------------
# Reading and writing shared by the .col, .labels, .coloring and .map formats

def _write_lines(path, lines) -> None:
    """Write each of lines, newline-terminated, as a UTF-8 text file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_fields(path):
    """Yield (line number, fields) of each UTF-8 line neither blank nor a comment ("c ...")."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            # A byte that is not UTF-8 is read as a lone surrogate, which
            # encode rejects, so it is reported at its own line.
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise FileFormatError(path, lineno, "not UTF-8 text")
            fields = line.split()
            if fields and fields[0] != "c":
                yield lineno, fields


def _read_header(path, records, usage):
    """(line number, fields) of the first of records, which has the fields of usage.

    usage reads like "p edge <n> <m>"; a field of it in angle brackets may be
    anything. records is left just past the header.
    """
    words = usage.split()
    for lineno, fields in records:
        if len(fields) != len(words) or any(w != f for w, f in zip(words, fields) if w[0] != "<"):
            raise FileFormatError(path, lineno, f"expected header '{usage}'")
        return lineno, fields
    raise FileFormatError(path, 1, f"missing header '{usage}'")


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


def _read_vertex_records(path, records, g: Graph, usage, parse) -> list:
    """Each vertex's value, parse(token, lineno), from records "<vertex> <token>" naming it once."""
    by_label = g.label_index()
    values = [None] * g.n
    for lineno, fields in records:
        if len(fields) != 2:
            raise FileFormatError(path, lineno, f"expected '{usage}'")
        v = _resolve_vertex(g, fields[0], by_label, path, lineno)
        if values[v] is not None:
            raise FileFormatError(path, lineno, f"vertex {fields[0]} listed twice")
        values[v] = parse(fields[1], lineno)
    if None in values:
        raise FileFormatError(path, 1, f"no line for vertex {g.label_of(values.index(None))}")
    return values


def _write_vertex_records(path, header, g: Graph, values) -> None:
    """Write header, then "<label> <value>" for each vertex of g and its value."""
    _write_lines(path, [header, *(f"{name} {x}" for name, x in zip(g.names(), values))])
