"""Semi-locally-surjective (SLS) graph homomorphisms.

A vertex map f: G -> H is SLS when it is a surjective homomorphism and
every target vertex u has a preimage witness a such that every target
neighbor v of u has a preimage b adjacent to a. Verification returns a
full certificate because coloring lifts consume the witnesses.

Also here: the explicit KG(n+2, m+1) -> KG(n, m) step homomorphism, map
composition, coloring lifting along an SLS map, and the bridge between
colorful k-colorings and SLS maps into complete graphs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .coloring import Coloring, is_colorful, is_proper
from .errors import FileFormatError, InputError
from .graphs import Graph, _first_meeting, _preimages, _read_fields, _resolve_vertex, _write_lines
from .graphs import complete_graph, iter_bits, read_col
from .kneser import kneser_graph


@dataclass(frozen=True)
class VertexMap:
    """Total map from the vertices of source to the vertices of target."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.source.n:
            raise InputError(
                f"map covers {len(self.mapping)} vertices, source has {self.source.n}"
            )
        for v, image in enumerate(self.mapping):
            if not 0 <= image < self.target.n:
                raise InputError(f"image {image} of vertex {v} outside target range")

    def __call__(self, v: int) -> int:
        self.source.check_vertex(v)
        return self.mapping[v]


def is_homomorphism(f: VertexMap) -> bool:
    """True iff every source edge maps to a target edge (never collapses)."""
    # Row v must lie inside reach[f(v)], the union (a sum: they are disjoint)
    # of the preimages of the target neighbors of f(v).
    pre = _preimages(f.mapping, f.target.n)
    reach = [sum(pre[t] for t in iter_bits(row)) for row in f.target.adj]
    return not any(row & ~reach[t] for row, t in zip(f.source.adj, f.mapping))


def is_surjective(f: VertexMap) -> bool:
    return len(set(f.mapping)) == f.target.n


@dataclass(frozen=True)
class SlsCertificate:
    """Witness data for the SLS condition, checkable edge by edge.

    witness[u] is a preimage of target vertex u; neighbor_witness[u][v],
    for each target neighbor v of u, is a preimage of v adjacent to
    witness[u] in the source.
    """

    witness: dict[int, int]
    neighbor_witness: dict[int, dict[int, int]]

    def verify(self, f: VertexMap) -> bool:
        source, target = f.source, f.target
        for u in range(target.n):
            a = self.witness.get(u)
            if a is None or f.mapping[a] != u:
                return False
            around = self.neighbor_witness.get(u, {})
            for v in iter_bits(target.adj[u]):
                b = around.get(v)
                if b is None or f.mapping[b] != v:
                    return False
                if not (source.adj[a] >> b) & 1:
                    return False
        return True


@dataclass(frozen=True)
class SlsVerdict:
    ok: bool
    certificate: SlsCertificate | None = None
    failing_vertex: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


def is_semi_locally_surjective(f: VertexMap) -> SlsVerdict:
    """Decide the SLS condition, returning a certificate or a failing vertex.

    Surjectivity and homomorphism-ness are checked first; failing either
    yields a No with a reason. Witness candidates are scanned in ascending
    source index, so verdicts are deterministic: witness[u] is the least
    preimage of u adjacent to a preimage of every target neighbor v, and
    neighbor_witness[u][v] the least preimage of v adjacent to it.
    """
    if not is_homomorphism(f):
        return SlsVerdict(False, reason="not a graph homomorphism")
    pre = _preimages(f.mapping, f.target.n)
    if 0 in pre:
        return SlsVerdict(False, failing_vertex=pre.index(0), reason="not surjective")
    witness = {}
    neighbor_witness = {}
    source_adj = f.source.adj
    for u, row in enumerate(f.target.adj):
        targets = list(iter_bits(row))
        a = _first_meeting(source_adj, pre[u], [pre[v] for v in targets])
        if a is None:
            return SlsVerdict(False, failing_vertex=u, reason="no valid preimage witness")
        witness[u] = a
        neighbor_witness[u] = {v: next(iter_bits(source_adj[a] & pre[v])) for v in targets}
    return SlsVerdict(True, SlsCertificate(witness, neighbor_witness))


def compose(f: VertexMap, g: VertexMap) -> VertexMap:
    """g after f: the map v -> g(f(v)) from f.source to g.target."""
    if f.target != g.source:
        raise InputError("cannot compose: target of the first map is not the source of the second")
    return VertexMap(f.source, g.target, tuple(g.mapping[f.mapping[v]] for v in range(f.source.n)))


def kneser_step_hom(n: int, m: int) -> VertexMap:
    """The explicit map KG(n+2, m+1) -> KG(n, m), defined for n > 2m.

    A subset A of [n+2] with at most one of {n+1, n+2} maps to A minus its
    maximum; a subset containing both maps to (A minus {n+1, n+2}) plus
    the largest element of [n] outside A.
    """
    if m < 1 or n <= 2 * m:
        raise InputError(f"step homomorphism needs n > 2m >= 2, got n={n}, m={m}")
    src = kneser_graph(n + 2, m + 1)
    tgt = kneser_graph(n, m)
    special = {n + 1, n + 2}
    mapping = []
    for members in src.subsets:
        s = set(members)
        if len(s & special) <= 1:
            image = s - {max(s)}
        else:
            kept = s - special
            image = kept | {max(x for x in range(1, n + 1) if x not in s)}
        mapping.append(tgt.index_of(image))
    return VertexMap(src.graph, tgt.graph, tuple(mapping))


def lift_coloring(f: VertexMap, c: Coloring) -> Coloring:
    """Pull a colorful coloring of the target back along an SLS map.

    Each source vertex takes the color of its image. The result is
    verified colorful with the same k before being returned; the
    b-dominating vertex for class i can be taken as the certificate
    witness of the target's class-i witness.
    """
    verdict = is_semi_locally_surjective(f)
    if not verdict.ok:
        raise InputError(f"map is not semi-locally-surjective: {verdict.reason}")
    ok, _ = is_colorful(f.target, c)
    if not ok:
        raise InputError("coloring of the target is not colorful")
    lifted = Coloring(c.k, tuple(c.colors[f.mapping[v]] for v in range(f.source.n)))
    ok, _ = is_colorful(f.source, lifted)
    assert ok, "lift along an SLS map must stay colorful"
    return lifted


def coloring_as_hom(g: Graph, c: Coloring) -> VertexMap:
    """View a proper coloring with k nonempty classes as a map into K_k."""
    if not is_proper(g, c):
        raise InputError("coloring is not proper")
    used = set(c.colors)
    if used != set(range(1, c.k + 1)):
        missing = sorted(set(range(1, c.k + 1)) - used)
        raise InputError(f"color classes {missing} are empty; map would not be surjective")
    return VertexMap(g, complete_graph(c.k), tuple(col - 1 for col in c.colors))


def hom_as_coloring(f: VertexMap) -> Coloring:
    """Read a map into a complete graph back as a coloring (vertex i = color i+1)."""
    k = f.target.n
    if f.target.edge_count() != k * (k - 1) // 2:
        raise InputError("target is not a complete graph")
    return Coloring(k, tuple(image + 1 for image in f.mapping))


# ---------------------------------------------------------------------------
# Vertex-map files: header "map <source-file> <target-file>", then one line
# per source vertex "<source-label> <target-label>". Graph paths are stored
# relative to the map file and labels follow the graphs' label sidecars.

def write_map(f: VertexMap, path, source_path, target_path) -> None:
    base = os.path.dirname(os.path.abspath(path))
    src_rel = os.path.relpath(os.path.abspath(source_path), base)
    tgt_rel = os.path.relpath(os.path.abspath(target_path), base)
    lines = [f"map {src_rel} {tgt_rel}"]
    for v in range(f.source.n):
        lines.append(f"{f.source.label_of(v)} {f.target.label_of(f.mapping[v])}")
    _write_lines(path, lines)


def _map_graph_paths(path, records):
    """The graph files named by the header among a map file's records.

    The paths are resolved against the map file's directory; records is
    the file's _read_fields iterator, left just past the header.
    """
    base = os.path.dirname(os.path.abspath(path))
    for lineno, parts in records:
        if len(parts) != 3 or parts[0] != "map":
            raise FileFormatError(path, lineno, "expected header 'map <source> <target>'")
        return os.path.join(base, parts[1]), os.path.join(base, parts[2])
    raise FileFormatError(path, 1, "missing header 'map <source> <target>'")


def read_map(path) -> VertexMap:
    records = _read_fields(path)
    source_path, target_path = _map_graph_paths(path, records)
    source = read_col(source_path)
    target = read_col(target_path)
    mapping = [0] * source.n
    seen = [False] * source.n
    by_src = source.label_index()
    by_tgt = target.label_index()
    for lineno, parts in records:
        if len(parts) != 2:
            raise FileFormatError(path, lineno, "expected '<source-vertex> <target-vertex>'")
        v = _resolve_vertex(source, parts[0], by_src, path, lineno)
        if seen[v]:
            raise FileFormatError(path, lineno, f"source vertex {parts[0]} mapped twice")
        seen[v] = True
        mapping[v] = _resolve_vertex(target, parts[1], by_tgt, path, lineno)
    if not all(seen):
        missing = seen.index(False)
        raise FileFormatError(path, 1, f"no image given for source vertex {source.label_of(missing)}")
    return VertexMap(source, target, tuple(mapping))
