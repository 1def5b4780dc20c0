"""Semi-locally-surjective (SLS) graph homomorphisms.

A vertex map f: G -> H is SLS when it is a surjective homomorphism and
every target vertex u has a preimage witness a such that every target
neighbor v of u has a preimage b adjacent to a. Verification returns the
witness map, which SlsCertificate.verify re-checks by the rule that found
it; lift_coloring uses only the verdict and re-checks its lift with is_colorful.

Also here: the explicit KG(n+2, m+1) -> KG(n, m) step homomorphism, map
composition, coloring lifting along an SLS map, and the bridge between
colorful k-colorings and SLS maps into complete graphs.

Only errors and graphs are imported here. The functions that need the
coloring or kneser module import it in their bodies, so that a command
which only reads and checks maps never loads the searches.
"""

from __future__ import annotations

import os

from .errors import InputError, _Record
from .graphs import Graph, _first_meeting, _preimages, _read_fields, _read_header, _resolve_vertex
from .graphs import _read_vertex_records, _write_vertex_records, complete_graph, iter_bits, read_col


class VertexMap(_Record):
    """Total map from the vertices of source to the vertices of target."""

    __slots__ = ("source", "target", "mapping")
    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __init__(self, source: Graph, target: Graph, mapping):
        mapping = tuple(mapping)
        if len(mapping) != source.n:
            raise InputError(f"map covers {len(mapping)} vertices, source has {source.n}")
        for v, image in enumerate(mapping):
            if not isinstance(image, int):
                raise InputError(f"image {image!r} of vertex {v} is not an integer")
            if not 0 <= image < target.n:
                raise InputError(f"image {image} of vertex {v} outside target range")
        super().__init__(source, target, mapping)

    def __call__(self, v: int) -> int:
        self.source.check_vertex(v)
        return self.mapping[v]


def is_homomorphism(f: VertexMap) -> bool:
    """True iff every source edge maps to a target edge (never collapses)."""
    return _keeps_edges(f, _preimages(f.mapping, f.target.n))


def _keeps_edges(f: VertexMap, pre) -> bool:
    """is_homomorphism(f), given pre[t], the mask of the preimage of each target vertex t."""
    # Row v must lie inside reach[f(v)], the union (a sum: they are disjoint)
    # of the preimages of the target neighbors of f(v).
    reach = [sum(pre[t] for t in iter_bits(row)) for row in f.target.adj]
    return not any(row & ~reach[t] for row, t in zip(f.source.adj, f.mapping))


def is_surjective(f: VertexMap) -> bool:
    return len(set(f.mapping)) == f.target.n


class SlsCertificate(_Record):
    """The SLS witness map: witness[u] is a preimage of target vertex u whose
    source row meets the preimage of every target neighbor of u."""

    __slots__ = ("witness",)
    witness: dict[int, int]

    def __init__(self, witness: dict[int, int]):
        super().__init__(dict(witness))

    def verify(self, f: VertexMap) -> bool:
        """True iff f is a homomorphism and every witness passes the rule that finds it."""
        pre = _preimages(f.mapping, f.target.n)
        for u, row in enumerate(f.target.adj):
            a = self.witness.get(u)
            # Refused before 1 << a can raise or allocate; 1.0 is in range(2).
            if not isinstance(a, int) or a not in range(f.source.n):
                return False
            if _first_meeting(f.source.adj, pre[u] & (1 << a), [pre[v] for v in iter_bits(row)]) != a:
                return False
        return _keeps_edges(f, pre)


class SlsVerdict(_Record):
    """An SLS decision: Yes exactly when it holds a certificate, else a reason why not."""

    __slots__ = ("certificate", "failing_vertex", "reason")
    certificate: SlsCertificate | None
    failing_vertex: int | None
    reason: str | None

    def __init__(self, certificate=None, failing_vertex=None, reason=None):
        if certificate is not None and (failing_vertex, reason) != (None, None):
            raise InputError("an SLS verdict with a certificate has no failing vertex or reason")
        if certificate is None and reason is None:
            raise InputError("an SLS verdict without a certificate needs a reason")
        super().__init__(certificate, failing_vertex, reason)

    @property
    def ok(self) -> bool:
        return self.certificate is not None

    def __bool__(self):
        return self.ok


def is_semi_locally_surjective(f: VertexMap) -> SlsVerdict:
    """Decide the SLS condition, returning a certificate or a failing vertex.

    Surjectivity and homomorphism-ness are checked first; failing either
    yields a No with a reason. Witness candidates are scanned in ascending
    source index, so verdicts are deterministic: witness[u] is the least
    preimage of u adjacent to a preimage of every target neighbor, the
    rule SlsCertificate.verify re-applies.
    """
    pre = _preimages(f.mapping, f.target.n)
    if not _keeps_edges(f, pre):
        return SlsVerdict(reason="not a graph homomorphism")
    if 0 in pre:
        return SlsVerdict(failing_vertex=pre.index(0), reason="not surjective")
    witness = {}
    for u, row in enumerate(f.target.adj):
        a = _first_meeting(f.source.adj, pre[u], [pre[v] for v in iter_bits(row)])
        if a is None:
            return SlsVerdict(failing_vertex=u, reason="no valid preimage witness")
        witness[u] = a
    return SlsVerdict(SlsCertificate(witness))


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
    from .kneser import _check_integers, kneser_graph

    _check_integers(n, m)
    if m < 1 or n <= 2 * m:
        raise InputError(f"step homomorphism needs n > 2m >= 2, got n={n}, m={m}")
    src = kneser_graph(n + 2, m + 1)
    tgt = kneser_graph(n, m)
    mapping = []
    for s in src.subsets:  # ascending, so s holds both n+1 and n+2 exactly when s[-2] > n
        if s[-2] > n:
            image = s[:-2] + (max(set(range(1, n + 1)).difference(s)),)
        else:
            image = s[:-1]
        mapping.append(tgt.index_of(image))
    return VertexMap(src.graph, tgt.graph, tuple(mapping))


def lift_coloring(f: VertexMap, c: Coloring) -> Coloring:
    """Pull a colorful coloring of the target back along an SLS map.

    Each source vertex takes the color of its image. The result is
    verified colorful with the same k before being returned; the
    b-dominating vertex for class i can be taken as the certificate
    witness of the target's class-i witness.
    """
    from .coloring import Coloring, is_colorful

    verdict = is_semi_locally_surjective(f)
    if not verdict.ok:
        raise InputError(f"map is not semi-locally-surjective: {verdict.reason}")
    ok, _ = is_colorful(f.target, c)
    if not ok:
        raise InputError("coloring of the target is not colorful")
    lifted = Coloring(c.k, tuple(c.colors[f.mapping[v]] for v in range(f.source.n)))
    if not is_colorful(f.source, lifted)[0]:
        raise AssertionError("lift along an SLS map must stay colorful")
    return lifted


def coloring_as_hom(g: Graph, c: Coloring) -> VertexMap:
    """View a proper coloring with k nonempty classes as a map into K_k."""
    from .coloring import is_proper

    if not is_proper(g, c):
        raise InputError("coloring is not proper")
    used = set(c.colors)
    if used != set(range(1, c.k + 1)):
        missing = sorted(set(range(1, c.k + 1)) - used)
        raise InputError(f"color classes {missing} are empty; map would not be surjective")
    return VertexMap(g, complete_graph(c.k), tuple(col - 1 for col in c.colors))


def hom_as_coloring(f: VertexMap) -> Coloring:
    """Read a map into a complete graph back as a coloring (vertex i = color i+1)."""
    from .coloring import Coloring

    k = f.target.n
    if f.target.edge_count() != k * (k - 1) // 2:
        raise InputError("target is not a complete graph")
    return Coloring(k, tuple(image + 1 for image in f.mapping))


# ---------------------------------------------------------------------------
# Vertex-map files: header "map <source-file> <target-file>", then one line
# per source vertex "<source-label> <target-label>". Graph paths are stored
# relative to the map file, as fields without whitespace, and labels follow
# the graphs' label sidecars.

def write_map(f: VertexMap, path, source_path, target_path) -> None:
    base = os.path.dirname(os.path.abspath(path))
    rel = [os.path.relpath(os.path.abspath(p), base) for p in (source_path, target_path)]
    for p in rel:  # checked before path is opened
        if p.split() != [p]:
            raise InputError(f"graph path {p!r} has whitespace, so a map header cannot hold it")
    names = f.target.names()
    _write_vertex_records(path, f"map {rel[0]} {rel[1]}", f.source, (names[t] for t in f.mapping))


def _read_map_header(path):
    """(source path, target path, records) of a map file.

    The paths are resolved against the map file's directory; records is
    left just past the header.
    """
    records = _read_fields(path)
    _, (_, source, target) = _read_header(path, records, "map <source> <target>")
    base = os.path.dirname(os.path.abspath(path))
    return os.path.join(base, source), os.path.join(base, target), records


def read_map(path) -> VertexMap:
    source_path, target_path, records = _read_map_header(path)
    source = read_col(source_path)
    target = read_col(target_path)
    by_label = target.label_index()
    mapping = _read_vertex_records(
        path, records, source, "<source-vertex> <target-vertex>",
        lambda token, lineno: _resolve_vertex(target, token, by_label, path, lineno),
    )
    return VertexMap(source, target, mapping)
