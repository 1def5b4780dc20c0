"""Proper and colorful (b-)coloring verification plus the exact searches.

Verification functions are pure reads. chromatic_number, its DSATUR upper
bound included, and find_colorful_coloring run one exhaustive backtracker,
_backtrack, which keeps its decisions on an explicit stack instead of
recursing. chromatic_number has no budget (instances stay at desk scale);
find_colorful_coloring takes a node/wall-clock budget so that a
NOT_EXISTS answer always means a completed search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .errors import FileFormatError, InputError
from .graphs import MAX_VERTICES, Graph, _first_meeting, _preimages, _read_fields, _resolve_vertex
from .graphs import _write_lines, is_bipartite, iter_bits


@dataclass(frozen=True)
class Coloring:
    """Total assignment of colors 1..k to vertices 0..n-1."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.k < 0:
            raise InputError("color count must be nonnegative")
        for v, c in enumerate(self.colors):
            if not 1 <= c <= self.k:
                raise InputError(f"vertex {v} has color {c} outside 1..{self.k}")

    def classes(self) -> list[list[int]]:
        out = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            out[c - 1].append(v)
        return out


def _require_total(g: Graph, c: Coloring):
    if len(c.colors) != g.n:
        raise InputError(f"coloring covers {len(c.colors)} vertices, graph has {g.n}")


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge is monochromatic."""
    _require_total(g, c)
    masks = _preimages([col - 1 for col in c.colors], c.k)  # the color classes
    return not any(row & masks[col - 1] for row, col in zip(g.adj, c.colors))


def is_b_dominating(g: Graph, c: Coloring, v: int) -> bool:
    """True iff every color 1..k appears on the closed neighborhood of v."""
    _require_total(g, c)
    g.check_vertex(v)
    seen = 1 << (c.colors[v] - 1)
    for u in iter_bits(g.adj[v]):
        seen |= 1 << (c.colors[u] - 1)
    return seen == (1 << c.k) - 1


def is_colorful(g: Graph, c: Coloring) -> tuple[bool, dict[int, int] | None]:
    """Check the colorful (b-coloring) condition.

    Returns (True, {color: witness vertex}) when c is proper, every class
    is nonempty, and every class contains a b-dominating vertex; the
    witness per class is the least-index one. Otherwise (False, None).
    This is the SLS test of c as a map into K_k (coloring_as_hom): c is
    colorful exactly when that map is SLS, and the witness of class i is the
    certificate witness of K_k's vertex i-1.
    """
    if not is_proper(g, c):
        return False, None
    masks = _preimages([col - 1 for col in c.colors], c.k)
    witnesses = {}
    for i, mask in enumerate(masks):
        found = _first_meeting(g.adj, mask, masks[:i] + masks[i + 1:])
        if found is None:
            return False, None
        witnesses[i + 1] = found
    return True, witnesses


def m_degree_bound(g: Graph) -> int:
    """Largest d with at least d vertices of degree >= d-1; caps every k in B(G)."""
    if g.n == 0:
        raise InputError("m-degree bound is undefined for the empty graph")
    degs = sorted((row.bit_count() for row in g.adj), reverse=True)
    best = 0
    for d in range(1, g.n + 1):
        if degs[d - 1] >= d - 1:
            best = d
    return best


# ---------------------------------------------------------------------------
# Budgets and the search kernel

@dataclass(frozen=True)
class Budget:
    """Caps on the colorful search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        # "not x >= 0" also rejects NaN, which no deadline comparison would end.
        if self.max_nodes is not None and not self.max_nodes >= 0:
            raise InputError(f"node budget must be nonnegative, got {self.max_nodes}")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise InputError(f"time budget must be nonnegative seconds, got {self.max_seconds}")


DEFAULT_BUDGET = Budget(max_nodes=50_000_000, max_seconds=600.0)


class _OutOfBudget(Exception):
    pass


class _Clock:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds is not None else None
        )

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and (self.nodes & 1023) == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget


def _backtrack(g: Graph, k: int, clock: _Clock, rank, clique=(), candidates=()):
    """Colors 1..k for every vertex (a list indexed by vertex), or None.

    The clique vertices take colors 1, 2, ... up front. With candidates,
    the first k decisions choose the dominators: the ascending k-tuples of
    candidates are walked as a prefix tree, in the order of
    itertools.combinations, position j of the tuple taking color j+1 and
    requiring every color on its closed neighborhood. Every later decision
    colors the uncolored vertex with the fewest allowed colors, ties going
    to the vertex in more dominator neighborhoods and then to the lower
    rank, and tries its allowed colors in ascending order. A color above
    one more than the largest in use is never allowed; once the dominators
    hold all k colors this cap does nothing.

    The clock ticks once per full dominator tuple (once at the start
    without candidates) and once per color tried. All decisions live on one explicit stack, so no search depth is
    bounded by Python's recursion limit.
    """
    n = g.n
    full = (1 << k) - 1
    closed = [(v, *iter_bits(row)) for v, row in enumerate(g.adj)]  # N[v]
    color = [0] * n
    nbr = [0] * n  # colors present in the open neighborhood
    dpos = [[] for _ in range(n)]  # positions j, ascending, with v in N[doms[j]]
    seen = [0] * k  # colors present in N[doms[j]]
    free = [0] * k  # uncolored vertices remaining in N[doms[j]]

    def assign(v, bit):
        """Apply the assignment; returns (undo record, still feasible)."""
        color[v] = bit.bit_length()
        touched = []
        for u in closed[v]:  # v itself is colored now, so skipped
            if not color[u] and not nbr[u] & bit:
                nbr[u] |= bit
                touched.append(u)
        dom_hits = []
        feasible = True
        for j in dpos[v]:
            added = not seen[j] & bit
            seen[j] |= bit
            free[j] -= 1
            dom_hits.append((j, added))
            if (full & ~seen[j]).bit_count() > free[j]:
                feasible = False
        return (v, bit, touched, dom_hits), feasible

    def undo(record):
        v, bit, touched, dom_hits = record
        for u in touched:
            nbr[u] ^= bit
        for j, added in dom_hits:
            if added:
                seen[j] ^= bit
            free[j] += 1
        color[v] = 0

    for i, v in enumerate(clique):
        assign(v, 1 << i)
    used = len(clique)  # the largest color in use
    positions = k if candidates else 0
    cand_mask = sum(1 << v for v in candidates)
    last = len(candidates) - k  # position j takes candidates[:last + j + 1]
    # The selection key (allowed colors, -dominator positions, rank) of u as
    # one integer, allowed.bit_count() * kn + tie[u]: tie[u] is rank[u] less
    # n for each dominator position whose neighborhood holds u.
    tie = list(rank)
    kn = (k + 1) * n
    worst = (k + 1) * kn
    # The decisions above the current one, each as (vertex colored, untried
    # choices, undo record, used before it): the choices are vertex bits
    # for a dominator position and color bits otherwise.
    stack = []
    while True:
        depth = len(stack)
        if depth < positions:
            after = stack[-1][0] + 1 if depth else 0
            choices = cand_mask & -(1 << after) & ((2 << candidates[last + depth]) - 1)
        else:
            if depth == positions:
                clock.tick()
            cap = (1 << (used + 1 if used < k else k)) - 1
            v = -1
            choices = 0
            v_key = worst
            for u, c in enumerate(color):
                if c:
                    continue
                allowed = cap & ~nbr[u]
                for j in dpos[u]:
                    missing = full & ~seen[j]
                    if missing.bit_count() == free[j]:
                        allowed &= missing
                if not allowed:
                    v, choices = u, 0
                    break
                key = allowed.bit_count() * kn + tie[u]
                if key < v_key:
                    v, choices, v_key = u, allowed, key
            if v < 0:
                return color
        record = None
        # Try the next choice of the current decision; when none is left,
        # go back to the decision above it.
        while True:
            if record is not None:
                undo(record)
                if depth < positions:
                    for u in closed[v]:
                        dpos[u].pop()
                        tie[u] += n
            if not choices:
                if not stack:
                    return None
                v, choices, record, used = stack.pop()
                depth -= 1
                continue
            bit = choices & -choices
            choices ^= bit
            if depth < positions:
                v = bit.bit_length() - 1
                bit = 1 << depth
                present = uncolored = 0
                for u in closed[v]:
                    dpos[u].append(depth)
                    tie[u] -= n
                    if color[u]:
                        present |= 1 << (color[u] - 1)
                    else:
                        uncolored += 1
                seen[depth] = present
                free[depth] = uncolored
                # A placement is always feasible: the dominators' colors are
                # pairwise distinct, so each placement lowers a dominator
                # neighborhood's free count and its number of missing colors
                # by one each, and the slack |N[y]| - k >= 0 of a candidate y
                # never changes.
            else:
                clock.tick()
            record, ok = assign(v, bit)
            if ok:
                break
        stack.append((v, choices, record, used))
        if bit >> used:
            used = bit.bit_length()


# ---------------------------------------------------------------------------
# Exact chromatic number

def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique, used only as a lower bound / seed."""
    best: list[int] = []
    for seed in range(g.n):
        clique = [seed]
        cand = g.adj[seed]
        while cand:
            pick = -1
            pick_deg = -1
            for v in iter_bits(cand):
                d = (g.adj[v] & cand).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            clique.append(pick)
            cand &= g.adj[pick]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring.

    The upper bound is DSATUR (Brelaz 1979): the kernel's first descent at
    k = n, which never backtracks, since a fresh color is always allowed.
    Each k from the greedy clique's size up is then decided by the complete
    kernel search with the clique pre-colored; the cap on fresh colors
    breaks color symmetry. Both rank vertices by degree, highest first,
    then by index.
    """
    n = g.n
    if n == 0:
        raise InputError("chromatic number is undefined for the empty graph")
    rank = [0] * n
    for i, u in enumerate(sorted(range(n), key=lambda u: (-g.adj[u].bit_count(), u))):
        rank[u] = i
    clock = _Clock(Budget())
    colors = _backtrack(g, n, clock, rank)
    upper = Coloring(max(colors), tuple(colors))
    clique = greedy_clique(g)
    for k in range(len(clique), upper.k):
        if k == 2:
            ok, side = is_bipartite(g)
            colors = [s + 1 for s in side] if ok else None
        else:
            colors = _backtrack(g, k, clock, rank, clique)
        if colors is not None:
            return k, Coloring(k, tuple(colors))
    return upper.k, upper


# ---------------------------------------------------------------------------
# Exhaustive colorful k-coloring search

class SearchStatus(Enum):
    FOUND = "found"
    NOT_EXISTS = "not_exists"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    coloring: Coloring | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


def find_colorful_coloring(g: Graph, k: int, budget: Budget | None = None) -> SearchResult:
    """Search for a colorful k-coloring of g.

    FOUND carries a coloring that passes is_colorful; NOT_EXISTS means the
    search space was exhausted; BUDGET_EXCEEDED is inconclusive and is
    never conflated with NOT_EXISTS.

    The search fixes k candidate b-dominating vertices first (ascending
    index tuples over the vertices of degree >= k-1, vertex j of the tuple
    taking color j), forces each candidate's closed neighborhood to
    realize all k colors, and extends to a full proper coloring,
    backtracking at every stage. Any colorful k-coloring can be
    color-permuted so its sorted witness tuple appears this way, so
    exhausting the tuples is a complete search.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    clock = _Clock(budget if budget is not None else DEFAULT_BUDGET)
    n = g.n
    if k > n:
        return SearchResult(SearchStatus.NOT_EXISTS)
    if k == 1:
        # A single class: any vertex is b-dominating iff the graph is edgeless.
        if g.edge_count() == 0:
            return SearchResult(SearchStatus.FOUND, Coloring(1, (1,) * n))
        return SearchResult(SearchStatus.NOT_EXISTS)
    candidates = [v for v in range(n) if g.adj[v].bit_count() >= k - 1]
    if len(candidates) < k:
        return SearchResult(SearchStatus.NOT_EXISTS)
    try:
        colors = _backtrack(g, k, clock, range(n), candidates=candidates)
    except _OutOfBudget:
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, clock.nodes)
    if colors is None:
        return SearchResult(SearchStatus.NOT_EXISTS, None, clock.nodes)
    coloring = Coloring(k, tuple(colors))
    ok, _ = is_colorful(g, coloring)
    assert ok, "search returned a non-colorful coloring"
    return SearchResult(SearchStatus.FOUND, coloring, clock.nodes)


# ---------------------------------------------------------------------------
# b-spectrum

@dataclass(frozen=True)
class BSpectrumReport:
    """B(G) as computed: chi = min(spectrum), b = max(spectrum).

    ``unknown`` holds every k whose search ran out of budget; a nonempty
    unknown set makes the continuity verdict None (unknown) rather than
    False. Witness colorings all pass is_colorful.
    """

    chi: int
    b: int
    spectrum: frozenset[int]
    continuous: bool | None
    witnesses: dict[int, Coloring] = field(compare=False)
    unknown: frozenset[int] = frozenset()
    m_bound: int = 0


def b_spectrum(g: Graph, budget: Budget | None = None) -> BSpectrumReport:
    """Compute B(G) exhaustively for k up to the m-degree bound.

    k = chi(G) is settled by the chromatic witness (every minimum proper
    coloring is colorful); each k above it gets its own budgeted search.
    """
    if g.n == 0:
        raise InputError("b-spectrum is undefined for the empty graph")
    chi, chi_witness = chromatic_number(g)
    ok, _ = is_colorful(g, chi_witness)
    assert ok, "chromatic witness must be colorful"
    bound = m_degree_bound(g)
    spectrum = {chi}
    witnesses = {chi: chi_witness}
    unknown = set()
    for k in range(chi + 1, bound + 1):
        result = find_colorful_coloring(g, k, budget)
        if result.status is SearchStatus.FOUND:
            spectrum.add(k)
            witnesses[k] = result.coloring
        elif result.status is SearchStatus.BUDGET_EXCEEDED:
            unknown.add(k)
    b = max(spectrum)
    continuous = None if unknown else spectrum == set(range(chi, b + 1))
    return BSpectrumReport(
        chi=chi,
        b=b,
        spectrum=frozenset(spectrum),
        continuous=continuous,
        witnesses=witnesses,
        unknown=frozenset(unknown),
        m_bound=bound,
    )


# ---------------------------------------------------------------------------
# Coloring files: header "k <int>", then one line per vertex
# "<vertex-label-or-index> <color>". Labels use the subset rendering when
# the graph has labels; bare indices are always accepted too.

def write_coloring(c: Coloring, path, g: Graph) -> None:
    _require_total(g, c)
    lines = [f"k {c.k}"]
    for v in range(g.n):
        lines.append(f"{g.label_of(v)} {c.colors[v]}")
    _write_lines(path, lines)


def read_coloring(path, g: Graph) -> Coloring:
    by_label = g.label_index()
    k = None
    colors = [0] * g.n
    seen = [False] * g.n
    for lineno, parts in _read_fields(path):
        if k is None:
            if len(parts) != 2 or parts[0] != "k":
                raise FileFormatError(path, lineno, "expected header 'k <int>'")
            try:
                k = int(parts[1])
            except ValueError:
                raise FileFormatError(path, lineno, "non-integer color count")
            if k < 0:
                raise FileFormatError(path, lineno, "negative color count")
            if k > MAX_VERTICES:
                raise FileFormatError(path, lineno, f"{k} colors exceed the limit {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise FileFormatError(path, lineno, "expected '<vertex> <color>'")
        token, color_token = parts
        v = _resolve_vertex(g, token, by_label, path, lineno)
        if seen[v]:
            raise FileFormatError(path, lineno, f"vertex {token} assigned twice")
        try:
            col = int(color_token)
        except ValueError:
            raise FileFormatError(path, lineno, f"non-integer color {color_token!r}")
        if not 1 <= col <= k:
            raise FileFormatError(path, lineno, f"color {col} outside 1..{k}")
        seen[v] = True
        colors[v] = col
    if k is None:
        raise FileFormatError(path, 1, "missing header 'k <int>'")
    if not all(seen):
        missing = seen.index(False)
        raise FileFormatError(path, 1, f"no color given for vertex {g.label_of(missing)}")
    return Coloring(k, tuple(colors))
