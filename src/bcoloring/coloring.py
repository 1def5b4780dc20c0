"""Proper and colorful (b-)coloring verification plus the exact searches.

Verification functions are pure reads. The two searches are exhaustive
backtrackers: chromatic_number has no budget (instances stay at desk
scale), find_colorful_coloring takes a node/wall-clock budget so that a
NOT_EXISTS answer always means a completed search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .errors import FileFormatError, InputError
from .graphs import Graph, is_bipartite, iter_bits


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


def _class_masks(g: Graph, c: Coloring) -> list[int]:
    masks = [0] * c.k
    for v, col in enumerate(c.colors):
        masks[col - 1] |= 1 << v
    return masks


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge is monochromatic."""
    _require_total(g, c)
    for mask in _class_masks(g, c):
        for v in iter_bits(mask):
            if g.adj[v] & mask:
                return False
    return True


def is_b_dominating(g: Graph, c: Coloring, v: int) -> bool:
    """True iff every color 1..k appears on the closed neighborhood of v."""
    _require_total(g, c)
    g.check_vertex(v)
    return _closed_colors(g, c, v) == (1 << c.k) - 1


def _closed_colors(g: Graph, c: Coloring, v: int) -> int:
    """Bit mask of the colors present on the closed neighborhood of v."""
    seen = 1 << (c.colors[v] - 1)
    for u in iter_bits(g.adj[v]):
        seen |= 1 << (c.colors[u] - 1)
    return seen


def is_colorful(g: Graph, c: Coloring) -> tuple[bool, dict[int, int] | None]:
    """Check the colorful (b-coloring) condition.

    Returns (True, {color: witness vertex}) when c is proper, every class
    is nonempty, and every class contains a b-dominating vertex; the
    witness per class is the least-index one. Otherwise (False, None).
    """
    _require_total(g, c)
    if not is_proper(g, c):
        return False, None
    full = (1 << c.k) - 1
    witnesses = {}
    for i, mask in enumerate(_class_masks(g, c), start=1):
        if mask == 0:
            return False, None
        found = next((v for v in iter_bits(mask) if _closed_colors(g, c, v) == full), None)
        if found is None:
            return False, None
        witnesses[i] = found
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


def _dsatur_greedy(g: Graph) -> Coloring:
    """Greedy upper-bound coloring with saturation-degree vertex selection."""
    n = g.n
    if n == 0:
        return Coloring(0, ())
    color = [0] * n
    nbr = [0] * n
    for _ in range(n):
        v = max(
            (u for u in range(n) if color[u] == 0),
            key=lambda u: (nbr[u].bit_count(), g.adj[u].bit_count(), -u),
        )
        c = 0
        while (nbr[v] >> c) & 1:
            c += 1
        color[v] = c + 1
        bit = 1 << c
        for u in iter_bits(g.adj[v]):
            nbr[u] |= bit
    return Coloring(max(color), tuple(color))


def _k_colorable(g: Graph, k: int) -> Coloring | None:
    """Complete decision search: a proper k-coloring or None.

    Pre-colors a greedy clique, breaks color symmetry via the classic cap
    rule (a vertex may only introduce one fresh color), and picks the
    most saturated vertex at each node.
    """
    n = g.n
    if n == 0:
        return Coloring(k, ())
    if k <= 0:
        return None
    if k >= n:
        return Coloring(k, tuple(range(1, n + 1)))
    if k == 1:
        return Coloring(1, (1,) * n) if g.edge_count() == 0 else None
    if k == 2:
        ok, side = is_bipartite(g)
        return Coloring(2, tuple(s + 1 for s in side)) if ok else None

    clique = greedy_clique(g)
    if len(clique) > k:
        return None
    color = [0] * n
    nbr = [0] * n
    for i, v in enumerate(clique):
        color[v] = i + 1
        bit = 1 << i
        for u in iter_bits(g.adj[v]):
            nbr[u] |= bit
    adj = g.adj
    degs = [row.bit_count() for row in adj]

    def dfs(remaining, max_used):
        if remaining == 0:
            return True
        v = -1
        v_key = None
        for u in range(n):
            if color[u]:
                continue
            key = (nbr[u].bit_count(), degs[u], -u)
            if v_key is None or key > v_key:
                v, v_key = u, key
        cap = max_used + 1 if max_used < k else k
        allowed = ~nbr[v] & ((1 << cap) - 1)
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            cnum = bit.bit_length()
            color[v] = cnum
            touched = []
            for u in iter_bits(adj[v]):
                if color[u] == 0 and not nbr[u] & bit:
                    nbr[u] |= bit
                    touched.append(u)
            if dfs(remaining - 1, max_used if cnum <= max_used else cnum):
                return True
            for u in touched:
                nbr[u] ^= bit
            color[v] = 0
        return False

    if dfs(n - len(clique), len(clique)):
        return Coloring(k, tuple(color))
    return None


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring."""
    if g.n == 0:
        raise InputError("chromatic number is undefined for the empty graph")
    upper = _dsatur_greedy(g)
    lower = max(len(greedy_clique(g)), 1)
    if upper.k <= lower:
        return upper.k, upper
    for k in range(lower, upper.k):
        witness = _k_colorable(g, k)
        if witness is not None:
            return k, witness
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


@dataclass(frozen=True)
class Budget:
    """Caps on the colorful search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


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
        coloring = _search_dominator_tuples(g, k, candidates, clock)
    except _OutOfBudget:
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, clock.nodes)
    if coloring is None:
        return SearchResult(SearchStatus.NOT_EXISTS, None, clock.nodes)
    ok, _ = is_colorful(g, coloring)
    assert ok, "search returned a non-colorful coloring"
    return SearchResult(SearchStatus.FOUND, coloring, clock.nodes)


def _search_dominator_tuples(g: Graph, k: int, candidates, clock) -> Coloring | None:
    """Colorful k-coloring whose dominator tuple is drawn from candidates, or None.

    The ascending k-tuples of candidates are walked as a prefix tree, in
    the order of itertools.combinations: position j of the tuple is placed
    (color j+1) once when the walk chooses it and undone when the walk moves
    on. Each full tuple costs one clock tick and then one extension search
    for a proper coloring in which every dominator is b-dominating.
    """
    n = g.n
    full = (1 << k) - 1
    nbrs = [tuple(iter_bits(row)) for row in g.adj]
    color = [0] * n
    nbr = [0] * n  # colors present in the open neighborhood
    dpos = [[] for _ in range(n)]  # positions j, ascending, with v in N[doms[j]]
    seen = [0] * k  # colors present in N[doms[j]]
    free = [0] * k  # uncolored vertices remaining in N[doms[j]]

    def assign(v, bit):
        """Apply the assignment; returns (undo record, still feasible)."""
        color[v] = bit.bit_length()
        touched = []
        for u in nbrs[v]:
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

    def dfs(remaining):
        if remaining == 0:
            return True
        # Most-constrained vertex first; prefer dominator neighborhoods on ties.
        v = -1
        v_allowed = 0
        v_key = None
        for u in range(n):
            if color[u]:
                continue
            allowed = full & ~nbr[u]
            doms = dpos[u]
            for j in doms:
                missing = full & ~seen[j]
                if missing.bit_count() == free[j]:
                    allowed &= missing
            if allowed == 0:
                return False
            key = (allowed.bit_count(), -len(doms), u)
            if v_key is None or key < v_key:
                v, v_allowed, v_key = u, allowed, key
        while v_allowed:
            bit = v_allowed & -v_allowed
            v_allowed ^= bit
            clock.tick()
            record, ok = assign(v, bit)
            if ok and dfs(remaining - 1):
                return True
            undo(record)
        return False

    def place(j, start):
        """Try every dominator for positions j.. drawn from candidates[start:]."""
        if j == k:
            clock.tick()
            return dfs(n - k)
        bit = 1 << j
        for i in range(start, len(candidates) - k + j + 1):
            y = candidates[i]
            closed = (y, *nbrs[y])
            seen[j] = free[j] = 0
            for v in closed:
                dpos[v].append(j)
                if color[v]:
                    seen[j] |= 1 << (color[v] - 1)
                else:
                    free[j] += 1
            # Placement cannot fail, so its feasibility flag is ignored. The
            # dominators' colors are pairwise distinct: a dominator placed in
            # the closed neighborhood of any dominator lowers that
            # neighborhood's free count and its number of missing colors by
            # one each, and the slack |N[y]| - k >= 0 of a candidate y never
            # changes.
            record, _ = assign(y, bit)
            if place(j + 1, i + 1):
                return True
            undo(record)
            for v in closed:
                dpos[v].pop()
        return False

    if place(0, 0):
        return Coloring(k, tuple(color))
    return None


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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coloring(path, g: Graph) -> Coloring:
    by_label = g.label_index()
    k = None
    colors = [0] * g.n
    seen = [False] * g.n
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c "):
                continue
            parts = line.split()
            if k is None:
                if len(parts) != 2 or parts[0] != "k":
                    raise FileFormatError(path, lineno, "expected header 'k <int>'")
                try:
                    k = int(parts[1])
                except ValueError:
                    raise FileFormatError(path, lineno, "non-integer color count")
                continue
            if len(parts) != 2:
                raise FileFormatError(path, lineno, "expected '<vertex> <color>'")
            token, color_token = parts
            if token in by_label:
                v = by_label[token]
            else:
                try:
                    v = int(token)
                except ValueError:
                    raise FileFormatError(path, lineno, f"unknown vertex {token!r}")
                if not 0 <= v < g.n:
                    raise FileFormatError(path, lineno, f"vertex index {v} outside 0..{g.n - 1}")
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
