"""Proper and colorful (b-)coloring verification plus the exact searches.

Verification functions are pure reads. chromatic_number, its DSATUR upper
bound included, and find_colorful_coloring run one exhaustive backtracker,
_backtrack, which keeps its decisions on an explicit stack, checks its node
cap at each node and reads its clock at every 1,024th node and every
1,024th cut, and returns its status.
chromatic_number runs it uncapped (instances stay at desk scale);
find_colorful_coloring caps it by nodes and wall clock, so that a
NOT_EXISTS answer always means a completed search.
"""

from __future__ import annotations

import time
from enum import Enum

from .errors import FileFormatError, InputError, _Record
from .graphs import MAX_VERTICES, Graph, _first_meeting, _preimages, _read_fields, _read_header
from .graphs import _read_vertex_records, _write_vertex_records, iter_bits


class Coloring(_Record):
    """Total assignment of colors 1..k to vertices 0..n-1."""

    __slots__ = ("k", "colors")
    k: int
    colors: tuple[int, ...]

    def __init__(self, k: int, colors):
        colors = tuple(colors)
        if not isinstance(k, int):
            raise InputError(f"color count {k!r} is not an integer")
        if k < 0:
            raise InputError("color count must be nonnegative")
        for v, c in enumerate(colors):
            if not isinstance(c, int):
                raise InputError(f"vertex {v} has color {c!r}, not an integer")
            if not 1 <= c <= k:
                raise InputError(f"vertex {v} has color {c} outside 1..{k}")
        super().__init__(k, colors)


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

class Budget(_Record):
    """Caps on one kernel search, None meaning unlimited; the chromatic search runs uncapped."""

    __slots__ = ("max_nodes", "max_seconds")
    max_nodes: int | None
    max_seconds: float | None

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        # "not x >= 0" also rejects NaN, which no deadline comparison would end.
        if max_nodes is not None and not max_nodes >= 0:
            raise InputError(f"node budget must be nonnegative, got {max_nodes}")
        if max_seconds is not None and not max_seconds >= 0:
            raise InputError(f"time budget must be nonnegative seconds, got {max_seconds}")
        super().__init__(max_nodes, max_seconds)


DEFAULT_BUDGET = Budget(max_nodes=50_000_000, max_seconds=600.0)


class SearchStatus(Enum):
    FOUND = "found"
    NOT_EXISTS = "not_exists"
    BUDGET_EXCEEDED = "budget_exceeded"


def _backtrack(adj, k: int, budget: Budget, clique=(), candidates=()):
    """(status, colors, nodes): colors 1..k for every vertex when FOUND, else None.

    The graph is given as adj[v], the bit mask of v's neighbors.
    The clique vertices take colors 1, 2, ... up front. With candidates,
    the first k decisions choose the dominators: the ascending k-tuples of
    candidates are walked as a prefix tree, in the order of
    itertools.combinations, position j of the tuple taking color j+1 and
    requiring every color on its closed neighborhood. Every later decision
    colors the uncolored vertex with the fewest allowed colors, ties going
    to the vertex in more dominator neighborhoods and then to the lower
    index, and tries its allowed colors in ascending order. The chromatic
    search never allows a color above one more than the largest in use; the
    colorful one needs no such cap, as its dominators take all k colors.

    Without candidates (the chromatic search and its DSATUR bound) no
    vertex has a dominator, and the colors an uncolored vertex sees are
    all in use, so under the cap. So u allows cap.bit_count() less its
    saturation, the number of colors in N[u]: the saturation is the whole
    key, and the chosen vertex is the least-index one of greatest
    saturation. That search keeps its state as bit masks: seen[c], the
    vertices with a neighbor of color c; the saturations as bit planes,
    plane i holding bit i of each vertex's count (colored vertices are
    counted too, but never read); and the mask of uncolored vertices. A
    vertex that sees all k colors has the greatest saturation, so it is
    chosen, and has no choice. When every uncolored vertex has saturation
    0, the colored ones fill whole components and the least uncolored one
    starts another, on which no decision so far bears and to which every
    color is alike: the decision clears the stack and offers color 1
    alone. So a later component that fails ends the search, which never
    backtracks into the earlier ones. No step of that search loops over
    vertices.

    With candidates, the state is kept per vertex, and the closed
    neighborhoods are walked as tuples, made from adj once per call:
    have[v] holds the colors present in N[v], doms[v] the placed dominators
    whose closed neighborhood holds v, and slack[d], for a placed dominator
    d, the uncolored vertices in N[d] less the colors N[d] misses; d is
    tight when slack[d] is 0; tight counts the tight ones and placed lists
    the placed ones in position order. Only assign and undo change that
    state. A tight dominator d narrows the allowed colors of every vertex
    in N[d] at once, so the key of a vertex there changes without any
    change to its own have, and no per-vertex saturation order stays
    current cheaply; so a decision scans.

    It scans only the frontier, the set front of uncolored vertices with a
    colored neighbor. That finds the same vertex as a scan of all uncolored
    vertices: an uncolored u outside the frontier has have[u] = 0, lies in
    no placed dominator's neighborhood (dominators are colored), and so
    allows every color, while a frontier vertex sees a color and allows
    fewer. So the least key, and every vertex with no allowed color, lies
    in the frontier when it is not empty. An empty frontier starts a new
    component at its uncolored vertex of least index, color.index(0),
    unless every vertex is colored: each decision on the stack colored one
    vertex, so that is when they number n. The set's order does not
    matter: the scan keeps the least (key, index), with the key (below)
    read off allowed and len(doms[u]), which is one vertex in any order;
    and a vertex with no allowed color ends the decision, which then
    backtracks without coloring it, whichever such vertex is met first.

    Two support checks cut branches early. A placed dominator d whose N[d]
    misses a color c needs an uncolored vertex of N[d] that can still take
    c, for in a colorful completion some vertex of N[d] does. Which colors
    an uncolored w can take only shrinks as the coloring grows: have[w]
    and each have[e] only gain colors, and a tight dominator e stays tight,
    every uncolored vertex of N[e] having to take one of the colors N[e]
    misses. Both run in assign, and a failed one sets dead, so that the
    next decision backtracks before it chooses:
    1. After an assignment of c below the dominator positions, each
       placed d whose N[d] misses c needs an uncolored w in N[d] without c
       in have[w].
    2. After each placement that another position follows, each placed d
       and each color c in use that N[d] misses need an uncolored w in
       N[d] with c in allows(w), the set the scan computes for w. Only
       the colors in use need a look: a later color is in no have, so
       every uncolored vertex allows it, and N[d] holds an uncolored
       vertex while it misses a color (slack[d] >= 0). On K_n every
       placed dominator sees every color in use, so it walks nothing.
    Both cut only subtrees that hold no colorful coloring, and leave the
    order of the rest of the walk as it is. So every verdict and the first
    coloring found are those of the search without them; fewer nodes are
    visited, and a capped search can settle what it would have left
    BUDGET_EXCEEDED.

    A node is a choice taken at the last dominator position or below it:
    one per full dominator tuple and one per color tried. The search ends
    BUDGET_EXCEEDED at the first node past budget.max_nodes, or at a
    multiple of 1,024 nodes, or of 1,024 cuts of either check, reached
    past the deadline: a placement cut by check 2 reaches no node. All
    decisions live on one explicit stack, so no depth is bounded by the
    recursion limit.
    """
    inf = float("inf")
    max_nodes = inf if budget.max_nodes is None else budget.max_nodes
    deadline = time.monotonic() + (inf if budget.max_seconds is None else budget.max_seconds)
    nodes = 0
    cuts = 0  # the assignments that set dead
    n = len(adj)
    full = (1 << k) - 1
    color = [0] * n
    positions = k if candidates else 0
    if positions:
        closed = [(v, *iter_bits(row)) for v, row in enumerate(adj)]
        have = [0] * n
        doms = [[] for _ in range(n)]
        slack = [0] * n
        placed = []  # the placed dominators, in position order
        tight = 0  # the placed dominators d with slack[d] == 0
        dead = False  # the last assignment left a dominator without support
        front = set()

        def allows(w):
            """The colors uncolored w may take: none in N[w] nor in a tight dominator's N.

            The scan computes the same set inline: a call for each frontier
            vertex there cost 8-10% per node.
            """
            allowed = full & ~have[w]
            for e in doms[w]:
                if not slack[e]:
                    allowed &= ~have[e]
            return allowed

        def assign(v, bit):
            """Apply the assignment; returns the vertices whose have gained bit."""
            nonlocal tight, dead
            placing = len(stack) < positions
            if placing:  # place v as a dominator first
                free = 0  # the uncolored vertices of N[v], v among them
                for u in closed[v]:
                    doms[u].append(v)
                    if not color[u]:
                        free += 1
                slack[v] = s = free - (full & ~have[v]).bit_count()
                if not s:
                    tight += 1
                placed.append(v)
            color[v] = bit.bit_length()
            for d in doms[v]:
                if have[d] & bit:
                    slack[d] -= 1
                    if not slack[d]:
                        tight += 1
            front.discard(v)
            have[v] |= bit  # no neighbor of v has its color, so this sets it; v is skipped below
            touched = [v]
            for u in closed[v]:
                h = have[u]
                if not h & bit:
                    if not h:  # u has its first colored neighbor
                        front.add(u)
                    have[u] = h | bit
                    touched.append(u)
            if not placing:
                # Check 1: each placed d whose N[d] misses bit needs an
                # uncolored w in N[d] without bit in have[w].
                for d in placed:
                    if not have[d] & bit:
                        for w in closed[d]:
                            if not color[w] and not have[w] & bit:
                                break
                        else:
                            dead = True
                            break
            elif len(placed) < positions:
                # Check 2: each color in use that N[d] misses must be allowed
                # on some uncolored vertex of N[d].
                in_use = (bit << 1) - 1  # colors 1..len(placed)
                for d in placed:
                    need = in_use & ~have[d]
                    if need:
                        for w in closed[d]:
                            if not color[w]:
                                need &= ~allows(w)
                                if not need:
                                    break
                        else:
                            dead = True
                            break
            return touched

        def undo(v, bit, touched):
            nonlocal tight
            for u in touched:
                have[u] ^= bit
                if not have[u]:  # u has no colored neighbor left
                    front.discard(u)
            for d in doms[v]:
                if have[d] & bit:
                    if not slack[d]:
                        tight -= 1
                    slack[d] += 1
            color[v] = 0
            if have[v]:  # v, uncolored again, still has a colored neighbor
                front.add(v)
            if len(stack) < positions:  # v was a dominator
                if not slack[v]:
                    tight -= 1
                placed.pop()
                for u in closed[v]:
                    doms[u].pop()
    else:
        seen = [0] * k
        planes = [0] * k.bit_length()  # a saturation is at most k
        uncolored = (1 << n) - 1

        def assign(v, bit):
            """Apply the assignment; returns gained, the vertices new to seen[c]."""
            nonlocal uncolored
            c = bit.bit_length() - 1
            color[v] = c + 1
            uncolored ^= 1 << v
            carry = gained = adj[v] & ~seen[c]
            seen[c] |= gained
            i = 0
            while carry:
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
                i += 1
            return gained

        def undo(v, bit, gained):
            nonlocal uncolored
            seen[bit.bit_length() - 1] ^= gained
            i = 0
            while gained:
                planes[i] = plane = planes[i] ^ gained
                gained &= plane  # the borrow: a bit set here was 0 before the XOR
                i += 1
            color[v] = 0
            uncolored |= 1 << v

    # The decisions above the current one, each as (v, bit, touched, untried
    # choices, used before it), the first three as assign returned them and
    # undo takes them: the choices are vertex bits for a dominator position,
    # color bits otherwise.
    stack = []
    for i, v in enumerate(clique):
        assign(v, 1 << i)
    used = len(clique)  # the largest color in use
    cand_mask = sum(1 << v for v in candidates)
    last = len(candidates) - k  # position j takes candidates[:last + j + 1]
    while True:
        depth = len(stack)
        if not positions:
            if not uncolored:
                return SearchStatus.FOUND, color, nodes
            top = uncolored
            s = 0
            # No saturation exceeds used, so the planes from used's length up are empty.
            for i in range(used.bit_length() - 1, -1, -1):
                narrowed = top & planes[i]
                if narrowed:
                    top = narrowed
                    s |= 1 << i
            low = top & -top
            v = low.bit_length() - 1
            cap = (1 << (used + 1 if used < k else k)) - 1
            # v sees s colors, all of them in use. When it sees every one,
            # only a fresh color is left, if any, and no bit test is needed,
            # as at every decision of the DSATUR bound on a clique.
            if not s:  # v starts a component that nothing on the stack bears on
                stack.clear()
                choices = 1
            elif s == used:
                choices = cap >> used << used
            else:
                choices = cap
                for c in range(used):
                    if seen[c] & low:
                        choices ^= 1 << c
        elif dead:
            dead = False
            choices = 0
            cuts += 1
            if not cuts & 1023 and time.monotonic() > deadline:
                return SearchStatus.BUDGET_EXCEEDED, None, nodes
        elif depth < positions:
            after = stack[-1][0] + 1 if depth else 0
            choices = cand_mask & -(1 << after) & ((2 << candidates[last + depth]) - 1)
        elif not front:  # a new component, or none left
            if depth == n:
                return SearchStatus.FOUND, color, nodes
            v, choices = color.index(0), full
        else:
            v_key = inf
            for u in front:
                allowed = full & ~have[u]
                du = doms[u]
                # Every placed dominator d keeps slack[d] >= 0: where it is
                # 0, u may take only a color N[d] misses, so an assignment
                # from allowed keeps it (allowed is within full). A placement
                # keeps it too: the dominators' colors are pairwise distinct,
                # so it leaves each earlier dominator's slack as it was, and
                # a candidate y starts with |N[y]| - k >= 0.
                if tight:
                    for d in du:
                        if not slack[d]:
                            allowed &= ~have[d]
                if not allowed:
                    v, choices = u, 0
                    break
                # (allowed colors, -placed dominators) as one integer: each d in du
                # put its own color in have[u], outside allowed, so len(du) < k.
                key = allowed.bit_count() * k - len(du)
                if key <= v_key and (key < v_key or u < v):
                    v, choices, v_key = u, allowed, key
        # When the current decision has no choice left, go back to the
        # nearest decision above it that has one.
        while not choices:
            if not stack:
                return SearchStatus.NOT_EXISTS, None, nodes
            v, bit, touched, choices, used = stack.pop()
            undo(v, bit, touched)
            depth -= 1
        bit = choices & -choices
        choices ^= bit
        if depth >= positions - 1:
            nodes += 1
            if nodes > max_nodes or not nodes & 1023 and time.monotonic() > deadline:
                return SearchStatus.BUDGET_EXCEEDED, None, nodes
        if depth < positions:
            v = bit.bit_length() - 1
            bit = 1 << depth
        touched = assign(v, bit)
        stack.append((v, bit, touched, choices, used))
        if bit >> used:
            used = bit.bit_length()


# ---------------------------------------------------------------------------
# Exact chromatic number

def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique, used only as a lower bound / seed.

    A clique grown from a seed of degree d has at most d + 1 vertices, and
    only a strictly larger clique replaces best, so a seed of degree below
    len(best) is skipped without changing the result.
    """
    best: list[int] = []
    for seed in range(g.n):
        if g.adj[seed].bit_count() < len(best):
            continue
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
    It colors a vertex with a colored neighbor before any without one, so
    it 2-colors every bipartite graph. Each k from the greedy clique's size
    (at least 3) up is then decided by the complete kernel search with the
    clique pre-colored; the cap on fresh colors breaks color symmetry. Both
    searches run on one renumbering of g, by degree, highest first, then by
    index, and the witness is mapped back to g's vertices. It is checked to
    be proper with exactly chi colors before it is returned.
    """
    n = g.n
    if n == 0:
        raise InputError("chromatic number is undefined for the empty graph")
    order = sorted(range(n), key=lambda u: (-g.adj[u].bit_count(), u))
    at = [0] * n  # at[v] is v's number in the renumbering
    for i, v in enumerate(order):
        at[v] = i
    adj = []  # g.adj in the renumbering
    for v in order:
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << at[u]
        adj.append(row)
    _, colors, _ = _backtrack(adj, n, Budget())
    witness = Coloring(max(colors), tuple(colors[i] for i in at))
    clique = greedy_clique(g)
    for k in range(max(len(clique), 3), witness.k):
        _, colors, _ = _backtrack(adj, k, Budget(), [at[v] for v in clique])
        if colors is not None:
            witness = Coloring(k, tuple(colors[i] for i in at))
            break
    if not (is_proper(g, witness) and len(set(witness.colors)) == witness.k):
        raise AssertionError("chromatic witness must be proper with exactly chi colors")
    return witness.k, witness


# ---------------------------------------------------------------------------
# Exhaustive colorful k-coloring search

class SearchResult(_Record):
    __slots__ = ("status", "coloring", "nodes")
    status: SearchStatus
    coloring: Coloring | None
    nodes: int

    def __init__(self, status: SearchStatus, coloring: Coloring | None = None, nodes: int = 0):
        if (status is SearchStatus.FOUND) != (coloring is not None):
            raise InputError("a result carries a coloring exactly when its status is FOUND")
        super().__init__(status, coloring, nodes)

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

    On a disconnected graph the search can go back into components it has
    already finished when a later one fails (ROADMAP item 11). At k = 3,
    the Chvatal graph after one K_{5,5} is NOT_EXISTS in 372,296 nodes, and
    after two it is BUDGET_EXCEEDED under a 5 s budget. Pass a budget on
    such a graph: the default allows 600 s.
    """
    if not isinstance(k, int):
        raise InputError(f"k={k!r} is not an integer")
    if k < 1:
        raise InputError("k must be at least 1")
    n = g.n
    candidates = [v for v in range(n) if g.adj[v].bit_count() >= k - 1]
    if len(candidates) < k:  # every k > n included
        return SearchResult(SearchStatus.NOT_EXISTS)
    if k == 1:
        # A single class: any vertex is b-dominating iff the graph is edgeless.
        if g.edge_count() == 0:
            return SearchResult(SearchStatus.FOUND, Coloring(1, (1,) * n))
        return SearchResult(SearchStatus.NOT_EXISTS)
    budget = budget if budget is not None else DEFAULT_BUDGET
    status, colors, nodes = _backtrack(g.adj, k, budget, candidates=candidates)
    coloring = Coloring(k, tuple(colors)) if colors is not None else None
    if coloring is not None and not is_colorful(g, coloring)[0]:
        raise AssertionError("search returned a non-colorful coloring")
    return SearchResult(status, coloring, nodes)


# ---------------------------------------------------------------------------
# b-spectrum

class BSpectrumReport(_Record):
    """B(G) as computed: a colorful witness per k found, and the k left unknown.

    ``spectrum`` is the set of witnessed k, ``chi`` its least and ``b`` its
    greatest element; ``continuous`` is None while any k up to ``m_bound``
    is unknown, else whether the spectrum has no gaps. Each witness is a
    coloring with its key's k, and no k lies above ``m_bound``. Equality and
    the hash compare the witnessed k, not the colorings.
    """

    __slots__ = ("witnesses", "unknown", "m_bound")
    witnesses: dict[int, Coloring]
    unknown: frozenset[int]
    m_bound: int

    def __init__(self, witnesses, unknown, m_bound):
        witnesses, unknown = dict(witnesses), frozenset(unknown)
        if not witnesses:
            raise InputError("a b-spectrum report needs at least one witness")
        if not unknown.isdisjoint(witnesses):
            raise InputError(f"k in {sorted(unknown & witnesses.keys())} witnessed and unknown")
        for k, c in witnesses.items():
            if c.k != k:
                raise InputError(f"the witness for k={k} is a {c.k}-coloring")
        above = sorted(k for k in unknown | witnesses.keys() if k > m_bound)
        if above:
            raise InputError(f"k in {above} above m_bound={m_bound}")
        super().__init__(witnesses, unknown, m_bound)

    @property
    def spectrum(self) -> frozenset[int]:
        return frozenset(self.witnesses)

    @property
    def chi(self) -> int:
        return min(self.witnesses)

    @property
    def b(self) -> int:
        return max(self.witnesses)

    @property
    def continuous(self) -> bool | None:
        return None if self.unknown else len(self.witnesses) == self.b - self.chi + 1

    def _key(self):
        return (self.spectrum, self.unknown, self.m_bound)


def b_spectrum(g: Graph, budget: Budget | None = None) -> BSpectrumReport:
    """Compute B(G) exhaustively for k up to the m-degree bound.

    k = chi(G) is settled by the chromatic witness (every minimum proper
    coloring is colorful); each k above it gets its own budgeted search.
    """
    if g.n == 0:
        raise InputError("b-spectrum is undefined for the empty graph")
    chi, chi_witness = chromatic_number(g)
    if not is_colorful(g, chi_witness)[0]:
        raise AssertionError("chromatic witness must be colorful")
    bound = m_degree_bound(g)
    witnesses = {chi: chi_witness}
    unknown = set()
    for k in range(chi + 1, bound + 1):
        result = find_colorful_coloring(g, k, budget)
        if result.found:
            witnesses[k] = result.coloring
        elif result.status is SearchStatus.BUDGET_EXCEEDED:
            unknown.add(k)
    return BSpectrumReport(witnesses, unknown, bound)


# ---------------------------------------------------------------------------
# Coloring files: header "k <int>", then one line per vertex
# "<vertex-label-or-index> <color>". A token that is a label names that
# label's vertex; any other token is read as an index.

def write_coloring(c: Coloring, path, g: Graph) -> None:
    _require_total(g, c)
    _write_vertex_records(path, f"k {c.k}", g, c.colors)


def read_coloring(path, g: Graph) -> Coloring:
    records = _read_fields(path)
    lineno, (_, k) = _read_header(path, records, "k <int>")
    try:
        k = int(k)
    except ValueError:
        raise FileFormatError(path, lineno, "non-integer color count")
    if k < 0:
        raise FileFormatError(path, lineno, "negative color count")
    if k > MAX_VERTICES:
        raise FileFormatError(path, lineno, f"{k} colors exceed the limit {MAX_VERTICES}")

    def color(token, lineno):
        try:
            col = int(token)
        except ValueError:
            raise FileFormatError(path, lineno, f"non-integer color {token!r}")
        if not 1 <= col <= k:
            raise FileFormatError(path, lineno, f"color {col} outside 1..{k}")
        return col

    return Coloring(k, tuple(_read_vertex_records(path, records, g, "<vertex> <color>", color)))
