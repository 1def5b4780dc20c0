"""Brute-force reference implementations used as independent oracles.

Everything here works by direct enumeration over definitions (assignments,
partitions, simple paths) and deliberately shares no algorithmic code with
the package's search kernels.
"""

from itertools import combinations, product

from bcoloring.graphs import Graph, graph_from_edges


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def naive_is_proper(g, colors):
    return all(colors[u] != colors[v] for u, v in g.edges())


def naive_is_colorful(g, colors, k):
    """Definition-direct check: proper, classes 1..k nonempty, each class
    contains a vertex whose closed neighborhood carries every color."""
    if len(colors) != g.n or not naive_is_proper(g, colors):
        return False
    full = set(range(1, k + 1))
    if set(colors) != full:
        return False
    dominated = set()
    for v in range(g.n):
        seen = {colors[v]} | {colors[u] for u in g.neighbors(v)}
        if seen == full:
            dominated.add(colors[v])
    return dominated == full


def naive_colorful_exists(g, k):
    """Enumerate all k**n assignments; True iff any is colorful."""
    if g.n == 0 or k > g.n:
        return False
    for assign in product(range(1, k + 1), repeat=g.n):
        if naive_is_colorful(g, assign, k):
            return True
    return False


def naive_chromatic(g):
    """Least k admitting a proper assignment, by raw enumeration (small n only)."""
    assert g.n >= 1
    for k in range(1, g.n + 1):
        for assign in product(range(1, k + 1), repeat=g.n):
            if naive_is_proper(g, assign):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def naive_m_degree_bound(g):
    best = 0
    degrees = [g.degree(v) for v in range(g.n)]
    for d in range(1, g.n + 1):
        if sum(1 for deg in degrees if deg >= d - 1) >= d:
            best = d
    return best


def enumerate_cycle_lengths(g, max_len=None):
    """Lengths of all simple cycles, via DFS over paths anchored at their
    minimum vertex. max_len prunes longer paths (girth use)."""
    lengths = set()
    limit = max_len if max_len is not None else g.n

    def extend(start, path, used):
        if len(path) > limit:
            return
        tip = path[-1]
        for nxt in g.neighbors(tip):
            if nxt == start and len(path) >= 3:
                lengths.add(len(path))
            elif nxt > start and nxt not in used and len(path) < limit:
                used.add(nxt)
                path.append(nxt)
                extend(start, path, used)
                path.pop()
                used.remove(nxt)

    for start in range(g.n):
        extend(start, [start], {start})
    return lengths


def naive_girth(g):
    """Shortest cycle length by explicit cycle enumeration, inf for forests."""
    best = float("inf")
    for length in range(3, g.n + 1):
        if length >= best:
            break
        if length in enumerate_cycle_lengths(g, max_len=length):
            best = length
    return best


def naive_components(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(g.n)})


def naive_is_forest(g):
    return g.edge_count() <= g.n - naive_components(g)


def naive_bipartite(g):
    """2^n partition check: some side assignment leaves no monochromatic edge."""
    edges = g.edges()
    for sides in product((0, 1), repeat=g.n):
        if all(sides[u] != sides[v] for u, v in edges):
            return True
    return False


def naive_has_odd_cycle(g):
    return any(length % 2 == 1 for length in enumerate_cycle_lengths(g))


def naive_is_sls(source, target, mapping):
    """Definition of semi-local surjectivity, quantifier by quantifier."""
    for u, v in source.edges():
        fu, fv = mapping[u], mapping[v]
        if fu == fv or not target.has_edge(fu, fv):
            return False
    preimage = {u: [v for v in range(source.n) if mapping[v] == u] for u in range(target.n)}
    if any(not preimage[u] for u in range(target.n)):
        return False
    for u in range(target.n):
        if not any(
            all(
                any(source.has_edge(a, b) for b in preimage[v])
                for v in target.neighbors(u)
            )
            for a in preimage[u]
        ):
            return False
    return True


def naive_sls_witness_exists(source, target, mapping, u):
    """Does target vertex u admit a valid preimage witness? (for No verdicts)."""
    preimage = {w: [v for v in range(source.n) if mapping[v] == w] for w in range(target.n)}
    return any(
        all(
            any(source.has_edge(a, b) for b in preimage[v])
            for v in target.neighbors(u)
        )
        for a in preimage[u]
    )


def assert_passes_constructor_checks(g):
    """g, built without checks, holds tuples and is what the checking Graph(...) builds from it."""
    assert isinstance(g.adj, tuple) and (g.labels is None or isinstance(g.labels, tuple))
    checked = Graph(g.n, g.adj, g.labels)
    assert checked == g and checked.labels == g.labels


def petersen_from_scratch():
    """Petersen built directly from disjoint 2-subsets of {1..5}, independent
    of the package's Kneser generator."""
    pairs = list(combinations(range(1, 6), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    return Graph(len(pairs), _adj_from_edges(len(pairs), edges)), pairs


def _adj_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj
