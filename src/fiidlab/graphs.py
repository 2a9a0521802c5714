"""Finite simple graphs: construction, structural invariants, generators,
forest 2-colorings, and exact small-graph independence/chromatic numbers.

Vertices are the integers 0..n-1.  Graphs are immutable after construction
and safe to share between threads.  The girth of a forest is ``math.inf``,
never a sentinel integer, so comparisons against cycle-length thresholds
behave correctly.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import read_lines, shuffle, write_lines

INFINITE = math.inf

EXACT_INVARIANT_MAX_N = 40


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class LoopEdge(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class VertexOutOfRange(GraphError):
    pass


class ParityError(GraphError):
    pass


class RetryBudgetExceeded(GraphError):
    pass


class UnknownName(GraphError):
    pass


class TooLarge(GraphError):
    pass


class InducedCycle(GraphError):
    """Raised when a supposedly acyclic induced subgraph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"induced subgraph contains a cycle: {self.cycle}")


@dataclass(frozen=True)
class FiniteGraph:
    """Simple undirected graph with sorted per-vertex neighbor tuples."""

    n: int
    adjacency: tuple
    m: int

    def degree(self, v):
        return len(self.adjacency[v])

    def max_degree(self):
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self):
        """Yield edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            for w in self.adjacency[u]:
                if w > u:
                    yield (u, w)

    @cached_property
    def edge_set(self):
        # both orientations, so has_edge is a single set lookup
        return frozenset(
            (u, w) for u in range(self.n) for w in self.adjacency[u]
        )

    def has_edge(self, u, v):
        return (u, v) in self.edge_set

    @cached_property
    def _profile(self):
        # profile(self), computed once per graph
        return _compute_profile(self)


def build_graph(n, edges):
    """Build a FiniteGraph from an edge list; duplicates and loops are errors.

    Each edge {u, v} is checked by the one int key u * n + v with u < v.
    The neighbor tuples hold one shared int object per vertex, not the
    edge list's own ints, which a parsed file makes afresh per endpoint."""
    if n < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    vertex = list(range(n))
    adj = [[] for _ in vertex]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdge(f"edge {(u, v) if u < v else (v, u)} given twice")
        seen.add(key)
        adj[u].append(vertex[v])
        adj[v].append(vertex[u])
    return FiniteGraph(
        n=n,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        m=len(seen),
    )


# ---------------------------------------------------------------------------
# text format: line 1 "n m", then m lines "u v", sorted lexicographically.
# A file is written from the line generator that graph_to_text joins, and
# read line by line by the parser that graph_from_text runs on its text.


def _graph_lines(G):
    yield f"{G.n} {G.m}\n"
    for u, w in G.edges():
        yield f"{u} {w}\n"


def graph_to_text(G):
    return "".join(_graph_lines(G))


def _graph_from_lines(lines):
    """The graph of a file's lines, blank lines skipped; ValueError naming
    the line on a bad header or edge line, and, once every line is read, on
    an edge count other than the header's."""
    numbered = enumerate(lines, 1)
    for i, ln in numbered:
        head = ln.split()
        if head:
            break
    else:
        raise ValueError("empty graph file")
    try:
        n, m = map(int, head)
    except ValueError:
        raise ValueError(f"line {i}: bad header {ln!r}, expected 'n m'") from None

    def edges():
        for i, ln in numbered:
            fields = ln.split()
            if fields:
                try:
                    u, v = fields
                    u, v = int(u), int(v)
                except ValueError:
                    raise ValueError(f"line {i}: bad edge line {ln!r}, expected 'u v'") from None
                yield u, v

    G = build_graph(n, edges())
    if G.m != m:
        raise ValueError(f"header says m={m} but {G.m} edge lines found")
    return G


def graph_from_text(text):
    return _graph_from_lines(text.splitlines())


def write_graph(G, path):
    with open(path, "w", encoding="ascii") as fh:
        write_lines(fh, _graph_lines(G))


def read_graph(path):
    with open(path, "r", encoding="ascii") as fh:
        return _graph_from_lines(read_lines(fh))


# ---------------------------------------------------------------------------
# named graphs (canonical numberings documented in README)


def _complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _cycle(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def _petersen():
    # 0..4 outer cycle, 5..9 inner 5-cycle with step 2, spokes i -- i+5
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


def _lcf(rotor, repeats):
    # Hamiltonian cycle 0..n-1 plus chords i -- i + rotor[i mod len(rotor)]
    n = len(rotor) * repeats
    pairs = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        j = (i + rotor[i % len(rotor)]) % n
        pairs.add((i, j) if i < j else (j, i))
    return build_graph(n, sorted(pairs))


_NAMED = {
    "K2": lambda: _complete(2),
    "K3": lambda: _complete(3),
    "K4": lambda: _complete(4),
    "C5": lambda: _cycle(5),
    "Petersen": _petersen,
    "Heawood": lambda: _lcf([5, -5], 7),
    "McGee": lambda: _lcf([12, 7, -7], 8),
}


def named_graph(name):
    """Return a standard graph by name with its fixed, documented numbering."""
    for key, builder in _NAMED.items():
        if key.lower() == str(name).lower():
            return builder()
    raise UnknownName(f"unknown graph name {name!r}, expected one of {sorted(_NAMED)}")


# ---------------------------------------------------------------------------
# structural profile


@dataclass(frozen=True)
class GraphProfile:
    girth: float
    regular_degree: int | None
    bipartite: bool
    connected: bool


def _two_color_components(G):
    """BFS 2-coloring attempt. Returns (bipartite, component_count)."""
    n = G.n
    color = [-1] * n
    bipartite = True
    components = 0
    for root in range(n):
        if color[root] != -1:
            continue
        components += 1
        color[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            for w in G.adjacency[x]:
                if color[w] == -1:
                    color[w] = color[x] ^ 1
                    q.append(w)
                elif color[w] == color[x]:
                    bipartite = False
    return bipartite, components


def girth(G):
    """Exact girth via per-root truncated BFS; ``INFINITE`` for forests."""
    return _girth(G, _two_color_components(G)[1])


def _girth(G, components):
    """girth(G), given the number of connected components of G."""
    n = G.n
    # a forest has n - components edges
    if G.m == n - components:
        return INFINITE
    best = n + 1
    dist = [0] * n
    par = [-1] * n
    seen = [0] * n
    stamp = 0
    adj = G.adjacency
    root = 0
    while root < n and best > 4:
        stamp += 1
        seen[root] = stamp
        dist[root] = 0
        par[root] = -1
        q = deque([root])
        while q:
            x = q.popleft()
            dx = dist[x]
            # any further candidate from depth dx has length >= 2*dx
            if 2 * dx >= best:
                break
            for w in adj[x]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    dist[w] = dx + 1
                    par[w] = x
                    q.append(w)
                elif w != par[x]:
                    c = dx + dist[w] + 1
                    if c < best:
                        best = c
        root += 1
    if best == 4:
        # only a triangle could lower it, and the search from each earlier
        # root found every triangle through that root; look for x < w < y
        for x in range(root, n):
            near = adj[x]
            for w in near:
                if w > x:
                    for y in adj[w]:
                        if y > w and y in near:
                            return 3
    return best


def girth_by_enumeration(G, max_len=None):
    """Brute-force girth oracle: search for a simple cycle of each exact
    length starting from 3.  Independent of the BFS route; intended for
    cross-checks on small graphs."""
    n = G.n
    limit = min(max_len if max_len is not None else n, n)
    adj = G.adjacency
    for target in range(3, limit + 1):
        for s in range(n):
            on_path = {s}

            def dfs(v, depth):
                if depth == target:
                    return s in adj[v]
                for w in adj[v]:
                    if w > s and w not in on_path:
                        on_path.add(w)
                        if dfs(w, depth + 1):
                            return True
                        on_path.remove(w)
                return False

            if dfs(s, 1):
                return target
    return INFINITE


def regular_degree(G):
    """The common degree of G's vertices, or None if they differ (or G is empty)."""
    degs = {len(a) for a in G.adjacency}
    return degs.pop() if len(degs) == 1 else None


def profile(G):
    """Girth, regularity, bipartiteness, and connectivity of G, computed on
    the first call for G and kept with it."""
    return G._profile


def _compute_profile(G):
    bipartite, components = _two_color_components(G)
    return GraphProfile(
        girth=_girth(G, components),
        regular_degree=regular_degree(G),
        bipartite=bipartite,
        connected=components <= 1,
    )


# ---------------------------------------------------------------------------
# random regular graphs (configuration model, whole-graph rejection)


_PAIRING_ATTEMPTS = 2000


def _is_simple_pairing(n, stubs):
    """Whether pairing stubs[0] with stubs[1], stubs[2] with stubs[3], ...
    makes no loop and no repeated edge, by build_graph's int edge keys."""
    seen = set()
    it = iter(stubs)
    for u, v in zip(it, it):
        if u < v:
            key = u * n + v
        elif v < u:
            key = v * n + u
        else:
            return False
        if key in seen:
            return False
        seen.add(key)
    return True


def random_regular(n, d, rng_seed):
    """Uniform-ish simple d-regular graph via stub pairing with rejection.

    The whole pairing is resampled whenever a loop or repeated edge shows
    up, so the result is always simple.  Deterministic per rng_seed.
    """
    if d < 0 or d >= n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParityError(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    rng = random.Random(rng_seed)
    stubs_master = [v for v in range(n) for _ in range(d)]
    for _ in range(_PAIRING_ATTEMPTS):
        stubs = stubs_master[:]
        shuffle(rng, stubs)
        if _is_simple_pairing(n, stubs):
            # the neighbor lists hold the pairing's own ints, one per vertex
            adj = [[] for _ in range(n)]
            it = iter(stubs)
            for u, v in zip(it, it):
                adj[u].append(v)
                adj[v].append(u)
            adjacency = tuple(tuple(sorted(a)) for a in adj)
            return FiniteGraph(n=n, adjacency=adjacency, m=len(stubs) // 2)
    raise RetryBudgetExceeded(
        f"no simple pairing found in {_PAIRING_ATTEMPTS} attempts (n={n}, d={d})"
    )


# ---------------------------------------------------------------------------
# 2-coloring of acyclic induced subgraphs


def induced_two_coloring(G, S):
    """Proper 2-coloring {A, B} of G[S] when acyclic, else InducedCycle.

    Each component is BFS-alternated from its smallest vertex, which is
    colored "A"; the output is therefore deterministic.
    """
    members = sorted(set(S))
    for v in members:
        if not (0 <= v < G.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{G.n - 1}")
    in_S = set(members)
    colors = {}
    parent = {}
    for root in members:
        if root in colors:
            continue
        colors[root] = "A"
        parent[root] = -1
        q = deque([root])
        while q:
            x = q.popleft()
            nxt = "B" if colors[x] == "A" else "A"
            for w in G.adjacency[x]:
                if w not in in_S:
                    continue
                if w not in colors:
                    colors[w] = nxt
                    parent[w] = x
                    q.append(w)
                elif w != parent[x]:
                    raise InducedCycle(_witness_cycle(parent, x, w))
    return colors


def _witness_cycle(parent, x, y):
    """Cycle through the non-tree edge (x, y) using BFS parent pointers."""
    ax = [x]
    while parent[ax[-1]] != -1:
        ax.append(parent[ax[-1]])
    ay = [y]
    while parent[ay[-1]] != -1:
        ay.append(parent[ay[-1]])
    common = set(ax) & set(ay)
    ix = next(i for i, v in enumerate(ax) if v in common)
    iy = next(i for i, v in enumerate(ay) if v in common)
    # x .. lca .. y, closed by the edge y--x
    return ax[: ix + 1] + ay[:iy][::-1]


# ---------------------------------------------------------------------------
# exact independence and chromatic numbers (n <= 40)


def independence_number(G):
    """Exact maximum independent set size by branch and bound on bitmasks."""
    n = G.n
    if n > EXACT_INVARIANT_MAX_N:
        raise TooLarge(f"exact search capped at n={EXACT_INVARIANT_MAX_N}, got {n}")
    if n == 0:
        return 0
    nbr = [0] * n
    for v in range(n):
        for w in G.adjacency[v]:
            nbr[v] |= 1 << w

    # greedy warm start: repeatedly take a minimum-degree vertex
    avail = (1 << n) - 1
    best = 0
    while avail:
        v = min(
            (u for u in range(n) if avail >> u & 1),
            key=lambda u: (nbr[u] & avail).bit_count(),
        )
        best += 1
        avail &= ~(nbr[v] | (1 << v))

    def sparse_value(P):
        # exact value when every vertex has at most 2 neighbors inside P:
        # components are paths (ceil(k/2)) or cycles (floor(k/2))
        total = 0
        rest = P
        while rest:
            root = (rest & -rest).bit_length() - 1
            comp = 1 << root
            frontier = [root]
            k, e2 = 0, 0
            while frontier:
                x = frontier.pop()
                k += 1
                inside = nbr[x] & P
                e2 += inside.bit_count()
                new = inside & ~comp
                while new:
                    w = (new & -new).bit_length() - 1
                    comp |= 1 << w
                    new &= new - 1
                    frontier.append(w)
            total += k // 2 if e2 // 2 == k else (k + 1) // 2
            rest &= ~comp
        return total

    def expand(P, size):
        nonlocal best
        if size + P.bit_count() <= best:
            return
        # pivot on maximum internal degree; if that is <= 2 close exactly
        pivot, pdeg = -1, -1
        scan = P
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            dv = (nbr[v] & P).bit_count()
            if dv > pdeg:
                pivot, pdeg = v, dv
        if pdeg <= 2:
            val = size + sparse_value(P)
            if val > best:
                best = val
            return
        expand(P & ~(nbr[pivot] | (1 << pivot)), size + 1)
        expand(P & ~(1 << pivot), size)

    expand((1 << n) - 1, 0)
    return best


def _k_colorable(G, k):
    n = G.n
    color = [-1] * n

    def pick():
        # most saturated vertex, ties by degree then index
        chosen, key = -1, None
        for v in range(n):
            if color[v] != -1:
                continue
            sat = len({color[w] for w in G.adjacency[v] if color[w] != -1})
            cand = (-sat, -len(G.adjacency[v]), v)
            if key is None or cand < key:
                chosen, key = v, cand
        return chosen

    def rec(assigned, max_used):
        if assigned == n:
            return True
        v = pick()
        banned = {color[w] for w in G.adjacency[v] if color[w] != -1}
        for c in range(min(k, max_used + 2)):
            if c in banned:
                continue
            color[v] = c
            if rec(assigned + 1, max(max_used, c)):
                return True
            color[v] = -1
        return False

    return rec(0, -1)


def _blocks(G):
    """The vertex lists of G's biconnected blocks, each in increasing order,
    by one iterative Hopcroft-Tarjan depth-first pass: a bridge is a block
    of its own, a cut vertex lies in each of its blocks, an isolated vertex
    in none.  The edge from a vertex back to its parent counts as a back
    edge too, which leaves the block test low[v] >= disc[u] unchanged."""
    adj = G.adjacency
    disc = [0] * G.n  # discovery time from 1; 0 while unvisited
    low = [0] * G.n
    clock = 0
    parts = []
    for root in range(G.n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        path = [(root, iter(adj[root]), 0)]  # (vertex, unread neighbors, place in found)
        found = [root]  # visited vertices not yet closed into a block
        while path:
            v, nbrs, place = path[-1]
            for w in nbrs:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    path.append((w, iter(adj[w]), len(found)))
                    found.append(w)
                    break
                low[v] = min(low[v], disc[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # u separates v's subtree: close the block under u
                        parts.append(sorted(found[place:] + [u]))
                        del found[place:]
    return parts


def _induced(G, part):
    """G's subgraph on the increasing vertex list part, renumbered in order:
    on a block's vertices, the block, as two blocks share at most one vertex."""
    index = {v: i for i, v in enumerate(part)}
    adjacency = tuple(tuple(index[w] for w in G.adjacency[v] if w in index) for v in part)
    return FiniteGraph(n=len(part), adjacency=adjacency, m=sum(map(len, adjacency)) // 2)


def chromatic_number(G):
    """Exact chromatic number: the largest over the biconnected blocks.

    Two blocks share at most one vertex, where their colorings can be made
    to agree by renaming colors, and the block-cut graph of each component
    is a tree, so coloring its blocks outward from any one glues their
    colorings into a coloring of G.  A bipartite block needs 2 colors; any
    other block, the least k >= 3 that the k-colorability search accepts.
    An edgeless graph gives 1, the empty graph 0."""
    if G.n > EXACT_INVARIANT_MAX_N:
        raise TooLarge(f"exact search capped at n={EXACT_INVARIANT_MAX_N}, got {G.n}")
    chi = min(G.n, 1)
    for part in _blocks(G):
        B = _induced(G, part)
        if _two_color_components(B)[0]:
            k = 2
        else:
            k = 3
            while not _k_colorable(B, k):
                k += 1
        chi = max(chi, k)
    return chi


def exact_invariants(G):
    """Exact (independence_number, chromatic_number); TooLarge beyond n=40."""
    return independence_number(G), chromatic_number(G)
