import hashlib
import random
import time
from itertools import combinations

import pytest

from fiidlab import graphs
from fiidlab.graphs import INFINITE


def brute_alpha(G):
    """Exhaustive maximum independent set for tiny graphs."""
    best = 0
    for size in range(G.n, -1, -1):
        if size <= best:
            break
        for sub in combinations(range(G.n), size):
            if all(not G.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def brute_chi(G):
    """Exhaustive chromatic number for tiny graphs."""
    if G.n == 0:
        return 0
    if G.m == 0:
        return 1
    for k in range(1, G.n + 1):
        colors = [0] * G.n

        def rec(v):
            if v == G.n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in G.adjacency[v] if w < v):
                    colors[v] = c
                    if rec(v + 1):
                        return True
            return False

        if rec(0):
            return k
    return G.n


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graphs.build_graph(n, edges)


def random_triangle_free_graph(n, p, seed):
    """Random edges, each kept unless it closes a triangle."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p and not adj[u] & adj[v]:
                adj[u].add(v)
                adj[v].add(u)
    return graphs.build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


class TestBuildGraph:
    def test_k2(self):
        G = graphs.build_graph(2, [(0, 1)])
        assert G.n == 2 and G.m == 1 and G.has_edge(0, 1)

    def test_c5(self):
        G = graphs.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert G.m == 5
        assert all(G.degree(v) == 2 for v in range(5))

    def test_loop_rejected(self):
        with pytest.raises(graphs.LoopEdge):
            graphs.build_graph(3, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(graphs.DuplicateEdge):
            graphs.build_graph(3, [(0, 1), (1, 0)])

    def test_first_repeated_edge_in_input_order_is_named(self):
        edges = [(0, 1), (4, 2), (3, 1), (2, 4), (1, 0), (1, 3)]
        with pytest.raises(graphs.DuplicateEdge, match=r"^edge \(2, 4\) given twice$"):
            graphs.build_graph(5, edges)
        with pytest.raises(graphs.DuplicateEdge, match=r"^edge \(0, 1\) given twice$"):
            graphs.build_graph(5, [(1, 0), (0, 2), (0, 1)])

    def test_out_of_range(self):
        with pytest.raises(graphs.VertexOutOfRange):
            graphs.build_graph(2, [(0, 2)])

    def test_adjacency_sorted_symmetric(self):
        G = graphs.build_graph(4, [(2, 0), (3, 0), (1, 3)])
        assert G.adjacency[0] == (2, 3)
        for u in range(4):
            for w in G.adjacency[u]:
                assert u in G.adjacency[w]


class TestProfile:
    def test_c5(self):
        p = graphs.profile(graphs.named_graph("C5"))
        assert p.girth == 5 and p.regular_degree == 2 and not p.bipartite

    def test_path(self):
        P4 = graphs.build_graph(4, [(0, 1), (1, 2), (2, 3)])
        p = graphs.profile(P4)
        assert p.girth == INFINITE and p.bipartite and p.connected

    def test_heawood_brute_force_confirms(self):
        H = graphs.named_graph("Heawood")
        p = graphs.profile(H)
        assert p.girth == 6 and p.regular_degree == 3
        assert graphs.girth_by_enumeration(H, max_len=7) == 6

    def test_girth_matches_enumeration_on_random_corpus(self):
        for seed in range(30):
            G = random_graph(seed % 6 + 7, 0.25, seed)
            assert graphs.girth(G) == graphs.girth_by_enumeration(G)

    def test_profile_girth_matches_enumeration(self):
        # sparse graphs give forests and disconnected graphs, where the
        # component count decides INFINITE; plus the graphs with no vertex
        # or no edge
        corpus = [random_graph(8, p, 2000 + seed) for seed in range(30) for p in (0.1, 0.3)]
        corpus += [graphs.build_graph(0, []), graphs.build_graph(3, [])]
        # the first triangle at a late root, after longer cycles: a 6-cycle
        # with a path to a triangle on the last vertices, and a k-cycle
        # component before a triangle component
        corpus.append(graphs.build_graph(
            10, [(i, (i + 1) % 6) for i in range(6)] + [(5, 6), (6, 7), (7, 8), (8, 9), (7, 9)]
        ))
        corpus += [
            graphs.build_graph(
                k + 3,
                [(i, (i + 1) % k) for i in range(k)] + [(k, k + 1), (k + 1, k + 2), (k, k + 2)],
            )
            for k in (4, 5, 9)
        ]
        # triangle-free graphs, where the search stops looking beyond triangles
        # once it has a 4-cycle
        corpus += [random_triangle_free_graph(10, p, 3000 + seed)
                   for seed in range(20) for p in (0.3, 0.6)]
        corpus += [graphs.random_regular(12, 3, seed) for seed in range(20)]
        corpus += [graphs.named_graph(name) for name in ("Petersen", "Heawood")]
        for G in corpus:
            assert graphs.profile(G).girth == graphs.girth_by_enumeration(G) == graphs.girth(G)
        assert {graphs.girth(G) for G in corpus} >= {3, 4, 5, 6, INFINITE}

    def test_triangle_after_a_four_cycle(self):
        # the 4-cycle 0-1-2-3 is found from root 0; the only triangle, 4-5-6
        # (or 5-6-7 in another component), lies at later roots
        joined = graphs.build_graph(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (4, 6)]
        )
        apart = graphs.build_graph(
            8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (5, 6), (6, 7), (5, 7)]
        )
        for G in (joined, apart):
            assert graphs.girth(G) == graphs.girth_by_enumeration(G) == 3

    def test_bipartite_implies_even_or_infinite_girth(self):
        for seed in range(40):
            G = random_graph(8, 0.3, 1000 + seed)
            p = graphs.profile(G)
            if p.bipartite:
                assert p.girth == INFINITE or p.girth % 2 == 0


class TestNamedGraphs:
    def test_c5(self):
        G = graphs.named_graph("C5")
        assert G.n == 5 and graphs.girth(G) == 5

    def test_petersen(self):
        G = graphs.named_graph("Petersen")
        p = graphs.profile(G)
        assert G.n == 10 and p.regular_degree == 3 and p.girth == 5
        assert graphs.girth_by_enumeration(G, max_len=6) == 5

    def test_mcgee(self):
        G = graphs.named_graph("McGee")
        p = graphs.profile(G)
        assert G.n == 24 and p.regular_degree == 3 and p.girth == 7
        assert graphs.girth_by_enumeration(G, max_len=8) == 7

    def test_unknown(self):
        with pytest.raises(graphs.UnknownName):
            graphs.named_graph("Kneser")

    def test_case_insensitive(self):
        assert graphs.named_graph("petersen").n == 10


def on_short_cycle(G, v, L):
    """Exact test for a cycle of length <= L through v, by path DFS."""
    adj = G.adjacency
    on_path = {v}

    def dfs(x, edges):
        if edges >= 2 and v in adj[x]:
            return True
        if edges == L - 1:
            return False
        for w in adj[x]:
            if w not in on_path:
                on_path.add(w)
                if dfs(w, edges + 1):
                    return True
                on_path.remove(w)
        return False

    return dfs(v, 0)


class TestRandomRegular:
    def test_shape(self):
        G = graphs.random_regular(100, 3, 7)
        assert G.m == 150
        assert all(G.degree(v) == 3 for v in range(100))

    def test_parity(self):
        with pytest.raises(graphs.ParityError):
            graphs.random_regular(5, 3, 1)

    def test_deterministic(self):
        a = graphs.random_regular(60, 3, 42)
        b = graphs.random_regular(60, 3, 42)
        assert a == b
        c = graphs.random_regular(60, 3, 43)
        assert a != c

    # sha256 of graph_to_text(random_regular(n, d, seed)), recorded before
    # the pairing check moved to int edge keys.  The two n = 20,000 seeds are
    # the graph seeds of perfbench input sets 2 and 6, whose pairings are
    # rejected 8 and 16 times; (16, 5, 9) is rejected 905 times.
    @pytest.mark.parametrize(
        "n,d,seed,digest",
        [
            (2, 1, 1, "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),
            (40, 1, 7, "61bc2f06f93e9524b7b601bc846f9310d829579b14ca6675e46f4a307d1c6006"),
            (30, 2, 3, "f8a45d064deb947b76f3b2c24cfa3f00f27a98ee352bba9fbc3485533a19833b"),
            (100, 3, 11, "5d6200d7a5da9ff5f706e28c2fb0736d4cdd61151b85b5e7278b905920748aa4"),
            (12, 3, 4, "8bdc8c3f87e057017afc43ff0daf2d55fce11a8e76c5fab4214876d235990214"),
            (200, 4, 5, "7aadae30ea732cec1b8d6487118d6ee96b75c163652d9b4c359eeda99d602497"),
            (16, 5, 9, "1bf2af476e7921bd913594acf6ed78003e53d67ee77907ddcc6d0861e399f3ea"),
            (60, 5, 2, "2c1f1a45f4b6a662c4a2676ba9703f8f6e3acda36ca7f48d6dd3214003673fdc"),
            (20000, 3, 3269620855369178004,
             "5236233612c9a1ded0246f3f9dba7f9820f427a30b0dd4fdc1ea72fa27c825f3"),
            (20000, 3, 7880142738076929814,
             "585fec0d7c5daeab27ae6bb858910cf80a8bde1fb5bb9b98637d138bff14ef3d"),
        ],
    )
    def test_seeded_graphs_are_pinned(self, n, d, seed, digest):
        text = graphs.graph_to_text(graphs.random_regular(n, d, seed))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_short_cycle_fraction_small(self):
        # vertices on a cycle of length <= 6 are rare at n = 10^4
        for seed in (1, 2, 3):
            G = graphs.random_regular(10_000, 3, seed)
            hits = sum(1 for v in range(G.n) if on_short_cycle(G, v, 6))
            assert hits / G.n < 0.02


class TestInducedTwoColoring:
    def test_path_in_c5(self):
        col = graphs.induced_two_coloring(graphs.named_graph("C5"), {0, 1, 2})
        assert col == {0: "A", 1: "B", 2: "A"}

    def test_whole_cycle_fails(self):
        with pytest.raises(graphs.InducedCycle) as exc:
            graphs.induced_two_coloring(graphs.named_graph("C5"), range(5))
        cycle = exc.value.cycle
        assert len(cycle) == 5 and set(cycle) == set(range(5))

    def test_all_small_subsets_of_petersen(self):
        # any 4 vertices sit below the girth, so the induced graph is a forest
        G = graphs.named_graph("Petersen")
        for sub in combinations(range(10), 4):
            col = graphs.induced_two_coloring(G, sub)
            assert set(col) == set(sub)
            for u, v in combinations(sub, 2):
                if G.has_edge(u, v):
                    assert col[u] != col[v]

    def test_below_girth_subsets_acyclic(self):
        for seed in range(10):
            G = random_graph(9, 0.3, 77 + seed)
            g = graphs.girth(G)
            if g == INFINITE or g > 6:
                continue
            for sub in combinations(range(G.n), int(g) - 1):
                graphs.induced_two_coloring(G, sub)  # must not raise


class TestExactInvariants:
    def test_c5(self):
        assert graphs.exact_invariants(graphs.named_graph("C5")) == (2, 3)

    def test_k4(self):
        assert graphs.exact_invariants(graphs.named_graph("K4")) == (1, 4)

    def test_petersen(self):
        G = graphs.named_graph("Petersen")
        assert graphs.exact_invariants(G) == (4, 3)
        assert brute_alpha(G) == 4

    def test_empty_graph(self):
        assert graphs.exact_invariants(graphs.build_graph(0, [])) == (0, 0)

    def test_too_large(self):
        G = graphs.build_graph(41, [])
        with pytest.raises(graphs.TooLarge):
            graphs.exact_invariants(G)

    def test_search_improves_on_the_greedy_start(self):
        # repeated minimum-degree picks find an independent set of 3 here;
        # only the branch and bound finds one of 4
        edges = [(0, 3), (0, 4), (0, 7), (0, 8), (1, 4), (1, 6), (2, 5), (2, 7),
                 (3, 4), (3, 8), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7)]
        G = graphs.build_graph(9, edges)
        assert graphs.independence_number(G) == brute_alpha(G) == 4

    def test_against_brute_force(self):
        for seed in range(12):
            G = random_graph(9, 0.35, 500 + seed)
            alpha, chi = graphs.exact_invariants(G)
            assert alpha == brute_alpha(G)
            assert chi == brute_chi(G)
            assert chi * alpha >= G.n  # chi >= n / alpha


def disjoint_union(*parts):
    """One graph of the given graphs side by side, vertices renumbered in order."""
    edges, offset = [], 0
    for G in parts:
        edges += [(u + offset, v + offset) for u, v in G.edges()]
        offset += G.n
    return graphs.build_graph(offset, edges)


def complete_bipartite(a, b):
    return graphs.build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grotzsch():
    """The Mycielskian of C5: 11 vertices, triangle-free, chromatic number 4."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(u, 5 + v) for a, b in rim for u, v in ((a, b), (b, a))]
    return graphs.build_graph(11, rim + shadows + [(5 + i, 10) for i in range(5)])


class TestComponents:
    def test_union_of_bicliques_and_grotzsch(self):
        # a search across the components backtracks over the colorings of
        # the bicliques; each component alone answers at once
        G = disjoint_union(complete_bipartite(6, 6), complete_bipartite(6, 6), grotzsch())
        assert G.n == 35
        start = time.perf_counter()
        assert graphs.chromatic_number(G) == 4
        assert time.perf_counter() - start < 1.0

    def test_unions_of_random_graphs_against_brute_force(self):
        rng = random.Random(17)
        for seed in range(12):
            parts = [
                random_graph(rng.randint(1, 5), rng.choice((0.3, 0.6, 0.9)), 900 + 3 * seed + k)
                for k in range(rng.randint(2, 3))
            ]
            G = disjoint_union(*parts)
            alpha, chi = graphs.exact_invariants(G)
            assert chi == brute_chi(G) == max(brute_chi(P) for P in parts)
            assert alpha == brute_alpha(G) == sum(brute_alpha(P) for P in parts)


def chain(parts, glued):
    """The given graphs in a row, vertices renumbered in order; the last
    vertex of each is joined to the first of the next by a bridge edge, or,
    when glued, is that first vertex (a cut vertex shared by the two)."""
    edges, offset = [], 0
    for i, G in enumerate(parts):
        start = offset - 1 if glued and i else offset
        edges += [(u + start, v + start) for u, v in G.edges()]
        if i and not glued:
            edges.append((offset - 1, offset))
        offset = start + G.n
    return graphs.build_graph(offset, edges)


class TestBlocks:
    @pytest.mark.parametrize("glued", [False, True], ids=["bridged", "glued"])
    def test_bicliques_and_grotzsch_in_a_row(self, glued):
        # one search over the whole graph backtracks over the colorings of
        # the bicliques; each block alone answers at once
        G = chain([complete_bipartite(6, 6), complete_bipartite(6, 6), grotzsch()], glued)
        assert (G.n, G.m) == ((33, 92) if glued else (35, 94))
        assert graphs.profile(G).connected
        start = time.perf_counter()
        assert graphs.chromatic_number(G) == 4
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("glued", [False, True], ids=["bridged", "glued"])
    def test_rows_of_random_graphs_against_brute_force(self, glued):
        rng = random.Random(29 + glued)
        for seed in range(20):
            parts = [
                random_graph(rng.randint(1, 4), rng.choice((0.3, 0.6, 0.9)), 700 + 3 * seed + k)
                for k in range(rng.randint(2, 3))
            ]
            G = chain(parts, glued)
            expected = max(brute_chi(P) for P in parts)
            if not glued:
                expected = max(expected, 2)  # the bridges
            assert graphs.chromatic_number(G) == brute_chi(G) == expected

    def test_empty_and_edgeless_graphs(self):
        for n, chi in ((0, 0), (1, 1), (5, 1)):
            G = graphs.build_graph(n, [])
            assert graphs.chromatic_number(G) == brute_chi(G) == chi
            assert graphs._blocks(G) == []

    def test_bridges_and_cut_vertices(self):
        # K3 on 0-2, the bridge 2-3, C5 on 3-7 and K4 on 3, 8-10 sharing the
        # cut vertex 3, the isolated vertex 11, and the lone edge 12-13
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
        edges += list(combinations((3, 8, 9, 10), 2)) + [(12, 13)]
        G = graphs.build_graph(14, edges)
        blocks = graphs._blocks(G)
        assert sorted(blocks) == [[0, 1, 2], [2, 3], [3, 4, 5, 6, 7], [3, 8, 9, 10], [12, 13]]
        assert [v for v in range(G.n) if not any(v in part for part in blocks)] == [11]
        assert sum(graphs._induced(G, part).m for part in blocks) == G.m
        named = [graphs.named_graph(name) for name in ("K3", "K2", "C5", "K4", "K2")]
        assert [graphs._induced(G, part) for part in sorted(blocks)] == named
        assert graphs.chromatic_number(G) == 4


REFUSALS = [
    (lambda: graphs.build_graph(-1, []), graphs.VertexOutOfRange, "negative vertex count -1"),
    (lambda: graphs.random_regular(4, 4, 1), ValueError, "need 0 <= d < n, got d=4, n=4"),
    # K8 is the only 7-regular graph on 8 vertices, and almost no pairing
    # of its stubs is simple
    (
        lambda: graphs.random_regular(8, 7, 1),
        graphs.RetryBudgetExceeded,
        "no simple pairing found in 2000 attempts (n=8, d=7)",
    ),
    (
        lambda: graphs.induced_two_coloring(graphs.named_graph("C5"), [0, 5]),
        graphs.VertexOutOfRange,
        "vertex 5 outside 0..4",
    ),
    (
        lambda: graphs.chromatic_number(graphs.build_graph(41, [])),
        graphs.TooLarge,
        "exact search capped at n=40, got 41",
    ),
]


@pytest.mark.parametrize(
    "call,error,message",
    REFUSALS,
    ids=["negative-n", "d-not-below-n", "retry-budget", "coloring-vertex-n", "chromatic-41"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        G = graphs.named_graph("Petersen")
        path = tmp_path / "p.graph"
        graphs.write_graph(G, path)
        assert graphs.read_graph(path) == G

    def test_sorted_output(self, tmp_path):
        G = graphs.build_graph(4, [(3, 2), (1, 0), (0, 2)])
        text = graphs.graph_to_text(G)
        assert text == "4 3\n0 1\n0 2\n2 3\n"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            graphs.graph_from_text("3\n0 1\n")

    def test_files_are_the_text(self, tmp_path):
        path = tmp_path / "g.graph"
        for G in (graphs.random_regular(50, 3, 1), graphs.named_graph("McGee"), graphs.build_graph(3, ())):
            graphs.write_graph(G, path)
            assert path.read_bytes() == graphs.graph_to_text(G).encode("ascii")

    def test_file_of_many_blocks_reads_as_its_text(self, tmp_path):
        G = graphs.random_regular(20000, 3, 1)
        breaks = ("\n", "\r\n", "\x0c", "\n \n", "\x0b\r\n", "\r")
        lines = graphs.graph_to_text(G).splitlines()
        text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
        path = tmp_path / "g.graph"
        path.write_bytes(text.encode("ascii"))
        assert graphs.read_graph(path) == graphs.graph_from_text(text) == G
        # an error past the first block names the same line either way
        bad = text[:200_000] + text[200_000:].replace("\x0c", "\x0cx ", 1)
        path.write_bytes(bad.encode("ascii"))
        with pytest.raises(ValueError) as from_file:
            graphs.read_graph(path)
        with pytest.raises(ValueError) as from_text:
            graphs.graph_from_text(bad)
        assert str(from_file.value) == str(from_text.value)
        assert "bad edge line 'x " in str(from_file.value)

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"3 2\n0 1\n1 2\n", None),
            (b"\n3 2\n\n  \n0 1\n\n1 2", None),
            (b"3 2\r\n0 1\r\n\r\n1 2\r\n", None),
            (b"3 2\n0 1\x0c1 2\n", None),
            (b"3 2\r0 1\x0b\x0c1 2\x1c", None),
            (b"", "empty graph file"),
            (b"\n \n", "empty graph file"),
            (b"x 1\n0 1\n", "line 1: bad header 'x 1', expected 'n m'"),
            (b"\n3\n0 1\n", "line 2: bad header '3', expected 'n m'"),
            (b"2 1\n0 y\n", "line 2: bad edge line '0 y', expected 'u v'"),
            (b"3 2\n0 1\x0c\n1 2 0\n", "line 4: bad edge line '1 2 0', expected 'u v'"),
            (b"3 1\n0 1\n1 2\n", "header says m=1 but 2 edge lines found"),
            (b"3 3\n0 1\n1 2\n", "header says m=3 but 2 edge lines found"),
            (b"3 2\n0 1\n1 0\n", "edge (0, 1) given twice"),
            (b"3 1\n1 1\n", "loop at vertex 1"),
            (b"2 1\n0 2\n", "edge (0, 2) outside 0..1"),
        ],
        ids=["plain", "blank_lines", "crlf", "form_feed", "other_breaks", "empty", "blank",
             "bad_n", "short_header", "bad_v", "three_fields", "more_edges", "fewer_edges",
             "duplicate", "loop", "out_of_range"],
    )
    def test_read_graph_agrees_with_graph_from_text(self, tmp_path, raw, message):
        """A file reads as its text does: the same graph, or the same error."""
        path = tmp_path / "g.graph"
        path.write_bytes(raw)
        text = raw.decode("ascii")
        if message is None:
            G = graphs.read_graph(path)
            assert G == graphs.graph_from_text(text) == graphs.build_graph(3, [(0, 1), (1, 2)])
            return
        for read in (lambda: graphs.read_graph(path), lambda: graphs.graph_from_text(text)):
            with pytest.raises((ValueError, graphs.GraphError)) as exc:
                read()
            assert str(exc.value) == message
