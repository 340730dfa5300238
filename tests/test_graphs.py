import heapq
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import metrikos as mk
from metrikos import fileio, graphs, sampling
from metrikos.graphs import grid_vertex
from metrikos.points import as_index, as_integer, as_point


def simple_path_lengths(g, u, v) -> list:
    """The length of every simple path from u to v, by depth-first search."""
    adj = {a: [] for a in range(g.vertex_count)}
    for a, b, w in g.edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    found = []

    def walk(a, length, seen):
        if a == v:
            found.append(length)
            return
        for b, w in adj[a]:
            if b not in seen:
                walk(b, length + w, seen | {b})

    walk(u, 0.0, {u})
    return found


def enumerated_geodesics(n, edges, u, v) -> int:
    """The number of least-length simple paths from u to v among the
    (a, b, length) triples ``edges`` of n vertices with int lengths, by
    depth-first search: 0 when no path joins them, 1 when u == v. Reads
    nothing of a graph object, so it shares no code with the library."""
    nbrs = [[] for _ in range(n)]
    for a, b, w in edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    best = [math.inf, 0]  # the least length found, and how many paths have it

    def walk(a, length, seen):
        if length > best[0]:
            return  # lengths are positive, so no extension is shorter
        if a == v:
            best[:] = [length, best[1] + 1] if length == best[0] else [length, 1]
            return
        for b, w in nbrs[a]:
            if b not in seen:
                walk(b, length + w, seen | {b})

    walk(u, 0, {u})
    return best[1]


def per_edge_graph(vertex_count, edges):
    """The edge checks one edge at a time, as WeightedGraph once made them:
    its ``edges`` and ``_adj``, or the first error in input order. An edge
    that is not a triple, or whose length is not an int or a float, is a
    CarrierError, as ``edges`` that are not iterable are; an int length past
    the float range is a length that is not finite."""
    try:
        edges = iter(edges)
    except TypeError:
        raise mk.CarrierError(f"edges must be an iterable of (u, v, length) triples, got {edges!r}") from None
    seen = set()
    cleaned = []
    for e in edges:
        try:
            u, v, length = e
        except (TypeError, ValueError):
            raise mk.CarrierError(f"edge {e!r} must be a (u, v, length) triple") from None
        if not (type(u) is int and type(v) is int):
            u, v = (as_integer(w, f"vertex id in edge {e}") for w in (u, v))
        if isinstance(length, bool) or not isinstance(length, (int, float, np.integer, np.floating)):
            raise mk.CarrierError(f"edge {e} must have a number as its length, got {length!r}")
        try:
            length = float(length)
        except OverflowError:
            length = math.inf
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge {e} references a vertex outside 0..{vertex_count - 1}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u} is not allowed")
        if not (length > 0 and math.isfinite(length)):
            raise ValueError(f"edge {e} must have a finite positive length")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate undirected edge {key}")
        seen.add(key)
        cleaned.append((u, v, length))
    adj = [[] for _ in range(vertex_count)]
    for u, v, length in cleaned:
        adj[u].append((v, length))
        adj[v].append((u, length))
    return tuple(cleaned), tuple(tuple(nbrs) for nbrs in adj)


def per_cell_grid_edges(width, height):
    """A grid's edge list one lattice point at a time, as grid_graph once
    built it."""
    edges = []
    for j in range(height):
        for i in range(width):
            if i + 1 < width:
                edges.append((j * width + i, j * width + i + 1, 1))
            if j + 1 < height:
                edges.append((j * width + i, (j + 1) * width + i, 1))
    return edges


def per_vertex_geodesics(g, u, v):
    """The number of shortest paths from u to v one vertex at a time, as
    count_geodesics once counted them: in order of distance from u, sigma(b)
    is the sum of sigma(a) over the neighbors a with d(a) + w(a, b) == d(b)."""
    row = g.single_source(u)
    near = np.flatnonzero(row <= row[v])
    dist = row.tolist()
    sigma = [0] * g.vertex_count
    sigma[u] = 1
    for b in near[np.argsort(row[near])].tolist():
        if b != u:
            sigma[b] = sum(sigma[a] for a, w in g._adj[b] if dist[a] + w == dist[b])
    return sigma[v]


def heap_row(g, s):
    """The distance row from s by a heap-only Dijkstra, as single_source once
    built every row."""
    dist = [math.inf] * g.vertex_count
    dist[s] = 0.0
    done = [False] * g.vertex_count
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g._adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def sssp_graphs():
    """The reference graphs of the SSSP routine, by name."""
    rng = np.random.default_rng(16)
    n = 150
    wild = [(u, v, float(10.0 ** rng.uniform(-200, 200))) for u, v, _ in random_edges(rng, n, 3 * n)]
    star = [(0, leaf, float(rng.uniform(0.5, 2.0))) for leaf in range(1, 120)] + [(1, 2, 0.25), (5, 9, 3.0)]
    path = [(k, k + 1, float(rng.uniform(0.1, 2.0))) for k in range(299)]
    # vertices 0..39 and 40..79 in two components, 80..84 alone
    parts = [(u + base, v + base, w) for base in (0, 40) for u, v, w in random_edges(rng, 40, 90)]
    return {
        "wild-lengths": mk.WeightedGraph(n, wild),
        "grid": mk.grid_graph(13, 11),
        "path": mk.WeightedGraph(300, path),
        "star": mk.WeightedGraph(120, star),
        "two-parts-and-isolated": mk.WeightedGraph(85, parts),
    }


def outcome(build):
    """What ``build()`` returns, or the type and message of its error."""
    try:
        return build()
    except Exception as err:
        return type(err), str(err)


def graph_outcome(vertex_count, edges):
    def build():
        g = mk.WeightedGraph(vertex_count, edges)
        return g.edges, g._adj

    return outcome(build)


def random_edges(rng, n, m):
    """m distinct undirected edges of n vertices, each in a random
    orientation, with lengths of mixed kinds."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    edges = []
    for k in chosen.tolist():
        u, v = pairs[k] if rng.random() < 0.5 else pairs[k][::-1]
        length = [1, 2.5, float(rng.uniform(0.1, 9.0)), np.float32(0.75), 3.0][int(rng.integers(0, 5))]
        edges.append((u, v, length))
    return edges


def earlier_edge(rng, before):
    """One of the (u, v, length) edges in ``before``; the first one always is."""
    edges = [e for e in before if isinstance(e, tuple) and len(e) == 3]
    return edges[int(rng.integers(0, len(edges)))]


# each takes (rng, n, the edges before it, at least one) and gives one faulty edge
EDGE_FAULTS = {
    "id-past-n": lambda rng, n, before: (0, n, 1.0),
    "id-far-past-n": lambda rng, n, before: (n + 7, 1, 1.0),
    "id-negative": lambda rng, n, before: (-1, 1, 1.0),
    "id-past-int64": lambda rng, n, before: (2**63, 0, 1.0),
    "id-far-past-int64": lambda rng, n, before: (1, 2**70, 1.0),
    "id-far-below-int64": lambda rng, n, before: (-(2**70), 1, 1.0),
    "loop": lambda rng, n, before: (2, 2, 1.0),
    "length-zero": lambda rng, n, before: (0, 1, 0.0),
    "length-minus-one": lambda rng, n, before: (1, 0, -1),
    "length-nan": lambda rng, n, before: (0, 2, math.nan),
    "length-inf": lambda rng, n, before: (2, 0, math.inf),
    "length-minus-inf": lambda rng, n, before: (2, 1, -math.inf),
    "length-unreadable": lambda rng, n, before: (0, 1, "one"),
    "length-none": lambda rng, n, before: (0, 1, None),
    "length-past-float": lambda rng, n, before: (1, 2, 10**400),
    "length-far-below-float": lambda rng, n, before: (2, 1, -(10**400)),
    "duplicate": lambda rng, n, before: (*earlier_edge(rng, before)[:2], 4.0),
    "duplicate-reversed": lambda rng, n, before: (*earlier_edge(rng, before)[1::-1], 4.0),
    # faults of two kinds in one edge: the first in check order wins
    "loop-past-n": lambda rng, n, before: (n, n, 1.0),
    "length-nan-past-n": lambda rng, n, before: (0, n, math.nan),
    "loop-length-minus-one": lambda rng, n, before: (1, 1, -1.0),
    "duplicate-length-zero": lambda rng, n, before: (*earlier_edge(rng, before)[:2], 0.0),
    "id-bool": lambda rng, n, before: (True, 2, 1.0),
    "id-numpy-bool": lambda rng, n, before: (0, np.bool_(False), 1.0),
    "id-fractional": lambda rng, n, before: (0, 1.5, 1.0),
    "id-string": lambda rng, n, before: ("0", 1, 1.0),
    "edge-of-two": lambda rng, n, before: (0, 1),
    "edge-of-four": lambda rng, n, before: (0, 1, 1.0, 2.0),
    "edge-not-iterable": lambda rng, n, before: 5,
}

# ids that are read as the plain int they equal
READABLE_IDS = [np.int64(1), np.int32(1), np.uint8(1), 1.0, np.float32(1.0), np.float64(1.0)]


class TestEdgeChecksMatchThePerEdgeReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_lists(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            edges = random_edges(rng, n, int(rng.integers(0, 3 * n)))
            # some ids in other readable forms
            edges = [
                (READABLE_IDS[int(rng.integers(0, 6))] * u if rng.random() < 0.2 else u, v, length)
                for u, v, length in edges
            ]
            want = per_edge_graph(n, edges)
            assert graph_outcome(n, edges) == want
            g = mk.WeightedGraph(n, edges)
            assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
            assert all(type(length) is float for _, _, length in g.edges)

    @pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
    def test_each_fault(self, fault):
        rng = np.random.default_rng(sorted(EDGE_FAULTS).index(fault))
        for _ in range(20):
            n = int(rng.integers(3, 30))
            edges = random_edges(rng, n, int(rng.integers(1, 2 * n)))
            k = int(rng.integers(1, len(edges) + 1))
            edges.insert(k, EDGE_FAULTS[fault](rng, n, edges[:k]))
            want = outcome(lambda: per_edge_graph(n, edges))
            assert isinstance(want[0], type), "the planted edge is faulty"
            assert graph_outcome(n, edges) == want, (fault, edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_several_faults(self, seed):
        # the first fault in input order wins, whatever its kind; a read
        # error after a checked fault does not hide it
        rng = np.random.default_rng(100 + seed)
        kinds = sorted(EDGE_FAULTS)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            edges = random_edges(rng, n, int(rng.integers(1, 2 * n)))
            for kind in rng.choice(kinds, size=int(rng.integers(2, 4))).tolist():
                k = int(rng.integers(1, len(edges) + 1))
                edges.insert(k, EDGE_FAULTS[kind](rng, n, edges[:k]))
            assert graph_outcome(n, edges) == outcome(lambda: per_edge_graph(n, edges)), edges

    def test_a_read_error_after_a_fault(self):
        for first in ((0, 0, 1.0), (0, 9, 1.0), (0, 1, -1.0), (1, 0, 2.0)):
            for unread in ((0, 1), (0, 1.5, 1.0), (0, 1, "x"), 7):
                edges = [(0, 1, 1.0), first, (1, 2, 1.0), unread]
                want = outcome(lambda: per_edge_graph(3, edges))
                assert want[0] is ValueError and graph_outcome(3, edges) == want
                # and with the order swapped, the read error
                edges = [(0, 1, 1.0), unread, first]
                assert graph_outcome(3, edges) == outcome(lambda: per_edge_graph(3, edges))

    def test_a_read_error_comes_before_a_coords_error(self):
        for coords in ([(0, 0)], [(0, 0), (True, False)]):
            with pytest.raises(mk.CarrierError, match=r"edge \(0, 1\) must be a \(u, v, length\) triple"):
                mk.WeightedGraph(2, [(0, 1, 1.0), (0, 1)], coords=coords)

    def test_edges_from_an_iterator(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.5)]
        assert graph_outcome(3, iter(edges)) == per_edge_graph(3, edges)
        assert graph_outcome(3, (e for e in edges + [(0, 0, 1.0)])) == (ValueError, "loop edge at vertex 0 is not allowed")
        for unusable in (5, None):
            want = (mk.CarrierError, f"edges must be an iterable of (u, v, length) triples, got {unusable!r}")
            assert graph_outcome(3, unusable) == outcome(lambda: per_edge_graph(3, unusable)) == want

        def broken():
            yield (0, 1, 1.0)
            raise TypeError("the source failed")

        # an iterable that fails partway raises its own error, not "not iterable"
        assert graph_outcome(3, broken()) == (TypeError, "the source failed")

    def test_graph_files_give_what_the_reference_gives(self, tmp_path):
        # load_graph hands the decoded edge lists to WeightedGraph as they
        # are, so a file gives the graph or the first error that the
        # reference gives for those lists
        def load():
            g = fileio.load_graph(path)
            return g.edges, g._adj

        path = tmp_path / "g.json"
        rng = np.random.default_rng(300)
        for kind in [None] + sorted(EDGE_FAULTS):
            for _ in range(6):
                n = int(rng.integers(3, 30))
                edges = random_edges(rng, n, int(rng.integers(1, 2 * n)))
                if kind is not None:
                    k = int(rng.integers(1, len(edges) + 1))
                    edges.insert(k, EDGE_FAULTS[kind](rng, n, edges[:k]))
                    try:
                        json.dumps(edges[k], allow_nan=False)
                    except (TypeError, ValueError):
                        break  # NaN, the infinities and numpy bools have no JSON form
                # the float32 lengths of random_edges are written as floats
                path.write_text(json.dumps({"vertices": n, "edges": edges}, default=float))
                decoded = json.loads(path.read_text())["edges"]
                assert outcome(load) == outcome(lambda: per_edge_graph(n, decoded)), (kind, decoded)

    @pytest.mark.parametrize("size", [(1, 1), (1, 9), (9, 1), (3, 4), (136, 110)])
    def test_grid_edges_in_the_per_cell_order(self, size):
        g = mk.grid_graph(*size)
        want = per_cell_grid_edges(*size)
        assert g.edges == tuple(want)
        assert (g.edges, g._adj) == per_edge_graph(size[0] * size[1], want)


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            mk.WeightedGraph(0, [])
        with pytest.raises(ValueError, match="loop"):
            mk.WeightedGraph(2, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match="length"):
            mk.WeightedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="length"):
            mk.WeightedGraph(2, [(0, 1, -1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            mk.WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(ValueError, match="outside"):
            mk.WeightedGraph(2, [(0, 5, 1.0)])
        # vertex ids: integral values only, nothing truncated
        g = mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for ok in (1, np.int64(1), 1.0, np.float32(1.0)):
            assert g.check_vertex(ok) == 1 and type(g.check_vertex(ok)) is int
        for bad in (1.7, True, np.bool_(True), np.float32(1.5), math.nan, math.inf, "1", -1, 3):
            with pytest.raises(mk.CarrierError):
                g.check_vertex(bad)
        # coords: one plane point per vertex, all of one length
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            mk.WeightedGraph(2, [(0, 1, 1.0)], coords=[(0, 0), (1, 2, 3)])
        with pytest.raises(mk.CarrierError, match="must be numbers"):
            mk.WeightedGraph(2, [(0, 1, 1.0)], coords=[(0, 0), (True, False)])
        with pytest.raises(ValueError, match="coords must list one point per vertex"):
            mk.WeightedGraph(2, [(0, 1, 1.0)], coords=[(0, 0)])
        assert mk.WeightedGraph(2, [(0, 1, 1.0)], coords=[(0, 0), (1, 2)]).coords.shape == (2, 2)

    def test_edge_ids_and_vertex_count_are_not_truncated(self):
        # int() would read these as the edges (0, 1) and (1, 2) of 3 or 2 vertices
        for edges in ([(0, 1.5, 1.0)], [(True, 2, 2.0)], [(0, np.bool_(True), 1.0)], [(math.nan, 1, 1.0)], [("0", 1, 1.0)]):
            with pytest.raises(mk.CarrierError, match="vertex id in edge .* must be an integer"):
                mk.WeightedGraph(3, edges)
        for count in (2.7, True, math.inf, math.nan, "3"):
            with pytest.raises(mk.CarrierError, match="vertex_count must be an integer"):
                mk.WeightedGraph(count, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match=r"edge \(0, 3.0, 1.0\) references a vertex outside 0..2"):
            mk.WeightedGraph(3, [(0, 3.0, 1.0)])
        g = mk.WeightedGraph(np.int64(3), [(np.int32(0), 1.0, 1.0), (1, np.uint8(2), 2.0)])
        assert g.vertex_count == 3 and g.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))

    def test_lengths_are_numbers(self):
        # float() reads each of these as a number
        for bad in ("2", b"2", True, np.bool_(True)):
            with pytest.raises(mk.CarrierError, match=r"edge \(1, 2, .*\) must have a number as its length"):
                mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, bad)])
        # an earlier faulty edge is still named first
        with pytest.raises(ValueError, match="loop edge at vertex 0"):
            mk.WeightedGraph(3, [(0, 0, 1.0), (1, 2, "2")])
        g = mk.WeightedGraph(3, [(0, 1, np.int8(2)), (1, 2, np.float32(0.5))])
        assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))

    def test_malformed_edges_are_named(self):
        # edges the read loop cannot unpack as (u, v, length), then lengths that are not numbers
        for edge in ((0, 1), (0, 1, 1.0, 2.0), 5, None, "01"):
            with pytest.raises(mk.CarrierError, match=f"edge {re.escape(repr(edge))} must be a \\(u, v, length\\) triple"):
                mk.WeightedGraph(2, [(0, 1, 1.0), edge])
        for bad in (None, [1], 1j):
            with pytest.raises(mk.CarrierError, match=f"edge \\(0, 1, {re.escape(repr(bad))}\\) must have a number as its length"):
                mk.WeightedGraph(2, [(0, 1, bad)])
        # the refusal waits for the checks of the edges before it
        for edges in ([(0, 0, 1.0), (0, 1)], [(0, 0, 1.0), (0, 1, None)]):
            with pytest.raises(ValueError, match="loop edge at vertex 0"):
                mk.WeightedGraph(2, edges)

    def test_path_graph(self):
        g = mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert mk.shortest_path_distance(g, 0, 2) == 2.0
        assert mk.shortest_path_distance(g, 1, 1) == 0.0

    def test_shortcut_wins(self):
        g = mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)])
        assert mk.shortest_path_distance(g, 0, 2) == 1.5

    def test_symmetry_is_bitwise(self, rng):
        g = sampling.random_connected_graph(rng, 30, extra_edges=40)
        for _ in range(300):
            u, v = rng.integers(0, 30, size=2)
            assert mk.shortest_path_distance(g, u, v) == mk.shortest_path_distance(g, v, u)

    def test_triangle_inequality_on_random_graphs(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 40))
            g = sampling.random_connected_graph(rng, n, extra_edges=2 * n)
            d = np.array([[mk.shortest_path_distance(g, i, j) for j in range(n)] for i in range(n)])
            lhs = d[:, None, :]
            rhs = d[:, :, None] + d[None, :, :]
            assert np.all(lhs <= rhs + 1e-12)

    def test_disconnected(self):
        g = mk.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(mk.UnreachableError):
            mk.shortest_path_distance(g, 1, 2)

    def test_edges_are_the_input_as_ints_and_floats(self):
        given = [(2, 0, 1), (np.int64(1), 2.0, np.float32(0.75)), (3, 1, 2.5)]
        g = mk.WeightedGraph(4, given)
        assert type(g.edges) is tuple and g.edges == ((2, 0, 1.0), (1, 2, 0.75), (3, 1, 2.5))
        assert all(tuple(map(type, e)) == (int, int, float) for e in g.edges)
        assert mk.WeightedGraph(1, []).edges == ()
        with pytest.raises(AttributeError):
            g.edges = ()

    def test_the_row_cache_is_bounded(self, monkeypatch):
        g = sampling.random_connected_graph(np.random.default_rng(5), 40, extra_edges=60)
        want = [g.single_source(s).copy() for s in range(40)]
        assert len(g._sssp_cache) == 40  # 1,600 floats, far below the cap
        monkeypatch.setattr(graphs, "SSSP_CACHE_FLOATS", 3 * 40 + 39)
        capped = mk.WeightedGraph(40, g.edges)
        for s in [*range(40), 7, 39, 0]:
            assert np.array_equal(capped.single_source(s), want[s])
            assert len(capped._sssp_cache) <= 3
        # the oldest row goes first; a hit does not refresh a row
        assert list(capped._sssp_cache) == [39, 7, 0]
        for u, v in np.random.default_rng(6).integers(0, 40, size=(200, 2)).tolist():
            assert mk.shortest_path_distance(capped, u, v) == want[min(u, v)][max(u, v)]
        # a row past the cap on its own is still kept, alone
        monkeypatch.setattr(graphs, "SSSP_CACHE_FLOATS", 10)
        for s in (3, 4, 3):
            assert np.array_equal(capped.single_source(s), want[s]) and list(capped._sssp_cache) == [s]

    def test_an_overflowed_distance_is_not_unreachable(self):
        g = mk.WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        message = "the distance from vertex 0 to vertex 2 overflows the float range"
        for u, v in ((0, 2), (2, 0), (0, 1)):
            with pytest.raises(ValueError, match=message) as err:
                mk.shortest_path_distance(g, u, v)
            assert type(err.value) is ValueError
        with pytest.raises(ValueError, match=message):
            mk.verify_axioms(mk.GraphPath(g), [0, 1, 2])
        assert mk.shortest_path_distance(g, 1, 2) == 1e308  # no distance from 1 overflows
        # the 2**53 check reads the lengths without summing them into a warning
        with pytest.raises(ValueError, match=f"below 2\\*\\*53, got {2 * int(1e308)}:"):
            mk.count_geodesics(g, 0, 2)
        # reversed edges and ids: the infinite end is named
        g = mk.WeightedGraph(4, [(3, 2, 1e308), (2, 1, 1e308), (0, 3, 1.0)])
        with pytest.raises(ValueError, match="from vertex 0 to vertex 1 overflows"):
            g.single_source(0)
        # a part that no edge joins is still unreachable, however long its edges
        g = mk.WeightedGraph(4, [(0, 1, 1e308), (2, 3, 1e308)])
        with pytest.raises(mk.UnreachableError, match="no path joins vertices 0 and 2"):
            mk.shortest_path_distance(g, 0, 2)

    def test_a_cached_row_is_not_served_to_a_bool(self):
        # True == 1 and hash(True) == hash(1), so a bare cache lookup would serve it
        g = mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g.single_source(1)
        for bad in (True, np.bool_(True)):
            with pytest.raises(mk.CarrierError, match="must be an integer"):
                g.single_source(bad)
        assert g.single_source(1.0) is g.single_source(1)

    def test_a_cached_query_checks_each_id_once(self, monkeypatch):
        g = mk.grid_graph(4, 4)
        assert mk.shortest_path_distance(g, 5, 10) == 2.0
        calls = []

        def counting(*args):
            calls.append(args[0])
            return as_index(*args)

        monkeypatch.setattr(graphs, "as_index", counting)
        assert mk.shortest_path_distance(g, 10, 5) == 2.0
        assert calls == [10, 5]


class TestSingleSourceRoutine:
    @pytest.mark.parametrize("name", list(sssp_graphs()))
    def test_rows_are_the_heap_rows_bit_for_bit(self, name):
        g = sssp_graphs()[name]
        together = mk.WeightedGraph(g.vertex_count, g.edges)
        sources = list(range(g.vertex_count))
        for s, row in zip(sources, together.source_rows(sources)):
            want = heap_row(g, s).view(np.int64)
            assert np.array_equal(g.single_source(s).view(np.int64), want), (name, s)
            assert np.array_equal(row.view(np.int64), want), (name, s)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_array_entry_is_the_triples_entry(self, seed):
        rng = np.random.default_rng(400 + seed)
        for n, extra in ((1, 0), (2, 0), (30, 10), (150, 400), (400, 100)):
            g = sampling.random_connected_graph(rng, n, extra_edges=extra)
            from_triples = mk.WeightedGraph(n, [(u, v, w) for u, v, w in g.edges])
            assert (g.edges, g._adj) == (from_triples.edges, from_triples._adj)
            *arrays, levels = g._layout
            *want, want_levels = from_triples._layout
            assert all(np.array_equal(a, b) for a, b in zip(arrays, want)) and levels == want_levels
            for s in range(n):
                assert np.array_equal(g.single_source(s).view(np.int64), from_triples.single_source(s).view(np.int64))

    def test_a_bare_vertex_is_in_no_level(self):
        # vertices 2, 5 and 6 meet no edge, so they take the last positions and head no arc
        g = mk.WeightedGraph(7, [(0, 1, 2.0), (3, 1, 1.0), (4, 3, 1.0), (0, 4, 3.0)])
        order, place, tails, lengths, levels = g._layout
        assert order.tolist() == [0, 1, 3, 4, 2, 5, 6] and place.tolist() == [0, 1, 4, 2, 3, 5, 6]
        # level k holds the k-th arc of each of the vertices at positions 0..3, as tail positions
        assert levels == ((0, 4), (4, 4))
        assert tails.tolist() == [1, 0, 1, 2, 3, 2, 3, 0]
        assert lengths.tolist() == [2.0, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0, 3.0]
        assert g._adj[2] == g._adj[5] == g._adj[6] == () and g._adj[3] == ((1, 1.0), (4, 1.0))
        assert g._adj == per_edge_graph(7, g.edges)[1]
        for s in range(7):
            row = g.single_source(s)
            assert np.array_equal(row, heap_row(g, s))
            for t in range(7):
                if math.isfinite(row[t]):
                    assert mk.count_geodesics(g, s, t) == per_vertex_geodesics(g, min(s, t), max(s, t))
        # a bare source counts its one path to itself, and nothing reaches it
        assert mk.count_geodesics(g, 5, 5) == 1 and mk.count_geodesics(mk.WeightedGraph(1, []), 0, 0) == 1

    def test_both_phases_are_reached(self, monkeypatch):
        calls = []

        def spy(adj, dist, heap, wide):
            seeded = len(heap)
            wide_now = settle(adj, dist, heap, wide)
            calls.append((seeded, wide, wide_now))
            return wide_now

        settle = graphs._settle
        monkeypatch.setattr(graphs, "_settle", spy)
        g = sssp_graphs()
        # a path's and a grid's heap stay narrow
        for name, source in (("path", 150), ("grid", 71)):
            calls.clear()
            g[name].single_source(source)
            assert [wide_now for _, _, wide_now in calls] == [False], name
        # a lone row on a 40-vertex part stays in the heap; two rows share the rounds
        calls.clear()
        g["two-parts-and-isolated"].single_source(3)
        assert [wide_now for _, _, wide_now in calls] == [False]
        for name, sources in (("wild-lengths", [1]), ("two-parts-and-isolated", [1, 41])):
            calls.clear()
            list(g[name].source_rows(sources))
            # the heap got wide, array rounds ran, and a seeded heap finished the row
            assert calls[0][2], name
            assert calls[-1][1] == sys.maxsize and calls[-1][0] > 0, name
        # the star's heap is wide once its center is popped
        calls.clear()
        g["star"].single_source(0)
        assert calls[0][2]

    @pytest.mark.parametrize("per_round", [2, 7, None])
    def test_rows_built_r_at_a_time_are_the_heap_rows(self, monkeypatch, per_round):
        left = []  # for each build, the rows that left the array rounds for a seeded heap
        sssp, heapify = graphs.WeightedGraph._sssp, heapq.heapify

        def counting_sssp(self, sources):
            left.append(0)
            return sssp(self, sources)

        def counting_heapify(heap):
            left[-1] += 1
            heapify(heap)

        monkeypatch.setattr(graphs.WeightedGraph, "_sssp", counting_sssp)
        monkeypatch.setattr(graphs.heapq, "heapify", counting_heapify)
        for name, g in sssp_graphs().items():
            n = g.vertex_count
            r = per_round or n
            monkeypatch.setattr(graphs, "SSSP_ROUND_FLOATS", r * (4 * len(g.edges) + n))
            left.clear()
            sources = list(range(n))
            for s, row in zip(sources, g.source_rows(sources)):
                assert np.array_equal(row.view(np.int64), heap_row(g, s).view(np.int64)), (name, r, s)
            # r rows per build, and fewer in the last one where r does not divide n
            assert len(left) == -(-n // r), (name, r)
            if name != "path":  # a path's heap never gets wide
                assert max(left) >= 2, (name, r)

    def test_a_path_never_joins_the_rounds(self, monkeypatch):
        calls = []

        def spy(adj, dist, heap, wide):
            wide_now = settle(adj, dist, heap, wide)
            calls.append(wide_now)
            return wide_now

        settle = graphs._settle
        monkeypatch.setattr(graphs, "_settle", spy)
        g = sssp_graphs()["path"]
        sources = list(range(0, 300, 4))[:64]
        rows = list(g.source_rows(sources))
        # one heap per row, never wide: the 64 rows never share a round
        assert calls == [False] * 64
        assert all(np.array_equal(row.view(np.int64), heap_row(g, s).view(np.int64)) for s, row in zip(sources, rows))

    def test_twelve_vertex_rows_stay_in_the_heap(self, monkeypatch):
        calls = []

        def spy(adj, dist, heap, wide):
            wide_now = settle(adj, dist, heap, wide)
            calls.append(wide_now)
            return wide_now

        settle = graphs._settle
        monkeypatch.setattr(graphs, "_settle", spy)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            # the heap is checked every 16 pops. One row of 12 vertices and 23
            # edges pushes at most 47 entries, so it never holds wide(1) = 33
            # after 16 pops
            g = sampling.random_connected_graph(rng, 12, extra_edges=12)
            calls.clear()
            for s in range(12):
                assert np.array_equal(g.single_source(s).view(np.int64), heap_row(g, s).view(np.int64))
            assert calls == [False] * 12, seed
            # a tree labels each vertex once: 12 entries, popped before the
            # first check after the start, so even 12 rows together never join
            tree = sampling.random_connected_graph(rng, 12)
            calls.clear()
            rows = list(tree.source_rows(list(range(12))))
            assert calls == [False] * 12, seed
            assert all(np.array_equal(row.view(np.int64), heap_row(tree, s).view(np.int64)) for s, row in enumerate(rows))

    def test_a_small_cache_builds_each_row_once(self, monkeypatch):
        g = sssp_graphs()["wild-lengths"]
        want = [heap_row(g, s) for s in range(g.vertex_count)]
        monkeypatch.setattr(graphs, "SSSP_CACHE_FLOATS", 3 * g.vertex_count)
        monkeypatch.setattr(graphs, "SSSP_ROUND_FLOATS", 10 * (4 * len(g.edges) + g.vertex_count))
        built = []
        sssp = graphs.WeightedGraph._sssp

        def counting(self, sources):
            built.extend(sources)
            return sssp(self, sources)

        monkeypatch.setattr(graphs.WeightedGraph, "_sssp", counting)
        sources = [5, 3, 5, 17, *range(20, 45), 3, 149]
        got = list(g.source_rows(sources))
        assert all(np.array_equal(row, want[s]) for s, row in zip(sources, got))
        # ten rows per build; 3 and 5 were evicted and built again
        assert built == [5, 3, 17, *range(20, 27), *range(27, 37), *range(37, 45), 3, 149]
        assert list(g._sssp_cache) == [44, 3, 149]

    def test_cross_is_distance_pair_by_pair(self, rng):
        g = sampling.random_connected_graph(rng, 200, extra_edges=300)
        spec = mk.GraphPath(g)
        X, Y = rng.integers(0, 200, size=40).tolist(), rng.integers(0, 200, size=70).tolist()
        table = spec._cross(X, Y)
        alone = mk.GraphPath(mk.WeightedGraph(200, g.edges))  # its own cache, filled one row at a time
        want = np.array([[mk.distance(alone, x, y) for y in Y] for x in X])
        assert np.array_equal(table.view(np.int64), want.view(np.int64))


class TestGridGraph:
    def test_unit_square(self):
        g = mk.grid_graph(2, 2)
        assert g.vertex_count == 4
        assert len(g.edges) == 4

    def test_degenerate_row(self):
        g = mk.grid_graph(3, 1)
        assert g.vertex_count == 3
        assert len(g.edges) == 2

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            mk.grid_graph(0, 4)
        # dimensions and lattice indices are integers, never truncated
        for width, height in ((2.7, 3), (3, True), (3, "2")):
            with pytest.raises(mk.CarrierError, match="must be an integer"):
                mk.grid_graph(width, height)
        for args in ((4, 1.5, 0), (4, 0, 1.5), (4.5, 1, 1), (4, True, 0)):
            with pytest.raises(mk.CarrierError, match="must be an integer"):
                grid_vertex(*args)
        assert mk.grid_graph(3.0, np.int64(2)).vertex_count == 6 and grid_vertex(4.0, np.int64(1), 2.0) == 9

    def test_a_point_outside_the_grid_is_refused(self):
        # (3, 0) and (-1, 1) of a width-3 grid would alias the ids of (0, 1) and (2, 0)
        for i, j in ((3, 0), (-1, 1), (0, -1), (7, 2)):
            with pytest.raises(mk.CarrierError, match=rf"lattice point \({i}, {j}\) is outside a grid of width 3"):
                grid_vertex(3, i, j)
        with pytest.raises(mk.CarrierError, match="outside a grid of width 0"):
            grid_vertex(0, 0, 0)
        assert [grid_vertex(3, i, j) for j in range(2) for i in range(3)] == list(range(6))
        # past the last row the id is past the grid, which its vertex check refuses
        with pytest.raises(mk.CarrierError, match="vertex id"):
            mk.shortest_path_distance(mk.grid_graph(3, 2), grid_vertex(3, 0, 2), 0)

    def test_four_by_four_corner(self):
        g = mk.grid_graph(4, 4)
        assert mk.shortest_path_distance(g, grid_vertex(4, 0, 0), grid_vertex(4, 3, 3)) == 6.0

    def test_matches_taxicab_exhaustively(self):
        for w, h in [(10, 10), (12, 5), (3, 7)]:
            g = mk.grid_graph(w, h)
            for a in range(g.vertex_count):
                for b in range(g.vertex_count):
                    expected = mk.taxicab_distance(g.coords[a], g.coords[b])
                    assert mk.shortest_path_distance(g, a, b) == expected


class TestCountGeodesics:
    def test_two_L_routes(self):
        g = mk.grid_graph(2, 2)
        assert mk.count_geodesics(g, grid_vertex(2, 0, 0), grid_vertex(2, 1, 1)) == 2

    def test_matches_binomial_oracle(self):
        g = mk.grid_graph(8, 8)
        origin = grid_vertex(8, 0, 0)
        for m in range(8):
            for n in range(8):
                got = mk.count_geodesics(g, origin, grid_vertex(8, m, n))
                assert got == math.comb(m + n, m)

    def test_more_tight_arcs_than_one_chunk(self):
        # every one of the 71,620 edges is tight toward the far corner, past the 2**16 arcs of one chunk
        g = mk.grid_graph(200, 180)
        assert len(g.edges) > 2**16
        assert mk.count_geodesics(g, 0, grid_vertex(200, 199, 179)) == math.comb(199 + 179, 199)
        assert mk.count_geodesics(g, grid_vertex(200, 199, 179), grid_vertex(200, 3, 170)) == math.comb(196 + 9, 9)

    def test_unique_route_on_path(self):
        g = mk.WeightedGraph(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0)])
        assert mk.count_geodesics(g, 0, 3) == 1

    def test_same_vertex(self):
        g = mk.grid_graph(3, 3)
        assert mk.count_geodesics(g, 4, 4) == 1

    def test_tie_between_unequal_edge_counts(self):
        # two routes of length 4: one direct edge, one three-hop chain
        g = mk.WeightedGraph(4, [(0, 3, 4.0), (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        assert mk.count_geodesics(g, 0, 3) == 2

    def test_matches_path_enumeration(self, rng):
        # small integer lengths make many ties between routes of different shapes
        tied = 0
        for _ in range(60):
            n = int(rng.integers(4, 9))
            g = sampling.random_connected_graph(rng, n, extra_edges=int(rng.integers(4, 16)))
            g = mk.WeightedGraph(n, [(u, v, float(rng.integers(1, 3))) for u, v, _ in g.edges])
            for u, v in rng.integers(0, n, size=(4, 2)).tolist():
                lengths = simple_path_lengths(g, u, v)
                assert mk.count_geodesics(g, u, v) == lengths.count(min(lengths))
                tied += lengths.count(min(lengths)) > 1
        assert tied >= 30

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_vertex_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        for n in (50, 120, 300):
            g = sampling.random_connected_graph(rng, n, extra_edges=int(rng.integers(n, 3 * n)))
            g = mk.WeightedGraph(n, [(u, v, float(rng.integers(1, 4))) for u, v, _ in g.edges])
            for u, v in rng.integers(0, n, size=(12, 2)).tolist():
                assert mk.count_geodesics(g, u, v) == per_vertex_geodesics(g, u, v)
        for w, h in ((1, 7), (9, 1), (13, 8), (30, 30)):
            g = mk.grid_graph(w, h)
            for u, v in rng.integers(0, w * h, size=(8, 2)).tolist():
                assert mk.count_geodesics(g, u, v) == per_vertex_geodesics(g, u, v)

    def test_isolated_vertices_match_the_per_vertex_reference(self):
        rng = np.random.default_rng(350)
        for n in (20, 90):
            g = sampling.random_connected_graph(rng, n, extra_edges=2 * n)
            # spread the vertices over 2n ids, so that about half meet no edge
            ids = rng.permutation(2 * n)[:n]
            g = mk.WeightedGraph(2 * n, [(int(ids[u]), int(ids[v]), float(rng.integers(1, 4))) for u, v, _ in g.edges])
            for u, v in rng.choice(ids, size=(40, 2)).tolist():
                assert mk.count_geodesics(g, u, v) == per_vertex_geodesics(g, min(u, v), max(u, v))

    def test_matches_an_enumeration_that_shares_no_code(self):
        # every ordered pair of small graphs with edges given in both id
        # orders, small int lengths that tie routes, and vertices no edge meets
        rng = np.random.default_rng(410)
        cases = [(1, []), (2, []), (4, [(0, 1, 1), (3, 1, 1), (0, 2, 1), (2, 3, 1)])]
        for _ in range(100):
            n = int(rng.integers(2, 10))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            picked = rng.permutation(len(pairs))[: int(rng.integers(0, min(len(pairs), 2 * n) + 1))]
            edges = [pairs[k][:: rng.choice((1, -1))] + (int(rng.integers(1, 4)),) for k in picked.tolist()]
            cases.append((n, edges))
        tied = unreachable = isolated = 0
        for n, edges in cases:
            g = mk.WeightedGraph(n, edges)
            isolated += len({x for a, b, _ in edges for x in (a, b)}) < n
            for u in range(n):
                for v in range(n):
                    want = enumerated_geodesics(n, edges, u, v)
                    if want == 0:
                        with pytest.raises(mk.UnreachableError):
                            mk.count_geodesics(g, u, v)
                    else:
                        assert mk.count_geodesics(g, u, v) == want, (n, edges, u, v)
                    tied += want > 1
                    unreachable += want == 0
        assert tied >= 250 and unreachable >= 500 and isolated >= 30

    def test_counts_past_2_64(self):
        g = mk.grid_graph(60, 60)
        count = mk.count_geodesics(g, 0, grid_vertex(60, 59, 59))
        assert count == math.comb(118, 59) > 2**64
        assert mk.count_geodesics(g, grid_vertex(60, 59, 0), grid_vertex(60, 0, 59)) == count

    def test_non_integer_lengths_refused(self):
        g = mk.WeightedGraph(2, [(0, 1, 1.5)])
        for _ in range(2):  # the length check is kept with the graph, and refuses every time
            with pytest.raises(ValueError, match="integer edge lengths, got 1.5"):
                mk.count_geodesics(g, 0, 1)
        # path sums from 2**53 on are not exact in float64: 2**53 + 1 rounds
        # to 2**53, which would tie the two routes from 0 to 2
        g = mk.WeightedGraph(3, [(0, 1, 2.0**53), (1, 2, 1.0), (0, 2, 2.0**53)])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            mk.count_geodesics(g, 0, 2)
        edges = [(k, k + 1, 2.0**51) for k in range(4)]
        with pytest.raises(ValueError, match="2\\*\\*53"):
            mk.count_geodesics(mk.WeightedGraph(5, edges), 0, 1)
        assert mk.count_geodesics(mk.WeightedGraph(5, edges[:3] + [(3, 4, 2.0**51 - 1)]), 0, 4) == 1

    def test_disconnected_refused(self):
        g = mk.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(mk.UnreachableError, match="no path joins vertices 0 and 2"):
            mk.count_geodesics(g, 0, 2)

    def test_counts_over_the_row_the_distance_read(self):
        rng = np.random.default_rng(77)
        graphs_ = [mk.grid_graph(w, h) for w, h in ((1, 9), (13, 8), (30, 30))]
        for n in (20, 150):
            g = sampling.random_connected_graph(rng, n, extra_edges=2 * n)
            graphs_.append(mk.WeightedGraph(n, [(u, v, float(rng.integers(1, 4))) for u, v, _ in g.edges]))
        for g in graphs_:
            for _ in range(6):
                v, u = sorted(rng.integers(0, g.vertex_count, size=2).tolist())
                if u == v:
                    continue
                mk.shortest_path_distance(g, u, v)
                rows = list(g._sssp_cache)
                count = mk.count_geodesics(g, u, v)
                assert v in rows and list(g._sssp_cache) == rows  # no row beyond the distance's
                assert count == mk.count_geodesics(g, v, u) == per_vertex_geodesics(g, u, v)
        # the errors name the pair in the caller's order
        g = mk.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(mk.UnreachableError, match="no path joins vertices 2 and 0"):
            mk.count_geodesics(g, 2, 0)


class TestPolyline:
    def test_validation(self):
        with pytest.raises(ValueError, match="two vertices"):
            mk.Polyline([(0, 0)])
        with pytest.raises(ValueError, match="distinct"):
            mk.Polyline([(0, 0), (0, 0), (1, 1)])
        # vertices: as the scalar point check reads them, in one batch
        for bad in (("3", "4"), (True, False), (0.5, math.nan)):
            with pytest.raises(ValueError) as one:
                as_point(bad, dim=2)
            with pytest.raises(ValueError) as batch:
                mk.Polyline([(0.5, 0.5), bad])
            assert type(batch.value) is type(one.value) and str(batch.value) == str(one.value), bad
        with pytest.raises(ValueError, match="expected a 2-dimensional point"):
            mk.Polyline([(0, 0), (1, 2, 3)])
        poly = mk.Polyline([(0, 0), (3, 4), (3, 5)])
        assert poly.vertices.dtype == np.float64 and poly.vertices.shape == (3, 2)
        assert poly.cumulative == (0.0, 5.0, 6.0)
        # vertex indices: integral values only, nothing truncated
        arc = mk.PolylineArc(mk.Polyline([(0, 0), (1, 0), (1, 1)]))
        for ok in (1, np.int64(1), 1.0, np.float32(1.0)):
            assert arc.validate_point(ok) == 1 and type(arc.validate_point(ok)) is int
        for bad in (1.7, True, np.float32(1.5), math.nan, -math.inf, "1", -1, 3):
            with pytest.raises(mk.CarrierError):
                arc.validate_point(bad)

    def test_an_overflowing_length_is_refused(self):
        # the first chain's steps overflow the subtraction; the second's are finite, their sum is not
        for vertices in ([(1e308, 0), (-1e308, 0), (1e308, 0)], [(1e308, 0), (0, 0), (1e308, 0), (0, 0)]):
            with pytest.raises(ValueError, match="total length of the polyline overflows"):
                mk.Polyline(vertices)
        assert mk.Polyline([(1e308, 0), (0, 0)]).total_length == 1e308

    def test_identity(self):
        c = mk.Polyline([(0, 0), (1, 0), (2, 0)])
        assert c.arc_distance(1, 1) == 0.0

    def test_straight_chain_is_flat(self):
        c = mk.Polyline([(0, 0), (1, 0), (2, 0)])
        assert c.arc_distance(0, 2) == 2.0
        assert c.arc_distance(0, 2) == mk.euclidean_distance((0, 0), (2, 0))

    def test_right_angle_chain(self):
        c = mk.Polyline([(0, 0), (1, 0), (1, 1)])
        assert mk.polyline_arc_distance(c, 0, 2) == 2.0
        assert mk.euclidean_distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert mk.polyline_arc_distance(c, 0, 2) > mk.euclidean_distance((0, 0), (1, 1))

    def test_index_out_of_range(self):
        c = mk.Polyline([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="index"):
            c.arc_distance(0, 2)

    def test_chord_below_arc(self, rng):
        for _ in range(50):
            c = sampling.random_polyline(rng, int(rng.integers(2, 20)))
            n = len(c)
            for i in range(n):
                for j in range(n):
                    chord = mk.euclidean_distance(c.vertices[i], c.vertices[j])
                    assert chord <= c.arc_distance(i, j) + 1e-12

    def test_arc_metric_is_flat(self, rng):
        # arc distances coincide exactly with line distances of the
        # cumulative parameters: the chain is isometric to a segment
        for _ in range(20):
            c = sampling.random_polyline(rng, 12)
            for i in range(12):
                for j in range(12):
                    line = mk.real_line_distance(c.cumulative[i], c.cumulative[j])
                    assert c.arc_distance(i, j) == line

    def test_arc_matches_segment_sums(self, rng):
        c = sampling.random_polyline(rng, 30)
        for i in range(30):
            for j in range(i, 30):
                direct = sum(
                    mk.euclidean_distance(c.vertices[k], c.vertices[k + 1]) for k in range(i, j)
                )
                assert c.arc_distance(i, j) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_polyline_axioms(self, rng):
        c = sampling.random_polyline(rng, 24)
        assert mk.verify_axioms(mk.PolylineArc(c), list(range(24))).all_ok


class TestSimplicity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        chain=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=6),
        scale=st.sampled_from([2.0**-600, 2.0**600]),
    )
    @example(chain=[(2, 2), (0, 0), (1, 1)], scale=2.0**-600)
    @example(chain=[(10, 10), (0, 0), (5, 6)], scale=2.0**-600)
    def test_verdict_is_unchanged_by_scaling(self, chain, scale):
        # scaling by a power of two is exact, and float products of the
        # scaled coordinates underflow to 0 or overflow to inf
        chain = [p for k, p in enumerate(chain) if k == 0 or p != chain[k - 1]]
        if len(chain) < 2:
            return
        scaled = [(x * scale, y * scale) for x, y in chain]
        assert mk.polyline_is_simple(mk.Polyline(scaled)) == mk.polyline_is_simple(mk.Polyline(chain))

    def test_simple_chain(self):
        assert mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (1, 1), (0, 1)]))

    def test_crossing_chain(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 2), (2, 0), (0, 2)]))

    def test_fold_back(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 0), (1, 0)]))
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 0), (-1, 0)]))
        # float products of these coordinates underflow to 0: the first
        # chain folds back, and the second turns, as its copy scaled by 2e200 does
        assert not mk.polyline_is_simple(mk.Polyline([(1e-200, 1e-200), (0, 0), (5e-201, 5e-201)]))
        assert mk.polyline_is_simple(mk.Polyline([(1e-200, 1e-200), (0, 0), (5e-201, 6e-201)]))
        assert mk.polyline_is_simple(mk.Polyline([(2, 2), (0, 0), (1, 1.2)]))

    def test_straight_continuation_ok(self):
        assert mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (2, 0)]))

    def test_closed_loop_counts_as_touching(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (1, 1), (0, 0)]))
        # an end of one segment on a later segment that is not adjacent to it:
        # (0, 0) ends the first segment and lies on the last one
        assert not mk.polyline_is_simple(mk.Polyline([(0, 1), (0, 0), (1, 0), (1, -1), (-1, 1)]))
        # (1, 0) ends the last segment and lies on the first one
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 0), (2, -1), (1, 0)]))
        # (5e-201, 5e-201) starts the last segment and lies on the first one; the
        # fold test's dot product underflows to 0, so the touch test finds it
        assert not mk.polyline_is_simple(mk.Polyline([(1e-200, 1e-200), (0, 0), (5e-201, 5e-201), (-1, 1)]))
