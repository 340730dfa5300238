"""Path metrics: shortest-path distance on weighted graphs, unit grids,
geodesic counting, and arc length along polylines.

Distances defined by minimizing path lengths satisfy the triangle inequality
by route concatenation, so these carriers are metric spaces whenever every
vertex pair is connected.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Sequence

import numpy as np

from .errors import CarrierError, UnreachableError
from .points import as_index, as_integer, as_points, hypot_rows

# A graph keeps its SSSP rows up to this many floats in all (8 MiB), and
# always the newest row; past it the oldest row goes first.
SSSP_CACHE_FLOATS = 2**20

# Rows built together hold at most this many floats (1 MiB) per array round:
# 4m + n per row, a candidate label and a length for each of the 2m arcs of
# m edges, and a label for each of n vertices.
SSSP_ROUND_FLOATS = 2**17

# An array round takes about as long as popping ROUND_FIXED_POPS heap
# entries, with the relaxations of their arcs, shared by the rows in the
# round, plus one entry per ROUND_ARCS_PER_POP arcs and labels of each row
# (see WeightedGraph._sssp).
ROUND_FIXED_POPS = 32
ROUND_ARCS_PER_POP = 300


class WeightedGraph:
    """Undirected graph with strictly positive edge lengths.

    Edges are (u, v, length) triples over vertex ids 0..vertex_count-1; loops,
    nonpositive lengths, and duplicate undirected edges are rejected; an edge
    that is not a triple, or whose length is not an int or a float, raises
    CarrierError, as ``edges`` that are not iterable do; an int length past
    the float range is refused as a nonfinite one. The vertex count and the
    ids are integers, checked as ``as_integer`` checks them, so no id is
    silently truncated. The checked edges are kept once, in input order, as an
    int64 (2, m) id array and a float64 (m,) length array; ``edges`` reads
    them back as (int, int, float) triples. One arc layout by degree levels is
    built from those arrays, with the arcs of each vertex for the heap (see
    ``_set_edges``); only the array rounds of the shortest-path routine read
    the layout. ``coords`` optionally embeds each vertex (used by grids): one
    point per vertex, the rows of an (n, d) array. Shortest-path rows are
    memoized per source, up to ``SSSP_CACHE_FLOATS`` floats in all, oldest out
    first; the graph must not be mutated after construction.
    """

    def __init__(self, vertex_count: int, edges: Sequence[tuple], coords=None):
        vertex_count = as_integer(vertex_count, "vertex_count")
        if vertex_count <= 0:
            raise ValueError(f"vertex_count must be positive, got {vertex_count}")
        try:
            edges = iter(edges)
        except TypeError:
            raise CarrierError(f"edges must be an iterable of (u, v, length) triples, got {edges!r}") from None
        edges = list(edges)
        # one pass reads the edges, up to the first one it cannot read; the
        # edges before it are checked by array passes
        us, vs, lengths, unread = [], [], [], None
        try:
            for e in edges:
                try:
                    u, v, length = e
                except (TypeError, ValueError):
                    raise CarrierError(f"edge {e!r} must be a (u, v, length) triple") from None
                if not (type(u) is int and type(v) is int):
                    u, v = (as_integer(w, f"vertex id in edge {e}") for w in (u, v))
                # a length is an int or a float, as a coordinate is; float() would also read bools, strings and bytes
                if type(length) not in (int, float) and not isinstance(length, (np.integer, np.floating)):
                    raise CarrierError(f"edge {e} must have a number as its length, got {length!r}")
                try:
                    lengths.append(float(length))
                except OverflowError:  # an int past the float range, refused with the nonfinite lengths
                    lengths.append(math.inf)
                us.append(u)
                vs.append(v)
        except Exception as err:
            unread = err
        try:
            ids = np.array([us, vs], dtype=np.int64)
        except OverflowError:  # an id past int64, which the range check refuses
            ids = np.array([us, vs], dtype=object)
        self._set_edges(vertex_count, ids, np.array(lengths, dtype=float), edges.__getitem__, unread, coords)

    @classmethod
    def _from_arrays(cls, vertex_count: int, ids: np.ndarray, lengths: np.ndarray, coords=None) -> WeightedGraph:
        """The graph of a positive int ``vertex_count`` and the edges
        (ids[:, k], lengths[k]) of an int64 (2, m) and a float64 (m,) array,
        checked and laid out as ``__init__`` checks and lays out the edges
        it reads."""
        g = cls.__new__(cls)
        g._set_edges(vertex_count, ids, lengths, lambda k: (*ids[:, k].tolist(), lengths.item(k)), None, coords)
        return g

    def _set_edges(self, n: int, ids: np.ndarray, lengths: np.ndarray, edge, unread, coords) -> None:
        """Check the edges (ids, lengths), of which ``edge(k)`` is the k-th
        as given, raise ``unread`` if one could not be read, and lay out
        their arcs once.

        The layout is by degree levels. Positions order the vertices by
        falling degree, stably: ``order[p]`` is the vertex at position p,
        and ``place`` maps a vertex to its position. Level k holds the k-th
        arc, in edge order, of every vertex of degree > k, so its heads are
        the positions 0..width-1 in order. ``_layout`` is (order, place,
        tails, lengths, levels): the tail positions and the lengths of the
        arcs of level 0, then level 1, and so on, and (start, width) for
        each level. A vertex that no edge meets is in no level. ``_adj[u]``
        holds the arcs of u in edge order, as (tail, length) pairs for the
        heap; they share one int per vertex and one float per edge.
        """
        fault = _first_edge_fault(n, ids, lengths, edge)
        if fault is not None:
            raise ValueError(fault)
        if unread is not None:
            raise unread
        if coords is not None:
            coords = as_points(coords)
            if len(coords) != n:
                raise ValueError("coords must list one point per vertex")
        self.vertex_count, self._ids, self._lengths, self.coords = n, ids, lengths, coords
        degree = np.bincount(ids.ravel(), minlength=n)
        starts = np.cumsum(degree) - degree
        # both directions of every edge, stably sorted by head: each head's
        # arcs in edge order
        edge = np.argsort(ids.T.ravel(), kind="stable")
        tails = ids[::-1].T.ravel()[edge]
        edge //= 2
        arcs = list(zip(np.arange(n, dtype=object)[tails].tolist(), lengths.astype(object)[edge].tolist()))
        self._adj = tuple(tuple(arcs[a : a + d]) for a, d in zip(starts.tolist(), degree.tolist()))
        del arcs  # its 8 bytes per arc go before the level arrays are built
        order = np.argsort(-degree, kind="stable")
        place = np.empty(n, dtype=np.int64)
        place[order] = np.arange(n)
        widths = n - np.cumsum(np.bincount(degree))[:-1]  # level k: the vertices of degree > k
        level_starts = np.cumsum(widths) - widths
        # an arc's level is its rank among its head's arcs
        heads = np.repeat(np.arange(n), degree)
        at = level_starts[np.arange(len(tails)) - starts[heads]] + place[heads]
        level_tails, level_lengths = np.empty_like(tails), np.empty(len(tails))
        level_tails[at], level_lengths[at] = place[tails], lengths[edge]
        self._layout = order, place, level_tails, level_lengths, tuple(zip(level_starts.tolist(), widths.tolist()))
        self._sssp_cache: dict[int, np.ndarray] = {}

    @property
    def edges(self) -> tuple:
        """The (u, v, length) triples in input order, as ints and floats."""
        return tuple(zip(*self._ids.tolist(), self._lengths.tolist()))

    def check_vertex(self, u) -> int:
        return as_index(u, self.vertex_count, "vertex id")

    def single_source(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex (inf where unreachable).

        The one-source case of ``source_rows``: a read-only float64 array,
        memoized per source. A distance past the float range raises
        ValueError rather than reading as unreachable.
        """
        source = self.check_vertex(source)
        cached = self._sssp_cache.get(source)
        if cached is not None:
            return cached
        return self._keep(source, self._sssp([source])[0])

    def source_rows(self, sources: list[int]):
        """The ``single_source`` row of each vertex id in ``sources`` (ids
        that ``check_vertex`` accepted), in order, one at a time.

        The rows not cached are built together, as many at a time as fit
        SSSP_ROUND_FLOATS floats per array round, and cached as
        ``single_source`` caches them. The rows of one build are held until
        they are given out, so a cache too small for them builds none twice.
        """
        built: dict[int, np.ndarray] = {}
        step = max(1, SSSP_ROUND_FLOATS // (4 * len(self._lengths) + self.vertex_count))
        for k, s in enumerate(sources):
            row = built.get(s)
            if row is None:
                row = self._sssp_cache.get(s)
            if row is None:
                cold = list(dict.fromkeys(t for t in sources[k:] if t not in self._sssp_cache))[:step]
                built = {t: self._keep(t, r) for t, r in zip(cold, self._sssp(cold))}
                row = built[s]
            yield row

    def _keep(self, source: int, row: np.ndarray) -> np.ndarray:
        """Cache the SSSP row of ``source``, oldest rows out first, after
        refusing one whose distances overflowed."""
        if math.isinf(row.max()):
            # an edge from a reached vertex always reaches its other end,
            # unless d + w rounded to inf: then the distance overflowed
            ends = np.isinf(row)[self._ids]
            over = ends[0] != ends[1]
            if over.any():
                k = int(over.argmax())
                far = self._ids[int(ends[1, k]), k]
                raise ValueError(f"the distance from vertex {source} to vertex {far} overflows the float range")
        row.setflags(write=False)
        cache = self._sssp_cache
        while cache and (len(cache) + 1) * self.vertex_count > SSSP_CACHE_FLOATS:
            del cache[next(iter(cache))]
        cache[source] = row
        return row

    def _sssp(self, sources: list[int]) -> list[np.ndarray]:
        """The distance rows of distinct vertex ids, by one Dijkstra that
        pops a binary heap while a row's frontier is narrow and relaxes all
        the row's labels at once, in array rounds that the rows share, while
        it is wide.

        Each row starts in the heap phase, over ``_adj``. One test moves it
        into the rounds, and one moves it out. It joins them when
        ``_settle`` finds its heap holding ``wide(R)`` entries, for the R
        rows asked for. The rows in the rounds are the columns of a label
        array with one row per vertex position (see ``_set_edges``). A round
        gathers the label of every arc's tail, a run of one float per row
        at a time, adds the arc's length, and takes one ``np.minimum`` per
        degree level: level k lowers the heads at positions 0..width-1. A
        row whose round improves fewer than ``wide(R)`` labels, for the R
        rows then in the rounds, leaves them and ends in the heap phase,
        seeded with the vertices that round improved; that heap lowers the
        row's own array in place, through a memoryview, whose items read and
        write the same doubles as a list of Python floats.

        ``wide(R)`` is ceil(F / R) + ceil((2m + n) / A) for m edges and n
        vertices, F = ROUND_FIXED_POPS and A = ROUND_ARCS_PER_POP: the rows
        share a round's fixed cost, and each pays for its own arcs and
        labels. README's Performance section gives the timings that fix F
        and A.

        Exact, bit for bit, whatever the mix of phases. Every label is fl(a +
        w) for the label a of a neighbor, so it is the left-to-right rounded
        sum of the lengths of some path. Rounding is monotone, so the least
        such sum to a vertex extends best: the least sums are the one set of
        labels that every path sum bounds and that no arc can lower. Both
        phases lower labels only to path sums, and a minimum is exact in any
        order, since no label is NaN or -0.0. A row leaves both phases only
        when no arc can lower a label: the heap when it is empty, the rounds
        through a round that improved nothing or through the final heap.
        After a round, only the arcs out of the vertices it improved can
        lower a label. The heap seeded with them pops labels in
        nondecreasing order, since fl(a + w) >= a for w > 0, so it pops each
        vertex at most once, with its final label, and skips the entries
        that a later push made stale.
        """
        adj, n = self._adj, self.vertex_count
        order, place, tails, lengths, levels = self._layout
        per_row = -(-(len(tails) + n) // ROUND_ARCS_PER_POP)

        def wide(shared: int) -> int:
            return -(-ROUND_FIXED_POPS // shared) + per_row

        rows: list = [None] * len(sources)
        joined = []
        for k, s in enumerate(sources):
            dist = [math.inf] * n
            dist[s] = 0.0
            heap = [(0.0, s)]
            if _settle(adj, dist, heap, wide(len(sources))):
                joined.append((k, dist))
            else:
                rows[k] = np.array(dist, dtype=float)
        if not joined:
            return rows
        # labels[p, r] is the label in row r of the vertex at position p;
        # positions 0..heads-1 head the arcs
        labels = np.array([dist for _, dist in joined], dtype=float).T[order]
        joined = [k for k, _ in joined]
        heads = levels[0][1]
        # each arc's candidate label and its length once per row, for as many
        # rows as are left
        cand_floats, spread_floats = np.empty((2, len(tails) * len(joined)))
        with np.errstate(over="ignore"):  # a sum past the float range is refused by _keep
            while joined:
                cand = cand_floats[: len(tails) * len(joined)].reshape(len(tails), len(joined))
                spread = spread_floats[: cand.size].reshape(cand.shape)
                spread[:] = lengths[:, None]
                # each level's arcs beside the heads they lower
                best = cand[:heads]
                folds = [(best[:width], cand[lo : lo + width]) for lo, width in levels[1:]]
                while True:
                    labels.take(tails, axis=0, out=cand, mode="clip")  # "clip" writes out unbuffered
                    cand += spread
                    for acc, level in folds:
                        np.minimum(acc, level, out=acc)
                    better = best < labels[:heads]
                    np.minimum(labels[:heads], best, out=labels[:heads])
                    narrow = better.sum(axis=0) < wide(len(joined))
                    if narrow.any():
                        break
                for i in np.flatnonzero(narrow).tolist():
                    row = labels[place, i]
                    seeds = np.flatnonzero(better[:, i])
                    heap = list(zip(labels[seeds, i].tolist(), order[seeds].tolist()))
                    heapq.heapify(heap)
                    _settle(adj, memoryview(row), heap, sys.maxsize)
                    rows[joined[i]] = row
                labels = labels[:, ~narrow].copy()  # C order, so a gather copies whole rows
                joined = [k for k, gone in zip(joined, narrow.tolist()) if not gone]
        return rows

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance between two vertex ids that ``check_vertex``
        accepted, read from the ``single_source`` row of the smaller one, so
        it is bitwise symmetric in (u, v). UnreachableError when no path
        joins them."""
        source, target = (u, v) if u <= v else (v, u)
        row = self._sssp_cache.get(source)
        if row is None:
            row = self.single_source(source)
        d = row.item(target)
        if math.isinf(d):
            raise no_path_error(u, v)
        return d


def _settle(adj, dist: list | memoryview, heap: list, wide: int) -> bool:
    """Dijkstra's heap phase: pop the least (label, vertex) entry of
    ``heap``, skip it if a later push made it stale, and lower ``dist`` (a
    list of floats, or a memoryview of a float64 row) over its arcs in
    ``adj``, until the heap is empty (False) or holds at least ``wide``
    entries (True). The size is checked every 16 pops, which saves a check
    per pop, so a heap may stop past ``wide``."""
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        if len(heap) >= wide:
            return True
        for _ in range(16):
            if not heap:
                return False
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
    return False


def _first_edge_fault(n: int, ids: np.ndarray, lengths: np.ndarray, edge) -> str | None:
    """The error message for the first edge ``edge(k)``, in input order, that
    references a vertex outside 0..n-1, is a loop, has a length that is not
    finite and positive, or repeats an earlier undirected edge, checked in
    that order; None when every edge holds. Edge k has the ids ``ids[:, k]``
    (an object array when one id is past int64) and the length
    ``lengths[k]``; ``edge(k)`` is the edge as its caller gave it."""
    outside = ((ids < 0) | (ids >= n)).any(0)
    cut = int(outside.argmax()) if outside.any() else len(lengths)
    # the edges before the first one out of range, whose ids all fit int64
    u, v = ids[:, :cut].astype(np.int64)
    length = lengths[:cut]
    loop = u == v
    bad_length = ~((length > 0) & np.isfinite(length))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # stable: equal keys keep input order
    lo, hi = lo[order], hi[order]
    repeat = np.zeros(cut, dtype=bool)
    repeat[order[1:][(lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]] = True
    faulty = loop | bad_length | repeat
    if faulty.any():
        k = int(faulty.argmax())
        if loop[k]:
            return f"loop edge at vertex {u[k]} is not allowed"
        if bad_length[k]:
            return f"edge {edge(k)} must have a finite positive length"
        return f"duplicate undirected edge {tuple(sorted(ids[:, k].tolist()))}"
    if cut < len(lengths):
        return f"edge {edge(cut)} references a vertex outside 0..{n - 1}"
    return None


def no_path_error(u: int, v: int) -> UnreachableError:
    """The error for a vertex pair that no path joins."""
    return UnreachableError(
        f"no path joins vertices {u} and {v}: the distance is infinite, so a "
        "disconnected graph is not a metric space over all vertices"
    )


def shortest_path_distance(g: WeightedGraph, u, v) -> float:
    """Length of a minimum-length path between two vertices.

    Runs from the smaller vertex id, so the result is bitwise symmetric in
    (u, v). A disconnected pair raises UnreachableError: the vertex set is
    not a metric space when distances fail to be finite.
    """
    n = g.vertex_count
    return g.distance(as_index(u, n, "vertex id"), as_index(v, n, "vertex id"))


def grid_graph(width: int, height: int) -> WeightedGraph:
    """Unit-spacing street grid: lattice points (i, j) with 0 <= i < width,
    0 <= j < height, joined to horizontal and vertical neighbors by edges of
    length 1. Vertex (i, j) has id ``j * width + i`` and coords (i, j).
    """
    width, height = as_integer(width, "grid width"), as_integer(height, "grid height")
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be at least 1")
    # for each vertex in row-major order, its right edge and then its down edge
    ids = np.arange(width * height, dtype=np.int64)
    tails = np.repeat(ids, 2)
    heads = tails + np.tile([1, width], width * height)
    keep = np.column_stack([ids % width + 1 < width, ids // width + 1 < height]).ravel()
    # built as floats, so as_points copies them once and casts nothing
    xs, ys = np.arange(width, dtype=float), np.arange(height, dtype=float)
    coords = np.column_stack([np.tile(xs, height), np.repeat(ys, width)])
    return WeightedGraph._from_arrays(width * height, np.stack([tails[keep], heads[keep]]), np.ones(keep.sum()), coords)


def grid_vertex(width: int, i: int, j: int) -> int:
    """Vertex id of lattice point (i, j) in a grid of the given width.
    CarrierError for an i outside 0..width-1 or a negative j, which would
    alias the id of another point."""
    j, width, i = as_integer(j, "j"), as_integer(width, "grid width"), as_integer(i, "i")
    if not (0 <= i < width and j >= 0):
        raise CarrierError(f"lattice point ({i}, {j}) is outside a grid of width {width}")
    return j * width + i


def count_geodesics(g: WeightedGraph, u, v) -> int:
    """Number of distinct minimum-length paths between two vertices.

    Requires every edge length to be a positive integer so that ties between
    path lengths are detected exactly; real-valued lengths are refused
    rather than compared against a tolerance. The total edge length must
    also be below 2**53: every shortest path is at most that long, so every
    distance and every sum compared below is an exact float64 integer.
    Larger graphs are refused with ValueError. The float sum of the lengths
    decides the bound exactly: it is exact below 2**53, and once the true
    sum reaches 2**53 no rounding takes it below.

    Counts as in Brandes' betweenness algorithm from the smaller id s to the
    larger t (a path reversed is a path, so the count is symmetric), over the
    cached ``single_source(s)`` row that ``WeightedGraph.distance`` reads for
    the pair: sigma(s) = 1, and each tight edge a -> b (either way along an
    edge, d(s, a) + w(a, b) == d(s, b) <= d(s, t)), in order of d(s, a),
    adds sigma(a) to sigma(b). Errors name (u, v) in the caller's order.
    """
    u, v = g.check_vertex(u), g.check_vertex(v)
    lengths = g._lengths
    fractional = np.floor(lengths) != lengths
    if fractional.any():
        raise ValueError(f"geodesic counting requires integer edge lengths, got {float(lengths[fractional.argmax()])}")
    with np.errstate(over="ignore"):  # lengths near the float maximum sum to inf
        total = lengths.sum()
    if total >= 2**53:
        raise ValueError(
            f"geodesic counting requires a total edge length below 2**53, got {sum(map(int, lengths.tolist()))}: "
            "longer path sums are not exact in float64"
        )
    s, t = (u, v) if u <= v else (v, u)
    d = g.single_source(s)
    if math.isinf(d[t]):
        raise no_path_error(u, v)
    if s == t:
        return 1  # the path of no edges
    # every edge both ways: the arcs tails[k] -> heads[k]
    tails, heads = np.concatenate((g._ids, g._ids[::-1]), axis=1)
    tight = (d[tails] + np.concatenate((lengths, lengths)) == d[heads]) & (d[heads] <= d[t])
    tails, heads = tails[tight], heads[tight]
    by_distance = np.argsort(d[tails], kind="stable")
    sigma = [0] * g.vertex_count
    sigma[s] = 1
    # memoryviews yield the tight arcs' ends as Python ints, with no list built
    for a, b in zip(memoryview(tails[by_distance]), memoryview(heads[by_distance])):
        sigma[b] += sigma[a]
    return sigma[t]


class Polyline:
    """An ordered chain of at least two plane points with distinct neighbors,
    ``vertices``, the rows of an (n, 2) array.

    ``arc_distance`` measures length along the chain. Internally each vertex
    gets a cumulative arc-length parameter; distances are absolute parameter
    differences, which makes the chain isometric to a segment of the real
    line (flat in its own metric, however curved it looks from outside).
    """

    def __init__(self, vertices: Sequence):
        pts = as_points(vertices, dim=2)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        with np.errstate(over="ignore"):  # a step past the float range is refused below
            steps = np.diff(pts, axis=0)
        if (steps == 0).all(1).any():  # finite a - b is 0 exactly when a == b
            raise ValueError("consecutive polyline vertices must be distinct")
        self.vertices = pts
        self.cumulative = tuple(itertools.accumulate(hypot_rows(steps).tolist(), initial=0.0))
        if math.isinf(self.cumulative[-1]):
            raise ValueError("the total length of the polyline overflows the float range")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def total_length(self) -> float:
        return self.cumulative[-1]

    def arc_distance(self, i, j) -> float:
        """Length along the chain between vertices i and j."""
        i, j = (as_index(k, len(self.vertices), "vertex index") for k in (i, j))
        return abs(self.cumulative[j] - self.cumulative[i])


polyline_arc_distance = Polyline.arc_distance


def _orient(a, b, c) -> int:
    """Twice the signed area of abc, > 0 when c is left of a -> b: exact for int coordinates."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def polyline_is_simple(c: Polyline) -> bool:
    """True when the chain has no self-intersections.

    Adjacent segments may share their common vertex but must not double back
    over each other; non-adjacent segments must not touch at all (a chain
    whose last vertex revisits the first therefore counts as non-simple).
    """
    # float products of tiny coordinates underflow to 0; ints over one power-of-two denominator are exact
    ratios = [x.as_integer_ratio() for x in c.vertices.ravel().tolist()]
    den = max(d for _, d in ratios)
    exact = [n * (den // d) for n, d in ratios]
    pts = list(zip(exact[::2], exact[1::2]))
    segs = list(zip(pts, pts[1:]))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a, b = segs[i]
            p, q = segs[j]
            if j == i + 1:
                # share vertex b == p; the chain folds back if q is on ab or a on bq
                if _orient(a, b, q) == 0 and (_on_segment(a, b, q) or _on_segment(b, q, a)):
                    return False
                continue
            if _segments_intersect(a, b, p, q):
                return False
    return True
