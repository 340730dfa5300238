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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import UnreachableError
from .points import as_index, as_integer, as_point, as_points, hypot_rows


class WeightedGraph:
    """Undirected graph with strictly positive edge lengths.

    Edges are (u, v, length) triples over vertex ids 0..vertex_count-1; loops,
    nonpositive lengths, and duplicate undirected edges are rejected. The
    vertex count and the ids are integers, checked as ``as_integer`` checks
    them, so no id is silently truncated. ``coords`` optionally embeds each
    vertex in the plane (used by grids), one point per vertex.
    Shortest-path results are memoized per source; the graph must not be
    mutated after construction.
    """

    def __init__(self, vertex_count: int, edges: Sequence[tuple], coords=None):
        vertex_count = as_integer(vertex_count, "vertex_count")
        if vertex_count <= 0:
            raise ValueError(f"vertex_count must be positive, got {vertex_count}")
        self.vertex_count = vertex_count
        seen = set()
        cleaned = []
        for e in edges:
            u, v, length = e
            if not (type(u) is int and type(v) is int):
                u, v = (as_integer(w, f"vertex id in edge {e}") for w in (u, v))
            length = float(length)
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
        self.edges = tuple(cleaned)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
        for u, v, length in self.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        self._adj = tuple(tuple(nbrs) for nbrs in adj)
        if coords is not None:
            coords = as_points(coords)
            if len(coords) != vertex_count:
                raise ValueError("coords must list one point per vertex")
        self.coords = coords
        self._sssp_cache: dict[int, np.ndarray] = {}

    @cached_property
    def _integer_length_total(self) -> int | None:
        """The sum of the edge lengths when every one is an integer, else
        None; computed once, since the graph is not mutated."""
        if not all(length.is_integer() for _, _, length in self.edges):
            return None
        return sum(int(length) for _, _, length in self.edges)

    def check_vertex(self, u) -> int:
        return as_index(u, self.vertex_count, "vertex id")

    def single_source(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex (inf where unreachable).

        Label-setting Dijkstra with a binary heap over Python lists; exact
        for the nonnegative weights enforced at construction. The result is
        a read-only float64 array, memoized per source.
        """
        # an int with a cached row was checked when the row was built; True
        # and 1.0 hash like 1, so every other type is checked before the lookup
        if type(source) is not int:
            source = self.check_vertex(source)
        cached = self._sssp_cache.get(source)
        if cached is not None:
            return cached
        self.check_vertex(source)  # an int with no row yet
        dist = [math.inf] * self.vertex_count
        dist[source] = 0.0
        done = [False] * self.vertex_count
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        row = np.array(dist)
        row.setflags(write=False)
        self._sssp_cache[source] = row
        return row

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance between two vertex ids that ``check_vertex``
        accepted, read from the ``single_source`` row of the smaller one, so
        it is bitwise symmetric in (u, v). UnreachableError when no path
        joins them."""
        source, target = (u, v) if u <= v else (v, u)
        d = float(self.single_source(source)[target])
        if math.isinf(d):
            raise no_path_error(u, v)
        return d


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
    return g.distance(g.check_vertex(u), g.check_vertex(v))


def grid_graph(width: int, height: int) -> WeightedGraph:
    """Unit-spacing street grid: lattice points (i, j) with 0 <= i < width,
    0 <= j < height, joined to horizontal and vertical neighbors by edges of
    length 1. Vertex (i, j) has id ``j * width + i`` and coords (i, j).
    """
    width, height = int(width), int(height)
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be at least 1")

    def vid(i, j):
        return j * width + i

    edges = []
    for j in range(height):
        for i in range(width):
            if i + 1 < width:
                edges.append((vid(i, j), vid(i + 1, j), 1))
            if j + 1 < height:
                edges.append((vid(i, j), vid(i, j + 1), 1))
    # built as floats, so as_points copies them once and casts nothing
    xs, ys = np.arange(width, dtype=float), np.arange(height, dtype=float)
    coords = np.column_stack([np.tile(xs, height), np.repeat(ys, width)])
    return WeightedGraph(width * height, edges, coords=coords)


def grid_vertex(width: int, i: int, j: int) -> int:
    """Vertex id of lattice point (i, j) in a grid of the given width."""
    return int(j) * int(width) + int(i)


def count_geodesics(g: WeightedGraph, u, v) -> int:
    """Number of distinct minimum-length paths between two vertices.

    Requires every edge length to be a positive integer so that ties between
    path lengths are detected exactly; real-valued lengths are refused
    rather than compared against a tolerance. The total edge length must
    also be below 2**53: every shortest path is at most that long, so every
    distance and every sum compared below is an exact float64 integer.
    Larger graphs are refused with ValueError.

    Counts as in Brandes' betweenness algorithm, by dynamic programming over
    the cached ``single_source(u)`` row: sigma(u) = 1, and in order of
    distance, sigma(b) is the sum of sigma(a) over the neighbors a with
    d(u, a) + w(a, b) == d(u, b).
    """
    u, v = g.check_vertex(u), g.check_vertex(v)
    total = g._integer_length_total
    if total is None:
        length = next(length for _, _, length in g.edges if not length.is_integer())
        raise ValueError(f"geodesic counting requires integer edge lengths, got {length}")
    if total >= 2**53:
        raise ValueError(
            f"geodesic counting requires a total edge length below 2**53, got {total}: "
            "longer path sums are not exact in float64"
        )
    row = g.single_source(u)
    if math.isinf(row[v]):
        raise no_path_error(u, v)
    near = np.flatnonzero(row <= row[v])
    dist = row.tolist()
    sigma = [0] * g.vertex_count
    sigma[u] = 1
    for b in near[np.argsort(row[near])].tolist():
        if b != u:
            sigma[b] = sum(sigma[a] for a, w in g._adj[b] if dist[a] + w == dist[b])
    return sigma[v]


class Polyline:
    """An ordered chain of at least two plane points with distinct neighbors.

    ``arc_distance`` measures length along the chain. Internally each vertex
    gets a cumulative arc-length parameter; distances are absolute parameter
    differences, which makes the chain isometric to a segment of the real
    line (flat in its own metric, however curved it looks from outside).
    """

    def __init__(self, vertices: Sequence):
        pts = [as_point(p, dim=2) for p in vertices]
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        for a, b in zip(pts, pts[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                raise ValueError("consecutive polyline vertices must be distinct")
        self.vertices = pts
        steps = hypot_rows(np.diff(pts, axis=0)).tolist()
        self.cumulative = tuple(itertools.accumulate(steps, initial=0.0))

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


def _orient(a, b, c) -> float:
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
    segs = list(zip(c.vertices, c.vertices[1:]))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a, b = segs[i]
            p, q = segs[j]
            if j == i + 1:
                # share vertex b == p; bad only if the chain folds back on itself
                if _orient(a, b, q) == 0 and float(np.dot(a - b, q - b)) > 0:
                    return False
                continue
            if _segments_intersect(a, b, p, q):
                return False
    return True
