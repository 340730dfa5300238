import math

import numpy as np
import pytest

import metrikos as mk
from metrikos import sampling
from metrikos import graphs
from metrikos.graphs import grid_vertex
from metrikos.points import as_index, as_point


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
    def test_simple_chain(self):
        assert mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (1, 1), (0, 1)]))

    def test_crossing_chain(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 2), (2, 0), (0, 2)]))

    def test_fold_back(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (2, 0), (1, 0)]))

    def test_straight_continuation_ok(self):
        assert mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (2, 0)]))

    def test_closed_loop_counts_as_touching(self):
        assert not mk.polyline_is_simple(mk.Polyline([(0, 0), (1, 0), (1, 1), (0, 0)]))
