import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

import metrikos as mk
from metrikos import sampling
from metrikos.plane import chebyshev_distance, euclidean_distance, taxicab_distance
from metrikos.points import as_point

from _support import builtin_cases


def per_probe_nesting(spec, p, r, q, t, probes):
    """The nesting check one probe at a time: the verdict and, for the first
    probe in B(q, t) but not in B(p, r), the probe and both distances."""
    cp, cq = spec.validate_point(p), spec.validate_point(q)
    for x in probes:
        cx = spec.validate_point(x)
        inner, outer = float(spec._eval(cq, cx)), float(spec._eval(cp, cx))
        if inner < t and not outer < r:
            return False, (x, inner.hex(), outer.hex())
    return True, None


def nesting_outcome(spec, p, r, q, t, probes):
    ok, witness = mk.check_nesting(spec, p, r, q, t, probes)
    if witness is None:
        return ok, None
    return ok, (witness.probe, witness.inner_distance.hex(), witness.outer_distance.hex())


@dataclass(frozen=True)
class OriginInflated(mk.MetricSpec):
    """Not a metric: Euclidean, but tripled between the origin and any other
    point. Defines only ``_eval``, so it takes the per-pair ``_cross``."""

    name = "origin-inflated"

    def validate_point(self, x):
        return as_point(x)

    def _eval(self, x, y):
        d = mk.Euclidean()._eval(x, y)
        return 3.0 * d if not (x.any() and y.any()) else d


def per_sample_polygon(tag, r, n):
    """The taxicab diamond or Chebyshev square offsets one sample at a time,
    each edge's m samples at v = k / m: the reference for the array form."""
    base, extra = divmod(n, 4)
    rows = []
    for edge in range(4):
        m = base + (1 if edge < extra else 0)
        for k in range(m):
            v = k / m
            if tag == "taxicab":
                # a + b == r exactly: the smaller magnitude is r minus the larger
                if v <= 0.5:
                    a = r * (1.0 - v)
                    b = r - a
                else:
                    b = r * v
                    a = r - b
                s1, s2 = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)][edge]
                if edge % 2:
                    a, b = b, a
                rows.append((s1 * a + 0.0, s2 * b + 0.0))
            else:
                w = r * (2.0 * v - 1.0)
                rows.append([(r, w + 0.0), (-w + 0.0, r), (-r, -w + 0.0), (w + 0.0, -r)][edge])
    return np.array(rows)


class TestBallContains:
    def test_real_line_ball_is_the_open_interval(self, rng):
        p, r = 0.7, 1.3
        b = mk.Ball(mk.RealLine(), p, r)
        assert mk.ball_contains(b, p + 0.5 * r)
        assert mk.ball_contains(b, p - 0.5 * r)
        assert not mk.ball_contains(b, p + r)  # endpoint excluded
        assert not mk.ball_contains(b, p - r)
        for x in rng.uniform(p - 2 * r, p + 2 * r, size=500):
            assert mk.ball_contains(b, x) == (p - r < x < p + r)

    def test_center_is_always_inside(self, rng):
        for spec, sample in builtin_cases(rng, n=6):
            b = mk.Ball(spec, sample[0], 0.5)
            assert mk.ball_contains(b, sample[0])

    def test_unit_diagonal_outside_unit_disk(self):
        b = mk.Ball(mk.Euclidean(), (0, 0), 1.0)
        assert not mk.ball_contains(b, (1, 1))
        assert b.__contains__((0.5, 0.5))
        assert (0.5, 0.5) in b

    def test_strictness_at_exact_radius(self, rng):
        for r in rng.uniform(0.1, 3.0, size=20):
            r = float(r)
            assert not mk.ball_contains(mk.Ball(mk.Euclidean(), (0, 0), r), (r, 0))
            assert not mk.ball_contains(mk.Ball(mk.Taxicab(), (0, 0), r), (r, 0))
            assert not mk.ball_contains(mk.Ball(mk.Chebyshev(), (0, 0), r), (r, r))
            assert not mk.ball_contains(mk.Ball(mk.RealLine(), 0.0, r), r)

    def test_discrete_radius_thresholds(self):
        small = mk.Ball(mk.Discrete(), (0, 0), 1.0)
        assert mk.ball_contains(small, (0, 0))
        assert not mk.ball_contains(small, (5, 5))  # d = 1, not < 1
        big = mk.Ball(mk.Discrete(), (0, 0), 1.5)
        assert mk.ball_contains(big, (5, 5))

    def test_infinite_radius_rejected(self):
        for spec, center in ((mk.Euclidean(), (0, 0)), (mk.RealLine(), 0.0), (mk.Discrete(), (1, 2))):
            with pytest.raises(ValueError, match="radius must be finite, got inf"):
                mk.Ball(spec, center, math.inf)
        with pytest.raises(ValueError, match="radius must be positive, got nan"):
            mk.Ball(mk.Euclidean(), (0, 0), math.nan)
        # float() would read these as 1.0 and 2.0
        for radius in (True, np.bool_(True), "2", b"2"):
            for build in (mk.Ball, mk.ball_boundary):
                with pytest.raises(ValueError, match=f"radius must be a number, got {re.escape(repr(radius))}"):
                    build(mk.Euclidean(), (0, 0), radius)
        for radius in (2, np.int64(2), np.float32(2.0)):
            assert mk.Ball(mk.Euclidean(), (0, 0), radius).radius == 2.0

    def test_invalid_balls_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mk.Ball(mk.Euclidean(), (0, 0), 0.0)
        with pytest.raises(mk.CarrierError):
            mk.Ball(mk.GreatCircle(), (3, 0, 0), 1.0)


class TestNesting:
    def test_plane_example(self, rng):
        probes = list(sampling.random_points(rng, 200, low=-1.5, high=1.5))
        ok, witness = mk.check_nesting(mk.Euclidean(), (0, 0), 1.0, (0.5, 0), 0.5, probes)
        assert ok and witness is None
        # no probes is no dimension mismatch, whatever the width of the batch
        for spec, p in ((mk.Euclidean(), (0, 0)), (mk.Taxicab(), (0, 0, 0)), (mk.RealLine(), 0.0)):
            assert mk.check_nesting(spec, p, 1.0, p, 0.5, []) == (True, None)

    def test_reflexive_inclusion(self, rng):
        probes = list(sampling.random_points(rng, 100))
        ok, _ = mk.check_nesting(mk.Euclidean(), (0, 0), 1.0, (0, 0), 1.0, probes)
        assert ok

    def test_radii_are_read_as_a_balls_radius_is(self):
        # float() would read True as 1.0 and "0.5" as 0.5, and r = inf would
        # pass the precondition 0 < t <= r - d(p, q)
        def nest(r, t):
            return mk.check_nesting(mk.Euclidean(), (0, 0), r, (0.1, 0), t, [(0.2, 0)])

        for r, t, refused in ((True, "0.5", True), (2.0, "0.5", "0.5"), (2.0, b"1", b"1"), (np.bool_(True), 0.5, np.bool_(True))):
            with pytest.raises(ValueError, match=f"radius must be a number, got {re.escape(repr(refused))}"):
                nest(r, t)
        for r, t in ((math.inf, 0.5), (math.inf, math.inf), (2.0, math.inf)):
            with pytest.raises(ValueError, match="radius must be finite, got inf"):
                nest(r, t)
        assert nest(np.int64(2), np.float32(0.5)) == (True, None)

    def test_preconditions_are_errors(self):
        with pytest.raises(ValueError, match="inside"):
            mk.check_nesting(mk.Euclidean(), (0, 0), 1.0, (5, 0), 0.5, [])
        with pytest.raises(ValueError, match=re.escape("need 0 < t <= r - d(p, q) = 0.5, got t = 0.9")):
            mk.check_nesting(mk.Euclidean(), (0, 0), 1.0, (0.5, 0), 0.9, [])
        with pytest.raises(ValueError, match="radius must be positive"):
            mk.check_nesting(mk.Euclidean(), (0, 0), 1.0, (0.5, 0), 0.0, [])

        # a probe outside the carrier raises what validate_point raises for it
        north = (0.0, 0.0, 1.0)
        plane_sub = mk.restrict(mk.Euclidean(), [(0, 0), (0.5, 0)])
        bad_probes = [
            (mk.Euclidean(), (0, 0), (0.5, 0), (math.nan, 0.0)),  # non-finite
            (mk.Chebyshev(), (0, 0), (0.5, 0), [[0.1, 0.2]]),  # not a 1-D point
            (mk.GreatCircle(), north, north, (0.0, 1.0)),  # wrong dimension
            (mk.GreatCircle(), north, north, (0.0, 0.0, math.inf)),  # non-finite
            (mk.GreatCircle(), north, north, (0.0, 0.0, 2.0)),  # off the sphere
            (plane_sub, (0, 0), (0.5, 0), (0.25, 0.0)),  # outside the subspace
            (plane_sub, (0, 0), (0.5, 0), (0.5, math.nan)),  # non-finite
            (mk.RealLine(), 0.0, 0.5, (1.0, 2.0)),  # not a real number
        ]
        for spec, p, q, bad in bad_probes:
            with pytest.raises(ValueError) as expected:
                spec.validate_point(bad)
            with pytest.raises(ValueError) as raised:
                mk.check_nesting(spec, p, 1.0, q, 0.5, [q, bad, q])
            assert raised.type is expected.type, (spec.name, bad)

        # the whole probe set is validated first: probe 2 would be a witness
        # against this broken candidate, yet the bad probe after it raises
        broken = mk.MatrixMetric(mk.DistanceMatrix([[0, 0.1, 5], [0.1, 0, 0.2], [5, 0.2, 0]]))
        ok, witness = mk.check_nesting(broken, 0, 1.0, 1, 0.5, [2])
        assert not ok and witness == (2, 0.2, 5.0)
        with pytest.raises(mk.CarrierError):
            mk.check_nesting(broken, 0, 1.0, 1, 0.5, [2, 3])

        # so does a probe the kernel cannot evaluate: probe 0 is a witness
        # against this broken candidate, and probe 1 has another dimension
        spec = OriginInflated()
        assert nesting_outcome(spec, (0, 0), 1.0, (0.2, 0), 0.3, [(0.45, 0)])[0] is False
        with pytest.raises(ValueError, match="dimension mismatch"):
            mk.check_nesting(spec, (0, 0), 1.0, (0.2, 0), 0.3, [(0.45, 0), (0.45, 0, 0)])

    def test_graph_nesting_with_all_vertices(self, rng):
        g = sampling.random_connected_graph(rng, 25, extra_edges=30)
        spec = mk.GraphPath(g)
        vertices = list(range(25))
        for _ in range(20):
            p, q = rng.integers(0, 25, size=2)
            dpq = mk.distance(spec, int(p), int(q))
            r = dpq + float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(0.1, 1.0)) * (r - dpq)
            if t <= 0:
                continue
            ok, witness = mk.check_nesting(spec, int(p), r, int(q), t, vertices)
            assert ok, witness
            assert mk.check_nesting(spec, int(p), r, int(q), t, []) == (True, None)

    def test_broken_metrics_match_the_per_probe_reference(self, rng):
        # a line metric |i - j| / 10 with d(0, 3), d(0, 4) and d(0, 5)
        # raised to 1, 2 and 3: in B(1, 0.5) but outside the open B(0, 1),
        # 3, 4 and 5 are the only witnesses, and they come last
        n = 40
        line = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / 10.0
        line[0, 3:6] = line[3:6, 0] = (1.0, 2.0, 3.0)
        spec = mk.MatrixMetric(mk.DistanceMatrix(line))
        probes = list(range(10, n)) * 2 + [2, 3, 5, 4]
        got = nesting_outcome(spec, 0, 1.0, 1, 0.5, probes)
        assert got == per_probe_nesting(spec, 0, 1.0, 1, 0.5, probes) == (False, (3, 0.2.hex(), 1.0.hex()))
        probes[-3] = 2
        assert nesting_outcome(spec, 0, 1.0, 1, 0.5, probes) == (False, (5, 0.4.hex(), 3.0.hex()))

        # random non-metric matrices and the origin-inflated plane
        falses = 0
        for _ in range(20):
            values = rng.uniform(0.0, 2.0, size=(12, 12))
            values[np.diag_indices(12)] = 0.0
            spec = mk.MatrixMetric(mk.DistanceMatrix(values))
            probes = [int(k) for k in rng.integers(0, 12, size=50)]
            for p, q in rng.integers(0, 12, size=(10, 2)).tolist():
                r = values[p, q] + float(rng.uniform(0.05, 1.0))
                t = float(rng.uniform(0.05, 1.0)) * (r - values[p, q])
                got = nesting_outcome(spec, p, r, q, t, probes)
                assert got == per_probe_nesting(spec, p, r, q, t, probes)
                falses += not got[0]
        assert falses > 20
        probes = list(sampling.random_points(rng, 200, low=-1.0, high=1.0))
        for q in probes[:20]:
            r = 3.0 * math.hypot(*q) + 1.0
            got = nesting_outcome(OriginInflated(), (0, 0), r, q, 0.5, probes)
            assert got == per_probe_nesting(OriginInflated(), (0, 0), r, q, 0.5, probes)
            falses += not got[0]
        assert falses > 30

    @pytest.mark.parametrize("case_index", range(10))
    def test_nesting_across_variants(self, rng, case_index):
        spec, sample = builtin_cases(rng, n=16)[case_index]
        hits = 0
        for _ in range(80):
            i, j = rng.integers(0, len(sample), size=2)
            p, q = sample[int(i)], sample[int(j)]
            dpq = mk.distance(spec, p, q)
            r = dpq + float(rng.uniform(0.05, 2.0))
            t = float(rng.uniform(0.05, 1.0)) * (r - dpq)
            if not 0 < t <= r - dpq:
                continue
            got = nesting_outcome(spec, p, r, q, t, sample)
            assert got == per_probe_nesting(spec, p, r, q, t, sample)
            assert got[0], (spec.name, got)
            hits += 1
        assert hits > 0

        # the bulk carrier check gives validate_point's points, bit for bit
        points = list(sample)
        if isinstance(spec, mk.GreatCircle):  # norms off 1 within tolerance
            points += [x * (1.0 + 1e-10 * k) for k, x in enumerate(sample, -8)]
        rows = spec.validate_many(points)
        assert len(rows) == len(points)
        for row, x in zip(rows, points):
            got, want = np.asarray(row), np.asarray(spec.validate_point(x))
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (spec.name, x)


class TestBallBoundary:
    def test_taxicab_diamond(self):
        b = mk.ball_boundary(mk.Taxicab(), (0, 0), 1.0, n=8)
        rows = {tuple(x) for x in b.samples}
        assert {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)} <= rows
        assert (0.5, 0.5) in rows

    def test_chebyshev_square(self):
        b = mk.ball_boundary(mk.Chebyshev(), (0, 0), 1.0, n=8)
        rows = {tuple(x) for x in b.samples}
        assert {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)} <= rows

    def test_euclidean_circle_norms(self):
        b = mk.ball_boundary(mk.Euclidean(), (0, 0), 2.0, n=256)
        norms = np.linalg.norm(b.samples, axis=1)
        assert np.max(np.abs(norms - 2.0)) <= 1e-12

    @pytest.mark.parametrize("radius", [1.0, 0.3, 2.7, 123.456])
    def test_origin_boundaries_are_exact(self, radius):
        diamond = mk.ball_boundary(mk.Taxicab(), (0, 0), radius, n=252)
        assert all(taxicab_distance((0, 0), x) == radius for x in diamond.samples)
        square = mk.ball_boundary(mk.Chebyshev(), (0, 0), radius, n=252)
        assert all(chebyshev_distance((0, 0), x) == radius for x in square.samples)

    def test_exact_vertex_sets(self, rng):
        r = float(rng.uniform(0.5, 4.0))
        diamond = mk.ball_boundary(mk.Taxicab(), (0, 0), r, n=64)
        rows = {tuple(x) for x in diamond.samples}
        assert {(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)} <= rows
        square = mk.ball_boundary(mk.Chebyshev(), (0, 0), r, n=64)
        rows = {tuple(x) for x in square.samples}
        assert {(r, r), (-r, r), (-r, -r), (r, -r)} <= rows

    def test_off_center_boundary_tolerance(self, rng):
        center = rng.uniform(-5, 5, size=2)
        for spec, dist in [
            (mk.Euclidean(), euclidean_distance),
            (mk.Taxicab(), taxicab_distance),
            (mk.Chebyshev(), chebyshev_distance),
        ]:
            b = mk.ball_boundary(spec, center, 1.7, n=40)
            assert all(abs(dist(center, x) - 1.7) <= 1e-9 for x in b.samples)
            # a sample off the radius, not finite, or not made of numbers is
            # refused at construction, as the scalar point check refuses it
            for k, bad, error, message in [
                (5, center + (b.samples[5] - center) * (1 + 1e-8), ValueError, "boundary sample"),
                (39, (math.nan, 0.0), ValueError, "finite"),
                (12, ("3", "4"), mk.CarrierError, "must be numbers"),
                (20, (True, False), mk.CarrierError, "must be numbers"),
            ]:
                samples = list(b.samples)
                samples[k] = bad
                with pytest.raises(error, match=message):
                    mk.BoundaryPolyline(spec.name, center, 1.7, samples)

    @pytest.mark.parametrize("radius", [1e8, 1e10, 1e200, 1e300, 1.5e308])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (-0.0, -0.0), (0.75, -1.5), (1e8, 0.0), (-1e8, 3e7)])
    def test_large_boundaries_are_drawn(self, center, radius):
        # an absolute tolerance of 1e-9 refused these: a Euclidean sample at
        # radius 1e8 is off by 1e-8, since the samples round at the scale of
        # their coordinates, and the tolerance now scales with it
        tol = 8 * np.finfo(float).eps * max(np.abs(center).max(), radius)
        for spec in (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()):
            for n in (8, 13, 2000, 20003):
                b = mk.ball_boundary(spec, center, radius, n=n)
                d = spec._cross(np.array([center]), b.samples)[0]
                assert np.abs(d - radius).max() <= tol
            samples = b.samples.copy()
            samples[5] = center + (samples[5] - center) * (1 + 1e-13)
            with pytest.raises(ValueError, match="boundary sample"):
                mk.BoundaryPolyline(spec.name, center, radius, samples)

    def test_off_center_unit_boundary_is_drawn(self):
        # its Euclidean samples are 0.99999999354 or so from the center
        for spec in (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()):
            b = mk.ball_boundary(spec, (1e8, 0.0), 1.0, n=20000)
            assert np.abs(spec._cross(b.center[None, :], b.samples)[0] - 1.0).max() <= 8 * np.finfo(float).eps * 1e8

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 2000, 20000, 20003])
    def test_polygons_equal_the_per_sample_reference_bitwise(self, n):
        cases = [((0.0, 0.0), 1.0), ((-0.0, -0.0), 0.3), ((0.0, -0.0), 1e-300), ((0.0, 0.0), 1e300), ((1.5, -2.25), 2.7)]
        for spec in (mk.Taxicab(), mk.Chebyshev()):
            for center, r in cases:
                c = np.array(center)
                got = mk.ball_boundary(spec, center, r, n=n).samples
                assert got.tobytes() == (c + per_sample_polygon(spec.name, r, n)).tobytes(), (spec.name, center, r)

    def test_counterclockwise_angular_order(self):
        for spec in [mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()]:
            b = mk.ball_boundary(spec, (0, 0), 1.0, n=32)
            angles = np.unwrap(np.arctan2(b.samples[:, 1], b.samples[:, 0]))
            assert np.all(np.diff(angles) > 0)

    def test_unsupported_metrics_rejected(self):
        with pytest.raises(ValueError, match="euclidean, taxicab, and chebyshev"):
            mk.ball_boundary(mk.Discrete(), (0, 0), 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            mk.ball_boundary(mk.Euclidean(), (0, 0), -1.0)
        for spec in (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()):
            with pytest.raises(ValueError, match="radius must be finite, got inf"):
                mk.ball_boundary(spec, (0, 0), math.inf)
        with pytest.raises(ValueError, match="at least 8"):
            mk.ball_boundary(mk.Euclidean(), (0, 0), 1.0, n=4)
        # the sample count is an integer, never truncated (int(8.9) is 8)
        for n in (8.9, True, math.inf, "16"):
            with pytest.raises(mk.CarrierError, match="sample count must be an integer"):
                mk.ball_boundary(mk.Euclidean(), (0, 0), 1.0, n=n)
        assert len(mk.ball_boundary(mk.Euclidean(), (0, 0), 1.0, n=16.0).samples) == 16
