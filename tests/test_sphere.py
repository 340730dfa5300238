import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import metrikos as mk
from metrikos import sampling
from metrikos.sphere import sphere_points


def perpendicular_frame(normal):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u1 = np.cross(n, helper)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(n, u1)
    return u1, u2


def brute_force_circle_extrema(x, circle, samples=100_000):
    """Dumb oracle: evaluate the distance at many circle points and take
    the extremes."""
    u1, u2 = perpendicular_frame(circle.normal)
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = (
        circle.center
        + circle.radius * np.cos(theta)[:, None] * u1
        + circle.radius * np.sin(theta)[:, None] * u2
    )
    d = np.linalg.norm(pts - np.asarray(x, dtype=float), axis=1)
    return float(d.min()), float(d.max())


class TestChordAndArc:
    def test_antipodal(self):
        assert mk.chord_distance((0, 0, 1), (0, 0, -1)) == 2.0
        assert mk.great_circle_distance((0, 0, 1), (0, 0, -1)) == pytest.approx(math.pi, abs=1e-12)

    def test_identity(self):
        p = mk.sphere_point((0.6, 0.8, 0.0))
        assert mk.chord_distance(p, p) == 0.0
        assert mk.great_circle_distance(p, p) == 0.0

    def test_quarter_turn(self):
        assert mk.chord_distance((1, 0, 0), (0, 1, 0)) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert mk.great_circle_distance((1, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_chord_range(self, rng):
        P = sampling.random_sphere_points(rng, 5_000)
        Q = sampling.random_sphere_points(rng, 5_000)
        d = mk.chord_distances(P, Q)
        assert np.all(d >= 0.0) and np.all(d <= 2.0 + 1e-12)

    def test_chord_below_arc(self, rng):
        P = sampling.random_sphere_points(rng, 100_000)
        Q = sampling.random_sphere_points(rng, 100_000)
        assert np.all(mk.chord_distances(P, Q) <= mk.great_circle_distances(P, Q))

    def test_conversion_round_trip(self, rng):
        P = sampling.random_sphere_points(rng, 50_000)
        Q = sampling.random_sphere_points(rng, 50_000)
        arc = mk.great_circle_distances(P, Q)
        chord = mk.chord_distances(P, Q)
        assert np.max(np.abs(2.0 * np.sin(arc / 2.0) - chord)) <= 1e-12

    def test_batch_matches_scalar(self, rng):
        P = sampling.random_sphere_points(rng, 300)
        Q = sampling.random_sphere_points(rng, 300)
        # off unit norm by up to 1e-10, so the renormalization counts too
        Q[:150] *= 1.0 + rng.uniform(-1e-10, 1e-10, size=(150, 1))
        Q[7], Q[8] = P[7], -P[8]
        for p, q, dc, dg in zip(P, Q, mk.chord_distances(P, Q), mk.great_circle_distances(P, Q)):
            assert mk.chord_distance(p, q) == dc
            assert mk.great_circle_distance(p, q) == dg

    def test_rowwise_shapes_must_match(self):
        # one row is not broadcast against n rows, as in the plane's rowwise functions
        P, Q = [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]
        for fn in (mk.chord_distances, mk.great_circle_distances, mk.euclidean_distances):
            for args in ((P, Q), (Q, P), ([1, 0, 0], [0, 1, 0])):
                with pytest.raises(ValueError, match="expected matching \\(n, dim\\) arrays"):
                    fn(*args)
        assert mk.great_circle_distances(P, P).tolist() == [0.0, 0.0]

    @given(t=st.floats(min_value=0.0, max_value=3.0))
    def test_points_built_at_a_given_arc(self, t):
        q = (math.cos(t), math.sin(t), 0.0)
        assert mk.great_circle_distance((1, 0, 0), q) == pytest.approx(t, abs=1e-9)

    def test_arc_to_chord(self):
        assert mk.arc_to_chord(math.pi) == pytest.approx(2.0, abs=1e-12)
        assert mk.arc_to_chord(0.0) == 0.0
        with pytest.raises(ValueError):
            mk.arc_to_chord(4.0)

    def test_sphere_point_validation(self):
        with pytest.raises(mk.CarrierError):
            mk.sphere_point((0.0, 0.0, 0.0))
        with pytest.raises(mk.CarrierError):
            mk.sphere_point((1.0, 1.0, 1.0))
        p = mk.sphere_point((0.0, 0.0, 1.0 + 5e-10))
        assert np.linalg.norm(p) == 1.0
        with pytest.raises(mk.CarrierError):
            sphere_points(np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]))

    def test_great_circle_axioms(self, rng):
        sample = list(sampling.random_sphere_points(rng, 64))
        assert mk.verify_axioms(mk.GreatCircle(), sample).all_ok
        # near-antipodal points on one great circle: 2*asin(chord/2) loses
        # about sqrt(eps) here and reported two false triangle witnesses
        t = math.pi - 1e-8
        near_antipodal = [(1, 0, 0), (math.cos(t), math.sin(t), 0), (0, 1, 0)]
        report = mk.verify_axioms(mk.GreatCircle(), near_antipodal)
        assert report.all_ok, report.witnesses


class TestSinc:
    def test_exact_at_zero(self):
        assert mk.sinc(0.0) == 1.0

    def test_closed_form_values(self):
        assert mk.sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert mk.sinc(math.pi / 6) == pytest.approx(3.0 / math.pi, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mk.sinc(-0.5)

    def test_monotone_on_half_pi(self):
        grid = np.linspace(1e-9, math.pi / 2, 10_000)
        vals = np.array([mk.sinc(t) for t in grid])
        assert np.all(np.diff(vals) <= 0.0)
        # strict decrease across gaps of at least 1e-3
        coarse = np.array([mk.sinc(t) for t in np.arange(1e-3, math.pi / 2, 1e-3)])
        assert np.all(np.diff(coarse) < 0.0)


def pairs_at_chord(rng, n, chords):
    """Pairs of sphere points at prescribed chord separations."""
    P = sampling.random_sphere_points(rng, n)
    W = sampling.random_sphere_points(rng, n)
    W = W - np.sum(W * P, axis=1)[:, None] * P
    W /= np.linalg.norm(W, axis=1)[:, None]
    arcs = 2.0 * np.arcsin(np.clip(np.asarray(chords) / 2.0, 0.0, 1.0))
    Q = np.cos(arcs)[:, None] * P + np.sin(arcs)[:, None] * W
    return P, Q / np.linalg.norm(Q, axis=1)[:, None]


class TestComparability:
    def test_global_bound_threshold(self):
        assert mk.comparability_delta(math.pi / 2 - 1.0) == 2.0
        assert mk.comparability_delta(10.0) == 2.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mk.comparability_delta(0.0)

    def test_delta_solves_the_defining_equation(self):
        for eps in (1e-3, 1e-2, 0.1, 0.3):
            delta = mk.comparability_delta(eps)
            assert 0.0 < delta < 2.0
            ratio = 2.0 * math.asin(delta / 2.0) / delta
            assert ratio == pytest.approx(1.0 + eps, abs=1e-12)

    def test_bound_holds_below_delta(self, rng):
        eps = 1e-3
        delta = mk.comparability_delta(eps)
        chords = rng.uniform(0.0, delta, size=20_000)
        P, Q = pairs_at_chord(rng, 20_000, chords)
        d = mk.chord_distances(P, Q)
        arcs = mk.great_circle_distances(P, Q)
        mask = d < delta
        assert mask.sum() > 19_000
        assert np.all(arcs[mask] <= (1.0 + eps) * d[mask])

    def test_bound_fails_above_delta(self, rng):
        eps = 1e-3
        delta = mk.comparability_delta(eps)
        chords = rng.uniform(delta * 1.01, min(delta * 1.1, 2.0), size=1_000)
        P, Q = pairs_at_chord(rng, 1_000, chords)
        d = mk.chord_distances(P, Q)
        arcs = mk.great_circle_distances(P, Q)
        assert np.any(arcs > (1.0 + eps) * d)


class TestCircularProjection:
    def test_radial_examples(self):
        unit = mk.Circle2D((0, 0), 1.0)
        assert np.allclose(mk.circular_projection(unit, (2, 0)), (1, 0), atol=1e-15)
        assert np.allclose(mk.circular_projection(unit, (0.6, 0.8)), (0.6, 0.8), atol=1e-15)
        assert np.allclose(mk.circular_projection(unit, (3, 4)), (0.6, 0.8), atol=1e-15)

    def test_center_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            mk.circular_projection(mk.Circle2D((1, 1), 2.0), (1, 1))

    def test_non_finite_rows_rejected_like_the_scalar_form(self):
        c = mk.Circle2D((0.0, 0.0), 1.0)
        for bad in ((math.nan, 1.0), (2.0, math.inf), (-math.inf, -math.inf), ("3", "4"), (True, False)):
            message = "must be numbers" if isinstance(bad[0], (str, bool)) else "must be finite"
            with pytest.raises(ValueError, match=message) as scalar:
                mk.circular_projection(c, bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no numpy warning on the way
                with pytest.raises(ValueError, match=message) as batch:
                    mk.circular_projections(c, [(2.0, 0.0), bad, (0.0, 3.0)])
            assert type(batch.value) is type(scalar.value) and str(batch.value) == str(scalar.value)
        with pytest.raises(ValueError, match="expected an"):
            mk.circular_projections(c, [(math.nan, 1.0, 2.0)])

    def test_fixes_circle_points(self, rng):
        c = mk.Circle2D((0.5, -1.5), 2.5)
        theta = rng.uniform(0, 2 * math.pi, size=200)
        on_circle = c.center + c.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        proj = mk.circular_projections(c, on_circle)
        assert np.allclose(proj, on_circle, atol=1e-12)

    def test_lipschitz_on_exterior(self, rng):
        c = mk.Circle2D((0.0, 0.0), 1.0)
        radii = 1.0 + rng.uniform(0.0, 3.0, size=(100_000, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(100_000, 2))
        P = radii[:, :1] * np.column_stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])])
        Q = radii[:, 1:] * np.column_stack([np.cos(angles[:, 1]), np.sin(angles[:, 1])])
        shrunk = np.linalg.norm(mk.circular_projections(c, P) - mk.circular_projections(c, Q), axis=1)
        original = np.linalg.norm(P - Q, axis=1)
        assert np.all(shrunk <= original + 1e-12)

    def test_batch_matches_scalar(self, rng):
        c = mk.Circle2D((0.25, 0.75), 1.25)
        pts = rng.uniform(-4, 4, size=(100, 2))
        pts = pts[np.linalg.norm(pts - c.center, axis=1) > 1e-6]
        batch = mk.circular_projections(c, pts)
        for p, b in zip(pts, batch):
            assert mk.circular_projection(c, p).tobytes() == b.tobytes()
            assert mk.circular_projection(c, p).tobytes() == mk.circular_projections(c, [p])[0].tobytes()


class TestCircleExtremalPoints:
    def test_in_plane_example(self):
        circle = mk.Circle3D((0, 0, 0), 1.0, (0, 0, 1))
        nearest, farthest = mk.circle_extremal_points((2, 0, 0), circle)
        assert np.allclose(nearest, (1, 0, 0), atol=1e-15)
        assert np.allclose(farthest, (-1, 0, 0), atol=1e-15)
        # near 2**48 the candidate center + r u rounds farther from x than
        # center - r u, so the second candidate is returned as the nearest
        t = 2.0**48
        circle = mk.Circle3D((-t - 0.0625, -t, t + 0.0625), 0.1875, (-2, -1, 1))
        x = np.array([-t - 0.25, -t - 0.0625, t + 0.125])
        u = x - np.dot(x - circle.center, circle.normal) * circle.normal - circle.center
        u = u / math.hypot(*u)
        nearest, farthest = mk.circle_extremal_points(x, circle)
        assert np.array_equal(nearest, circle.center - circle.radius * u)
        assert np.array_equal(farthest, circle.center + circle.radius * u)
        assert mk.euclidean_distance(x, nearest) < mk.euclidean_distance(x, farthest)

    def test_axis_point_is_degenerate(self):
        circle = mk.Circle3D((0, 0, 0), 1.0, (0, 0, 1))
        with pytest.raises(mk.DegenerateGeometryError):
            mk.circle_extremal_points((0, 0, 5), circle)

    def test_against_brute_force(self, rng):
        for _ in range(10):
            circle = mk.Circle3D(
                rng.uniform(-2, 2, size=3),
                float(rng.uniform(0.2, 3.0)),
                rng.normal(size=3),
            )
            x = rng.uniform(-4, 4, size=3)
            if abs(np.dot(x - circle.center, circle.normal)) < 1e-3:
                x = x + circle.normal  # stay clearly off the plane
            nearest, farthest = mk.circle_extremal_points(x, circle)
            lo, hi = brute_force_circle_extrema(x, circle)
            assert mk.euclidean_distance(x, nearest) == pytest.approx(lo, abs=1e-6)
            assert mk.euclidean_distance(x, farthest) == pytest.approx(hi, abs=1e-6)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            mk.Circle3D((0, 0, 0), 1.0, (0, 0, 0))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mk.Circle3D((0, 0, 0), 0.0, (0, 0, 1))

    def test_infinite_radius_rejected(self):
        # as ball_boundary refuses it: radial projection would give [inf, inf]
        for radius, why in ((0.0, "positive"), (math.nan, "positive"), (math.inf, "finite")):
            with pytest.raises(ValueError, match=f"radius must be {why}"):
                mk.Circle3D((0, 0, 0), radius, (0, 0, 1))
            with pytest.raises(ValueError, match=f"radius must be {why}"):
                mk.Circle2D((0, 0), radius)
        for radius in (True, np.bool_(True), "2", b"2"):
            with pytest.raises(ValueError, match="radius must be a number"):
                mk.Circle3D((0, 0, 0), radius, (0, 0, 1))
            with pytest.raises(ValueError, match="radius must be a number"):
                mk.Circle2D((0, 0), radius)


class TestEquidistantCircle:
    def test_circle_lies_on_sphere_at_right_distance(self, rng):
        for _ in range(50):
            q, r = sampling.random_sphere_points(rng, 2)
            circle = mk.equidistant_circle(q, r)
            target = mk.chord_distance(q, r)
            u1, u2 = perpendicular_frame(circle.normal)
            for theta in rng.uniform(0, 2 * math.pi, size=8):
                pt = circle.center + circle.radius * (math.cos(theta) * u1 + math.sin(theta) * u2)
                assert np.linalg.norm(pt) == pytest.approx(1.0, abs=1e-12)
                assert mk.chord_distance(q, pt) == pytest.approx(target, abs=1e-9)

    def test_trivial_cases_rejected(self):
        q = (0, 0, 1)
        with pytest.raises(mk.DegenerateGeometryError):
            mk.equidistant_circle(q, q)
        with pytest.raises(mk.DegenerateGeometryError):
            mk.equidistant_circle(q, (0, 0, -1))


class TestFarthestEquidistantPoint:
    def test_equal_reference_returns_reference(self):
        q = mk.sphere_point((0, 1, 0))
        r0 = mk.farthest_equidistant_point((1, 0, 0), q, q)
        assert np.allclose(r0, q, atol=1e-15)

    def test_antipodal_reference_returns_reference(self):
        r = mk.sphere_point((0, -1, 0))
        r0 = mk.farthest_equidistant_point((1, 0, 0), (0, 1, 0), r)
        assert np.allclose(r0, r, atol=1e-15)

    def test_degenerate_base_point(self):
        q = (0, 1, 0)
        with pytest.raises(mk.DegenerateGeometryError):
            mk.farthest_equidistant_point(q, q, (0, 0, 1))

    def test_coplanar_with_line_through_origin(self, rng):
        for _ in range(200):
            p, q, r = sampling.random_sphere_points(rng, 3)
            r0 = mk.farthest_equidistant_point(p, q, r)
            assert abs(np.dot(np.cross(p, q), r0)) <= 1e-9

    def test_dominates_reference_and_triangle_chain(self, rng):
        for _ in range(200):
            p, q, r = sampling.random_sphere_points(rng, 3)
            r0 = mk.farthest_equidistant_point(p, q, r)
            d_pr = mk.great_circle_distance(p, r)
            d_pr0 = mk.great_circle_distance(p, r0)
            d_pq = mk.great_circle_distance(p, q)
            d_qr = mk.great_circle_distance(q, r)
            assert d_pr <= d_pr0 + 1e-9
            assert d_pr0 <= d_pq + d_qr + 1e-9
            assert mk.great_circle_distance(q, r0) == pytest.approx(d_qr, abs=1e-9)

    def test_farthest_among_circle_samples(self, rng):
        p, q, r = sampling.random_sphere_points(rng, 3)
        r0 = mk.farthest_equidistant_point(p, q, r)
        circle = mk.equidistant_circle(q, r)
        u1, u2 = perpendicular_frame(circle.normal)
        best = mk.chord_distance(p, r0)
        for theta in np.linspace(0, 2 * math.pi, 2000, endpoint=False):
            pt = circle.center + circle.radius * (math.cos(theta) * u1 + math.sin(theta) * u2)
            assert mk.chord_distance(p, mk.sphere_point(pt)) <= best + 1e-9


class TestTriangleInequalityOnSphere:
    def test_bulk_triples(self, rng):
        P = sampling.random_sphere_points(rng, 50_000)
        Q = sampling.random_sphere_points(rng, 50_000)
        R = sampling.random_sphere_points(rng, 50_000)
        lhs = mk.great_circle_distances(P, R)
        rhs = mk.great_circle_distances(P, Q) + mk.great_circle_distances(Q, R)
        assert np.all(lhs <= rhs + 1e-9)

    def test_equality_on_a_common_great_circle(self, rng):
        for _ in range(300):
            u1, u2 = perpendicular_frame(rng.normal(size=3))
            t_r = rng.uniform(0.2, math.pi - 0.05)
            t_q = rng.uniform(0.01, t_r - 0.01)
            p = u1
            q = math.cos(t_q) * u1 + math.sin(t_q) * u2
            r = math.cos(t_r) * u1 + math.sin(t_r) * u2
            lhs = mk.great_circle_distance(p, r)
            rhs = mk.great_circle_distance(p, q) + mk.great_circle_distance(q, r)
            assert abs(lhs - rhs) <= 1e-9

    def test_strict_inequality_off_great_circles(self, rng):
        P = sampling.random_sphere_points(rng, 20_000)
        Q = sampling.random_sphere_points(rng, 20_000)
        R = sampling.random_sphere_points(rng, 20_000)
        triple = np.abs(np.einsum("ij,ij->i", np.cross(P, Q), R))
        mask = triple > 1e-3
        assert mask.sum() > 1_000
        lhs = mk.great_circle_distances(P, R)[mask]
        rhs = (mk.great_circle_distances(P, Q) + mk.great_circle_distances(Q, R))[mask]
        assert np.all(rhs - lhs > 1e-9)
