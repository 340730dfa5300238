import math

import numpy as np
import pytest

import metrikos as mk
from metrikos import sampling

PLANE_METRICS = [mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()]

DISTANCE_PRESERVING_FOR_ALL_THREE = [
    mk.translation(2.5, -1.25),
    mk.reflect_origin(),
    mk.reflect_x1(),
    mk.reflect_x2(),
    mk.swap_axes(),
    mk.reflect_about_point(0.75, 2.0),
]


class TestNamedMaps:
    def test_reflect_origin(self):
        assert np.array_equal(mk.apply_map(mk.reflect_origin(), (3, -2)), (-3, 2))

    def test_quarter_turn(self):
        img = mk.apply_map(mk.rotation(math.pi / 2), (1, 0))
        assert np.allclose(img, (0, 1), atol=1e-15)

    def test_reflect_about_point(self):
        assert np.array_equal(mk.apply_map(mk.reflect_about_point(1, 1), (0, 0)), (2, 2))

    def test_translation(self):
        assert np.array_equal(mk.apply_map(mk.translation(5, 0), (0, 0)), (5, 0))

    def test_identity(self, rng):
        p = rng.uniform(-3, 3, size=2)
        assert np.array_equal(mk.apply_map(mk.identity_map(), p), p)

    def test_named_map_dispatch(self):
        m = mk.named_map("rotation", math.pi)
        assert np.allclose(m.linear, [[-1, 0], [0, -1]], atol=1e-15)
        assert np.array_equal(mk.named_map("translation", 1, 2).offset, (1, 2))
        with pytest.raises(ValueError, match="unknown map tag"):
            mk.named_map("shear")
        with pytest.raises(ValueError, match="^plane map needs a 2x2 linear part and a 2-vector offset$"):
            mk.PlaneMap([[1, 0]], [0, 0])
        with pytest.raises(ValueError, match="^map entries must be finite$"):
            mk.translation(math.inf, 0)

    def test_swap_axes(self):
        assert np.array_equal(mk.apply_map(mk.swap_axes(), (3, 7)), (7, 3))


class TestImageFormula:
    def test_rows_equal_per_point_images_bitwise(self, rng):
        P = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-5, 6, size=(200, 1))
        P[:4] = [(-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0), (0.0, 0.0)]
        maps = [mk.rotation(0.7), mk.rotation(math.pi / 2), mk.reflect_about_point(0.75, -2.0), mk.swap_axes(),
                mk.PlaneMap(rng.normal(size=(2, 2)), rng.normal(size=2))]
        for m in maps:
            rows = m._images(P)
            assert rows.tobytes() == np.array([mk.apply_map(m, p) for p in P]).tobytes()
        S = sampling.random_sphere_points(rng, 200)
        S[0] = (-0.0, 0.0, 1.0)
        for m in [mk.rotation_about_axis((0.3, -1.0, 0.2), 2.1), mk.rotation_about_axis((0, 0, 1), math.pi / 2),
                  mk.SphereMap(np.diag([1.0, -1.0, 1.0]))]:
            assert m._images(S).tobytes() == np.array([mk.apply_map(m, p) for p in S]).tobytes()

    def test_quarter_turn_images(self):
        # cos(pi / 2) is 6.1e-17, not 0, and the products carry it through
        c = math.cos(math.pi / 2)
        img = mk.apply_map(mk.rotation(math.pi / 2), (1.0, 0.0))
        assert img.tolist() == [c, 1.0]
        img = mk.apply_map(mk.rotation(math.pi / 2), (3.0, -2.0))
        assert img.tolist() == [c * 3.0 + 2.0, 3.0 + c * -2.0]

    def test_bad_points_raise_the_point_errors(self):
        for m, p, message in [
            (mk.rotation(0.3), (1.0, 2.0, 3.0), "expected a 2-dimensional point"),
            (mk.rotation(0.3), 5.0, "expected a 2-dimensional point"),
            (mk.rotation(0.3), (math.nan, 0.0), "finite"),
            (mk.SphereMap(np.eye(3)), (1.0, 0.0), "expected a 3-dimensional point"),
        ]:
            with pytest.raises(ValueError, match=message):
                mk.apply_map(m, p)
        with pytest.raises(mk.CarrierError, match="must be numbers"):
            mk.apply_map(mk.rotation(0.3), ("1", "2"))


class TestSphereMaps:
    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError, match="orthogonal"):
            mk.SphereMap(np.diag([1.0, 1.0, 2.0]))

    def test_rotation_about_z(self):
        m = mk.rotation_about_axis((0, 0, 1), math.pi / 2)
        assert np.allclose(mk.apply_map(m, (1, 0, 0)), (0, 1, 0), atol=1e-15)

    def test_reflection_admitted(self):
        m = mk.SphereMap(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(m.linear) == pytest.approx(-1.0)

    def test_image_stays_on_sphere(self, rng):
        m = mk.rotation_about_axis(rng.normal(size=3), float(rng.uniform(0, 7)))
        for p in sampling.random_sphere_points(rng, 50):
            assert np.linalg.norm(mk.apply_map(m, p)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            mk.rotation_about_axis((0, 0, 0), 1.0)

    def test_non_finite_angle_rejected(self):
        # math.cos(inf) raised "math domain error"; a NaN angle reached the map check
        for theta in (math.inf, -math.inf, math.nan):
            for build in (mk.rotation, lambda t: mk.rotation_about_axis((0, 0, 1), t),
                          lambda t: mk.named_map("rotation", t)):
                with pytest.raises(ValueError, match=f"^rotation angle must be finite, got {theta!r}$"):
                    build(theta)


class TestCompose:
    def test_translation_after_flip_is_point_reflection(self, rng):
        a1, a2 = rng.uniform(-3, 3, size=2)
        composed = mk.compose(mk.translation(2 * a1, 2 * a2), mk.reflect_origin())
        direct = mk.reflect_about_point(a1, a2)
        assert np.array_equal(composed.linear, direct.linear)
        assert np.array_equal(composed.offset, direct.offset)

    def test_identity_is_neutral(self):
        f = mk.rotation(0.3)
        g = mk.compose(mk.identity_map(), f)
        assert np.array_equal(g.linear, f.linear)
        assert np.array_equal(g.offset, f.offset)

    def test_rotation_inverse(self):
        m = mk.compose(mk.rotation(0.7), mk.rotation(-0.7))
        assert np.allclose(m.linear, np.eye(2), atol=1e-12)
        assert np.allclose(m.offset, 0.0, atol=1e-12)

    def test_matches_pointwise_application(self, rng):
        for _ in range(50):
            f = mk.PlaneMap(rng.normal(size=(2, 2)), rng.normal(size=2))
            g = mk.PlaneMap(rng.normal(size=(2, 2)), rng.normal(size=2))
            p = rng.normal(size=2)
            assert np.allclose(
                mk.apply_map(mk.compose(f, g), p),
                mk.apply_map(f, mk.apply_map(g, p)),
                atol=1e-12,
            )

    def test_sphere_compose(self):
        a = mk.rotation_about_axis((0, 0, 1), 0.4)
        b = mk.rotation_about_axis((0, 0, 1), -0.4)
        assert np.allclose(mk.compose(a, b).linear, np.eye(3), atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            mk.compose(mk.identity_map(), mk.SphereMap(np.eye(3)))
        for f, g in [(mk.identity_map(), 5), (5, mk.identity_map()), (5, 5), (None, None)]:
            with pytest.raises(TypeError, match="same kind"):
                mk.compose(f, g)


def per_pair_isometry(m, spec, sample, tol=mk.ToleranceConfig()):
    """The reference for is_isometry: one ``_eval`` pair at a time, in
    lexicographic order; returns the verdict and the first violating (i, j)
    with both distances."""
    pts = [spec.validate_point(x) for x in sample]
    images = [spec.validate_point(mk.apply_map(m, p)) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            before, after = spec._eval(pts[i], pts[j]), spec._eval(images[i], images[j])
            if abs(after - before) > tol.abs_tol + tol.rel_tol * abs(before):
                return False, (i, j, float(before), float(after))
    return True, None


class TestIsIsometry:
    def test_witness_equals_per_pair_reference(self, rng):
        n = 150  # row blocks of 27 rows at BLOCK_PAIRS = 4096
        sample = list(sampling.random_points(rng, n, low=-4, high=4))
        # projection onto the x1 axis keeps distinct points apart under the
        # discrete metric unless they share x1: only pair (120, 140) does,
        # far past the first row block
        sample[140] = np.array([sample[120][0], sample[140][1]])
        maps = [
            mk.rotation(0.7),
            mk.rotation(math.pi / 2),
            mk.PlaneMap(2.0 * np.eye(2), np.zeros(2)),
            mk.PlaneMap([[1.0, 0.0], [0.0, 0.0]], np.zeros(2)),
            mk.translation(2.5, -1.25),
        ]
        verdicts = set()
        for metric in PLANE_METRICS + [mk.Discrete()]:
            for m in maps:
                ok, witness = mk.is_isometry(m, metric, sample)
                want_ok, want = per_pair_isometry(m, metric, sample)
                assert ok == want_ok, metric.name
                verdicts.add(ok)
                if want is None:
                    assert witness is None
                    continue
                i, j, before, after = want
                assert witness.x is sample[i] and witness.y is sample[j], (metric.name, i, j)
                assert (witness.before, witness.after) == (before, after)
                if metric.name == "discrete" and m.linear[1, 1] == 0.0:
                    assert (i, j) == (120, 140)
        assert verdicts == {True, False}

    def test_sphere_witness_equals_per_pair_reference(self, rng):
        sample = list(sampling.random_sphere_points(rng, 90))
        m = mk.rotation_about_axis((0.3, -1.0, 0.2), 2.1)
        for tol in (mk.ToleranceConfig(), mk.ToleranceConfig(abs_tol=0.0, rel_tol=0.0)):
            ok, witness = mk.is_isometry(m, mk.GreatCircle(), sample, tol)
            want_ok, want = per_pair_isometry(m, mk.GreatCircle(), sample, tol)
            assert ok == want_ok
            if want is not None:
                i, j, before, after = want
                assert witness.x is sample[i] and witness.y is sample[j]
                assert (witness.before, witness.after) == (before, after)

    def test_rotation_preserves_euclidean(self, rng):
        sample = list(sampling.random_points(rng, 32))
        ok, witness = mk.is_isometry(mk.rotation(math.pi / 4), mk.Euclidean(), sample)
        assert ok and witness is None

    def test_rotation_breaks_taxicab_with_witness(self):
        sample = [(0.0, 0.0), (1.0, 0.0)]
        ok, witness = mk.is_isometry(mk.rotation(math.pi / 4), mk.Taxicab(), sample)
        assert not ok
        assert witness.before == 1.0
        assert witness.after == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_rotation_breaks_chebyshev_with_witness(self):
        sample = [(0.0, 0.0), (1.0, 0.0)]
        ok, witness = mk.is_isometry(mk.rotation(math.pi / 4), mk.Chebyshev(), sample)
        assert not ok
        assert witness.before == 1.0
        assert witness.after == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("metric", PLANE_METRICS, ids=lambda m: m.name)
    def test_shared_symmetries(self, rng, metric):
        sample = list(sampling.random_points(rng, 24, low=-4, high=4))
        for m in DISTANCE_PRESERVING_FOR_ALL_THREE:
            ok, witness = mk.is_isometry(m, metric, sample)
            assert ok, (metric.name, witness)

    def test_many_random_rotations_preserve_euclidean(self, rng):
        sample = list(sampling.random_points(rng, 12))
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            ok, _ = mk.is_isometry(mk.rotation(float(theta)), mk.Euclidean(), sample)
            assert ok

    def test_orthogonal_maps_preserve_both_sphere_metrics(self, rng):
        from scipy.stats import ortho_group

        sample = list(sampling.random_sphere_points(rng, 10))
        seeds = np.random.RandomState(7)
        for _ in range(20):
            m = mk.SphereMap(ortho_group.rvs(3, random_state=seeds))
            ok, witness = mk.is_isometry(m, mk.GreatCircle(), sample)
            assert ok, witness
            # the chord metric is the ambient Euclidean distance
            ok, witness = mk.is_isometry(m, mk.Euclidean(), sample)
            assert ok, witness

    def test_chord_preserved_too(self, rng):
        sample = list(sampling.random_sphere_points(rng, 10))
        m = mk.rotation_about_axis(rng.normal(size=3), 1.1)
        before = [mk.chord_distance(a, b) for a in sample for b in sample]
        after = [
            mk.chord_distance(mk.apply_map(m, a), mk.apply_map(m, b))
            for a in sample
            for b in sample
        ]
        assert np.allclose(before, after, atol=1e-12)

    def test_scaling_is_not_an_isometry(self, rng):
        doubling = mk.PlaneMap(2.0 * np.eye(2), np.zeros(2))
        sample = list(sampling.random_points(rng, 8))
        ok, witness = mk.is_isometry(doubling, mk.Euclidean(), sample)
        assert not ok
        assert witness.after == pytest.approx(2 * witness.before, rel=1e-12)

    def test_image_leaving_carrier_is_an_error(self, rng):
        sub = mk.restrict(mk.Euclidean(), [(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(mk.CarrierError):
            mk.is_isometry(mk.translation(10.0, 0.0), sub, [(0.0, 0.0), (1.0, 0.0)])

    def test_dimension_mismatch_is_an_error(self, rng):
        sample = list(sampling.random_sphere_points(rng, 4))
        with pytest.raises(ValueError, match="expected a 2-dimensional point, got 3"):
            mk.is_isometry(mk.rotation(0.5), mk.GreatCircle(), sample)

    def test_empty_sample_is_an_isometry_on_every_carrier(self):
        matrix = mk.MatrixMetric(mk.DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]))
        for m, spec in [
            (mk.rotation(0.5), mk.Euclidean()),
            (mk.rotation(0.5), mk.Taxicab()),
            (mk.rotation_about_axis((0, 0, 1), 0.5), mk.GreatCircle()),
            (mk.rotation(0.5), mk.GraphPath(mk.grid_graph(2, 2))),
            (mk.rotation(0.5), matrix),
        ]:
            assert mk.is_isometry(m, spec, []) == (True, None), spec.name

    def test_index_samples_under_a_plane_map_are_errors(self):
        matrix = mk.MatrixMetric(mk.DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]))
        for spec, sample in [(matrix, [0, 1]), (mk.GraphPath(mk.grid_graph(3, 3)), [0, 4, 8]), (matrix, [1])]:
            with pytest.raises(ValueError, match="expected a 2-dimensional point, got 1"):
                mk.is_isometry(mk.rotation(0.5), spec, sample)

    def test_overflowing_image_is_a_finiteness_error_without_a_warning(self):
        # RuntimeWarnings are errors under the test configuration
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            mk.is_isometry(mk.rotation(0.7), mk.Euclidean(), [(1.5e308, 1.5e308), (0.0, 0.0)])
        big = mk.PlaneMap([[1e308, 1e308], [1.0, 0.0]], (0.0, 0.0))
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            mk.is_isometry(big, mk.Taxicab(), [(2.0, 2.0), (-2.0, 1.0)])


class TestTransitivity:
    def test_constructed_map_moves_p_to_q(self, rng):
        for _ in range(100):
            p, q = sampling.random_sphere_points(rng, 2)
            m = mk.rotation_sending(p, q)
            assert np.allclose(mk.apply_map(m, p), q, atol=1e-12)

    def test_trivial_and_antipodal_cases(self):
        p = mk.sphere_point((0, 0, 1))
        assert np.allclose(mk.apply_map(mk.rotation_sending(p, p), p), p, atol=1e-15)
        m = mk.rotation_sending(p, -p)
        assert np.allclose(mk.apply_map(m, p), -p, atol=1e-12)

    def test_constructed_map_certifies(self, rng):
        sample = list(sampling.random_sphere_points(rng, 12))
        p, q = sampling.random_sphere_points(rng, 2)
        ok, witness = mk.is_isometry(mk.rotation_sending(p, q), mk.GreatCircle(), sample)
        assert ok, witness
