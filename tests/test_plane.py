import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metrikos import CarrierError, Euclidean, RealLine, distance
from metrikos.points import as_point
from metrikos.plane import (
    chebyshev_distance,
    chebyshev_distances,
    discrete_distance,
    euclidean_distance,
    euclidean_distances,
    real_line_distance,
    taxicab_distance,
    taxicab_distances,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


class TestWorkedValues:
    def test_unit_diagonal(self):
        assert abs(euclidean_distance((0, 0), (1, 1)) - math.sqrt(2)) <= 1e-12
        assert taxicab_distance((0, 0), (1, 1)) == 2.0
        assert chebyshev_distance((0, 0), (1, 1)) == 1.0

    def test_unit_step_agrees_across_metrics(self):
        for fn in (euclidean_distance, taxicab_distance, chebyshev_distance):
            assert fn((0, 0), (1, 0)) == 1.0

    def test_three_four_five(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0
        assert taxicab_distance((0, 0), (3, 4)) == 7.0
        assert chebyshev_distance((0, 0), (3, 4)) == 4.0

    def test_real_line(self):
        assert real_line_distance(5, 2) == 3.0
        assert real_line_distance(-1, 1) == 2.0
        assert real_line_distance(0.37, 0.37) == 0.0

    def test_discrete(self):
        assert discrete_distance((0, 0), (0, 0)) == 0.0
        assert discrete_distance((0, 0), (1e-300, 0)) == 1.0
        assert discrete_distance((1, 2), (2, 1)) == 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "fn", [euclidean_distance, taxicab_distance, chebyshev_distance, discrete_distance]
    )
    def test_dimension_mismatch(self, fn):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn((0, 0), (1, 2, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            euclidean_distance((0, float("nan")), (1, 1))
        with pytest.raises(ValueError):
            real_line_distance(float("inf"), 0)

    def test_bools_and_strings_are_not_coordinates(self):
        with pytest.raises(CarrierError, match="must be numbers"):
            euclidean_distance((True, False), (0, 0))
        with pytest.raises(CarrierError, match="must be numbers"):
            distance(RealLine(), True, "2")
        with pytest.raises(CarrierError, match="must be numbers"):
            taxicab_distance(("1", "2"), (0, 0))
        for spec, batch in (
            (Euclidean(), [(True, False), (False, True)]),
            (Euclidean(), np.array([[True, False]])),
            (RealLine(), [True, False]),
            (RealLine(), [0.5, True]),  # numpy would read it as [0.5, 1.0]
            (RealLine(), [0.5, np.bool_(False)]),
        ):
            with pytest.raises(CarrierError, match="must be numbers"):
                spec.validate_many(batch)

    def test_extreme_coordinates_do_not_overflow(self):
        d = euclidean_distance((1e200, 1e200), (-1e200, -1e200))
        assert math.isfinite(d)
        assert d == pytest.approx(2e200 * math.sqrt(2), rel=1e-15)


@given(r=finite, t=finite)
def test_absolute_value_triangle_inequality(r, t):
    assert abs(r + t) <= abs(r) + abs(t)
    # equality whenever either is zero or the signs agree (a product test
    # would underflow for tiny mixed-sign values)
    if r == 0 or t == 0 or (r > 0) == (t > 0):
        assert abs(r + t) == abs(r) + abs(t)


@given(x=finite, y=finite, z=finite)
def test_real_line_triangle_inequality(x, y, z):
    # equality cases can flip by an ulp in floats; allow a few ulp of slack
    slack = 1e-15 * max(abs(x), abs(y), abs(z))
    assert real_line_distance(x, z) <= real_line_distance(x, y) + real_line_distance(y, z) + slack


def test_absolute_value_triangle_inequality_bulk(rng):
    r = rng.uniform(-1e6, 1e6, size=100_000)
    t = rng.uniform(-1e6, 1e6, size=100_000)
    assert np.all(np.abs(r + t) <= np.abs(r) + np.abs(t))
    same_sign = r * t >= 0
    assert np.array_equal(np.abs(r + t)[same_sign], (np.abs(r) + np.abs(t))[same_sign])


@pytest.mark.parametrize("dim", [2, 3])
def test_metric_ordering_chain(rng, dim):
    # chebyshev <= euclidean <= taxicab <= dim * chebyshev, rowwise on 1e5 pairs
    P = rng.uniform(-10, 10, size=(100_000, dim))
    Q = rng.uniform(-10, 10, size=(100_000, dim))
    che = chebyshev_distances(P, Q)
    euc = euclidean_distances(P, Q)
    tax = taxicab_distances(P, Q)
    assert np.all(che <= euc * (1 + 1e-15) + 1e-30)
    assert np.all(euc <= tax * (1 + 1e-15) + 1e-30)
    assert np.all(tax <= dim * che * (1 + 1e-15) + 1e-30)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_batch_matches_scalar(rng, dim):
    P = rng.uniform(-5, 5, size=(200, dim))
    Q = rng.uniform(-5, 5, size=(200, dim))
    P[0], Q[0] = 1e300, -1e300  # squaring overflows here; hypot does not
    for rowwise, scalar in [
        (taxicab_distances, taxicab_distance),
        (chebyshev_distances, chebyshev_distance),
        (euclidean_distances, euclidean_distance),
    ]:
        want = np.array([scalar(p, q) for p, q in zip(P, Q)])
        assert np.isfinite(want).all()
        assert np.array_equal(rowwise(P, Q).view(np.int64), want.view(np.int64)), rowwise.__name__


def test_pythagorean_decomposition(rng):
    # the right triangle with third vertex (q1, p2) splits the hypotenuse
    for _ in range(500):
        p = rng.uniform(-100, 100, size=2)
        q = rng.uniform(-100, 100, size=2)
        corner = (q[0], p[1])
        hyp = euclidean_distance(p, q)
        leg_a = euclidean_distance(p, corner)
        leg_b = euclidean_distance(corner, q)
        assert hyp**2 == pytest.approx(leg_a**2 + leg_b**2, rel=1e-12)


def test_real_line_matches_one_dimensional_points(rng):
    for _ in range(100):
        r, t = rng.uniform(-50, 50, size=2)
        assert real_line_distance(r, t) == euclidean_distance([r], [t])
        assert real_line_distance(r, t) == taxicab_distance([r], [t])


@given(st.one_of(finite, st.integers(-(2**53), 2**53)), st.sampled_from([lambda x: x, np.float64, lambda x: [x], lambda x: np.array([x])]))
def test_real_line_points_are_one_coordinate_points(x, form):
    p = form(x)
    got, want = RealLine().validate_point(p), as_point(p, 1)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
