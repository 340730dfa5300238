"""The carrier validators: a batch equals its points one by one, bit for bit,
and a batch holding a bad item raises the error of that item. A batch of
coordinates is always one (n, d) float64 array, so a batch of points of
different lengths raises the dimension mismatch."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import metrikos as mk
from metrikos import points
from metrikos.points import _point_floats, as_indices, as_point, as_points

from _support import builtin_cases, case_id

CASES = builtin_cases(np.random.default_rng(8), n=6)
INDEX_NAMES = ("graphpath", "polylinearc", "matrix")
INDEX_CASES = [case for case in CASES if case[0].name in INDEX_NAMES]
NON_FINITE = (math.nan, math.inf, -math.inf)

# items that some carrier rejects, or that a batch conversion could misread:
# bools, fractions, non-finite values, ids out of range, points of the wrong
# dimension, a point that mixes an int with a bool, and numpy and integral
# float forms of valid ids
ODD_ITEMS = [
    True, False, np.bool_(True), 1.5, np.float32(0.5), *NON_FINITE, -1, 6, 10**6, 10**30, 3.0,
    np.int64(2), np.int32(0), np.uint8(1), np.float64(1.0), [0.0], [0.0, 0.0], [0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0], [0, True], [math.nan, 0.0], [0.0, -math.inf], [[0.0, 0.0]], "1", None,
]


def outcome(fn, x):
    """("ok", the result) or ("raise", the exception type)."""
    try:
        return "ok", fn(x)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raise", type(exc)


def bits(item):
    """A validated point as its type, dtype, shape and bytes."""
    arr = np.asarray(item)
    kind = np.ndarray if isinstance(item, np.ndarray) else type(item)
    return kind, arr.dtype.str, arr.shape, arr.tobytes()


def assert_contract(spec, batch):
    coordinates = spec.name not in INDEX_NAMES
    # points that pass one by one but differ in length; a subspace validates
    # the batch on its base before it checks membership
    base = [outcome(getattr(spec, "base", spec).validate_point, x) for x in batch]
    if coordinates and all(status == "ok" for status, _ in base) and len({p.size for _, p in base}) > 1:
        with pytest.raises(ValueError, match="dimension mismatch"):
            spec.validate_many(batch)
        return
    per_point = [outcome(spec.validate_point, x) for x in batch]
    raised = [result for status, result in per_point if status == "raise"]
    if not raised:
        points = [result for _, result in per_point]
        got = spec.validate_many(batch)
        assert len(got) == len(batch)
        assert [bits(g) for g in got] == [bits(p) for p in points], (spec.name, batch)
        if coordinates:  # one (n, d) float64 array, also when empty
            width = points[0].size if points else 3 if spec.name == "greatcircle" else 1
            assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(batch), width)
        return
    assert len(raised) == 1, "one bad item per batch"
    with pytest.raises(Exception) as info:
        spec.validate_many(batch)
    assert type(info.value) is raised[0], (spec.name, batch, info.value)


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_batch_equals_its_points_and_one_bad_item_raises_its_error(case, data):
    spec, sample = case
    good = data.draw(st.lists(st.sampled_from(sample), max_size=6))
    item = data.draw(st.sampled_from(ODD_ITEMS + sample[:2]))
    k = data.draw(st.integers(0, len(good)))
    batch = good[:k] + [item] + good[k:]
    assert_contract(spec, batch)
    # the same batch held in a numpy array where it converts to one
    try:
        arr = np.array(batch)
    except ValueError:
        return
    if arr.dtype.kind in "iuf" and arr.ndim >= 1:
        assert_contract(spec, arr)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_whole_sample_and_empty_batch(case):
    spec, sample = case
    assert_contract(spec, sample)
    assert_contract(spec, [])
    assert list(spec.validate_many([])) == []


@pytest.mark.parametrize("case", INDEX_CASES, ids=case_id)
class TestIndexBatches:
    def test_mixed_int_and_bool_is_refused(self, case):
        # numpy reads [0, True] as the integer array [0, 1]
        spec, _ = case
        for batch in ([0, True], [True, 0], [0, np.bool_(True)], np.array([False, True]), [0, 1.5], [0, math.nan]):
            with pytest.raises(mk.CarrierError, match="must be an integer"):
                spec.validate_many(batch)

    def test_numpy_integers_and_integral_floats_are_accepted(self, case):
        spec, _ = case
        batches = ([np.int64(1), 2.0, np.float32(1.0), np.uint8(0)], np.array([1, 2, 1, 0]), np.array([1.0, 2.0, 1.0, 0.0]))
        for batch in batches:
            got = spec.validate_many(batch)
            assert got == [1, 2, 1, 0] and all(type(v) is int for v in got)

    def test_out_of_range_names_the_id(self, case):
        spec, sample = case
        for bad in (-1, len(sample) + 100):
            with pytest.raises(mk.CarrierError, match=f"{bad} outside"):
                spec.validate_many([0, bad])


def test_as_indices_keeps_the_label():
    with pytest.raises(mk.CarrierError, match="row 7 outside 0..2"):
        as_indices([0, 7], 3, "row")
    assert as_indices(range(3), 3) == [0, 1, 2]


finite = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coords=st.lists(finite, min_size=1, max_size=6), data=st.data())
def test_non_finite_coordinates_are_refused_in_every_position(coords, data):
    k = data.draw(st.integers(0, len(coords) - 1))
    bad = list(coords)
    bad[k] = data.draw(st.sampled_from(NON_FINITE))
    assert bits(as_point(coords)) == bits(np.array(coords))
    with pytest.raises(ValueError, match="finite"):
        as_point(bad)
    with pytest.raises(ValueError, match="finite"):
        as_points([coords, bad])
    # real numbers are the points of one coordinate
    with pytest.raises(ValueError, match="finite"):
        as_points(coords[:k] + [bad[k]] + coords[k:], 1)
    reals = as_points(coords, 1)
    assert [bits(row) for row in reals] == [bits(as_point(x, 1)) for x in coords]
    assert reals[:, 0].tolist() == coords


@pytest.mark.parametrize("bad", NON_FINITE)
def test_one_coordinate_points_refuse_non_finite_scalars_and_points(bad):
    for form in (bad, np.float64(bad), [bad], np.array([bad])):
        with pytest.raises(ValueError, match="finite"):
            as_point(form, 1)
        with pytest.raises(ValueError, match="finite"):
            as_points([1.0, form], 1)


@pytest.mark.parametrize("batch", [5, 2.5, True])
def test_a_batch_that_is_not_a_sequence_is_refused(batch):
    # iterating it was once a TypeError, which the CLI does not catch
    with pytest.raises(ValueError, match="expected a sequence of points"):
        as_points(batch)
    with pytest.raises(ValueError, match="expected a sequence of points"):
        as_points(None)
    with pytest.raises(ValueError, match="expected a sequence of points"):
        mk.WeightedGraph(2, [(0, 1, 1.0)], coords=batch)
    # a generator is a sequence of points
    assert as_points(p for p in [(0, 1), (2, 3)]).tolist() == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("bad", [[1, [1]], [[1], [1, 2]], (0.5, (1.0, 2.0), 0.0)], ids=repr)
def test_a_sequence_among_the_coordinates_is_not_a_number(bad):
    # numpy refuses such a point with its own inhomogeneous-shape message
    message = f"^point coordinates must be numbers, got {re.escape(repr(bad))}$"
    for validate in (
        lambda: mk.euclidean_distance(bad, [0, 0]),
        lambda: mk.distance(mk.Taxicab(), [0, 0], bad),
        lambda: mk.Euclidean().validate_many([[0, 0], bad]),
        lambda: mk.WeightedGraph(2, [(0, 1, 1.0)], coords=[[0, 0], bad]),
        lambda: mk.sphere_point(bad),
        lambda: mk.GreatCircle().validate_many([[0.0, 0.0, 1.0], bad]),
    ):
        with pytest.raises(mk.CarrierError, match=message):
            validate()


# floats at the edges of the range, and the non-finite ones
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, *NON_FINITE)
any_float = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
odd_coordinate = st.one_of(
    any_float,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    any_float.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=2),
    st.none(),
)
any_point = st.one_of(
    odd_coordinate,
    st.lists(odd_coordinate, max_size=4),
    st.lists(odd_coordinate, max_size=4).map(tuple),
    st.lists(any_float, max_size=5),
    st.lists(any_float, max_size=5).map(tuple),
    st.lists(st.lists(any_float, max_size=2), max_size=3),  # nested, ragged or empty
    st.lists(any_float, max_size=5).map(np.array),
    st.lists(any_float, max_size=5).map(lambda v: np.array(v)[::-1]),  # a strided view
    any_float.map(np.array),  # 0-d
    st.lists(st.floats(width=32), max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(st.lists(any_float, min_size=2, max_size=2), max_size=2).map(np.array),  # 2-D
)


def read_outcome(read, p, dim):
    """The coordinates as float.hex strings, or the type and message of
    what ``read`` raises."""
    try:
        xs = read(p, dim)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    assert type(xs) is list and all(type(x) is float for x in xs)
    return [x.hex() for x in xs]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(p=any_point, dim=st.one_of(st.none(), st.integers(1, 4)))
def test_the_scalar_reader_is_as_point_tolist(p, dim):
    # the same floats, signed zeros and subnormals too, or the same error
    want = read_outcome(lambda p, dim: as_point(p, dim).tolist(), p, dim)
    assert read_outcome(_point_floats, p, dim) == want


@pytest.mark.parametrize(
    "p, dim",
    [((0.5, -0.0), 2), ([5e-324, 1e308, -1e308], None), (0.25, 1), (np.array([1.5, -2.0]), 2),
     (np.array([3.0, 1.0, 2.0])[::2], None)],
)
def test_the_scalar_reader_builds_no_array_for_floats(monkeypatch, p, dim):
    def refuse(*args):
        raise AssertionError("as_point was called")

    want = as_point(p, dim).tolist()
    monkeypatch.setattr(points, "as_point", refuse)
    assert [x.hex() for x in _point_floats(p, dim)] == [x.hex() for x in want]


COORDINATE_SPECS = (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev(), mk.Discrete(), mk.RealLine())


def scalar_oracle(spec, p, q):
    """``distance(spec, p, q)`` from ``as_point``'s floats and the spec's
    formula: the dimension check, then ``_pair``, then the overflow check."""
    xs, ys = as_point(p, spec.dim).tolist(), as_point(q, spec.dim).tolist()
    if len(xs) != len(ys):
        raise ValueError(f"dimension mismatch: {len(xs)} vs {len(ys)}")
    d = spec._pair(xs, ys)
    if not math.isfinite(d):
        pair = " and ".join(f"({', '.join(map(str, v))})" for v in (xs, ys))
        raise mk.CarrierError(f"the {spec.name} distance between {pair} overflows the float range")
    return d


def distance_outcome(fn):
    """The float as a hex string, or the type and message of what ``fn`` raises."""
    try:
        d = fn()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    assert type(d) is float
    return d.hex()


@pytest.mark.parametrize("spec", COORDINATE_SPECS, ids=lambda spec: spec.name)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=any_point, q=any_point)
@example(p=(1e308, 1e308), q=(-1e308, 0))  # the distance overflows
@example(p=(1e308, 1e308), q=(1e308, 1e308))  # the coordinate sum overflows, the distance is 0.0
@example(p=1e308, q=-1e308)
@example(p=(0.5, 0.25), q=(0.5, 0.25, 1.0))  # different lengths
@example(p=np.array([1.5, -2.0]), q=[0.5])
def test_a_scalar_distance_is_the_formula_on_as_point_floats(spec, p, q):
    want = distance_outcome(lambda: scalar_oracle(spec, p, q))
    assert distance_outcome(lambda: mk.distance(spec, p, q)) == want


# every reader of one number, with the name its error gives; each accepted
# value below is 2 or 0.5, so the polyline's one sample is at distance x
NUMBER_READERS = {
    "Ball": ("radius", lambda x: mk.Ball(mk.Euclidean(), (0, 0), x)),
    "check_nesting r": ("radius", lambda x: mk.check_nesting(mk.Euclidean(), (0, 0), x, (0, 0), 0.25, [(0.1, 0)])),
    "check_nesting t": ("radius", lambda x: mk.check_nesting(mk.Euclidean(), (0, 0), 4.0, (0, 0), x, [(0.1, 0)])),
    "ball_boundary": ("radius", lambda x: mk.ball_boundary(mk.Taxicab(), (0, 0), x, n=8)),
    "BoundaryPolyline": ("radius", lambda x: mk.BoundaryPolyline("euclidean", (0, 0), x, [(0.0, 2.0 if x == 2 else 0.5)])),
    "Circle2D": ("radius", lambda x: mk.Circle2D((0, 0), x)),
    "Circle3D": ("radius", lambda x: mk.Circle3D((0, 0, 0), x, (0, 0, 1))),
    "ToleranceConfig abs_tol": ("abs_tol", lambda x: mk.ToleranceConfig(abs_tol=x)),
    "ToleranceConfig rel_tol": ("rel_tol", lambda x: mk.ToleranceConfig(rel_tol=x)),
    "rotation": ("rotation angle", mk.rotation),
    "rotation_about_axis": ("rotation angle", lambda x: mk.rotation_about_axis((0, 0, 1), x)),
    "translation a1": ("a1", lambda x: mk.translation(x, 0)),
    "translation a2": ("a2", lambda x: mk.translation(0, x)),
    "reflect_about_point a1": ("a1", lambda x: mk.reflect_about_point(x, 0)),
    "reflect_about_point a2": ("a2", lambda x: mk.reflect_about_point(0, x)),
    "sinc": ("sinc argument", mk.sinc),
    "comparability_delta": ("epsilon", mk.comparability_delta),
    "arc_to_chord": ("arc length", mk.arc_to_chord),
}
NOT_NUMBERS = [True, np.True_, "0.5", b"1", None, 1j, [1], np.complex128(2), 10**400]
NUMBERS = [2, np.int64(2), np.float32(2.0), Fraction(1, 2), 0.5]


@pytest.mark.parametrize("reader", NUMBER_READERS)
@pytest.mark.parametrize("x", NOT_NUMBERS, ids=lambda x: repr(x)[:12])
def test_every_number_reader_refuses_what_is_not_a_number(reader, x):
    # float() would read a bool, a string, bytes or np.complex128 silently
    what, read = NUMBER_READERS[reader]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be a number, got {re.escape(repr(x))}$"):
        read(x)


@pytest.mark.parametrize("reader", NUMBER_READERS)
@pytest.mark.parametrize("x", NUMBERS, ids=repr)
def test_every_number_reader_reads_a_number_as_its_float(reader, x):
    _, read = NUMBER_READERS[reader]
    assert repr(read(x)) == repr(read(float(x)))


def test_as_number_gives_a_python_float():
    for x in NUMBERS:
        assert type(points.as_number(x, "x")) is float and points.as_number(x, "x") == float(x)
    assert math.isnan(points.as_number(math.nan, "x"))


def test_range_checks_follow_the_number_rule():
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^sinc argument must be finite and nonnegative, got (nan|inf)$"):
            mk.sinc(x)  # sinc(nan) was nan, and sinc(inf) a math domain error
    with pytest.raises(ValueError, match="^radius must be positive, got nan$"):
        mk.BoundaryPolyline("euclidean", (0, 0), math.nan, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(ValueError, match="^abs_tol must be finite and nonnegative, got -1$"):
        mk.ToleranceConfig(-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: mk.PlaneMap([["1", 0], [0, 1]], [0, 0]),
        lambda: mk.PlaneMap(np.eye(2), [None, 0]),
        lambda: mk.PlaneMap(np.eye(2), [True, "2"]),
        lambda: mk.PlaneMap(np.eye(2), [10**400, 0]),
        lambda: mk.PlaneMap([[1, 0], [0]], [0, 0]),
        lambda: mk.SphereMap([[True, False, False], [False, True, False], [False, False, True]]),
        lambda: mk.SphereMap(np.eye(3).astype(complex)),
    ],
)
def test_map_entries_follow_the_coordinate_rule(build):
    # numpy kinds int, unsigned int and float only, as as_point reads coordinates
    with pytest.raises(ValueError, match=r"^(plane|sphere) map needs a"):
        build()


def test_map_entries_take_ints_and_numpy_numbers():
    m = mk.PlaneMap(np.eye(2, dtype=np.int64), [np.uint8(1), 2])
    assert m.linear.dtype == m.offset.dtype == np.float64 and m.offset.tolist() == [1.0, 2.0]
    # numpy promotes a bool mixed with numbers, as it does for a coordinate
    assert mk.PlaneMap(np.eye(2), [True, 2]).offset.tolist() == [1.0, 2.0]
