"""The carrier validators: a batch equals its points one by one, bit for bit,
and a batch holding a bad item raises the error of that item."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metrikos as mk
from metrikos.points import as_indices, as_point, as_points

from _support import builtin_cases, case_id

CASES = builtin_cases(np.random.default_rng(8), n=6)
INDEX_CASES = [case for case in CASES if case[0].name in ("graphpath", "polylinearc", "matrix")]
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
    per_point = [outcome(spec.validate_point, x) for x in batch]
    raised = [result for status, result in per_point if status == "raise"]
    if not raised:
        got = spec.validate_many(batch)
        assert len(got) == len(batch)
        assert [bits(g) for g in got] == [bits(result) for _, result in per_point], (spec.name, batch)
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
