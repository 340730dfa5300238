"""Carrier validation helpers.

Each carrier kind has one scalar validator for a point and one batch
validator for a sequence of points; item k of a batch result equals the
scalar result for item k bit for bit, and a batch holding an item the scalar
validator rejects raises the scalar validator's error.

* Coordinates, of R^d and of the real line as d = 1: ``as_point`` coerces
  one point to a fresh finite 1-D float64 array, and reads a real number as
  a point of one coordinate; ``as_points`` coerces a batch to the rows of
  one fresh (n, d) float64 array, or raises. They are the only way in for
  coordinates. Coordinates are integers or floats: bools and strings raise
  CarrierError. A scalar distance reads its points with ``_point_floats``,
  which gives ``as_point(p, dim).tolist()`` and builds no array for a point
  already of float64 or Python floats.
* Sphere points: ``sphere.sphere_point`` and ``sphere.sphere_points``, built
  on the coordinate pair with d = 3.
* Indices (graph vertices, polyline vertices, matrix rows): ``as_index``
  gives one Python int in 0..n-1; ``as_indices`` checks a batch of plain ints
  by its least and greatest items.

The scalar validators test finiteness over Python floats (``math.isfinite``
over ``tolist()``), since a numpy reduction costs more than the rest of the
call on a point of a few coordinates. A batch that fails its one-pass check
falls back to the scalar validator item by item, which raises the error.

``point_key`` and ``point_keys`` give hashable exact-equality keys of
validated points, ``finite_radius`` checks a radius, ``same_shape_rows`` the
two arrays of a rowwise distance function, and ``hypot_rows`` is the
row-wise Euclidean norm of the coordinate and sphere kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CarrierError

_FLOAT64 = np.dtype(float)
_FLOAT_TYPE = {float}


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce ``p`` to a finite 1-D float64 array, optionally of length ``dim``.

    A scalar is a point of one coordinate. The coordinates must convert to a
    numpy integer or float array, so bools and strings raise CarrierError;
    numpy promotes a bool mixed with numbers, such as ``(True, 0.5)``, before
    that check. The result is always a fresh array, never a view of ``p``.
    """
    try:
        arr = np.array(p, ndmin=1)
    except ValueError:  # a sequence among the coordinates, such as [1, [1]]
        raise CarrierError(f"point coordinates must be numbers, got {p!r}") from None
    if arr.dtype is not _FLOAT64:  # the common case skips the kind test and the cast
        if arr.dtype.kind not in "iuf":
            raise CarrierError(f"point coordinates must be numbers, got {p!r}")
        arr = arr.astype(float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"point must be a 1-D coordinate sequence, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"point coordinates must be finite, got {arr!r}")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected a {dim}-dimensional point, got {arr.size} coordinates")
    return arr


def _point_floats(p, dim: int | None = None) -> list:
    """``as_point(p, dim).tolist()``, the same floats, with no array built
    for a 1-D float64 array, a Python float, or a tuple or list of Python
    floats. Any other input, and one of those that is empty, not finite or
    of another length than ``dim``, goes through ``as_point``, so the inputs
    accepted and the errors raised are its own."""
    kind = type(p)
    if kind is np.ndarray:
        xs = p.tolist() if p.ndim == 1 and p.dtype is _FLOAT64 else None
    elif kind is tuple or kind is list:
        # the first coordinate sends a point of ints to as_point at once
        xs = [*p] if p and type(p[0]) is float and set(map(type, p)) == _FLOAT_TYPE else None
    else:
        xs = [p] if kind is float else None
    # a float sum is finite only if every term is: one test for the common case
    if xs and (dim is None or len(xs) == dim) and (math.isfinite(sum(xs)) or all(map(math.isfinite, xs))):
        return xs
    return as_point(p, dim).tolist()


def as_points(points: Sequence, dim: int | None = None) -> np.ndarray:
    """The rows of one fresh (n, d) float64 array, row k equal to
    ``as_point(points[k], dim)`` bit for bit, from one conversion.

    A batch that fails the one-pass check takes the ``as_point`` loop, so a
    bad point raises its own error, and points of different lengths raise
    ``same_dim``'s error for point 0 and the first one of another length.
    An empty batch is a (0, d) array, with d = 1 when ``dim`` is None.
    """
    try:
        arr = np.array(points)
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.ndim == 1:
        arr = arr.reshape(-1, 1)  # scalars are 1-coordinate points
    if arr is not None and arr.ndim == 2 and arr.dtype.kind in "iuf" and arr.shape[1] > 0 and dim in (None, arr.shape[1]):
        arr = arr.astype(float, copy=False)
        if np.isfinite(arr).all():
            # numpy reads a point of bools among numbers as 0s and 1s, where
            # as_point refuses it; such a point starts with a 0 or a 1
            if not isinstance(points, np.ndarray) and not {0.0, 1.0}.isdisjoint(arr[:, 0].tolist()):
                for k in np.flatnonzero((arr == (arr != 0)).all(1)).tolist():
                    as_point(points[k], dim)
            return arr
    if not np.iterable(points):
        raise ValueError(f"expected a sequence of points, got {points!r}")
    rows = [as_point(p, dim) for p in points]  # a bad point raises its own error
    for q in rows:
        same_dim(rows[0], q)
    return np.array(rows) if rows else np.empty((0, dim or 1))


def as_integer(i, what: str = "index") -> int:
    """``i`` as a Python int, or CarrierError.

    Accepts ints and numpy integers, and floats (numpy ones too) that are
    exactly integral. Rejects bools, fractional and non-finite values and
    anything else, so no integer is silently truncated.
    """
    if type(i) is int:
        return i
    if isinstance(i, np.integer) or (isinstance(i, int) and not isinstance(i, bool)):
        return int(i)
    if isinstance(i, (float, np.floating)) and float(i).is_integer():
        return int(i)
    raise CarrierError(f"{what} must be an integer, got {i!r}")


def as_index(i, n: int, what: str = "index") -> int:
    """``i`` as a Python int in 0..n-1 (see ``as_integer``), or CarrierError."""
    v = i if type(i) is int else as_integer(i, what)
    if not 0 <= v < n:
        raise CarrierError(f"{what} {i} outside 0..{n - 1}")
    return v


def as_indices(points: Sequence, n: int, what: str = "index") -> list[int]:
    """``as_index`` of each item, as a list of Python ints.

    A list of plain ints (bools are not) or a 1-D integer array is checked in
    one pass, by its least and greatest items. Any other batch, and one that
    fails that check, takes the per-item loop, so a bad item raises
    ``as_index``'s error, and a batch mixing ints with bools, which numpy
    would convert to an integer array, is checked item by item.
    """
    if isinstance(points, np.ndarray):
        ids = points.tolist() if points.ndim == 1 and points.dtype.kind in "iu" else None
    else:
        ids = list(points) if set(map(type, points)) <= {int} else None
    if ids is not None and (not ids or (0 <= min(ids) and max(ids) < n)):
        return ids
    return [as_index(i, n, what) for i in points]


def finite_radius(r) -> float:
    """``r`` as a float, or ValueError unless it is positive and finite. A
    bool, a string or bytes is refused, as it is as a coordinate."""
    if not isinstance(r, float) and isinstance(r, (bool, np.bool_, str, bytes)):
        raise ValueError(f"radius must be a number, got {r!r}")
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    if r == math.inf:
        raise ValueError(f"radius must be finite, got {r}")
    return r


def hypot_rows(V: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each row of an (n, d) float64 array, bit for bit.

    This is the norm of every scalar formula; ``np.hypot`` and
    ``np.linalg.norm`` round differently in the last bit, and the latter
    overflows to inf once a coordinate passes about 1e154. Memoryviews of
    the columns yield the floats of ``tolist`` with no list built.
    """
    return np.fromiter(map(math.hypot, *map(memoryview, V.T)), float, len(V))


def same_dim(p, q) -> None:
    """ValueError unless the points p and q, 1-D arrays or coordinate lists, have one length."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")


def same_shape_rows(P, Q) -> None:
    """ValueError unless P and Q are (n, d) arrays of one shape, d > 0: no row is broadcast."""
    shape = np.shape(P)
    if len(shape) != 2 or shape[1] == 0 or np.shape(Q) != shape:
        raise ValueError(f"expected matching (n, dim) arrays, got {shape} and {np.shape(Q)}")


def point_key(p):
    """Hashable exact-equality key for a validated carrier point: an index
    or a 1-D coordinate array."""
    if isinstance(p, (int, np.integer)):
        return int(p)
    return tuple(np.asarray(p, dtype=float).tolist())


def point_keys(points):
    """An iterator over the ``point_key`` of each item of a ``validate_many``
    result; the rows of an (n, d) array are keyed from one ``tolist``."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return map(tuple, points.tolist())
    return map(point_key, points)
