"""Carrier validation helpers.

Each carrier kind has one scalar validator for a point and one batch
validator for a sequence of points; item k of a batch result equals the
scalar result for item k bit for bit, and a batch holding an item the scalar
validator rejects raises the scalar validator's error.

* Coordinates, of R^d and of the real line as d = 1: ``as_point`` coerces
  one point to a fresh finite 1-D float64 array, and reads a real number as
  a point of one coordinate; ``as_points`` gives a batch of one shared
  length as the rows of one (n, d) array, from one conversion. Coordinates
  are integers or floats: bools and strings raise CarrierError.
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
validated points, ``finite_radius`` checks the radius of a circle or of a
ball boundary, and ``hypot_rows`` is the row-wise form of the Euclidean
norm, shared by the coordinate and sphere kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CarrierError

_FLOAT64 = np.dtype(float)


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce ``p`` to a finite 1-D float64 array, optionally of length ``dim``.

    A scalar is a point of one coordinate. The coordinates must convert to a
    numpy integer or float array, so bools and strings raise CarrierError;
    numpy promotes a bool mixed with numbers, such as ``(True, 0.5)``, before
    that check. The result is always a fresh array, never a view of ``p``.
    """
    arr = np.array(p, ndmin=1)
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


def as_points(points: Sequence, dim: int | None = None):
    """Coerce a sequence of points, each as ``as_point`` would.

    Points of one shared length come back as the rows of a fresh (n, d)
    float64 array, from one conversion instead of n. Otherwise the result is
    the list of ``as_point`` results, so a point that ``as_point`` rejects
    raises its own error. Either way item k equals ``as_point(points[k],
    dim)`` bitwise, with one known limit: numpy promotes a bool mixed with
    numbers in one conversion, so a batch that holds the row ``(True,
    False)`` among rows of numbers reads it as numbers, where ``as_point``
    alone refuses it (as it reads ``(True, 0.5)``). A bool among scalar
    points is caught: that batch takes the per-item path.
    """
    try:
        arr = np.array(points)
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.ndim == 1:
        if isinstance(points, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, points)):
            arr = arr.reshape(-1, 1)  # scalars are 1-coordinate points
        else:
            arr = None  # numpy reads a bool among numbers as a number; as_point refuses it
    if arr is not None and arr.ndim == 2 and arr.dtype.kind in "iuf":
        arr = arr.astype(float, copy=False)
        if arr.shape[1] > 0 and (dim is None or arr.shape[1] == dim) and np.isfinite(arr).all():
            return arr
    return [as_point(p, dim=dim) for p in points]


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
    """``r`` as a float, or ValueError unless it is positive and finite."""
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    if r == math.inf:
        raise ValueError(f"radius must be finite, got {r}")
    return r


def hypot_rows(V: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each row of a (..., d) array, bit for bit.

    This is the norm of every scalar formula; ``np.hypot`` and
    ``np.linalg.norm`` round differently in the last bit, and the latter
    overflows to inf once a coordinate passes about 1e154.
    """
    flat = V.reshape(-1, V.shape[-1])
    return np.fromiter(map(math.hypot, *flat.T.tolist()), float, len(flat)).reshape(V.shape[:-1])


def same_dim(p: np.ndarray, q: np.ndarray) -> None:
    if p.size != q.size:
        raise ValueError(f"dimension mismatch: {p.size} vs {q.size}")


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
