"""Carrier validation helpers.

Each carrier kind has a scalar validator for one point and a batch validator
for a sequence of points; item k of a batch result equals the scalar result
for item k bit for bit, and a batch holding an item the scalar validator
rejects raises the scalar validator's error.

* Coordinates: ``as_point`` coerces one point to a fresh finite 1-D float64
  array; ``as_points`` gives a batch of one shared length as the rows of one
  (n, d) array, from one conversion.
* Reals: ``as_real`` gives one finite Python float; ``as_reals`` a list of
  them, from one conversion.
* Indices (graph vertices, polyline vertices, matrix rows): ``as_index``
  gives one Python int in 0..n-1; ``as_indices`` checks a batch of plain ints
  by its least and greatest items.

The scalar validators test finiteness over Python floats (``math.isfinite``
over ``tolist()``), since a numpy reduction costs more than the rest of the
call on a point of a few coordinates. A batch that fails its one-pass check
falls back to the scalar validator item by item, which raises the error.

``point_key`` and ``point_keys`` give hashable exact-equality keys of
validated points, and ``hypot_rows`` is the row-wise form of the Euclidean
norm, shared by the coordinate and sphere kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CarrierError


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce ``p`` to a finite 1-D float64 array, optionally of length ``dim``.

    The result is always a fresh array, never a view of ``p``.
    """
    arr = np.array(p, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
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
    dim)`` bitwise.
    """
    try:
        arr = np.array(points, dtype=float)
    except (ValueError, TypeError, OverflowError):  # ragged or non-numeric
        arr = None
    if arr is not None and arr.ndim == 1:
        arr = arr.reshape(-1, 1)  # scalars are 1-coordinate points
    if (
        arr is not None
        and arr.ndim == 2
        and arr.shape[1] > 0
        and (dim is None or arr.shape[1] == dim)
        and np.isfinite(arr).all()
    ):
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


def as_real(x) -> float:
    """Coerce ``x`` (a scalar or a 1-coordinate point) to a finite float."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1 and arr.size == 1:
        arr = arr[0]
    if arr.ndim != 0:
        raise ValueError(f"expected a single real number, got shape {arr.shape}")
    v = float(arr)
    if not math.isfinite(v):
        raise ValueError(f"value must be finite, got {v!r}")
    return v


def as_reals(points: Sequence) -> list[float]:
    """``as_real`` of each item, as a list of Python floats.

    Scalars and 1-coordinate points are read from one conversion. A batch it
    cannot read, or one holding a non-finite value, takes the per-item loop,
    so a bad item raises ``as_real``'s error.
    """
    try:
        arr = np.array(points, dtype=float)
    except (ValueError, TypeError, OverflowError):  # ragged or non-numeric
        arr = None
    if arr is not None and (arr.ndim == 1 or (arr.ndim == 2 and arr.shape[1] == 1)):
        values = arr.ravel().tolist()
        if all(map(math.isfinite, values)):
            return values
    return [as_real(x) for x in points]


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
    """Hashable exact-equality key for a carrier point of any variant."""
    if isinstance(p, (int, np.integer)):
        return int(p)
    if isinstance(p, (float, np.floating)):
        return float(p)
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return tuple(arr.tolist())


def point_keys(points):
    """An iterator over the ``point_key`` of each item of a ``validate_many``
    result; the rows of an (n, d) array are keyed from one ``tolist``."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return map(tuple, points.tolist())
    return map(point_key, points)
