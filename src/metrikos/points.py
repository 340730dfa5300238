"""Carrier validation helpers.

Coordinate points are plain 1-D float64 numpy arrays; these helpers coerce
user input (tuples, lists, arrays) into that form and enforce finiteness.
Index carriers (graph vertices, polyline vertices, matrix rows) take
integers in 0..n-1, checked by ``as_index``. ``hypot_rows`` is the
row-wise form of the Euclidean norm, shared by the coordinate and sphere
kernels.
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
    if not np.isfinite(arr).all():
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


def as_index(i, n: int, what: str = "index") -> int:
    """``i`` as a Python int in 0..n-1, or CarrierError.

    Accepts ints and numpy integers, and floats (numpy ones too) that are
    exactly integral. Rejects bools, fractional and non-finite values and
    anything else, so no index is silently truncated.
    """
    if type(i) is int:
        v = i
    elif isinstance(i, np.integer) or (isinstance(i, int) and not isinstance(i, bool)):
        v = int(i)
    elif isinstance(i, (float, np.floating)) and float(i).is_integer():
        v = int(i)
    else:
        raise CarrierError(f"{what} must be an integer, got {i!r}")
    if not 0 <= v < n:
        raise CarrierError(f"{what} {i} outside 0..{n - 1}")
    return v


def as_real(x) -> float:
    """Coerce ``x`` (a scalar or a 1-coordinate point) to a finite float."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1 and arr.size == 1:
        arr = arr[0]
    if arr.ndim != 0:
        raise ValueError(f"expected a single real number, got shape {arr.shape}")
    v = float(arr)
    if not np.isfinite(v):
        raise ValueError(f"value must be finite, got {v!r}")
    return v


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
