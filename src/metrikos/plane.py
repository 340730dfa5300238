"""Coordinate distance formulas on the real line and in n-dimensional space.

The two-coordinate formulas generalize coordinatewise to any dimension; the
real line is the one-dimensional case.

>>> euclidean_distance((0, 0), (3, 4))
5.0
>>> taxicab_distance((0, 0), (3, 4))
7.0
>>> chebyshev_distance((0, 0), (3, 4))
4.0
"""

from __future__ import annotations

import math

import numpy as np

from .points import as_point, as_real, same_dim


def real_line_distance(r, t) -> float:
    """Absolute difference |r - t| of two real numbers."""
    return abs(as_real(r) - as_real(t))


def euclidean_distance(p, q) -> float:
    """Square root of the sum of squared coordinate differences.

    Evaluated as a scaled hypotenuse (math.hypot), so extreme coordinates do
    not overflow the intermediate squares.
    """
    pa, qa = as_point(p), as_point(q)
    same_dim(pa, qa)
    return math.hypot(*(pa - qa))


def hypot_rows(V: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each row of a (..., d) array, bit for bit.

    This is the norm the scalar formulas use; ``np.hypot`` and
    ``np.linalg.norm`` round differently in the last bit.
    """
    flat = V.reshape(-1, V.shape[-1])
    return np.fromiter(map(math.hypot, *flat.T.tolist()), float, len(flat)).reshape(V.shape[:-1])


def taxicab_distance(p, q) -> float:
    """Sum of absolute coordinate differences."""
    pa, qa = as_point(p), as_point(q)
    same_dim(pa, qa)
    return float(sum(abs(a - b) for a, b in zip(pa, qa)))


def chebyshev_distance(p, q) -> float:
    """Maximum absolute coordinate difference."""
    pa, qa = as_point(p), as_point(q)
    same_dim(pa, qa)
    return float(max(abs(a - b) for a, b in zip(pa, qa)))


def discrete_distance(p, q) -> float:
    """0 if p and q have exactly equal coordinates, else 1."""
    pa, qa = as_point(p), as_point(q)
    same_dim(pa, qa)
    return 0.0 if all(a == b for a, b in zip(pa, qa)) else 1.0


def _as_rows(P, Q):
    Pa, Qa = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if Pa.shape != Qa.shape or Pa.ndim != 2:
        raise ValueError(f"expected matching (n, dim) arrays, got {Pa.shape} and {Qa.shape}")
    if not (np.all(np.isfinite(Pa)) and np.all(np.isfinite(Qa))):
        raise ValueError("coordinates must be finite")
    return Pa, Qa


def euclidean_distances(P, Q) -> np.ndarray:
    """Rowwise Euclidean distances between two (n, dim) point arrays."""
    Pa, Qa = _as_rows(P, Q)
    return np.linalg.norm(Pa - Qa, axis=1)


def taxicab_distances(P, Q) -> np.ndarray:
    """Rowwise taxicab distances between two (n, dim) point arrays."""
    Pa, Qa = _as_rows(P, Q)
    return np.abs(Pa - Qa).sum(axis=1)


def chebyshev_distances(P, Q) -> np.ndarray:
    """Rowwise Chebyshev distances between two (n, dim) point arrays."""
    Pa, Qa = _as_rows(P, Q)
    return np.abs(Pa - Qa).max(axis=1)
