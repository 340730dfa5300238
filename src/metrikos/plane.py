"""Coordinate distances on the real line and in n-dimensional space.

Every function here is a view of a ``MetricSpec`` in ``core``, which holds
the one formula of each metric. The scalar functions are ``distance`` under
that spec; the rowwise functions validate their two (n, dim) arrays with
``as_points`` and apply the spec's row kernel to the planes (P - Q).T, so
row k equals the scalar function of row k bit for bit, or raises its error.

The two-coordinate formulas generalize coordinatewise to any dimension; the
real line is the one-dimensional case.

>>> euclidean_distance((0, 0), (3, 4))
5.0
>>> taxicab_distance((0, 0), (3, 4))
7.0
>>> chebyshev_distance((0, 0), (3, 4))
4.0
>>> euclidean_distances([[1e300, 0.0]], [[-1e300, 0.0]])
array([2.e+300])
"""

from __future__ import annotations

import numpy as np

from .core import Chebyshev, Discrete, Euclidean, RealLine, Taxicab, distance
from .points import as_points, same_shape_rows

_EUCLIDEAN, _TAXICAB, _CHEBYSHEV = Euclidean(), Taxicab(), Chebyshev()
_DISCRETE, _REAL_LINE = Discrete(), RealLine()


def real_line_distance(r, t) -> float:
    """Absolute difference |r - t| of two real numbers."""
    return distance(_REAL_LINE, r, t)


def euclidean_distance(p, q) -> float:
    """Square root of the sum of squared coordinate differences.

    Evaluated as a scaled hypotenuse (math.hypot), so extreme coordinates do
    not overflow the intermediate squares.
    """
    return distance(_EUCLIDEAN, p, q)


def taxicab_distance(p, q) -> float:
    """Sum of absolute coordinate differences, added left to right."""
    return distance(_TAXICAB, p, q)


def chebyshev_distance(p, q) -> float:
    """Maximum absolute coordinate difference."""
    return distance(_CHEBYSHEV, p, q)


def discrete_distance(p, q) -> float:
    """0 if p and q have exactly equal coordinates, else 1."""
    return distance(_DISCRETE, p, q)


def _rowwise(spec, P, Q) -> np.ndarray:
    """``spec``'s row kernel over the difference planes (P - Q).T of two
    matching (n, dim) arrays of points, each row validated as the scalar
    functions validate a point; a row whose distance overflows raises the
    scalar's CarrierError."""
    same_shape_rows(P, Q)
    P, Q = as_points(P), as_points(Q)
    with np.errstate(over="ignore"):  # refused by _finite
        out = spec._rows((P - Q).T)
    return spec._finite(out, P, Q)


def euclidean_distances(P, Q) -> np.ndarray:
    """Rowwise Euclidean distances between two (n, dim) point arrays."""
    return _rowwise(_EUCLIDEAN, P, Q)


def taxicab_distances(P, Q) -> np.ndarray:
    """Rowwise taxicab distances between two (n, dim) point arrays."""
    return _rowwise(_TAXICAB, P, Q)


def chebyshev_distances(P, Q) -> np.ndarray:
    """Rowwise Chebyshev distances between two (n, dim) point arrays."""
    return _rowwise(_CHEBYSHEV, P, Q)
