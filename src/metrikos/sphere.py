"""Chord and arc geometry on the unit sphere.

Two distances coexist on the sphere: the chord (straight-line distance through
the ambient space) and the great-circle arc length. They are linked by

    chord = 2 * sin(arc / 2),        arc in [0, pi].

The arc is computed as ``atan2(|p x q|, p . q)``, which is accurate to a few
ulps at every angle; ``2 * asin(chord / 2)`` would lose about sqrt(eps) near
antipodes, where asin is flat. The module also provides the supporting
constructions: radial projection onto a plane circle, the nearest/farthest
points of a 3-D circle from an external point, and the extremal point used
to reduce the spherical triangle inequality to a single great circle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CarrierError, DegenerateGeometryError
from .frozen import Frozen
from .points import as_point, as_points, finite_radius, hypot_rows, same_shape_rows

# Construction accepts vectors this far from unit norm and renormalizes them.
UNIT_NORM_TOL = 1e-9

_DEGENERATE_TOL = 1e-12


def sphere_point(p) -> np.ndarray:
    """Validate a unit-sphere point and renormalize it to exact unit norm.

    Rejects vectors whose norm differs from 1 by more than ``UNIT_NORM_TOL``
    (including the zero vector).
    """
    v = as_point(p, dim=3)
    return v / unit_norm(v)


def unit_norm(v) -> float:
    """The norm of a 3-vector by ``math.hypot``, which ``sphere_point``
    divides by; CarrierError unless it is within ``UNIT_NORM_TOL`` of 1."""
    n = math.hypot(*v)
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise CarrierError(f"point is not on the unit sphere: |p| = {n!r}")
    return n


class Circle2D(Frozen):
    """A circle in the plane, given by center and positive finite radius."""

    __match_args__ = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: float):
        vars(self).update(center=as_point(center, dim=2), radius=finite_radius(radius))


class Circle3D(Frozen):
    """A circle in 3-space: center, positive finite radius, and unit plane normal.

    The normal is renormalized at construction; a zero normal is rejected.
    """

    __match_args__ = ("center", "radius", "normal")

    def __init__(self, center: np.ndarray, radius: float, normal: np.ndarray):
        center, radius = as_point(center, dim=3), finite_radius(radius)
        n = as_point(normal, dim=3)
        norm = math.hypot(*n)
        if norm == 0.0:
            raise ValueError("circle normal must be nonzero")
        vars(self).update(center=center, radius=radius, normal=n / norm)


def sphere_points(P) -> np.ndarray:
    """Validate and renormalize a sequence of unit-sphere points.

    Returns the rows of an (n, 3) array; row k equals ``sphere_point(P[k])``
    bit for bit, and a point that ``sphere_point`` rejects raises its error.
    """
    rows = as_points(P, dim=3)
    norms = hypot_rows(rows)
    bad = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if bad.any():
        unit_norm(rows[np.argmax(bad)])
    return rows / norms[:, None]


def chord_distance(p, q) -> float:
    """Straight-line (ambient Euclidean) distance between two sphere points."""
    return math.hypot(*(sphere_point(p) - sphere_point(q)).tolist())


def chord_distances(P, Q) -> np.ndarray:
    """Rowwise chord distances between two (n, 3) sphere-point arrays; row k
    equals ``chord_distance(P[k], Q[k])`` bit for bit."""
    same_shape_rows(P, Q)
    return hypot_rows(sphere_points(P) - sphere_points(Q))


def great_circle_distances(P, Q) -> np.ndarray:
    """Rowwise shorter-arc lengths between two (n, 3) sphere-point arrays;
    row k equals ``great_circle_distance(P[k], Q[k])`` bit for bit."""
    same_shape_rows(P, Q)
    return arc_lengths(sphere_points(P), sphere_points(Q))


def arc_length(p: np.ndarray, q: np.ndarray) -> float:
    """atan2(|p x q|, p . q) for two validated unit 3-vectors: the angle
    between them, bitwise symmetric in (p, q), exactly 0 for p == q."""
    (a, b, c), (d, e, f) = p.tolist(), q.tolist()
    return math.atan2(math.hypot(b * f - c * e, c * d - a * f, a * e - b * d), a * d + b * e + c * f)


def arc_lengths(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``arc_length`` of every pair of rows of two broadcastable (..., 3)
    arrays of validated unit vectors, bit for bit.

    numpy forms the cross and dot products in the scalar formula's order;
    ``math.hypot`` and ``math.atan2`` finish each pair, since ``np.arctan2``
    and numpy's norms round differently in the last bit. The maps read the
    products through memoryviews, with no list built.
    """
    a, b, c = P[..., 0], P[..., 1], P[..., 2]
    d, e, f = Q[..., 0], Q[..., 1], Q[..., 2]
    dot = a * d + b * e + c * f
    cross = (b * f - c * e, c * d - a * f, a * e - b * d)
    sin = map(math.hypot, *(memoryview(t.ravel()) for t in cross))
    return np.fromiter(map(math.atan2, sin, memoryview(dot.ravel())), float, dot.size).reshape(dot.shape)


def great_circle_distance(p, q) -> float:
    """Length of the shorter great-circle arc between two sphere points.

    Antipodal points give pi.
    """
    return arc_length(sphere_point(p), sphere_point(q))


def arc_to_chord(arc: float) -> float:
    """Chord length subtended by an arc of the given length, arc in [0, pi]."""
    if not 0.0 <= arc <= math.pi:
        raise ValueError(f"arc length must lie in [0, pi], got {arc}")
    return 2.0 * math.sin(0.5 * arc)


def sinc(t: float) -> float:
    """sin(t)/t for t > 0, continuously extended to exactly 1 at t = 0."""
    t = float(t)
    if t < 0:
        raise ValueError(f"sinc argument must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    return math.sin(t) / t


def comparability_delta(epsilon: float) -> float:
    """Largest chord threshold delta <= 2 such that arc <= (1+eps)*chord
    whenever chord < delta.

    The arc/chord ratio at half-arc t equals t/sin(t), which increases on
    (0, pi/2] from 1 to pi/2. For eps >= pi/2 - 1 the bound holds globally
    and delta = 2; otherwise t* solves t/sin(t) = 1 + eps by bisection and
    delta = 2*sin(t*).
    """
    eps = float(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if eps >= math.pi / 2 - 1.0:
        return 2.0
    target = 1.0 + eps
    lo, hi = 0.0, math.pi / 2  # ratio -> 1 at 0+, = pi/2 at pi/2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid / math.sin(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    t_star = 0.5 * (lo + hi)
    return 2.0 * math.sin(t_star)


def circular_projection(c: Circle2D, p) -> np.ndarray:
    """Radial projection of a plane point onto the circle ``c``.

    Sends p to the point of the circle on the segment from p to the center;
    fixes points of the circle. Undefined at the center itself. This is
    ``circular_projections`` of the one row p.
    """
    return circular_projections(c, as_point(p, dim=2)[None, :])[0]


def circular_projections(c: Circle2D, P) -> np.ndarray:
    """Rowwise radial projection of an (n, 2) point array onto ``c``."""
    shape = np.shape(P)
    if len(shape) != 2 or shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {shape}")
    V = as_points(P) - c.center  # a row circular_projection refuses raises its error
    norms = hypot_rows(V)
    if np.any(norms == 0.0):
        raise ValueError("circular projection is undefined at the circle center")
    return c.center + (c.radius / norms)[:, None] * V


def circle_extremal_points(x, c: Circle3D) -> tuple[np.ndarray, np.ndarray]:
    """Nearest and farthest points of a 3-D circle from the point ``x``.

    Projects x onto the circle's plane; the extrema lie where the line
    through the projection and the circle center meets the circle. Raises
    DegenerateGeometryError when the projection coincides with the center,
    in which case every circle point is equidistant from x.
    """
    xa = as_point(x, dim=3)
    h = float(np.dot(xa - c.center, c.normal))
    proj = xa - h * c.normal
    u = proj - c.center
    n = math.hypot(*u)
    if n <= _DEGENERATE_TOL:
        raise DegenerateGeometryError(
            "point projects onto the circle center: every circle point is equidistant"
        )
    u = u / n
    a = c.center + c.radius * u
    b = c.center - c.radius * u
    if math.hypot(*(xa - a).tolist()) <= math.hypot(*(xa - b).tolist()):
        return a, b
    return b, a


def equidistant_circle(q, reference) -> Circle3D:
    """The circle of unit-sphere points at the same chord distance from ``q``
    as ``reference``.

    Its Euclidean center lies on the line through q and the origin, and its
    plane is perpendicular to that line. Degenerates to a point when q and
    the reference are equal or antipodal (rejected here; see
    ``farthest_equidistant_point`` for the trivial handling).
    """
    qa = sphere_point(q)
    ra = sphere_point(reference)
    k = max(-1.0, min(1.0, float(np.dot(qa, ra))))
    radius = math.sqrt(max(0.0, 1.0 - k * k))
    if radius <= _DEGENERATE_TOL:
        raise DegenerateGeometryError(
            "equidistant set degenerates to a single point for equal or antipodal inputs"
        )
    return Circle3D(center=k * qa, radius=radius, normal=qa)


def farthest_equidistant_point(p, q, r) -> np.ndarray:
    """The point at q's chord distance from r that lies farthest from p.

    Among all sphere points r' with d(q, r') = d(q, r), returns the one
    maximizing the distance to p. When q and r are equal or antipodal the
    equidistant set is the single point r, which is returned unchanged. The
    result always lies on the great circle through p and q; raises
    DegenerateGeometryError when p is equal or antipodal to q, since then
    every candidate is extremal.
    """
    pa, qa, ra = sphere_point(p), sphere_point(q), sphere_point(r)
    try:
        circle = equidistant_circle(qa, ra)
    except DegenerateGeometryError:
        return ra
    _, farthest = circle_extremal_points(pa, circle)
    return sphere_point(farthest)
