"""Open balls, the nesting lemma as a runtime check, and ball boundaries
(circle, diamond, square) of the three plane metrics, one array formula each.

Membership is strict: B(p, r) holds the points at distance *less than* r, so
a point at distance exactly r is outside. On the real line the ball is the
open interval (p - r, p + r).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import Chebyshev, Euclidean, MetricSpec, Taxicab
from .frozen import Frozen
from .points import as_integer, as_point, as_points, finite_radius

BOUNDARY_TOL = 1e-9
# units of rounding, eps * max(|center|_inf, r), that a boundary sample may
# be off the radius; samples over radii 1e-300 to 1.5e308 and centers up to
# 1e300 were off by less than 2
_BOUNDARY_ROUNDING_UNITS = 8
MIN_BOUNDARY_SAMPLES = 8
DEFAULT_BOUNDARY_SAMPLES = 256


class Ball(Frozen):
    """Open ball: all carrier points at distance < radius from the center.

    The radius is read first, by ``finite_radius``, and then the center, by
    the metric's ``validate_point``.

    >>> Ball(Euclidean(), (0, 0), 1)
    Ball(metric=Euclidean(), center=array([0., 0.]), radius=1.0)
    """

    __match_args__ = ("metric", "center", "radius")

    def __init__(self, metric: MetricSpec, center, radius: float):
        radius = finite_radius(radius)
        vars(self).update(metric=metric, center=metric.validate_point(center), radius=radius)

    def __contains__(self, x) -> bool:
        return ball_contains(self, x)


def ball_contains(b: Ball, x) -> bool:
    """Strict membership test: distance(center, x) < radius. The center
    was validated when the ball was built, so only ``x`` is read here."""
    return b.metric._eval(b.center, b.metric._read(x)) < b.radius


class NestingWitness(NamedTuple):
    """A probe inside the inner ball that escaped the outer ball."""

    probe: object
    inner_distance: float
    outer_distance: float


def check_nesting(
    metric: MetricSpec, p, r: float, q, t: float, probes: Sequence
) -> tuple[bool, NestingWitness | None]:
    """Check B(q, t) <= B(p, r) over a probe set, given q in B(p, r) and
    0 < t <= r - d(p, q), with both radii read by ``finite_radius``.

    The inclusion is a theorem of the metric axioms, so the preconditions are
    enforced as errors; a False verdict therefore indicates a broken distance
    implementation, and the first violating probe is returned as evidence.

    The whole probe set is validated (``metric.validate_many``), and then
    one 2 x m table of distances from q and from p to the m probes comes from
    the metric's batch kernel (``_cross``). So a probe outside the carrier
    raises even when an earlier probe would be a witness, and so does a probe
    the kernel cannot evaluate, such as an unreachable graph vertex or a
    point of another dimension.
    """
    r, t = finite_radius(r), finite_radius(t)
    dpq = metric._eval(metric.validate_point(p), metric.validate_point(q))
    if not dpq < r:
        raise ValueError(f"q must lie inside B(p, r): d(p, q) = {dpq} >= r = {r}")
    if not t <= r - dpq:  # finite_radius refused t <= 0
        raise ValueError(f"need 0 < t <= r - d(p, q) = {r - dpq}, got t = {t}")
    inner, outer = metric._cross(metric.validate_many([q, p]), metric.validate_many(probes))
    escaped = np.flatnonzero((inner < t) & ~(outer < r))
    if escaped.size:
        k = escaped[0]
        return False, NestingWitness(probes[k], float(inner[k]), float(outer[k]))
    return True, None


def _circle(r: float, n: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return r * np.column_stack([np.cos(theta), np.sin(theta)])


def _four_edges(r: float, n: int, first_edge) -> np.ndarray:
    """Offsets around a four-edge polygon, counterclockwise: the first edge
    is ``first_edge(r, v)`` at v = k / m, k < m, for its m samples, and each
    further edge the one before turned a quarter turn (a swap and a sign)."""
    edges = []
    for turns in range(4):
        m = n // 4 + (turns < n % 4)
        x, y = first_edge(r, np.arange(m) / m)
        for _ in range(turns):
            x, y = -y, x
        # + 0.0 normalizes -0.0 at the polygon vertices
        edges.append(np.column_stack([x + 0.0, y + 0.0]))
    return np.concatenate(edges)


def _diamond_edge(r: float, v: np.ndarray):
    """Magnitudes (a, b) with a + b == r exactly in floating point, from
    (r, 0) towards (0, r). The smaller magnitude is always computed as r
    minus the larger, which subtracts exactly (Sterbenz), so taxicab edge
    samples sit on the boundary bit for bit when the center is the origin."""
    near = v <= 0.5
    larger = np.where(near, r * (1.0 - v), r * v)
    return np.where(near, larger, r - larger), np.where(near, r - larger, larger)


def _square_edge(r: float, v: np.ndarray):
    # from the corner (r, -r) towards (r, r)
    return np.full_like(v, r), r * (2.0 * v - 1.0)


# drawable metric name -> (spec, offsets(r, n) of its n boundary samples, CCW)
_SHAPES = {spec.name: (spec, offsets) for spec, offsets in (
    (Euclidean(), _circle),
    (Taxicab(), lambda r, n: _four_edges(r, n, _diamond_edge)),
    (Chebyshev(), lambda r, n: _four_edges(r, n, _square_edge)),
)}


class BoundaryPolyline(Frozen):
    """Ordered samples tracing {x : d(center, x) = radius} for a plane metric.

    Every sample's distance to the center is checked against the radius at
    construction. The tolerance is BOUNDARY_TOL, or 8 units of rounding of
    the largest of the radius and the center's coordinates when that is
    larger: the samples are rounded at that scale.
    """

    __match_args__ = ("metric_tag", "center", "radius", "samples")

    def __init__(self, metric_tag: str, center: np.ndarray, radius: float, samples: np.ndarray):
        center, radius = as_point(center, dim=2), float(radius)
        samples = as_points(samples, dim=2)
        spec, _ = _SHAPES[metric_tag]
        d = spec._cross(center[None, :], samples)[0]
        scale = max(float(np.abs(center).max()), abs(radius))
        tol = max(BOUNDARY_TOL, _BOUNDARY_ROUNDING_UNITS * math.ulp(1.0) * scale)  # eps first: no overflow
        off = np.abs(d - radius) > tol
        if off.any():
            k = np.argmax(off)
            raise ValueError(f"boundary sample {samples[k]} is at distance {d[k]}, expected {radius}")
        samples.setflags(write=False)
        vars(self).update(metric_tag=metric_tag, center=center, radius=radius, samples=samples)


def ball_boundary(metric: MetricSpec, center, radius: float, n: int = DEFAULT_BOUNDARY_SAMPLES) -> BoundaryPolyline:
    """Trace the metric ball boundary around ``center`` with ``n`` samples.

    Supported metrics and their shapes: Euclidean (circle, parameterized by
    angle), Taxicab (diamond through center +- (r, 0) and (0, r)), Chebyshev
    (square with corners center + (+-r, +-r)). Samples run counterclockwise
    and include the polygon vertices exactly; n >= 8, and the radius is
    positive and finite. A ball whose boundary leaves the float range, or
    whose radius is lost in the rounding of its center's coordinates, is
    refused: its samples could not trace the boundary.
    """
    c = as_point(center, dim=2)
    radius = finite_radius(radius)  # inf * 0 would give NaN samples
    n = as_integer(n, "sample count")
    if n < MIN_BOUNDARY_SAMPLES:
        raise ValueError(f"need at least {MIN_BOUNDARY_SAMPLES} boundary samples, got {n}")
    spec, offsets = _SHAPES.get(getattr(metric, "name", None), (None, None))
    if spec != metric:
        *drawable, last = _SHAPES
        raise ValueError(f"ball boundaries are drawn for {', '.join(drawable)}, and {last} only")
    for x in c.tolist():  # the boundary reaches x - r and x + r on each axis
        lo, hi = x - radius, x + radius
        if not -math.inf < lo < x < hi < math.inf:
            fault = "leaves the float range" if math.inf in (-lo, hi) else "is lost in the rounding of its center"
            point = ", ".join(map(str, c.tolist()))
            raise ValueError(f"the {spec.name} ball of radius {radius} around ({point}) {fault}")
    return BoundaryPolyline(spec.name, c, radius, c + offsets(radius, n))
