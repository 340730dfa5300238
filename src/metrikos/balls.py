"""Open balls, the nesting lemma as a runtime check, and unit-ball boundary
curves (circle, diamond, square) for the three plane metrics.

Membership is strict: B(p, r) holds the points at distance *less than* r, so
a point at distance exactly r is outside. On the real line the ball is the
open interval (p - r, p + r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Chebyshev, Euclidean, MetricSpec, Taxicab
from .points import as_point, as_points, finite_radius

BOUNDARY_TOL = 1e-9
MIN_BOUNDARY_SAMPLES = 8


@dataclass(frozen=True, eq=False)
class Ball:
    """Open ball: all carrier points at distance < radius from the center."""

    metric: MetricSpec
    center: object
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", self.metric.validate_point(self.center))

    def __contains__(self, x) -> bool:
        return ball_contains(self, x)


def ball_contains(b: Ball, x) -> bool:
    """Strict membership test: distance(center, x) < radius. The center
    was validated when the ball was built, so only ``x`` is checked here."""
    return b.metric._eval(b.center, b.metric.validate_point(x)) < b.radius


class NestingWitness(NamedTuple):
    """A probe inside the inner ball that escaped the outer ball."""

    probe: object
    inner_distance: float
    outer_distance: float


def check_nesting(
    metric: MetricSpec, p, r: float, q, t: float, probes: Sequence
) -> tuple[bool, NestingWitness | None]:
    """Check B(q, t) <= B(p, r) over a probe set, given q in B(p, r) and
    0 < t <= r - d(p, q).

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
    r, t = float(r), float(t)
    dpq = metric._eval(metric.validate_point(p), metric.validate_point(q))
    if not dpq < r:
        raise ValueError(f"q must lie inside B(p, r): d(p, q) = {dpq} >= r = {r}")
    if not 0 < t <= r - dpq:
        raise ValueError(f"need 0 < t <= r - d(p, q) = {r - dpq}, got t = {t}")
    inner, outer = metric._cross(metric.validate_many([q, p]), metric.validate_many(probes))
    escaped = np.flatnonzero((inner < t) & ~(outer < r))
    if escaped.size:
        k = escaped[0]
        return False, NestingWitness(probes[k], float(inner[k]), float(outer[k]))
    return True, None


@dataclass(frozen=True, eq=False)
class BoundaryPolyline:
    """Ordered samples tracing {x : d(center, x) = radius} for a plane metric.

    Every sample's distance to the center is checked against the radius at
    construction (tolerance BOUNDARY_TOL).
    """

    metric_tag: str
    center: np.ndarray
    radius: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center, dim=2))
        object.__setattr__(self, "radius", float(self.radius))
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError("samples must be an (n, 2) array")
        samples = as_points(samples, dim=2)  # a non-finite sample raises as_point's error
        spec = {s.name: s for s in (Euclidean(), Taxicab(), Chebyshev())}[self.metric_tag]
        d = spec._cross(self.center[None, :], samples)[0]
        off = np.abs(d - self.radius) > BOUNDARY_TOL
        if off.any():
            k = np.argmax(off)
            raise ValueError(f"boundary sample {samples[k]} is at distance {d[k]}, expected {self.radius}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def _split_counts(n: int, parts: int) -> list[int]:
    base, extra = divmod(n, parts)
    return [base + (1 if k < extra else 0) for k in range(parts)]


def _complement_pair(r: float, v: float) -> tuple[float, float]:
    """Magnitudes (a, b) with a + b == r exactly in floating point, a at
    parameter 1-v of the edge. The smaller magnitude is always computed as
    r minus the larger, which subtracts exactly (Sterbenz), so taxicab edge
    samples sit on the boundary bit-for-bit when the center is the origin."""
    if v <= 0.5:
        a = r * (1.0 - v)
        return a, r - a
    b = r * v
    return r - b, b


def ball_boundary(metric: MetricSpec, center, radius: float, n: int = 256) -> BoundaryPolyline:
    """Trace the metric ball boundary around ``center`` with ``n`` samples.

    Supported metrics and their shapes: Euclidean (circle, parameterized by
    angle), Taxicab (diamond through center +- (r, 0) and (0, r)), Chebyshev
    (square with corners center + (+-r, +-r)). Samples run counterclockwise
    and include the polygon vertices exactly; n >= 8, and the radius is
    positive and finite.
    """
    c = as_point(center, dim=2)
    radius = finite_radius(radius)  # inf * 0 would give NaN samples
    n = int(n)
    if n < MIN_BOUNDARY_SAMPLES:
        raise ValueError(f"need at least {MIN_BOUNDARY_SAMPLES} boundary samples, got {n}")

    if isinstance(metric, Euclidean):
        theta = 2.0 * math.pi * np.arange(n) / n
        offsets = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        tag = "euclidean"
    elif isinstance(metric, Taxicab):
        # diamond edges CCW from (r, 0); per-edge quadrant signs
        signs = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
        swap = [False, True, False, True]
        offsets = np.empty((n, 2))
        row = 0
        for edge, m in enumerate(_split_counts(n, 4)):
            s1, s2 = signs[edge]
            for k in range(m):
                a, b = _complement_pair(radius, k / m)
                if swap[edge]:
                    a, b = b, a
                # + 0.0 normalizes -0.0 at the polygon vertices
                offsets[row] = (s1 * a + 0.0, s2 * b + 0.0)
                row += 1
        tag = "taxicab"
    elif isinstance(metric, Chebyshev):
        # square edges CCW from corner (r, -r)
        offsets = np.empty((n, 2))
        row = 0
        for edge, m in enumerate(_split_counts(n, 4)):
            for k in range(m):
                w = radius * (2.0 * (k / m) - 1.0)
                if edge == 0:
                    offsets[row] = (radius, w + 0.0)
                elif edge == 1:
                    offsets[row] = (-w + 0.0, radius)
                elif edge == 2:
                    offsets[row] = (-radius, -w + 0.0)
                else:
                    offsets[row] = (w + 0.0, -radius)
                row += 1
        tag = "chebyshev"
    else:
        raise ValueError(
            "ball boundaries are drawn for euclidean, taxicab, and chebyshev only"
        )

    return BoundaryPolyline(tag, c, radius, c + offsets)
