"""Plane and sphere symmetry maps, with a sample-based isometry certifier.

Plane maps are affine (2x2 linear part plus offset); sphere maps are 3x3
orthogonal matrices. Each kind maps the rows of an (n, d) array with one
formula, ``_images``: explicit elementwise products added left to right,
which round alike on every BLAS build, where ``linear @ p`` need not.
``is_isometry`` maps its sample in one call and returns the first pair whose
distance the map fails to preserve: evidence over a sample, not a proof.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_TOL, MetricSpec, ToleranceConfig, row_blocks
from .frozen import Frozen
from .points import as_point, as_points
from .sphere import sphere_point

ORTHOGONALITY_TOL = 1e-9


def _entries(values, shape: tuple, usage: str) -> np.ndarray:
    """``values`` as a read-only float array of ``shape``, or ValueError."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(usage)
    if not np.all(np.isfinite(arr)):
        raise ValueError("map entries must be finite")
    arr.setflags(write=False)
    return arr


class PlaneMap(Frozen):
    """Affine map of the plane: x -> linear @ x + offset."""

    __match_args__ = ("linear", "offset")

    def __init__(self, linear: np.ndarray, offset: np.ndarray):
        usage = "plane map needs a 2x2 linear part and a 2-vector offset"
        vars(self).update(linear=_entries(linear, (2, 2), usage), offset=_entries(offset, (2,), usage))

    def _images(self, P: np.ndarray) -> np.ndarray:
        (a, b), (c, d) = self.linear.tolist()
        e, f = self.offset.tolist()
        x, y = P.T
        return np.column_stack([a * x + b * y + e, c * x + d * y + f])

    def _after(self, g: PlaneMap) -> PlaneMap:
        return PlaneMap(self.linear @ g.linear, self.linear @ g.offset + self.offset)


class SphereMap(Frozen):
    """Linear map of 3-space required to be orthogonal (within 1e-9
    entrywise on linear.T @ linear - I), so it carries the unit sphere to
    itself: rotations and reflections about the center."""

    __match_args__ = ("linear",)

    def __init__(self, linear: np.ndarray):
        lin = _entries(linear, (3, 3), "sphere map needs a 3x3 matrix")
        err = np.abs(lin.T @ lin - np.eye(3)).max()
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: max |A^T A - I| entry = {err:g}")
        vars(self).update(linear=lin)

    def _images(self, P: np.ndarray) -> np.ndarray:
        (a, b, c), (d, e, f), (g, h, i) = self.linear.tolist()
        x, y, z = P.T
        return np.column_stack([a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z])

    def _after(self, g: SphereMap) -> SphereMap:
        return SphereMap(self.linear @ g.linear)


def identity_map() -> PlaneMap:
    return PlaneMap(np.eye(2), np.zeros(2))


def translation(a1: float, a2: float) -> PlaneMap:
    """(x1, x2) -> (x1 + a1, x2 + a2)."""
    return PlaneMap(np.eye(2), (a1, a2))


def reflect_origin() -> PlaneMap:
    """(x1, x2) -> (-x1, -x2)."""
    return PlaneMap(-np.eye(2), np.zeros(2))


def reflect_x1() -> PlaneMap:
    """(x1, x2) -> (-x1, x2)."""
    return PlaneMap([[-1.0, 0.0], [0.0, 1.0]], np.zeros(2))


def reflect_x2() -> PlaneMap:
    """(x1, x2) -> (x1, -x2)."""
    return PlaneMap([[1.0, 0.0], [0.0, -1.0]], np.zeros(2))


def swap_axes() -> PlaneMap:
    """(x1, x2) -> (x2, x1), the reflection about the diagonal line."""
    return PlaneMap([[0.0, 1.0], [1.0, 0.0]], np.zeros(2))


def _cos_sin(theta: float) -> tuple[float, float]:
    """cos and sin of a rotation angle; ValueError for a non-finite one."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    return math.cos(theta), math.sin(theta)


def rotation(theta: float) -> PlaneMap:
    """Rotation about the origin by ``theta`` radians."""
    c, s = _cos_sin(theta)
    return PlaneMap([[c, -s], [s, c]], np.zeros(2))


def reflect_about_point(a1: float, a2: float) -> PlaneMap:
    """x -> 2a - x, the point reflection through (a1, a2)."""
    return PlaneMap(-np.eye(2), (2.0 * a1, 2.0 * a2))


_NAMED_FACTORIES = {
    "identity": identity_map,
    "translation": translation,
    "reflect_origin": reflect_origin,
    "reflect_x1": reflect_x1,
    "reflect_x2": reflect_x2,
    "swap_axes": swap_axes,
    "rotation": rotation,
    "reflect_about_point": reflect_about_point,
}


def named_map(tag: str, *params: float) -> PlaneMap:
    """Build one of the named plane maps from its tag and parameters."""
    try:
        factory = _NAMED_FACTORIES[tag]
    except KeyError:
        raise ValueError(f"unknown map tag {tag!r}; expected one of {sorted(_NAMED_FACTORIES)}") from None
    return factory(*params)


def rotation_about_axis(axis, theta: float) -> SphereMap:
    """Rotation of 3-space by ``theta`` radians about the given axis."""
    v = as_point(axis, dim=3)
    n = math.hypot(*v)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = v / n
    c, s = _cos_sin(theta)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    outer = np.outer((x, y, z), (x, y, z))
    return SphereMap(c * np.eye(3) + s * k + (1.0 - c) * outer)


def rotation_sending(p, q) -> SphereMap:
    """An orthogonal map of the sphere taking ``p`` to ``q``.

    Rotates in the plane spanned by p and q; identity when they coincide,
    and a half-turn about any perpendicular axis when they are antipodal.
    """
    pa, qa = sphere_point(p), sphere_point(q)
    cross = np.cross(pa, qa)
    sin_t = math.hypot(*cross)
    cos_t = float(np.dot(pa, qa))
    if sin_t <= 1e-15:
        if cos_t > 0:
            return SphereMap(np.eye(3))
        # antipodal: half-turn about any axis perpendicular to p
        helper = np.array([1.0, 0.0, 0.0]) if abs(pa[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(pa, helper)
        return rotation_about_axis(axis, math.pi)
    return rotation_about_axis(cross, math.atan2(sin_t, cos_t))


def apply_map(m: PlaneMap | SphereMap, p) -> np.ndarray:
    """Image of a point under a plane or sphere map: its formula on one row."""
    return m._images(as_point(p, dim=len(m.linear))[None, :])[0]


def compose(f: PlaneMap | SphereMap, g: PlaneMap | SphereMap):
    """The map x -> f(g(x)), folded into a single map of the same kind."""
    if type(f) is not type(g) or type(f) not in (PlaneMap, SphereMap):
        raise TypeError("can only compose two maps of the same kind")
    return f._after(g)


class IsometryWitness(NamedTuple):
    """A sample pair whose distance the map failed to preserve."""

    x: object
    y: object
    before: float
    after: float


def is_isometry(
    m: PlaneMap | SphereMap,
    spec: MetricSpec,
    sample: Sequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[bool, IsometryWitness | None]:
    """Test whether ``m`` preserves ``spec`` distances on the sample.

    True iff |d(f(x), f(y)) - d(x, y)| <= abs_tol + rel_tol * d(x, y) for
    every sample pair; otherwise returns the first violating pair (in
    lexicographic index order) with both distances. Images must stay in the
    metric's carrier, or a CarrierError propagates.

    Distances come from the spec's batch kernel, one row block at a time;
    the scan stops after the first block that holds a violation.
    """
    pts = spec.validate_many(sample)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf image fails the carrier check
        images = spec.validate_many(m._images(as_points(pts, dim=len(m.linear))))
    n = len(pts)
    for lo, hi in row_blocks(n - 1, n):
        # column c holds j = lo + 1 + c, so the pairs j > i lie on and above the diagonal
        before = spec._cross(pts[lo:hi], pts[lo + 1 :])
        after = spec._cross(images[lo:hi], images[lo + 1 :])
        bad = np.triu(np.abs(after - before) > tol.abs_tol + tol.rel_tol * np.abs(before))
        if bad.any():
            k, c = np.argwhere(bad)[0]
            i, j = lo + k, lo + 1 + c
            return False, IsometryWitness(sample[i], sample[j], float(before[k, c]), float(after[k, c]))
    return True, None
