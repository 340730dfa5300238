"""The metric contract: variant dispatch and axiom certification.

A ``MetricSpec`` names which distance to evaluate and owns its carrier check;
``distance`` dispatches through it. ``verify_axioms`` certifies symmetry,
nonnegativity, identity of indiscernibles, and the triangle inequality on a
finite sample, exhaustively over all ordered triples, and reports explicit
witnesses for every violated axiom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import sphere
from .errors import CarrierError
from .graphs import Polyline, WeightedGraph, shortest_path_distance
from .points import as_index, as_point, as_points, as_real, point_key, same_dim

# Certification keeps at most this many witnesses per axiom, in lexicographic
# index order, to bound report size on badly broken inputs.
MAX_WITNESSES_PER_AXIOM = 100


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute and relative slack used by certifiers.

    The triangle check allows abs_tol + rel_tol * (largest distance in the
    triple) of slack so that exact-real theorems survive floating-point
    rounding; the zero-distance test uses abs_tol alone.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class DistanceMatrix:
    """Square matrix of candidate distances with optional row labels.

    Finiteness and squareness are enforced here; symmetry and the zero
    diagonal are deliberately *not* (the certifier checks them, so broken
    candidates can be ingested and diagnosed).
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise ValueError(f"distance matrix must be square and nonempty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != v.shape[0]:
                raise ValueError("label count must match matrix size")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class MetricSpec:
    """Base for metric variants: a carrier check plus a distance formula.

    ``_eval`` computes on already-validated carrier points, so bulk callers
    (certifiers, probe loops) validate each point once, not per pair.
    """

    name = "abstract"

    def validate_point(self, x):
        """Coerce ``x`` to canonical carrier form or raise CarrierError."""
        raise NotImplementedError

    def validate_many(self, points: Sequence) -> Sequence:
        """Validate a sequence of points in one pass.

        Item k equals ``validate_point(points[k])`` bitwise, and a sequence
        holding a point that ``validate_point`` rejects raises the exception
        type it raises. Carriers override this with one array conversion in
        place of n calls.
        """
        return [self.validate_point(x) for x in points]

    def _eval(self, x, y) -> float:
        """Distance between two already-validated carrier points."""
        raise NotImplementedError


@dataclass(frozen=True)
class Euclidean(MetricSpec):
    name = "euclidean"

    def validate_point(self, x):
        return as_point(x)

    def validate_many(self, points):
        return as_points(points)

    def _eval(self, x, y):
        same_dim(x, y)
        # hypot of a list of floats: the same value as of the array, unpacked faster
        return math.hypot(*(x - y).tolist())


@dataclass(frozen=True)
class Taxicab(MetricSpec):
    name = "taxicab"

    def validate_point(self, x):
        return as_point(x)

    def validate_many(self, points):
        return as_points(points)

    def _eval(self, x, y):
        same_dim(x, y)
        return float(sum(abs(a - b) for a, b in zip(x, y)))


@dataclass(frozen=True)
class Chebyshev(MetricSpec):
    name = "chebyshev"

    def validate_point(self, x):
        return as_point(x)

    def validate_many(self, points):
        return as_points(points)

    def _eval(self, x, y):
        same_dim(x, y)
        return max(map(abs, (x - y).tolist()))


@dataclass(frozen=True)
class Discrete(MetricSpec):
    name = "discrete"

    def validate_point(self, x):
        return as_point(x)

    def validate_many(self, points):
        return as_points(points)

    def _eval(self, x, y):
        same_dim(x, y)
        return 0.0 if all(a == b for a, b in zip(x, y)) else 1.0


@dataclass(frozen=True)
class RealLine(MetricSpec):
    name = "realline"

    def validate_point(self, x):
        return as_real(x)

    def _eval(self, x, y):
        return abs(x - y)


@dataclass(frozen=True)
class GreatCircle(MetricSpec):
    """Shorter great-circle arc length on the unit sphere."""

    name = "greatcircle"

    def validate_point(self, x):
        return sphere.sphere_point(x)

    def validate_many(self, points):
        rows = as_points(points, dim=3)
        norms = np.array([sphere.unit_norm(v) for v in np.asarray(rows).tolist()])
        return rows / norms.reshape(-1, 1)

    def _eval(self, x, y):
        return sphere.arc_length(x, y)


@dataclass(frozen=True, eq=False)
class GraphPath(MetricSpec):
    """Shortest-path metric over the vertices of a weighted graph."""

    graph: WeightedGraph
    name = "graphpath"

    def validate_point(self, x):
        return self.graph.check_vertex(x)

    def _eval(self, x, y):
        return shortest_path_distance(self.graph, x, y)


@dataclass(frozen=True, eq=False)
class PolylineArc(MetricSpec):
    """Arc-length metric over the vertices of a polyline."""

    polyline: Polyline
    name = "polylinearc"

    def validate_point(self, x):
        return self.polyline.check_index(x)

    def _eval(self, x, y):
        return self.polyline.arc_distance(x, y)


@dataclass(frozen=True, eq=False)
class Subspace(MetricSpec):
    """A base metric restricted to an explicit allowed point set."""

    base: MetricSpec
    allowed: frozenset
    name = "subspace"

    def validate_point(self, x):
        return self.validate_many([x])[0]

    def validate_many(self, points):
        rows = self.base.validate_many(points)
        for cx in rows:
            if point_key(cx) not in self.allowed:
                raise CarrierError("point is outside the restricted subspace")
        return rows

    def _eval(self, x, y):
        return self.base._eval(x, y)


@dataclass(frozen=True, eq=False)
class MatrixMetric(MetricSpec):
    """Candidate metric given extensionally by a distance matrix.

    Carrier points are row indices 0..n-1; nothing about the matrix is taken
    on trust beyond finiteness, so run ``verify_axioms`` to certify it.
    """

    matrix: DistanceMatrix
    name = "matrix"

    def validate_point(self, x):
        return as_index(x, self.matrix.n)

    def _eval(self, x, y):
        return float(self.matrix.values[x, y])


def restrict(spec: MetricSpec, allowed: Sequence) -> Subspace:
    """Restrict ``spec`` to a nonempty subset of its carrier.

    The restriction agrees with the base metric on the allowed set, and every
    metric axiom is inherited from the base space.
    """
    pts = list(allowed)
    if not pts:
        raise ValueError("allowed set must be nonempty")
    keys = frozenset(point_key(spec.validate_point(p)) for p in pts)
    return Subspace(base=spec, allowed=keys)


def distance(spec: MetricSpec, x, y) -> float:
    """Distance between two carrier points under the selected metric."""
    cx = spec.validate_point(x)
    cy = spec.validate_point(y)
    return float(spec._eval(cx, cy))


class Witness(NamedTuple):
    """One reproducible axiom violation over a certified sample."""

    axiom: str
    indices: tuple[int, ...]
    lhs: float
    rhs: float


@dataclass
class AxiomReport:
    """Per-axiom verdicts with explicit violating witnesses.

    Witness indices point into the certified sample; re-evaluating the
    distances they name reproduces the reported lhs/rhs values.
    """

    symmetry_ok: bool
    nonnegativity_ok: bool
    identity_ok: bool
    triangle_ok: bool
    witnesses: list[Witness] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.symmetry_ok and self.nonnegativity_ok and self.identity_ok and self.triangle_ok

    def for_axiom(self, axiom: str) -> list[Witness]:
        return [w for w in self.witnesses if w.axiom == axiom]


def _canonical_sample(spec: MetricSpec, sample: Sequence) -> Sequence:
    if len(sample) == 0:
        raise ValueError("sample must be nonempty")
    return spec.validate_many(sample)


def _pairwise(spec: MetricSpec, pts: list) -> np.ndarray:
    n = len(pts)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = spec._eval(pts[i], pts[j])
    return out


def pairwise_distances(spec: MetricSpec, sample: Sequence) -> np.ndarray:
    """Ordered distance matrix D[i, j] = d(sample[i], sample[j])."""
    return _pairwise(spec, _canonical_sample(spec, sample))


def matrix_from_points(spec: MetricSpec, sample: Sequence) -> DistanceMatrix:
    """Tabulate a metric over a sample as a DistanceMatrix."""
    return DistanceMatrix(pairwise_distances(spec, sample))


def verify_axioms(spec: MetricSpec, sample: Sequence, tol: ToleranceConfig = DEFAULT_TOL) -> AxiomReport:
    """Certify the metric axioms for ``spec`` over a finite sample.

    Checks, over every ordered pair and triple of sample indices:

    * symmetry: |d(p,q) - d(q,p)| within slack,
    * nonnegativity: d(p,q) >= 0,
    * identity: d(p,q) <= abs_tol exactly when p and q have equal
      coordinates (so distinct points closer than abs_tol are flagged),
    * triangle: d(x,z) <= d(x,y) + d(y,z) + slack, where slack is
      abs_tol + rel_tol * (largest of the three distances).

    The triple check is exhaustive (n^3), not sampled; witnesses are
    deterministic, in lexicographic index order, capped per axiom at
    MAX_WITNESSES_PER_AXIOM. Cost: n^2 distance evaluations, O(n^3) time
    and O(n^2) memory, since the triple check runs one n x n slab per x.
    """
    pts = _canonical_sample(spec, sample)
    D = _pairwise(spec, pts)
    A = np.abs(D)
    witnesses: list[Witness] = []

    def collect(axiom, mask, rhs=None):
        for idx in np.argwhere(mask)[:MAX_WITNESSES_PER_AXIOM]:
            ij = tuple(int(k) for k in idx)
            witnesses.append(Witness(axiom, ij, float(D[ij]), 0.0 if rhs is None else float(rhs[ij])))

    neg = D < 0
    nonnegativity_ok = not neg.any()
    if not nonnegativity_ok:
        collect("nonnegativity", neg)

    asym = np.triu(np.abs(D - D.T) > tol.abs_tol + tol.rel_tol * np.maximum(A, A.T), k=1)
    symmetry_ok = not asym.any()
    if not symmetry_ok:
        collect("symmetry", asym, D.T)

    # one class id per distinct point, so sameness is one n x n compare
    ids: dict = {}
    cls = np.array([ids.setdefault(point_key(p), len(ids)) for p in pts])
    ident = np.where(cls[:, None] == cls[None, :], D > tol.abs_tol, D <= tol.abs_tol)
    identity_ok = not ident.any()
    if not identity_ok:
        collect("identity", ident)

    triangle = _triangle_witnesses(D, A, tol)
    witnesses.extend(triangle)

    return AxiomReport(
        symmetry_ok=symmetry_ok,
        nonnegativity_ok=nonnegativity_ok,
        identity_ok=identity_ok,
        triangle_ok=not triangle,
        witnesses=witnesses,
    )


def _triangle_witnesses(D: np.ndarray, A: np.ndarray, tol: ToleranceConfig) -> list[Witness]:
    """The first MAX_WITNESSES_PER_AXIOM triples (x, y, z), in lexicographic
    order, with d(x,z) > d(x,y) + d(y,z) + slack.

    One n x n slab per x: rhs[y, z] = d(x,y) + d(y,z). The slack is built only
    where d(x,z) > rhs already, which loses nothing: the slack is >= 0 (or
    NaN, which fails both comparisons) and rounding is monotone, so
    rhs + slack >= rhs.
    """
    n = D.shape[0]
    rhs = np.empty((n, n))
    cand = np.empty((n, n), dtype=bool)
    found: list[Witness] = []
    for x in range(n):
        np.add(D[x, :, None], D, out=rhs)
        np.greater(D[x], rhs, out=cand)
        if not cand.any():
            continue
        ys, zs = np.nonzero(cand)
        lhs, r = D[x, zs], rhs[ys, zs]
        slack = tol.abs_tol + tol.rel_tol * np.maximum(A[x, zs], np.maximum(A[x, ys], A[ys, zs]))
        for k in np.flatnonzero(lhs > r + slack)[: MAX_WITNESSES_PER_AXIOM - len(found)]:
            found.append(Witness("triangle", (x, int(ys[k]), int(zs[k])), float(lhs[k]), float(r[k])))
        if len(found) >= MAX_WITNESSES_PER_AXIOM:
            break
    return found
