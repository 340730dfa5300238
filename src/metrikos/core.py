"""The metric contract: variant dispatch and axiom certification.

A ``MetricSpec`` names which distance to evaluate and owns its carrier check;
``distance`` dispatches through it. ``verify_axioms`` certifies symmetry,
nonnegativity, identity of indiscernibles, and the triangle inequality on a
finite sample, exhaustively over all ordered triples, and reports explicit
witnesses for every violated axiom.

Every spec evaluates one pair with ``_eval`` and a whole table with
``_cross``; the built-in specs give ``_cross`` a batch kernel that equals the
per-pair loop bit for bit and keeps its temporaries to one row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import sphere
from .errors import CarrierError
from .graphs import Polyline, WeightedGraph, no_path_error
from .points import as_index, as_indices, as_point, as_points, hypot_rows, point_keys, same_dim

# Certification keeps at most this many witnesses per axiom, in lexicographic
# index order, to bound report size on badly broken inputs.
MAX_WITNESSES_PER_AXIOM = 100

# Batch kernels fill distance tables in row blocks of about this many pairs,
# so their temporaries stay bounded whatever the sample size.
BLOCK_PAIRS = 4096


def row_blocks(n: int, m: int) -> list[tuple[int, int]]:
    """(lo, hi) row ranges of an n x m table, about BLOCK_PAIRS pairs each."""
    step = max(1, BLOCK_PAIRS // max(1, m))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _by_row_blocks(X, Y, block) -> np.ndarray:
    """The len(X) x len(Y) table whose rows lo..hi are block(X[lo:hi], Y)."""
    out = np.empty((len(X), len(Y)))
    for lo, hi in row_blocks(len(X), len(Y)):
        out[lo:hi] = block(X[lo:hi], Y)
    return out


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
        # a NaN slack fails every compare, so it would pass any input, and an
        # infinite abs_tol would flag every distinct pair as too close
        for name in ("abs_tol", "rel_tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)!r}")


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
        type it raises. This default is the per-point loop; every built-in
        spec overrides it with a batch validator from ``points`` that checks
        the whole sequence in one pass.
        """
        return [self.validate_point(x) for x in points]

    def _eval(self, x, y) -> float:
        """Distance between two already-validated carrier points."""
        raise NotImplementedError

    def _cross(self, X, Y) -> np.ndarray:
        """The len(X) x len(Y) table of ``_eval(X[i], Y[j])`` over two
        ``validate_many`` results.

        This default is the per-pair loop. Each built-in spec overrides it
        with a batch kernel that gives the same floats bit for bit.
        """
        out = np.empty((len(X), len(Y)))
        for i, x in enumerate(X):
            for j, y in enumerate(Y):
                out[i, j] = self._eval(x, y)
        return out


class _Coordinates(MetricSpec):
    """Points of R^d, validated to the rows of one float64 array.

    ``dim`` fixes the number of coordinates (None: any, one per sample);
    the real line is the case ``dim = 1``, so a real number is validated as
    a 1-coordinate point. Each metric has one row kernel, ``_rows(diff)``,
    which maps a (..., d) array of coordinate differences x - y to the (...)
    distances. Ragged points (a list from ``validate_many``) take the
    per-pair loop, which raises the dimension mismatch.
    """

    dim = None

    def validate_point(self, x):
        return as_point(x, self.dim)

    def validate_many(self, points):
        return as_points(points, self.dim)

    def _cross(self, X, Y):
        if not (isinstance(X, np.ndarray) and isinstance(Y, np.ndarray) and X.shape[1] == Y.shape[1]):
            return super()._cross(X, Y)
        return _by_row_blocks(X, Y, self._block)

    def _block(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._rows(X[:, None, :] - Y[None, :, :])

    def _rows(self, diff: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Euclidean(_Coordinates):
    name = "euclidean"

    def _eval(self, x, y):
        same_dim(x, y)
        # hypot of a list of floats: the same value as of the array, unpacked faster
        return math.hypot(*(x - y).tolist())

    def _rows(self, diff):
        return hypot_rows(diff)


@dataclass(frozen=True)
class Taxicab(_Coordinates):
    name = "taxicab"

    def _eval(self, x, y):
        same_dim(x, y)
        total = 0.0
        for v in (x - y).tolist():  # left to right: sum() compensates on Python >= 3.12
            total += abs(v)
        return total

    def _rows(self, diff):
        diff = np.abs(diff)
        out = diff[..., 0].copy()
        for k in range(1, diff.shape[-1]):  # left to right, as _eval adds
            out += diff[..., k]
        return out


@dataclass(frozen=True)
class Chebyshev(_Coordinates):
    name = "chebyshev"

    def _eval(self, x, y):
        same_dim(x, y)
        return max(map(abs, (x - y).tolist()))

    def _rows(self, diff):
        return np.abs(diff).max(-1)


@dataclass(frozen=True)
class Discrete(_Coordinates):
    name = "discrete"

    def _eval(self, x, y):
        same_dim(x, y)
        return 0.0 if all(a == b for a, b in zip(x, y)) else 1.0

    def _rows(self, diff):
        # finite x - y is 0 exactly when x == y (subnormals, no flush to zero)
        return np.where((diff == 0).all(-1), 0.0, 1.0)


@dataclass(frozen=True)
class RealLine(_Coordinates):
    name = "realline"
    dim = 1

    def _eval(self, x, y):
        return abs(x.item() - y.item())  # the one coordinate of each, as floats

    def _rows(self, diff):
        return np.abs(diff[..., 0])


@dataclass(frozen=True)
class GreatCircle(MetricSpec):
    """Shorter great-circle arc length on the unit sphere."""

    name = "greatcircle"

    def validate_point(self, x):
        return sphere.sphere_point(x)

    def validate_many(self, points):
        return sphere.sphere_points(points)

    def _eval(self, x, y):
        return sphere.arc_length(x, y)

    def _cross(self, X, Y):
        return _by_row_blocks(X, Y, lambda Xb, Y: sphere.arc_lengths(Xb[:, None, :], Y[None, :, :]))


class _Indices(MetricSpec):
    """Points are the integer indices 0..size-1 of a finite carrier (graph
    vertices, polyline vertices, matrix rows), validated to Python ints.

    ``what`` names an index in error messages.
    """

    what = "index"

    @property
    def size(self) -> int:
        raise NotImplementedError

    def validate_point(self, x):
        return as_index(x, self.size, self.what)

    def validate_many(self, points):
        return as_indices(points, self.size, self.what)


@dataclass(frozen=True, eq=False)
class GraphPath(_Indices):
    """Shortest-path metric over the vertices of a weighted graph.

    Each pair is read from the SSSP row of its smaller vertex id by
    ``WeightedGraph.distance``, as ``shortest_path_distance`` reads it, so
    d(u, v) and d(v, u) are the same float.
    """

    graph: WeightedGraph
    name = "graphpath"
    what = "vertex id"

    @property
    def size(self):
        return self.graph.vertex_count

    def _eval(self, x, y):
        return self.graph.distance(x, y)

    def _cross(self, X, Y):
        """Each pair is gathered from the SSSP row of its smaller id, fetched
        once per call. The stacked rows keep only the columns of ids that are
        the larger one of some pair, so they are no larger than the cached
        rows, and the gather runs by row blocks."""
        xs, ys = np.asarray(X, dtype=np.intp), np.asarray(Y, dtype=np.intp)
        if not (xs.size and ys.size):
            return np.empty((len(xs), len(ys)))
        # np.unique would import numpy.ma, about 1 MB of RSS, so the id sets are masks
        is_source, is_target = np.zeros((2, self.graph.vertex_count), dtype=bool)
        is_source[xs[xs <= ys.max()]] = is_source[ys[ys <= xs.max()]] = True
        is_target[xs[xs >= ys.min()]] = is_target[ys[ys >= xs.min()]] = True
        targets = np.flatnonzero(is_target)
        rows = np.array([self.graph.single_source(s)[targets] for s in np.flatnonzero(is_source).tolist()])
        slot, col = np.cumsum(is_source) - 1, np.cumsum(is_target) - 1  # id -> its row, its column

        def block(xb, ys):
            return rows[slot[np.minimum.outer(xb, ys)], col[np.maximum.outer(xb, ys)]]

        out = _by_row_blocks(xs, ys, block)
        unreachable = np.isinf(out)
        if unreachable.any():
            i, j = np.unravel_index(np.argmax(unreachable), out.shape)
            raise no_path_error(X[i], Y[j])
        return out


@dataclass(frozen=True, eq=False)
class PolylineArc(_Indices):
    """Arc-length metric over the vertices of a polyline."""

    polyline: Polyline
    name = "polylinearc"
    what = "vertex index"

    @property
    def size(self):
        return len(self.polyline)

    def _eval(self, x, y):
        cum = self.polyline.cumulative
        return abs(cum[y] - cum[x])

    def _cross(self, X, Y):
        """|cum[y] - cum[x]| with no temporary beyond the table; the sign of
        a difference is exact, so the order of x and y does not matter."""
        cum = np.asarray(self.polyline.cumulative)
        out = np.subtract.outer(cum[np.asarray(X, dtype=np.intp)], cum[np.asarray(Y, dtype=np.intp)])
        return np.abs(out, out=out)


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
        if not self.allowed.issuperset(point_keys(rows)):
            raise CarrierError("point is outside the restricted subspace")
        return rows

    def _eval(self, x, y):
        return self.base._eval(x, y)

    def _cross(self, X, Y):
        return self.base._cross(X, Y)


@dataclass(frozen=True, eq=False)
class MatrixMetric(_Indices):
    """Candidate metric given extensionally by a distance matrix.

    Carrier points are row indices 0..n-1; nothing about the matrix is taken
    on trust beyond finiteness, so run ``verify_axioms`` to certify it.
    """

    matrix: DistanceMatrix
    name = "matrix"

    @property
    def size(self):
        return self.matrix.n

    def _eval(self, x, y):
        return float(self.matrix.values[x, y])

    def _cross(self, X, Y):
        return self.matrix.values[np.ix_(np.asarray(X, dtype=np.intp), np.asarray(Y, dtype=np.intp))]


def restrict(spec: MetricSpec, allowed: Sequence) -> Subspace:
    """Restrict ``spec`` to a nonempty subset of its carrier.

    The restriction agrees with the base metric on the allowed set, and every
    metric axiom is inherited from the base space.
    """
    pts = list(allowed)
    if not pts:
        raise ValueError("allowed set must be nonempty")
    keys = frozenset(point_keys(spec.validate_many(pts)))
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


def pairwise_distances(spec: MetricSpec, sample: Sequence) -> np.ndarray:
    """Ordered distance matrix D[i, j] = d(sample[i], sample[j])."""
    pts = _canonical_sample(spec, sample)
    return spec._cross(pts, pts)


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
    MAX_WITNESSES_PER_AXIOM.

    Cost: the n x n table comes from the spec's batch kernel (``_cross``),
    which evaluates all n^2 ordered pairs in row blocks of about BLOCK_PAIRS
    pairs, so it adds O(BLOCK_PAIRS * d) memory for d coordinates, not
    O(n^2 * d), and no Python call per pair for the coordinate metrics. The
    triangle check then takes O(n^3) time and O(n^2) memory, one slab of at
    most n x n per x, and is most of the time once n reaches a few hundred.
    When the table is symmetric bit for bit, as every built-in kernel's is,
    it scans only the triples with z >= x, about n^3 / 2, and mirrors the
    rest; a MatrixMetric whose table is not scans all n^3.
    """
    pts = _canonical_sample(spec, sample)
    D = spec._cross(pts, pts)
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
    cls = np.array([ids.setdefault(key, len(ids)) for key in point_keys(pts)])
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
    order, with L > fl(r + slack), where L = d(x,z), r = fl(d(x,y) + d(y,z))
    and slack = abs_tol + rel_tol * max(|L|, |d(x,y)|, |d(y,z)|).

    One slab per x: rhs[y, z] = r for every y and for z from lo to n - 1.

    Mirror: when D equals D.T bit for bit, lo = x; otherwise lo = 0. The
    triple (z, y, x) compares d(z,x) = L with fl(d(z,y) + d(y,x)) = r, since
    float addition commutes exactly, under a slack built from the same three
    magnitudes. So (x, y, z) is a witness exactly when (z, y, x) is, with the
    same lhs and rhs floats, and z >= x covers every triple. Row x's witnesses
    are its own hits and the mirrors of hits (z, y, x) found at rows z < x;
    sorting the two by (y, z) keeps the report in lexicographic order. A
    mirror is kept only for a hit that was itself reported, so the mirrors
    held for later rows never number more than MAX_WITNESSES_PER_AXIOM.
    Mirrored cells that are equal but not the same bits, -0.0 against 0.0 or
    two NaN payloads, would report other floats than a scan of (z, y, x), so
    they count as asymmetric and the table gets the full scan.

    Threshold: a witness has r < t, where t = min(L, nextafter(fl(L -
    abs_tol), +inf)), so the slack is built only where a column's least r is
    below t. Proof: slack >= abs_tol (or NaN, which fails every compare), and
    rounding is monotone, so a witness has L > fl(r + slack) >= fl(r +
    abs_tol). If r >= t = L, then fl(r + abs_tol) >= r >= L. If r >= t =
    nextafter(fl(L - abs_tol)), then r >= L - abs_tol in the reals, since the
    float after the rounding of a real is at least that real, so fl(r +
    abs_tol) >= fl(L) = L. Either way (x, y, z) is no witness. The threshold
    drops every triple with r == L, such as taxicab's bit-tight ones. A NaN
    rhs fails the compare and NaN lhs gives a NaN t, as neither can witness.
    """
    n = D.shape[0]
    bits = D.view(np.int64)
    symmetric = np.array_equal(bits, bits.T)
    buf = np.empty(n * n)
    mirrors: dict[int, list[Witness]] = {}  # row z -> witnesses (z, y, x) found at row x < z
    found: list[Witness] = []
    for x in range(n):
        lo = x if symmetric else 0
        L = D[x, lo:]
        rhs = buf[: n * len(L)].reshape(n, len(L))  # contiguous: a strided slab is slower
        np.add(D[x, :, None], D[:, lo:], out=rhs)
        t = np.minimum(L, np.nextafter(L - tol.abs_tol, np.inf))
        row = mirrors.pop(x, [])
        cols = np.flatnonzero(np.fmin.reduce(rhs, axis=0) < t)  # fmin skips NaN
        if cols.size:
            ys, k = np.nonzero(rhs[:, cols] < t[cols])  # in (y, z) order
            zs = cols[k]
            lhs, r = L[zs], rhs[ys, zs]
            zs += lo
            slack = tol.abs_tol + tol.rel_tol * np.maximum(A[x, zs], np.maximum(A[x, ys], A[ys, zs]))
            hits = np.flatnonzero(lhs > r + slack)[: MAX_WITNESSES_PER_AXIOM - len(found)]
            row += [Witness("triangle", (x, int(ys[h]), int(zs[h])), float(lhs[h]), float(r[h])) for h in hits]
        if not row:
            continue
        row.sort(key=lambda w: w.indices)
        found += row[: MAX_WITNESSES_PER_AXIOM - len(found)]
        if len(found) >= MAX_WITNESSES_PER_AXIOM:
            break
        if symmetric:
            for w in row:
                _, y, z = w.indices
                if z > x:
                    mirrors.setdefault(z, []).append(w._replace(indices=(z, y, x)))
    return found
