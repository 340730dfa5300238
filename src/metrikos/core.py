"""The metric contract: variant dispatch and axiom certification.

A ``MetricSpec`` names which distance to evaluate and owns its carrier check;
``distance`` dispatches through it. ``verify_axioms`` certifies symmetry,
nonnegativity, identity of indiscernibles, and the triangle inequality on a
finite sample, exhaustively over all ordered triples, and reports explicit
witnesses for every violated axiom.

Every spec evaluates one pair with ``_eval`` and a whole table with
``_cross``; the built-in specs give ``_cross`` a batch kernel that equals the
per-pair loop bit for bit and keeps its temporaries to one row block. A
scalar distance is the spec's ``_distance``, which the coordinate specs
answer from the two points' floats in one frame, building no array.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple, Sequence

import numpy as np

from . import sphere
from .errors import CarrierError
from .frozen import Frozen, field_repr
from .graphs import Polyline, WeightedGraph, no_path_error
from .points import _point_floats, as_index, as_indices, as_point, as_points, hypot_rows, point_keys, same_dim

# Certification keeps at most this many witnesses per axiom, in lexicographic
# index order, to bound report size on badly broken inputs.
MAX_WITNESSES_PER_AXIOM = 100

# Batch kernels fill distance tables in row blocks of about this many pairs,
# so their temporaries stay bounded whatever the sample size.
BLOCK_PAIRS = 4096

# The triangle pass fills its slabs of d(x,y) + d(y,z) this many floats at a
# time (512 KB), in whole rows of n floats and at least one row; README's
# Performance section gives the timings that chose it.
TRIANGLE_SLAB_FLOATS = 2**16


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


def _slack(name: str, value) -> float:
    """A ToleranceConfig field as a float, or ValueError naming it."""
    if not isinstance(value, float) and isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # a NaN slack fails every compare, so it would pass any input, and an
    # infinite abs_tol would flag every distinct pair as too close
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return float(value)


class ToleranceConfig(Frozen):
    """Absolute and relative slack used by certifiers.

    The triangle check allows abs_tol + rel_tol * (largest distance in the
    triple) of slack so that exact-real theorems survive floating-point
    rounding; the zero-distance test uses abs_tol alone. Each is stored as a
    finite, nonnegative float; a bool, a string or bytes is refused.

    >>> ToleranceConfig()
    ToleranceConfig(abs_tol=1e-09, rel_tol=1e-12)
    """

    __match_args__ = ("abs_tol", "rel_tol")
    _by_value = True

    def __init__(self, abs_tol: float = 1e-9, rel_tol: float = 1e-12):
        vars(self).update(abs_tol=_slack("abs_tol", abs_tol), rel_tol=_slack("rel_tol", rel_tol))


DEFAULT_TOL = ToleranceConfig()


class DistanceMatrix(Frozen):
    """Square matrix of candidate distances with optional row labels.

    Finiteness and squareness are enforced here; symmetry and the zero
    diagonal are deliberately *not* (the certifier checks them, so broken
    candidates can be ingested and diagnosed).
    """

    __match_args__ = ("values", "labels")

    def __init__(self, values: np.ndarray, labels: tuple[str, ...] | None = None):
        try:
            v = np.array(values, dtype=float)
        except ValueError:
            try:  # a string entry float() cannot read raises its own error here
                [[float(x) for x in row] for row in values]
            except TypeError:  # a sequence where a number belongs
                raise ValueError("distance matrix entries must be numbers") from None
            raise ValueError("distance matrix must be square, got rows of different lengths") from None
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise ValueError(f"distance matrix must be square and nonempty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix entries must be finite")
        v.setflags(write=False)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != v.shape[0]:
                raise ValueError("label count must match matrix size")
        vars(self).update(values=v, labels=labels)

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

    def _read(self, x):
        """``x`` in a form that ``_eval`` takes, checked as ``validate_point``
        checks it; this default is ``validate_point`` itself."""
        return self.validate_point(x)

    def _distance(self, x, y) -> float:
        """``distance(self, x, y)``: ``_eval`` of the two points as ``_read``
        gives them, as a Python float."""
        return float(self._eval(self._read(x), self._read(y)))

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


class _Coordinates(MetricSpec, Frozen):
    """Points of R^d, validated to the rows of one float64 array.

    ``dim`` fixes the number of coordinates (None: any, one per sample);
    the real line is the case ``dim = 1``, so a real number is validated as
    a 1-coordinate point. Each metric has one formula in two forms:
    ``_pair(xs, ys)`` on the coordinate lists of two points, and
    ``_rows(planes)``, which maps a (d, ...) array of the differences x_k -
    y_k to the (...) distances and may overwrite it. ``_cross`` subtracts
    each row block's planes at once from Fortran-order copies of X and Y,
    as contiguous operands subtract several times faster than strided ones.

    ``_read`` gives a point's coordinates as a list of Python floats, equal
    to ``validate_point(x).tolist()``, and ``_eval`` takes such lists or
    ``validate_point``'s arrays. ``_distance`` reads both points with
    ``_point_floats`` and makes ``_eval``'s checks and its ``_pair`` call in
    its own frame, so a scalar distance builds no array and calls nothing
    but the reader and the formula.

    A distance past the float range raises CarrierError naming the pair:
    an inf would pass every axiom compare (inf > inf is false). ``_eval``
    and ``_distance`` check their float, and ``_cross`` its whole table at
    once.

    Each coordinate metric is a frozen record with no fields, so any two of
    one class are equal.
    """

    _by_value = True
    dim = None

    def validate_point(self, x):
        return as_point(x, self.dim)

    def validate_many(self, points):
        return as_points(points, self.dim)

    def _read(self, x):
        return _point_floats(x, self.dim)

    def _distance(self, x, y):
        xs, ys = _point_floats(x, self.dim), _point_floats(y, self.dim)
        if len(xs) != len(ys):
            same_dim(xs, ys)
        d = self._pair(xs, ys)
        if not math.isfinite(d):
            raise self._overflow(xs, ys)
        return d

    def _eval(self, x, y):
        # Python floats overflow to inf without numpy's RuntimeWarning
        xs = x if type(x) is list else x.tolist()
        ys = y if type(y) is list else y.tolist()
        if len(xs) != len(ys):
            same_dim(xs, ys)
        d = self._pair(xs, ys)
        if not math.isfinite(d):
            raise self._overflow(xs, ys)
        return d

    def _cross(self, X, Y):
        if not (len(X) and len(Y)):  # an empty side is no dimension mismatch
            return np.empty((len(X), len(Y)))
        same_dim(X[0], Y[0])
        X, Y = np.asfortranarray(X), np.asfortranarray(Y)
        with np.errstate(over="ignore"):  # refused below
            out = _by_row_blocks(X, Y, lambda Xb, Y: self._rows(Xb.T[:, :, None] - Y.T[:, None, :]))
        return self._finite(out, X, Y)

    def _finite(self, out: np.ndarray, X, Y) -> np.ndarray:
        """``out``, unless a cell is not finite: then the CarrierError of the
        first such cell in row-major order. Cell (i, j) of a table is the
        distance from X[i] to Y[j], and cell i of a row, from X[i] to Y[i]."""
        finite = np.isfinite(out)
        if not finite.all():
            k = np.unravel_index(finite.argmin(), out.shape)
            raise self._overflow(X[k[0]].tolist(), Y[k[-1]].tolist())
        return out

    def _overflow(self, xs: list, ys: list) -> CarrierError:
        def text(p):
            return f"({', '.join(map(str, p))})"

        return CarrierError(f"the {self.name} distance between {text(xs)} and {text(ys)} overflows the float range")

    def _pair(self, xs: list, ys: list) -> float:
        raise NotImplementedError

    def _rows(self, planes: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Euclidean(_Coordinates):
    """Straight-line distance, the hypot of the coordinate differences.

    >>> Euclidean()
    Euclidean()
    """

    name = "euclidean"

    def _pair(self, xs, ys):
        return math.hypot(*map(operator.sub, xs, ys))

    def _rows(self, planes):
        return hypot_rows(planes.reshape(len(planes), -1).T).reshape(planes.shape[1:])


class Taxicab(_Coordinates):
    """Sum of absolute coordinate differences, added left to right.

    Rounding bound: for k coordinates, |fl(d) - d| <= gamma_k * d with
    gamma_k = k u / (1 - k u) and u = 2**-53. Each term |x_i - y_i| passes
    through at most one rounded subtraction (abs is exact) and k - 1
    rounded additions, so it carries a relative error of at most gamma_k;
    every term is nonnegative, so the errors add up to at most gamma_k * d
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, ch. 3-4). A sum or difference below the normal range is
    exact, so the bound needs no underflow term. At the CLI's 256
    coordinates, gamma_k is about 2.8e-14.
    """

    name = "taxicab"

    def _pair(self, xs, ys):
        total = 0.0
        for a, b in zip(xs, ys):  # left to right: sum() compensates on Python >= 3.12
            total += abs(a - b)
        return total

    def _rows(self, planes):
        return functools.reduce(np.add, np.abs(planes, out=planes))  # left to right, as _pair adds


class Chebyshev(_Coordinates):
    name = "chebyshev"

    def _pair(self, xs, ys):
        return max(map(abs, map(operator.sub, xs, ys)))

    def _rows(self, planes):
        return functools.reduce(np.maximum, np.abs(planes, out=planes))  # np.maximum.reduce is slower


class Discrete(_Coordinates):
    name = "discrete"

    def _pair(self, xs, ys):
        return 0.0 if xs == ys else 1.0

    def _rows(self, planes):
        # finite x - y is 0 exactly when x == y (subnormals, no flush to zero);
        # an overflowed difference is inf, not 0
        return (planes != 0).any(0).astype(float)


class RealLine(_Coordinates):
    name = "realline"
    dim = 1

    def _pair(self, xs, ys):
        return abs(xs[0] - ys[0])

    def _rows(self, planes):
        return np.abs(planes[0])


class GreatCircle(MetricSpec, Frozen):
    """Shorter great-circle arc length on the unit sphere; a frozen record
    with no fields, as the coordinate metrics are."""

    _by_value = True
    name = "greatcircle"

    def validate_point(self, x):
        return sphere.sphere_point(x)

    def validate_many(self, points):
        return sphere.sphere_points(points)

    def _eval(self, x, y):
        return sphere.arc_length(x, y)

    def _cross(self, X, Y):
        return _by_row_blocks(X, Y, lambda Xb, Y: sphere.arc_lengths(Xb[:, None, :], Y[None, :, :]))


class _Indices(MetricSpec, Frozen):
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


class GraphPath(_Indices):
    """Shortest-path metric over the vertices of a weighted graph.

    Each pair is read from the SSSP row of its smaller vertex id by
    ``WeightedGraph.distance``, as ``shortest_path_distance`` reads it, so
    d(u, v) and d(v, u) are the same float.
    """

    __match_args__ = ("graph",)
    name = "graphpath"
    what = "vertex id"

    def __init__(self, graph: WeightedGraph):
        vars(self).update(graph=graph)

    @property
    def size(self):
        return self.graph.vertex_count

    def _eval(self, x, y):
        return self.graph.distance(x, y)

    def _cross(self, X, Y):
        """Each pair is gathered from the SSSP row of its smaller id, fetched
        once per call; ``WeightedGraph.source_rows`` builds the rows not
        cached together. The stacked rows keep only the columns of ids that
        are the larger one of some pair, so they are no larger than the
        cached rows, and the gather runs by row blocks."""
        xs, ys = np.asarray(X, dtype=np.intp), np.asarray(Y, dtype=np.intp)
        if not (xs.size and ys.size):
            return np.empty((len(xs), len(ys)))
        # np.unique would import numpy.ma, about 1 MB of RSS, so the id sets are masks
        is_source, is_target = np.zeros((2, self.graph.vertex_count), dtype=bool)
        is_source[xs[xs <= ys.max()]] = is_source[ys[ys <= xs.max()]] = True
        is_target[xs[xs >= ys.min()]] = is_target[ys[ys >= xs.min()]] = True
        targets = np.flatnonzero(is_target)
        rows = np.array([row[targets] for row in self.graph.source_rows(np.flatnonzero(is_source).tolist())])
        slot, col = np.cumsum(is_source) - 1, np.cumsum(is_target) - 1  # id -> its row, its column

        def block(xb, ys):
            return rows[slot[np.minimum.outer(xb, ys)], col[np.maximum.outer(xb, ys)]]

        out = _by_row_blocks(xs, ys, block)
        unreachable = np.isinf(out)
        if unreachable.any():
            i, j = np.unravel_index(np.argmax(unreachable), out.shape)
            raise no_path_error(X[i], Y[j])
        return out


class PolylineArc(_Indices):
    """Arc-length metric over the vertices of a polyline."""

    __match_args__ = ("polyline",)
    name = "polylinearc"
    what = "vertex index"

    def __init__(self, polyline: Polyline):
        vars(self).update(polyline=polyline)

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


class Subspace(MetricSpec, Frozen):
    """A base metric restricted to an explicit allowed point set."""

    __match_args__ = ("base", "allowed")
    name = "subspace"

    def __init__(self, base: MetricSpec, allowed: frozenset):
        vars(self).update(base=base, allowed=allowed)

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


class MatrixMetric(_Indices):
    """Candidate metric given extensionally by a distance matrix.

    Carrier points are row indices 0..n-1; nothing about the matrix is taken
    on trust beyond finiteness, so run ``verify_axioms`` to certify it.
    """

    __match_args__ = ("matrix",)
    name = "matrix"

    def __init__(self, matrix: DistanceMatrix):
        vars(self).update(matrix=matrix)

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
    return spec._distance(x, y)


class Witness(NamedTuple):
    """One reproducible axiom violation over a certified sample."""

    axiom: str
    indices: tuple[int, ...]
    lhs: float
    rhs: float


# The four metric axioms, in the order the CLI reports their verdicts.
AXIOMS = ("symmetry", "nonnegativity", "identity", "triangle")


def _verdict(axiom: str) -> property:
    return property(lambda self: not self.for_axiom(axiom), doc=f"True when no {axiom} witness was found.")


class AxiomReport:
    """Explicit violating witnesses, and per-axiom verdicts read from them.

    An axiom passes exactly when it has no witness: ``verify_axioms``
    reports at least one witness for every axiom that fails. Witness indices
    point into the certified sample; re-evaluating the distances they name
    reproduces the reported lhs/rhs values. Reports compare by their
    witness lists and are not hashable.
    """

    __match_args__ = ("witnesses",)
    __repr__ = field_repr
    symmetry_ok, nonnegativity_ok, identity_ok, triangle_ok = map(_verdict, AXIOMS)

    def __init__(self, witnesses: list[Witness] | None = None):
        self.witnesses = [] if witnesses is None else witnesses

    def __eq__(self, other):
        return self.witnesses == other.witnesses if type(other) is type(self) else NotImplemented

    @property
    def all_ok(self) -> bool:
        return not self.witnesses

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
    triangle check then takes O(n^3) time and is most of the time once n
    reaches a few hundred; it fills row-major slabs of at most
    TRIANGLE_SLAB_FLOATS floats (at least one row of n). When the table is
    symmetric bit for bit, as every built-in kernel's is, it scans only the
    triples with z >= x, about n^3 / 2, and mirrors the rest, and the pair
    sweep skips symmetry. A MatrixMetric whose table is not scans all n^3 over
    a transposed copy of the table.

    Memory: D, with no n x n mask or copy: ``_pair_witnesses`` sweeps by
    row blocks, and each slack takes the magnitudes of the cells it has
    gathered. The triangle pass adds one slab and its candidate rows (see
    ``_triangle_witnesses``), and an asymmetric table the pass's transposed
    copy of D.
    """
    pts = _canonical_sample(spec, sample)
    D = spec._cross(pts, pts)
    symmetric = _bitwise_symmetric(D)
    negative, symmetry, identity = _pair_witnesses(D, point_keys(pts), tol, symmetric)
    return AxiomReport(negative + symmetry + identity + _triangle_witnesses(D, tol, symmetric))


def _bitwise_symmetric(D: np.ndarray) -> bool:
    """True when D equals D.T bit for bit: -0.0 against 0.0, or two NaN
    payloads, count as asymmetric."""
    bits = D.view(np.int64)
    return np.array_equal(bits, bits.T)


# Both passes compare rounded sums and differences of table entries; one
# past the float range is +-inf, and is compared as it is, with no warning.
@np.errstate(over="ignore")
def _pair_witnesses(D: np.ndarray, keys, tol: ToleranceConfig, symmetric: bool) -> tuple[list[Witness], ...]:
    """The nonnegativity, symmetry and identity witnesses of D, each the
    first MAX_WITNESSES_PER_AXIOM in lexicographic order, from one sweep by
    ``row_blocks`` with no n x n mask.

    Symmetry: the pairs (p, q), p < q, with |d(p,q) - d(q,p)| > abs_tol +
    rel_tol * max(|d(p,q)|, |d(q,p)|), read over the columns right of each
    block's diagonal. ``symmetric`` is ``_bitwise_symmetric(D)``; such a
    table has none, since each difference is then 0 or NaN, which no slack
    exceeds.

    Nonnegativity and identity: points of one of ``keys`` are the same
    point; their cells are the diagonal when all are distinct. Every
    negative entry is at most abs_tol, so a block whose entries at most
    abs_tol are its same-point cells, each in [0, abs_tol], holds neither."""
    ids: dict = {}
    cls = np.array([ids.setdefault(key, len(ids)) for key in keys])
    distinct = len(ids) == len(D)
    negative, symmetry, identity = [], [], []
    for lo, hi in row_blocks(*D.shape):
        if len(negative) == len(identity) == MAX_WITNESSES_PER_AXIOM and (
            symmetric or len(symmetry) == MAX_WITNESSES_PER_AXIOM
        ):
            break
        block = D[lo:hi]
        if not symmetric and len(symmetry) < MAX_WITNESSES_PER_AXIOM:
            upper, lower = block[:, lo:], D[lo:, lo:hi].T  # cell (i, j) is d(lo + i, lo + j), d(lo + j, lo + i)
            slack = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(upper), np.abs(lower))
            hits = np.argwhere(np.triu(np.abs(upper - lower) > slack, k=1))[: MAX_WITNESSES_PER_AXIOM - len(symmetry)]
            symmetry += [
                Witness("symmetry", (lo + i, lo + j), float(upper[i, j]), float(lower[i, j])) for i, j in hits.tolist()
            ]
        i, j = (np.arange(hi - lo), np.arange(lo, hi)) if distinct else np.nonzero(cls[lo:hi, None] == cls)
        close, same = block <= tol.abs_tol, block[i, j]
        if np.count_nonzero(close) == len(i) and 0 <= same.min() and same.max() <= tol.abs_tol:
            continue
        close[i, j] = same > tol.abs_tol
        for found, axiom, hits in ((negative, "nonnegativity", block < 0), (identity, "identity", close)):
            cells = np.argwhere(hits)[: MAX_WITNESSES_PER_AXIOM - len(found)].tolist()
            found += [Witness(axiom, (lo + r, c), float(block[r, c]), 0.0) for r, c in cells]
    return negative, symmetry, identity


@np.errstate(over="ignore")
def _triangle_witnesses(D: np.ndarray, tol: ToleranceConfig, symmetric: bool) -> list[Witness]:
    """The first MAX_WITNESSES_PER_AXIOM triples (x, y, z), in lexicographic
    order, with L > fl(r + slack), where L = d(x,z), r = fl(d(x,y) + d(y,z))
    and slack = abs_tol + rel_tol * max(|L|, |d(x,y)|, |d(y,z)|).
    ``symmetric`` is ``_bitwise_symmetric(D)``.

    Row-major slabs: E is D when D equals D.T bit for bit, and a contiguous
    copy of D.T otherwise, so E[z, y] is D[y, z] either way. For each x and z
    from lo to n - 1, row z of the slab is fl(D[x, y] + E[z, y]) = r over
    every y, filled for a run of z rows of at most TRIANGLE_SLAB_FLOATS
    floats at a time (one row at least) and reduced along the row with
    ``np.fmin.reduce`` (which skips NaN) to column z's least r. The rows of
    the candidate columns below are recomputed as D[x] + E[cols]: the same
    additions of the same floats, so they are the slab's floats, and the
    witnesses do not depend on where a slab ends.

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

    Memory: besides D and E, one slab buffer and, per x, the candidate
    rows, len(cols) x n floats. On the built-in kernels' tables few columns
    are candidates; on a badly broken table a row can have n of them, and
    its witnesses soon reach the cap.
    """
    n = D.shape[0]
    E = D if symmetric else np.ascontiguousarray(D.T)
    step = max(1, TRIANGLE_SLAB_FLOATS // n)
    buf = np.empty(min(step, n) * n)
    least = np.empty(n)
    mirrors: dict[int, list[Witness]] = {}  # row z -> witnesses (z, y, x) found at row x < z
    found: list[Witness] = []
    for x in range(n):
        lo = x if symmetric else 0
        L, Dx = D[x, lo:], D[x]
        for a in range(lo, n, step):
            b = min(a + step, n)
            slab = buf[: (b - a) * n].reshape(b - a, n)
            np.add(Dx, E[a:b], out=slab)
            np.fmin.reduce(slab, axis=1, out=least[a - lo : b - lo])
        t = np.minimum(L, np.nextafter(L - tol.abs_tol, np.inf))
        row = mirrors.pop(x, [])
        cols = np.flatnonzero(least[: n - lo] < t)
        if cols.size:
            rhs = E[cols + lo]
            rhs += Dx  # rhs[k, y] is r for z = cols[k] + lo, as float addition commutes
            ys, k = np.nonzero((rhs < t[cols, None]).T)  # in (y, z) order
            lhs, r = L[cols[k]], rhs[k, ys]
            zs = cols[k] + lo
            slack = tol.abs_tol + tol.rel_tol * np.abs([lhs, Dx[ys], D[ys, zs]]).max(0)
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
