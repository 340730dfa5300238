import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import metrikos as mk
from metrikos import core, sampling
from metrikos.core import (
    AXIOMS, BLOCK_PAIRS, MAX_WITNESSES_PER_AXIOM, _bitwise_symmetric, _pair_witnesses, _triangle_witnesses
)

from _support import builtin_cases


def planted_non_metric() -> mk.MatrixMetric:
    # squared separation |i - j|**2 on three labels: symmetric but not a metric
    values = np.array([[abs(i - j) ** 2 for j in range(3)] for i in range(3)], dtype=float)
    return mk.MatrixMetric(mk.DistanceMatrix(values))


def assert_verdicts_read_witnesses(report) -> None:
    """Each verdict is True exactly when its axiom has no witness."""
    for axiom in AXIOMS:
        assert getattr(report, f"{axiom}_ok") == (not any(w.axiom == axiom for w in report.witnesses)), axiom
    assert report.all_ok == all(getattr(report, f"{axiom}_ok") for axiom in AXIOMS)


def brute_force_triangle_witnesses(D, tol) -> list:
    """Every triangle violation of D, one triple at a time, in (x, y, z) order."""
    n = len(D)
    found = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs, rhs = D[x, z], D[x, y] + D[y, z]
                slack = tol.abs_tol + tol.rel_tol * max(abs(D[x, z]), abs(D[x, y]), abs(D[y, z]))
                if lhs > rhs + slack:
                    found.append(mk.Witness("triangle", (x, y, z), float(lhs), float(rhs)))
    return found


TOLERANCES = (mk.ToleranceConfig(), mk.ToleranceConfig(0.0, 0.0), mk.ToleranceConfig(1e-3, 1e-6))
# offsets just past and just within the default slack and the 1e-3 one, and one ulp
NUDGES = (2e-9, 5e-10, -2e-9, 2e-3, 5e-4, "ulp")
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def triangle_tables(draw):
    """(D, tol): a taxicab table on a small lattice, so collinear triples are
    bit-tight and duplicate points give zeros, or free entries, symmetric or
    not; then a few cells nudged or set to a special value, in one cell or in
    both mirrored cells."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        step = draw(st.sampled_from([1.0, 0.1, 0.3]))
        coords = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        P = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float) * step
        D = mk.pairwise_distances(mk.Taxicab(), list(P))
    else:
        cells = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=n * n, max_size=n * n)
        D = np.array(draw(cells)).reshape(n, n)
        if draw(st.booleans()):
            D = np.triu(D) + np.triu(D, 1).T
    if draw(st.sampled_from([False, False, True])):  # zeros that equal their mirror but differ in sign
        D[np.tril(D == 0, -1)] = -0.0
    both = st.sampled_from([True, True, True, False])  # mostly, so that many tables stay symmetric
    edits = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(NUDGES + SPECIALS), both)
    for i, j, change, mirrored in draw(st.lists(edits, max_size=6)):
        if change == "ulp":
            value = np.nextafter(D[i, j], math.inf)
        elif change in NUDGES:
            value = D[i, j] + change
        else:
            value = change
        D[i, j] = value
        if mirrored:
            D[j, i] = value
    return D, draw(st.sampled_from(TOLERANCES))


def signed_zero_table() -> np.ndarray:
    """(0, 1, 2) and (2, 1, 0) are witnesses whose rhs are 0.0 and -0.0: the
    zeros below the diagonal are -0.0, so D equals D.T but not bit for bit."""
    return np.array([[0.0, 0.0, 5.0], [-0.0, 0.0, 0.0], [5.0, -0.0, 0.0]])


def tie_table() -> tuple:
    """A witness (0, 1, 2) with rhs == fl(lhs - abs_tol): lhs is 1 + 2**-52
    and rhs is 1, and under abs_tol = 2**-53 both fl(lhs - abs_tol) and
    fl(rhs + abs_tol) are ties that round to even, so rhs + slack rounds
    below lhs."""
    D = np.array([[0.0, 1.0, 1.0 + 2.0**-52], [1.0, 0.0, 0.0], [1.0 + 2.0**-52, 0.0, 0.0]])
    return D, mk.ToleranceConfig(2.0**-53, 0.0)


def negative_table() -> np.ndarray:
    """Negative entries whose magnitudes set the slack: (0, 1) is within
    the slack of |D| by 2**-21 and (0, 1, 2) by 2**-20, and a slack taken
    from the signed entries, below zero, would report both."""
    return np.array([[0.0, -1e6, -2e6 + 2.0**-20], [-1e6 - 2.0**-21, 0.0, -1e6], [-2e6 + 2.0**-20, -1e6, 0.0]])


def brute_force_symmetry_witnesses(D, tol) -> list:
    """Every symmetry violation of D, one pair i < j at a time, in (i, j) order."""
    n = len(D)
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            slack = tol.abs_tol + tol.rel_tol * max(abs(D[i, j]), abs(D[j, i]))
            if abs(D[i, j] - D[j, i]) > slack:
                found.append(mk.Witness("symmetry", (i, j), float(D[i, j]), float(D[j, i])))
    return found


def hexed(witnesses) -> list:
    return [(w.axiom, w.indices, float(w.lhs).hex(), float(w.rhs).hex()) for w in witnesses]


def per_pair_table(spec, sample) -> np.ndarray:
    """The reference for the batch kernels: one ``_eval`` per ordered pair."""
    pts = [spec.validate_point(x) for x in sample]
    return np.array([[spec._eval(x, y) for y in pts] for x in pts], dtype=float)


def view_tables(spec, X, Y) -> dict:
    """Every public view of spec's formula on the pairs (X[k], Y[k]):
    ``distance``, and the scalar and rowwise functions where they exist."""
    pairs = list(zip(X, Y))
    views = {"distance": [mk.distance(spec, x, y) for x, y in pairs]}
    scalar = {
        "euclidean": mk.euclidean_distance,
        "taxicab": mk.taxicab_distance,
        "chebyshev": mk.chebyshev_distance,
        "discrete": mk.discrete_distance,
        "realline": mk.real_line_distance,
        "greatcircle": mk.great_circle_distance,
        "graphpath": lambda x, y: mk.shortest_path_distance(spec.graph, x, y),
        "polylinearc": lambda x, y: mk.polyline_arc_distance(spec.polyline, x, y),
    }
    rowwise = {
        "euclidean": mk.euclidean_distances,
        "taxicab": mk.taxicab_distances,
        "chebyshev": mk.chebyshev_distances,
        "greatcircle": mk.great_circle_distances,
    }
    if spec.name in scalar:
        views["scalar"] = [scalar[spec.name](x, y) for x, y in pairs]
    if spec.name in rowwise:
        views["rowwise"] = rowwise[spec.name](np.array(X), np.array(Y))
    return views


def outcome(fn):
    """The table fn() returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def wide_range_points(rng, n, dim) -> list:
    """Coordinates of magnitude 1e-300 to 1e300 and both signs, with a
    repeated point and a repeated coordinate."""
    X = 10.0 ** rng.uniform(-300, 300, size=(n, dim)) * rng.choice([-1.0, 1.0], size=(n, dim))
    X[7] = X[2]
    X[5, 0] = X[4, 0]
    return list(X)


def batch_kernel_cases(rng, n) -> list:
    """(spec, sample) for all ten built-in kinds, with samples that span
    several row blocks and repeat points."""
    cases = []
    for dim in (1, 3, 5):
        pts = wide_range_points(rng, n, dim)
        cases += [(cls(), pts) for cls in (mk.Euclidean, mk.Taxicab, mk.Chebyshev, mk.Discrete)]
        cases.append((mk.restrict(mk.Euclidean(), pts), pts))
    reals = [float(x[0]) for x in wide_range_points(rng, n, 1)]
    cases.append((mk.RealLine(), reals))
    sphere = list(sampling.random_sphere_points(rng, n))
    sphere[3] = sphere[1]
    sphere[4] = -sphere[0]  # antipodal pair
    cases.append((mk.GreatCircle(), sphere))
    graph = sampling.random_connected_graph(rng, 2 * n, extra_edges=n)
    cases.append((mk.GraphPath(graph), [int(v) for v in rng.integers(0, 2 * n, size=n)]))
    poly = sampling.random_polyline(rng, n)
    cases.append((mk.PolylineArc(poly), [int(v) for v in rng.integers(0, n, size=n)]))
    # a non-metric matrix: asymmetric, signed, nonzero diagonal
    D = mk.DistanceMatrix(rng.normal(size=(n, n)))
    cases.append((mk.MatrixMetric(D), [int(v) for v in rng.integers(0, n, size=n)]))
    return cases


class TestBatchKernel:
    def test_pairwise_equals_per_pair_loop_bitwise(self, rng):
        n = 100  # rows 0..39, 40..79, 80..99 at BLOCK_PAIRS = 4096
        assert BLOCK_PAIRS // n < n
        cases = batch_kernel_cases(rng, n)
        assert {spec.name for spec, _ in cases} == {spec.name for spec, _ in builtin_cases(rng)}
        perm = rng.permutation(n)
        for spec, sample in cases:
            got, want = mk.pairwise_distances(spec, sample), per_pair_table(spec, sample)
            assert got.shape == want.shape == (n, n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), spec.name
            # the scalar and rowwise views give the kernel's bits
            for view, values in view_tables(spec, sample, [sample[k] for k in perm]).items():
                values = np.asarray(values, dtype=float)
                assert np.array_equal(values.view(np.int64), want[np.arange(n), perm].view(np.int64)), (spec.name, view)
            # a short X against the whole sample, with graph ids on both sides of X's
            rows = [n // 2, 3]
            if isinstance(spec, mk.GraphPath):
                order = np.argsort(sample)
                rows = [int(order[n // 2]), int(order[n // 4])]
            short = spec._cross(spec.validate_many([sample[k] for k in rows]), spec.validate_many(sample))
            assert np.array_equal(short.view(np.int64), want[rows].view(np.int64)), spec.name

    def test_chebyshev_and_discrete_rows_are_the_axis_reductions(self, rng):
        # differences that are -0.0, subnormal, overflowed to +-inf or plain, and
        # differences of points near the float range, as the kernel makes them
        values = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1e-300, -1.5, 3.0, math.inf, -math.inf]
        for dim in (1, 2, 3, 5):
            X, Y = rng.choice([1e308, -1e308, 0.0, -0.0, 5e-324, -1.0], size=(2, 11, dim))
            with np.errstate(over="ignore"):
                overflowed = X[:, None, :] - Y[None, :, :]
            for diff in (rng.choice(values, size=(9, 13, dim)), overflowed):
                before, planes = diff.copy(), np.moveaxis(diff, -1, 0)
                # Chebyshev's _rows takes |x - y| in place, so it gets a copy
                cheb, disc = mk.Chebyshev()._rows(planes.copy()), mk.Discrete()._rows(planes)
                assert np.array_equal(cheb.view(np.int64), np.abs(diff).max(-1).view(np.int64)), dim
                assert np.array_equal(disc.view(np.int64), np.where((diff == 0).all(-1), 0.0, 1.0).view(np.int64)), dim
                assert np.array_equal(diff.view(np.int64), before.view(np.int64))

    def test_every_builtin_spec_has_a_batch_kernel(self, rng):
        for spec, _ in builtin_cases(rng):
            assert type(spec)._cross is not mk.MetricSpec._cross, spec.name

    def test_disconnected_graph_raises_like_the_loop(self):
        g = mk.WeightedGraph(7, [(0, 1, 1.0), (2, 3, 2.5), (3, 4, 0.5), (5, 6, 1.0)])
        for sample in ([1, 0, 4, 2, 5], [4, 3, 2, 0], [6, 5, 0], [2, 4, 3, 4, 1], [3, 2, 4, 6, 6]):
            got = outcome(lambda: mk.pairwise_distances(mk.GraphPath(g), sample))
            want = outcome(lambda: per_pair_table(mk.GraphPath(g), sample))
            assert got[0] is mk.UnreachableError, sample
            assert got == want, sample

    def test_ragged_sample_raises_like_the_loop(self):
        for sample in ([(0.0, 0.0), (1.0, 2.0), (1.0, 2.0, 3.0)], [(1.0, 2.0, 3.0), 4.0]):
            for cls in (mk.Euclidean, mk.Taxicab, mk.Chebyshev, mk.Discrete):
                got = outcome(lambda: mk.pairwise_distances(cls(), sample))
                assert got[0] is ValueError and got == outcome(lambda: per_pair_table(cls(), sample))

    def test_memory_is_bounded_per_row_block(self, rng):
        # the 384 x 384 table is 1.125 MB; a kernel that takes all pairs at
        # once builds a 384 x 384 x 3 difference table (3.4 MB) beside it,
        # and the great-circle kernel a dozen 384 x 384 products
        for spec in (mk.Taxicab(), mk.Euclidean(), mk.GreatCircle()):
            sample = sampling.sample_for(spec, rng, 384, dim=3)
            tracemalloc.start()
            try:
                D = mk.pairwise_distances(spec, sample)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert D.shape == (384, 384)
            assert peak < 2 * 2**20, f"{spec.name}: pairwise_distances peaked at {peak / 2**20:.2f} MB"


# coordinates that test the kernels' signs, subnormals and range; the big
# ones overflow a difference, and plain batches take only the first six
KERNEL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1.0, -2.5, 1e-300, -1e300, 1e300, 1.7e308, -1.7e308)
ROWWISE = {"euclidean": mk.euclidean_distances, "taxicab": mk.taxicab_distances,
           "chebyshev": mk.chebyshev_distances, "greatcircle": mk.great_circle_distances}


@st.composite
def kernel_batches(draw):
    """(spec, X, Y): two validated batches of one coordinate spec or of the
    sphere, in C order, Fortran order or strided by rows or by columns, with
    len(X) on either side of a row-block boundary for len(Y) columns, or
    both small."""
    spec = draw(st.sampled_from(COORDINATE_SPECS + (mk.GreatCircle(),)))
    dim = {"realline": 1, "greatcircle": 3}.get(spec.name) or draw(st.sampled_from([1, 2, 3, 5, 256]))
    if draw(st.booleans()):
        cols = draw(st.sampled_from([1, 64, 100]))
        rows = BLOCK_PAIRS // cols + draw(st.integers(-1, 1))
    else:
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # plain coordinates are of one magnitude, so their sums round by their order
    wide = spec.name != "greatcircle" and draw(st.booleans())
    pool = np.array(KERNEL_VALUES[: draw(st.sampled_from([9, 12])) if wide else 6])

    def batch(n):
        P = rng.uniform(-1.0, 1.0, size=(n, dim))
        if wide:
            P *= 10.0 ** rng.uniform(-300, 300, size=(n, dim))
        P = np.where(rng.random((n, dim)) < 0.2, rng.choice(pool, size=(n, dim)), P)
        P[rng.random(n) < 0.2] = P[0]  # repeated points
        if spec.name == "greatcircle":
            P[:, 0] += 1.0  # no zero vector
            P = P / np.linalg.norm(P, axis=1)[:, None]
        return spec.validate_many(list(P))

    layout = draw(st.sampled_from(["C", "F", "rows", "cols"]))
    arrange = {"C": lambda P: P, "F": np.asfortranarray, "rows": lambda P: np.repeat(P, 2, axis=0)[::2],
               "cols": lambda P: np.repeat(P, 2, axis=1)[:, ::2]}[layout]
    return spec, arrange(batch(rows)), arrange(batch(cols))


class TestPlaneKernels:
    """The coordinate and sphere kernels against the per-pair loop of
    ``_eval``, bit for bit, overflow errors included."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=kernel_batches())
    def test_cross_and_rowwise_are_the_scalar_formula(self, case):
        def assert_same(got, want):  # the same bits, or the same CarrierError
            if isinstance(want, tuple):
                assert want[0] is mk.CarrierError and got == want
            else:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

        spec, X, Y = case
        assert_same(outcome(lambda: spec._cross(X, Y)), outcome(lambda: mk.MetricSpec._cross(spec, X, Y)))
        rowwise = ROWWISE.get(spec.name)
        if rowwise is not None:
            k = min(len(X), len(Y))
            P, Q = X[:k], Y[:k]

            def per_row():
                return np.array([spec._eval(spec.validate_point(p), spec.validate_point(q)) for p, q in zip(P, Q)])

            assert_same(outcome(lambda: rowwise(P, Q)), outcome(per_row))


COORDINATE_SPECS = (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev(), mk.Discrete(), mk.RealLine())


def same_point_forms(p: np.ndarray) -> list:
    """A 1-D float64 point in each form that gives it the same coordinates:
    the array, a strided view of it, a list and a tuple of floats, numpy
    float64 items, and for one coordinate the float, a numpy float64 and a
    0-d array."""
    xs = p.tolist()
    forms = [p, np.repeat(p, 2)[::2], xs, tuple(xs), [np.float64(x) for x in xs]]
    if len(xs) == 1:
        forms += [xs[0], np.float64(xs[0]), np.array(xs[0])]
    return forms


class TestScalarPath:
    """``distance`` and ``ball_contains`` read coordinate points as Python
    floats, with no array; the answers and errors are those of the
    validated points."""

    @pytest.mark.parametrize("spec", COORDINATE_SPECS, ids=lambda spec: spec.name)
    def test_scalar_distances_are_the_kernel_bits_for_every_form(self, rng, spec):
        dim = 1 if spec.name == "realline" else 3
        sample = wide_range_points(rng, 12, dim)
        D = mk.pairwise_distances(spec, sample)
        for i, j in rng.integers(0, 12, size=(8, 2)).tolist() + [(2, 7), (4, 4)]:
            want = D[i, j].hex()
            for x in same_point_forms(sample[i]):
                for y in same_point_forms(sample[j])[:3]:
                    assert mk.distance(spec, x, y).hex() == want, (spec.name, x, y)
            ball = mk.Ball(spec, sample[i], D[i, j] if D[i, j] > 0 else 1.0)
            for y in same_point_forms(sample[j]):
                assert mk.ball_contains(ball, y) == (D[i, j] < ball.radius)
            assert mk.ball_contains(mk.Ball(spec, sample[i], np.nextafter(D[i, j], math.inf)), sample[j])

    @pytest.mark.parametrize("spec", COORDINATE_SPECS, ids=lambda spec: spec.name)
    def test_scalar_errors_are_those_of_the_validated_points(self, spec):
        def validated(x, y):
            return float(spec._eval(spec.validate_point(x), spec.validate_point(y)))

        good = 0.5 if spec.name == "realline" else (0.5, 0.25)
        bad = [math.nan, (math.inf, 0.0), (1.0, 2.0, 3.0), (0.5,), "a", True, [], [[0.5, 0.25]], None,
               (1e308, 1e308), (-1e308, -1e308), -1e308, np.array([0.5, math.nan]), (0, True)]
        ball = mk.Ball(spec, good, 1.0)
        for x in bad:
            for args in ((x, good), (good, x), (x, x)):
                want = outcome(lambda: validated(*args))
                assert outcome(lambda: mk.distance(spec, *args)) == want, (spec.name, args)
            want = outcome(lambda: spec._eval(ball.center, spec.validate_point(x)) < 1.0)
            assert outcome(lambda: mk.ball_contains(ball, x)) == want, (spec.name, x)


class TestDistanceDispatch:
    def test_worked_values(self):
        assert abs(mk.distance(mk.Euclidean(), (0, 0), (1, 1)) - math.sqrt(2)) <= 1e-12
        assert mk.distance(mk.Discrete(), (0.5, 0.5), (0.5, 0.5)) == 0.0
        assert mk.distance(mk.Taxicab(), (0, 0), (3, 4)) == 7.0

    def test_identity_and_symmetry(self, rng):
        for spec, sample in builtin_cases(rng, n=12):
            for x in sample[:4]:
                assert mk.distance(spec, x, x) == 0.0
            for x, y in zip(sample[:6], sample[6:12]):
                assert mk.distance(spec, x, y) == mk.distance(spec, y, x)

    def test_carrier_errors(self, rng):
        with pytest.raises(ValueError):
            mk.distance(mk.Euclidean(), (0, 0), (1, 2, 3))
        with pytest.raises(mk.CarrierError):
            mk.distance(mk.GreatCircle(), (0.3, 0, 0), (0, 0, 1))
        g = mk.grid_graph(2, 2)
        with pytest.raises(mk.CarrierError):
            mk.distance(mk.GraphPath(g), 0, 99)
        with pytest.raises(mk.CarrierError):
            mk.distance(planted_non_metric(), 0, 5)
        # index carriers share one validator: no bools, fractions or non-finite values
        for spec in (planted_non_metric(), mk.GraphPath(g), mk.PolylineArc(mk.Polyline([(0, 0), (1, 0), (1, 1)]))):
            assert mk.distance(spec, np.int64(0), 1.0) == mk.distance(spec, 0, 1)
            for bad in (1.5, True, np.float32(1.5), math.nan, math.inf):
                with pytest.raises(mk.CarrierError):
                    spec.validate_point(bad)

    def test_unreachable_pair_is_an_error(self):
        g = mk.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(mk.UnreachableError, match="not a metric space"):
            mk.distance(mk.GraphPath(g), 0, 3)

    @pytest.mark.parametrize(
        "spec, sample",
        [
            (mk.Euclidean(), [(1e308, 0.0), (-1e308, 0.0), (0.0, 0.0)]),
            (mk.Taxicab(), [(1e308, 0.0), (-1e308, 0.0), (0.0, 0.0)]),
            (mk.Chebyshev(), [(1e308, 0.0), (-1e308, 0.0), (0.0, 0.0)]),
            (mk.RealLine(), [1e308, -1e308, 0.0]),
        ],
        ids=lambda case: getattr(case, "name", ""),
    )
    def test_an_overflowing_distance_raises_naming_the_pair(self, spec, sample):
        # it was inf, with a RuntimeWarning, and inf passes every axiom compare
        a, b = ("(1e+308)", "(-1e+308)") if spec.name == "realline" else ("(1e+308, 0.0)", "(-1e+308, 0.0)")
        message = f"the {spec.name} distance between {a} and {b} overflows the float range"
        with pytest.raises(mk.CarrierError) as err:
            mk.distance(spec, sample[0], sample[1])
        assert str(err.value) == message
        with pytest.raises(mk.CarrierError) as err:
            mk.verify_axioms(spec, sample)
        assert str(err.value) == message
        # the table names its first bad cell in row-major order
        with pytest.raises(mk.CarrierError) as err:
            mk.pairwise_distances(spec, sample[::-1])
        assert str(err.value) == message.replace(f"{a} and {b}", f"{b} and {a}")
        # each half of the way is finite, and the taxicab sum of two finite halves is not
        assert mk.distance(spec, sample[0], sample[2]) == 1e308
        if spec.name == "taxicab":
            with pytest.raises(mk.CarrierError, match="overflows"):
                mk.distance(spec, (1e308, 1e308), (0.0, 0.0))

    def test_overflowing_rowwise_distances_raise(self):
        for rowwise in (mk.euclidean_distances, mk.taxicab_distances, mk.chebyshev_distances):
            with pytest.raises(mk.CarrierError, match=r"between \(1e\+308, 0.0\) and \(-1e\+308, 0.0\)"):
                rowwise([[0.0, 0.0], [1e308, 0.0]], [[1.0, 1.0], [-1e308, 0.0]])


class TestSymmetryIsExact:
    @pytest.mark.parametrize("case_index", range(10))
    def test_exact_symmetry_bulk(self, rng, case_index):
        spec, sample = builtin_cases(rng, n=24)[case_index]
        idx = rng.integers(0, len(sample), size=(10_000, 2))
        for i, j in idx:
            a, b = sample[int(i)], sample[int(j)]
            assert mk.distance(spec, a, b) == mk.distance(spec, b, a)

    def test_builtin_tables_are_symmetric_bit_for_bit(self, rng):
        # so verify_axioms scans only the triples with z >= x on them
        cases = builtin_cases(rng, n=40) + [c for c in batch_kernel_cases(rng, 40) if c[0].name != "matrix"]
        for spec, sample in cases:
            bits = mk.pairwise_distances(spec, sample).view(np.int64)
            assert np.array_equal(bits, bits.T), spec.name


def certify_peak(spec, points) -> tuple:
    """The report of verify_axioms(spec, points) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        report = mk.verify_axioms(spec, points)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

class TestVerifyAxioms:
    def test_three_point_euclidean_sample(self):
        report = mk.verify_axioms(mk.Euclidean(), [(0, 0), (1, 0), (1, 1)])
        assert report.all_ok
        assert report.witnesses == []
        assert_verdicts_read_witnesses(report)

    def test_planted_non_metric_fails_triangle(self):
        report = mk.verify_axioms(planted_non_metric(), [0, 1, 2])
        assert report.symmetry_ok and report.nonnegativity_ok and report.identity_ok
        assert not report.triangle_ok
        assert_verdicts_read_witnesses(report)
        w = report.for_axiom("triangle")[0]
        assert w.indices == (0, 1, 2)
        assert w.lhs == 4.0
        assert w.rhs == 2.0

    def test_discrete_three_points(self):
        report = mk.verify_axioms(mk.Discrete(), [(0, 0), (1, 0), (2, 2)])
        assert report.all_ok

    def test_all_builtin_variants_certify(self, rng):
        for spec, sample in builtin_cases(rng, n=24):
            report = mk.verify_axioms(spec, sample)
            assert report.all_ok, (spec.name, report.witnesses[:3])
            assert_verdicts_read_witnesses(report)
        # the n^3 triangle check runs in O(n^2) memory: an n^3 float
        # temporary alone would take 128 MB at n = 256
        sample = list(sampling.random_points(rng, 256, dim=2))
        tracemalloc.start()
        try:
            report = mk.verify_axioms(mk.Euclidean(), sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_ok
        assert peak < 32 * 2**20, f"verify_axioms peaked at {peak / 2**20:.0f} MB"

    def test_round_trip_matrix_certifies(self, rng):
        for spec, sample in builtin_cases(rng, n=12):
            tabulated = mk.MatrixMetric(mk.matrix_from_points(spec, sample))
            report = mk.verify_axioms(tabulated, list(range(len(sample))))
            assert report.all_ok, spec.name

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mk.verify_axioms(mk.Euclidean(), [])

    def test_asymmetric_and_negative_witnesses(self):
        values = np.array([[0.0, 1.0, -2.0], [3.0, 0.0, 1.0], [-2.0, 1.0, 0.0]])
        spec = mk.MatrixMetric(mk.DistanceMatrix(values))
        report = mk.verify_axioms(spec, [0, 1, 2])
        assert not report.symmetry_ok
        assert not report.nonnegativity_ok
        assert_verdicts_read_witnesses(report)
        sym = report.for_axiom("symmetry")[0]
        assert sym.indices == (0, 1)
        assert (sym.lhs, sym.rhs) == (1.0, 3.0)
        neg = report.for_axiom("nonnegativity")[0]
        assert neg.lhs < 0

    def test_identity_violations(self):
        # zero distance between distinct labels, nonzero on the diagonal
        values = np.array([[0.0, 0.0], [0.0, 0.5]])
        report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(values)), [0, 1])
        assert not report.identity_ok
        assert_verdicts_read_witnesses(report)
        axioms = {w.indices for w in report.for_axiom("identity")}
        assert (0, 1) in axioms and (1, 1) in axioms
        # one failed axiom and no other: distinct points closer than abs_tol,
        # and a table that is asymmetric only
        close = mk.verify_axioms(mk.Euclidean(), [(0, 0), (1e-12, 0), (2e-12, 0)])
        for report in (close, mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix([[0, 1], [1.5, 0]])), [0, 1])):
            assert {w.axiom for w in report.witnesses} in ({"identity"}, {"symmetry"}) and not report.all_ok
            assert_verdicts_read_witnesses(report)
        # by design, every ordered pair of distinct points at most abs_tol
        # apart is an identity witness, in lexicographic order
        assert [(w.axiom, w.indices, w.lhs) for w in close.witnesses] == [
            ("identity", (0, 1), 1e-12), ("identity", (0, 2), 2e-12), ("identity", (1, 0), 1e-12),
            ("identity", (1, 2), 1e-12), ("identity", (2, 0), 2e-12), ("identity", (2, 1), 1e-12),
        ]

    def test_duplicate_points_are_the_same_point(self):
        report = mk.verify_axioms(mk.Euclidean(), [(1, 1), (1, 1), (2, 0)])
        assert report.all_ok

    def test_witnesses_reproduce(self, rng):
        values = rng.uniform(0.0, 1.0, size=(6, 6))
        values[np.diag_indices(6)] = 0.0
        spec = mk.MatrixMetric(mk.DistanceMatrix(values))
        sample = list(range(6))
        report = mk.verify_axioms(spec, sample)
        for w in report.witnesses:
            if w.axiom == "triangle":
                x, y, z = w.indices
                assert w.lhs == mk.distance(spec, x, z)
                assert w.rhs == pytest.approx(
                    mk.distance(spec, x, y) + mk.distance(spec, y, z), rel=1e-12
                )
            elif w.axiom == "symmetry":
                i, j = w.indices
                assert (w.lhs, w.rhs) == (mk.distance(spec, i, j), mk.distance(spec, j, i))
            elif w.axiom in ("identity", "nonnegativity"):
                i, j = w.indices
                assert w.lhs == mk.distance(spec, i, j)

    def test_witness_cap(self):
        n = 12
        values = np.full((n, n), -1.0)
        values[np.diag_indices(n)] = 0.0
        report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(values)), list(range(n)))
        per_axiom = {}
        for w in report.witnesses:
            per_axiom[w.axiom] = per_axiom.get(w.axiom, 0) + 1
        assert all(c <= MAX_WITNESSES_PER_AXIOM for c in per_axiom.values())
        assert not report.nonnegativity_ok
        assert_verdicts_read_witnesses(report)
        # many triangle violations: the report is the capped lexicographic
        # prefix of a brute-force scan, lhs/rhs and all
        rng = np.random.default_rng(7)
        uniform = rng.uniform(0.0, 1.0, size=(n, n))
        uniform = np.triu(uniform, 1) + np.triu(uniform, 1).T
        i, j = np.indices((20, 20))
        line = np.abs(i - j).astype(float)  # collinear: many exact equalities
        line[((i + j) % 3 == 0) & (i != j)] += 2e-9  # beyond the default slack
        line[(i + j) % 3 == 1] += 5e-10  # within it
        for values in (uniform, line):
            reference = brute_force_triangle_witnesses(values, mk.ToleranceConfig())
            assert len(reference) > MAX_WITNESSES_PER_AXIOM
            report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(values)), list(range(len(values))))
            assert report.symmetry_ok and report.nonnegativity_ok and not report.triangle_ok
            assert report.for_axiom("triangle") == reference[:MAX_WITNESSES_PER_AXIOM]
            assert_verdicts_read_witnesses(report)

    @pytest.mark.parametrize(
        "cell, mirror, symmetric_at_default_tol",
        [((0, 2), lambda v: -v, True),  # points 0 and 2 are the same point
         ((3, 6), lambda v: np.nextafter(v, math.inf), True),
         ((3, 6), lambda v: v + 0.01, False)],
        ids=["signed-zero", "one-ulp", "past-the-slack"],
    )
    def test_one_asymmetric_cell(self, cell, mirror, symmetric_at_default_tol):
        # a taxicab table, symmetric bit for bit except for one mirrored cell
        P = [(0, 0), (1, 2), (0, 0), (2, 1), (3, 3), (1, 2), (2, 0), (0, 3)]
        D = mk.pairwise_distances(mk.Taxicab(), P)
        i, j = cell
        D[j, i] = mirror(D[i, j])
        assert not np.array_equal(D.view(np.int64), D.T.view(np.int64))
        for tol in TOLERANCES:
            report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(len(P))), tol)
            assert report.for_axiom("symmetry") == brute_force_symmetry_witnesses(D, tol)
            assert hexed(report.for_axiom("triangle")) == hexed(
                brute_force_triangle_witnesses(D, tol)[:MAX_WITNESSES_PER_AXIOM]
            )
            assert_verdicts_read_witnesses(report)
            if tol == mk.ToleranceConfig():
                assert report.symmetry_ok == symmetric_at_default_tol

    def test_memory_is_bounded_in_table_floats(self, rng):
        # D is n^2 floats, with no n x n mask and no |D| copy: the pair
        # sweep works by row blocks, the slacks take the magnitudes of the
        # cells they gather, and the triangle pass adds one slab (n^2 / 4
        # floats here) and its candidate rows. A negative pair below every
        # other entry's negation makes rows 0 and 1 of the triangle pass
        # gather n - 1 candidate rows each. The asymmetric table is
        # TestSymmetryPass's.
        n = 512
        sample = list(sampling.random_points(rng, n, dim=3))
        negative = mk.pairwise_distances(mk.Taxicab(), sample)
        negative[0, 1] = negative[1, 0] = -10.0
        cases = (
            (mk.Taxicab(), sample, 1.5, set()),
            (mk.MatrixMetric(mk.DistanceMatrix(negative)), list(range(n)), 3.2,
             {"nonnegativity", "identity", "triangle"}),
        )
        for spec, points, bound, failing in cases:
            report, peak = certify_peak(spec, points)
            assert {w.axiom for w in report.witnesses} == failing
            assert peak < bound * 8 * n * n, f"{sorted(failing)}: {peak / (8 * n * n):.2f} n^2 floats"


class TestTrianglePass:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=triangle_tables())
    @example(case=(signed_zero_table(), mk.ToleranceConfig()))
    @example(case=tie_table())
    def test_matches_brute_force(self, case):
        D, tol = case
        with np.errstate(all="ignore"):  # inf - inf and 0 * inf are NaN here
            got = _triangle_witnesses(D, tol, _bitwise_symmetric(D))
            want = brute_force_triangle_witnesses(D, tol)[:MAX_WITNESSES_PER_AXIOM]
        assert hexed(got) == hexed(want)

    def test_cap_with_mirrored_witnesses(self):
        # a line whose pairs 2, 3 and 4 apart are stretched: row x has its
        # own witnesses (x, x+1, x+2), ... and the mirrors (x, x-1, x-2), ...
        # of earlier rows' witnesses, which the pass finds only at those rows
        i, j = np.indices((60, 60))
        D = np.abs(i - j).astype(float)
        for gap, stretch in ((2, 1.0), (3, 1.5), (4, 2.0)):
            D[np.abs(i - j) == gap] += stretch
        assert np.array_equal(D, D.T)
        reference = brute_force_triangle_witnesses(D, mk.ToleranceConfig())
        assert len(reference) > 2 * MAX_WITNESSES_PER_AXIOM
        got = _triangle_witnesses(D, mk.ToleranceConfig(), _bitwise_symmetric(D))
        assert hexed(got) == hexed(reference[:MAX_WITNESSES_PER_AXIOM])
        mirrored = [w for w in got if w.indices[2] < w.indices[0]]
        assert len(mirrored) >= 0.4 * MAX_WITNESSES_PER_AXIOM  # each one mirrors an earlier own hit
        # the cap falls inside a row, after its mirrored witnesses
        x = got[-1].indices[0]
        assert any(w.indices[0] == x and w.indices[2] < x for w in got)
        assert any(w.indices[0] == x for w in reference[MAX_WITNESSES_PER_AXIOM:])

    # one row per slab, and a bound that ends in the middle of the third row,
    # so a slab holds two rows; a bound below one row still fills one row
    @pytest.mark.parametrize("slab_floats", [lambda n: 1, lambda n: 2 * n + n // 2], ids=["one-row", "mid-row"])
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=triangle_tables())
    @example(case=(signed_zero_table(), mk.ToleranceConfig()))
    @example(case=tie_table())
    def test_matches_brute_force_in_small_slabs(self, slab_floats, case):
        D, tol = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(core, "TRIANGLE_SLAB_FLOATS", slab_floats(len(D)))
            got = _triangle_witnesses(D, tol, _bitwise_symmetric(D))
            want = brute_force_triangle_witnesses(D, tol)[:MAX_WITNESSES_PER_AXIOM]
        assert hexed(got) == hexed(want)

    def test_asymmetric_cap_across_slab_boundaries(self, monkeypatch):
        # a line whose pairs k = 2..5 apart are stretched by k / 2 above the
        # diagonal only, so the pass scans all of each row over the
        # transposed copy; row x holds witnesses (x, y, x + k), and with two
        # rows per slab they lie in more than one slab
        n = 40
        i, j = np.indices((n, n))
        D = np.abs(i - j).astype(float)
        for k in (2, 3, 4, 5):
            D[j - i == k] += k / 2
        assert not np.array_equal(D, D.T)
        monkeypatch.setattr(core, "TRIANGLE_SLAB_FLOATS", 2 * n + n // 2)
        reference = brute_force_triangle_witnesses(D, mk.ToleranceConfig())
        assert len(reference) > MAX_WITNESSES_PER_AXIOM
        got = _triangle_witnesses(D, mk.ToleranceConfig(), _bitwise_symmetric(D))
        assert hexed(got) == hexed(reference[:MAX_WITNESSES_PER_AXIOM])
        report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(n)))
        assert hexed(report.for_axiom("triangle")) == hexed(got)
        assert_verdicts_read_witnesses(report)
        x = got[-1].indices[0]
        assert len({w.indices[2] // 2 for w in got if w.indices[0] == x}) > 1
        # the cap falls inside row x
        assert any(w.indices[0] == x for w in reference[MAX_WITNESSES_PER_AXIOM:])


class TestSymmetryPass:
    # one row per block, and blocks that end in the middle of the second row
    @pytest.mark.parametrize("block_pairs", [lambda n: 1, lambda n: n + n // 2], ids=["one-row", "mid-row"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=triangle_tables())
    @example(case=(signed_zero_table(), mk.ToleranceConfig()))
    def test_matches_brute_force_by_row_blocks(self, block_pairs, case):
        D, tol = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(core, "BLOCK_PAIRS", block_pairs(len(D)))
            got = _pair_witnesses(D, [(k,) for k in range(len(D))], tol, symmetric=False)[1]
            want = brute_force_symmetry_witnesses(D, tol)[:MAX_WITNESSES_PER_AXIOM]
        assert hexed(got) == hexed(want)

    def test_cap_inside_a_block(self, monkeypatch):
        # every pair is asymmetric; with two rows per block, rows 0 and 1
        # give 39 + 38 witnesses, and the cap falls inside the next block,
        # at row 2
        n = 40
        D = np.arange(n * n, dtype=float).reshape(n, n)
        monkeypatch.setattr(core, "BLOCK_PAIRS", 2 * n)
        reference = brute_force_symmetry_witnesses(D, mk.ToleranceConfig())
        got = _pair_witnesses(D, [(k,) for k in range(n)], mk.ToleranceConfig(), symmetric=False)[1]
        assert hexed(got) == hexed(reference[:MAX_WITNESSES_PER_AXIOM])
        assert got[-1].indices[0] == 2 and reference[MAX_WITNESSES_PER_AXIOM].indices[0] == 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=triangle_tables())
    @example(case=(negative_table(), mk.ToleranceConfig()))
    def test_reports_on_finite_tables_match_brute_force(self, case):
        # the slacks of signed tables take the magnitudes of their entries
        D, tol = case
        if not np.isfinite(D).all():
            D = np.where(np.isfinite(D), D, 1.0)
        # entries near the float range overflow without a warning
        report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(len(D))), tol)
        negative = [mk.Witness("nonnegativity", (i, j), float(D[i, j]), 0.0) for i, j in np.argwhere(D < 0).tolist()]
        assert report.for_axiom("nonnegativity") == negative[:MAX_WITNESSES_PER_AXIOM]
        with np.errstate(over="ignore"):
            symmetry, triangle = brute_force_symmetry_witnesses(D, tol), brute_force_triangle_witnesses(D, tol)
        assert hexed(report.for_axiom("symmetry")) == hexed(symmetry[:MAX_WITNESSES_PER_AXIOM])
        assert hexed(report.for_axiom("triangle")) == hexed(triangle[:MAX_WITNESSES_PER_AXIOM])
        assert_verdicts_read_witnesses(report)


    def test_asymmetric_table_memory_is_bounded_in_table_floats(self, rng):
        # symmetry is checked in the pair sweep by row blocks, with no n x n
        # mask and no |D| copy: D, the triangle pass's transposed copy and
        # one slab (n^2 / 4 floats at n = 512) remain, where the whole-table
        # mask peaked at 4.13 n^2
        n = 512
        sample = list(sampling.random_points(rng, n, dim=3))
        asymmetric = mk.pairwise_distances(mk.Taxicab(), sample)
        asymmetric[0, 1] += 0.5
        report, peak = certify_peak(mk.MatrixMetric(mk.DistanceMatrix(asymmetric)), list(range(n)))
        assert {w.axiom for w in report.witnesses} == {"symmetry", "triangle"}
        assert peak < 3.2 * 8 * n * n, f"{peak / (8 * n * n):.2f} n^2 floats"

def masked_pair_witnesses(D, keys, tol) -> tuple:
    """The nonnegativity, symmetry and identity witnesses from n x n masks,
    as ``verify_axioms`` found them before its row-block sweep; a symmetry
    witness (p, q), p < q, reports d(q, p) as its rhs."""
    ids: dict = {}
    cls = np.array([ids.setdefault(key, len(ids)) for key in keys])
    slack = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(D), np.abs(D.T))
    masks = (("nonnegativity", D < 0),
             ("symmetry", np.triu(np.abs(D - D.T) > slack, k=1)),
             ("identity", np.where(cls[:, None] == cls[None, :], D > tol.abs_tol, D <= tol.abs_tol)))
    return tuple([mk.Witness(axiom, (int(p), int(q)), float(D[p, q]), float(D[q, p]) if axiom == "symmetry" else 0.0)
                  for p, q in np.argwhere(mask)[:MAX_WITNESSES_PER_AXIOM]] for axiom, mask in masks)


@st.composite
def pair_sweep_tables(draw):
    """(D, keys, tol): a table of 1 to 150 rows, several row blocks, over
    distinct or repeated points, with cells set to negatives, NaN, signed
    zeros and values about abs_tol, sparse or in every block."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = draw(st.sampled_from([n, max(1, n // 2), 3, 1]))
    keys = [(int(c),) for c in rng.permutation(n) % classes]
    tol = draw(st.sampled_from(TOLERANCES))
    D = rng.uniform(0.5, 2.0, size=(n, n))
    D[np.equal.outer([k[0] for k in keys], [k[0] for k in keys])] = 0.0
    share = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5]))
    specials = np.array([-1.0, -5e-324, -0.0, 0.0, math.nan, 1e-9, 5e-10, 2e-9, 1e-3, 0.5])
    hit = rng.random((n, n)) < share
    D[hit] = rng.choice(specials, size=int(hit.sum()))
    if draw(st.booleans()):
        D[np.diag_indices(n)] = rng.choice(specials, size=n)
    return D, keys, tol


class TestPairSweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=pair_sweep_tables())
    def test_matches_the_masks(self, case):
        D, keys, tol = case
        got, want = _pair_witnesses(D, keys, tol, _bitwise_symmetric(D)), masked_pair_witnesses(D, keys, tol)
        assert [hexed(found) for found in got] == [hexed(found) for found in want]

    def test_caps_across_blocks(self):
        # one negative cell per row, with its mirror at 1, so each axiom
        # reaches its cap only after 100 rows, several row blocks in, and
        # the sweep stops there
        n = 300
        D = np.ones((n, n))
        D[np.diag_indices(n)] = 0.0
        D[np.arange(n), np.arange(n) * 37 % n] = -1.0
        keys = [(k,) for k in range(n)]
        got = _pair_witnesses(D, keys, mk.ToleranceConfig(), symmetric=False)
        assert got == masked_pair_witnesses(D, keys, mk.ToleranceConfig())
        assert [len(found) for found in got] == [MAX_WITNESSES_PER_AXIOM] * 3
        assert got[0][-1].indices[0] >= BLOCK_PAIRS // n
        # every cell negative: nonnegativity and identity reach their caps in
        # row 0, and the sweep goes on for the asymmetric pairs of rows 150 on
        D = np.full((n, n), -1.0)
        D[np.arange(150, n - 1), np.arange(151, n)] = -2.0
        got = _pair_witnesses(D, keys, mk.ToleranceConfig(), symmetric=False)
        assert got == masked_pair_witnesses(D, keys, mk.ToleranceConfig())
        assert [len(found) for found in got] == [MAX_WITNESSES_PER_AXIOM] * 3
        assert got[1][-1].indices == (249, 250)


def exact_triangle_excess(D, tol, factor) -> list:
    """The triples (x, y, z) of D whose d(x,z) - (d(x,y) + d(y,z)) exceeds
    ``factor`` times the slack, in exact rational arithmetic."""
    F = [[Fraction(float(v)) for v in row] for row in D]
    a, r = Fraction(tol.abs_tol), Fraction(tol.rel_tol)
    n = len(D)
    return [
        (x, y, z)
        for x in range(n) for y in range(n) for z in range(n)
        if F[x][z] - (F[x][y] + F[y][z]) > factor * (a + r * max(abs(F[x][z]), abs(F[x][y]), abs(F[y][z])))
    ]


@st.composite
def planted_metric_tables(draw):
    """(D, tol, (i, k)): a metric table on n <= 10 points, taxicab on a
    small lattice (zeros, bit-tight triples) or entries in [s, 2s] (any such
    symmetric table is a metric), with the entry d(i, k) = d(k, i) raised
    above its triangle bound, min over y of d(i,y) + d(y,k), by more than
    twice the slack."""
    n = draw(st.integers(3, 10))
    scale = draw(st.sampled_from([1e-6, 1.0, 3.7, 1e6, 1e150]))
    if draw(st.booleans()):
        coords = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
        P = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float) * scale
        D = mk.pairwise_distances(mk.Taxicab(), list(P))
    else:
        cells = draw(st.lists(st.floats(1.0, 2.0), min_size=n * n, max_size=n * n))
        D = np.triu(np.array(cells).reshape(n, n) * scale, 1)
        D = D + D.T
    tol = draw(st.sampled_from([mk.ToleranceConfig(), mk.ToleranceConfig(1e-3, 1e-6)]))
    i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    bound = min(Fraction(D[i, y]) + Fraction(D[y, k]) for y in range(n) if y not in (i, k))
    e = draw(st.sampled_from([3, 10, 1000]))
    a, r = Fraction(tol.abs_tol), Fraction(tol.rel_tol)
    D[i, k] = D[k, i] = float((bound + e * a) * (1 + e * r))
    return D, tol, (i, k)


class TestNoMiss:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=planted_metric_tables())
    def test_every_violation_past_twice_the_slack_is_reported(self, case):
        D, tol, (i, k) = case
        report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(len(D))), tol)
        found = {w.indices for w in report.for_axiom("triangle")}
        assert len(found) < MAX_WITNESSES_PER_AXIOM
        excess = exact_triangle_excess(D, tol, 2)
        assert {(i, k), (k, i)} <= {(x, z) for x, _, z in excess}
        assert set(excess) <= found
        assert_verdicts_read_witnesses(report)


class TestRestrict:
    def test_agrees_with_base(self):
        sub = mk.restrict(mk.Euclidean(), [(0, 0), (1, 0)])
        assert mk.distance(sub, (0, 0), (1, 0)) == 1.0

    def test_restriction_inherits_axioms(self):
        sub = mk.restrict(mk.Euclidean(), [(0, 0), (1, 0)])
        assert mk.verify_axioms(sub, [(0, 0), (1, 0)]).all_ok

    def test_antipodal_restriction(self):
        sub = mk.restrict(mk.GreatCircle(), [(0, 0, 1), (0, 0, -1)])
        assert mk.distance(sub, (0, 0, 1), (0, 0, -1)) == pytest.approx(math.pi, abs=1e-12)

    def test_membership_enforced(self):
        sub = mk.restrict(mk.Euclidean(), [(0, 0), (1, 0)])
        with pytest.raises(mk.CarrierError):
            mk.distance(sub, (0, 0), (0.5, 0))
        # a set that no one metric measures is refused when restricted to
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            mk.restrict(mk.Euclidean(), [(0, 0), (1, 2, 3)])

    def test_empty_restriction_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mk.restrict(mk.Euclidean(), [])


class TestMatrixFromPoints:
    def test_pair(self):
        m = mk.matrix_from_points(mk.Euclidean(), [(0, 0), (1, 0)])
        assert np.array_equal(m.values, [[0, 1], [1, 0]])

    def test_unit_diagonal_entries(self):
        m = mk.matrix_from_points(mk.Chebyshev(), [(0, 0), (1, 1)])
        assert m.values[0, 1] == 1.0
        m = mk.matrix_from_points(mk.Taxicab(), [(0, 0), (1, 1)])
        assert m.values[0, 1] == 2.0

    def test_symmetric_zero_diagonal(self, rng):
        pts = rng.uniform(-3, 3, size=(10, 2))
        m = mk.matrix_from_points(mk.Euclidean(), list(pts))
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0.0)


class TestDistanceMatrixType:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            mk.DistanceMatrix(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mk.DistanceMatrix(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_ragged_rows_rejected_as_not_square(self):
        for rows in ([[0, 1], [1]], [[0, 1], [1, 0], [2]], [[0.0], [1.0, 0.0]]):
            with pytest.raises(ValueError, match="distance matrix must be square, got rows of different lengths"):
                mk.DistanceMatrix(rows)
        # an entry that is not a number keeps numpy's error
        with pytest.raises(ValueError, match="could not convert"):
            mk.DistanceMatrix([[0, "a"], [1, 0]])
        # a sequence in place of an entry is no ragged row list: numpy's
        # "inhomogeneous shape" text used to come through here
        for rows in ([[0, 1], [1, [0, 1]]], [[0, [1]], [1, 0]]):
            with pytest.raises(ValueError, match="^distance matrix entries must be numbers$"):
                mk.DistanceMatrix(rows)

    def test_labels_must_match(self):
        with pytest.raises(ValueError, match="label"):
            mk.DistanceMatrix(np.zeros((2, 2)), labels=("a",))

    def test_asymmetry_allowed_at_construction(self):
        m = mk.DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert m.n == 2


class TestSampleFor:
    def test_real_line_draws_as_the_coordinate_specs_draw(self):
        # n uniform reals in [-1, 1), one per point, whatever --dim asks for
        want = np.random.default_rng(9).uniform(-1.0, 1.0, size=40)
        for dim in (1, 2, 5):
            got = sampling.sample_for(mk.RealLine(), np.random.default_rng(9), 40, dim=dim)
            assert np.array_equal(np.asarray(got, dtype=float).ravel(), want)
            assert mk.verify_axioms(mk.RealLine(), got).all_ok


class TestToleranceConfig:
    def test_defaults(self):
        tol = mk.ToleranceConfig()
        assert tol.abs_tol == 1e-9
        assert tol.rel_tol == 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mk.ToleranceConfig(abs_tol=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN slack passes every triple, an infinite abs_tol flags every pair
        for field in ("abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                mk.ToleranceConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [True, False, np.True_, "1e-9", b"1e-9"], ids=repr)
    def test_bools_strings_and_bytes_refused(self, bad):
        # as finite_radius refuses them for a radius: True is no slack of 1
        for field in ("abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(bad))}$"):
                mk.ToleranceConfig(**{field: bad})

    def test_fields_are_stored_as_floats(self):
        for tol in (*TOLERANCES, mk.ToleranceConfig(0, 1), mk.ToleranceConfig(np.float32(0.5), Fraction(1, 4))):
            assert type(tol.abs_tol) is float and type(tol.rel_tol) is float
        assert repr(mk.ToleranceConfig(0, 1)) == "ToleranceConfig(abs_tol=0.0, rel_tol=1.0)"
        assert mk.ToleranceConfig(np.float32(0.5), Fraction(1, 4)) == mk.ToleranceConfig(0.5, 0.25)
