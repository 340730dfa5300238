"""The package's classes of records: metrics, tolerances, balls, maps, figures.

For each class: positional and keyword construction with the same defaults,
the validation errors and the order they are checked in, the repr text,
equality and hashing (by value for tolerances, viewports, the field-less
metrics, reports and scenes; by identity for the rest), immutability, and
round trips through ``copy`` and ``pickle``. The last test checks that
importing the CLI loads no ``dataclasses``.
"""

import copy
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import metrikos as mk
from metrikos.svg import SvgScene, Viewport

GRAPH = mk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
POLYLINE = mk.Polyline([(0, 0), (1, 0), (1, 2)])
MATRIX = mk.DistanceMatrix([[0, 1], [1, 0]], labels=("a", "b"))
SQUARE = [(1, -1), (1, 1), (-1, 1), (-1, -1)]  # the Chebyshev circle of radius 1
ROTATION = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
WITNESS = mk.Witness("triangle", (0, 1, 2), 3.0, 2.0)
FIELDLESS = (mk.Euclidean, mk.Taxicab, mk.Chebyshev, mk.Discrete, mk.RealLine, mk.GreatCircle)

# (class, constructor arguments in parameter order, parameter names, repr)
CASES = [
    (mk.ToleranceConfig, (1e-3, 1e-6), ("abs_tol", "rel_tol"), "ToleranceConfig(abs_tol=0.001, rel_tol=1e-06)"),
    (
        mk.DistanceMatrix,
        ([[0, 1], [1, 0]], ("a", "b")),
        ("values", "labels"),
        f"DistanceMatrix(values={np.array([[0.0, 1.0], [1.0, 0.0]])!r}, labels=('a', 'b'))",
    ),
    *[(cls, (), (), f"{cls.__name__}()") for cls in FIELDLESS],
    (mk.GraphPath, (GRAPH,), ("graph",), f"GraphPath(graph={GRAPH!r})"),
    (mk.PolylineArc, (POLYLINE,), ("polyline",), f"PolylineArc(polyline={POLYLINE!r})"),
    (
        mk.Subspace,
        (mk.Euclidean(), frozenset({(0.0, 0.0)})),
        ("base", "allowed"),
        "Subspace(base=Euclidean(), allowed=frozenset({(0.0, 0.0)}))",
    ),
    (mk.MatrixMetric, (MATRIX,), ("matrix",), f"MatrixMetric(matrix={MATRIX!r})"),
    (
        mk.AxiomReport,
        ([WITNESS],),
        ("witnesses",),
        "AxiomReport(witnesses=[Witness(axiom='triangle', indices=(0, 1, 2), lhs=3.0, rhs=2.0)])",
    ),
    (mk.Circle2D, ((1, 2), 3), ("center", "radius"), f"Circle2D(center={np.array([1.0, 2.0])!r}, radius=3.0)"),
    (
        mk.Circle3D,
        ((0, 0, 1), 2, (0, 0, 2)),
        ("center", "radius", "normal"),
        f"Circle3D(center={np.array([0.0, 0.0, 1.0])!r}, radius=2.0, normal={np.array([0.0, 0.0, 1.0])!r})",
    ),
    (
        mk.Ball,
        (mk.Taxicab(), (1, 2), 3),
        ("metric", "center", "radius"),
        f"Ball(metric=Taxicab(), center={np.array([1.0, 2.0])!r}, radius=3.0)",
    ),
    (
        mk.BoundaryPolyline,
        ("chebyshev", (0, 0), 1, SQUARE),
        ("metric_tag", "center", "radius", "samples"),
        f"BoundaryPolyline(metric_tag='chebyshev', center={np.zeros(2)!r}, radius=1.0, "
        f"samples={np.array(SQUARE, dtype=float)!r})",
    ),
    (
        mk.PlaneMap,
        ([[0, -1], [1, 0]], (1, 2)),
        ("linear", "offset"),
        f"PlaneMap(linear={np.array([[0.0, -1.0], [1.0, 0.0]])!r}, offset={np.array([1.0, 2.0])!r})",
    ),
    (mk.SphereMap, (ROTATION,), ("linear",), f"SphereMap(linear={np.array(ROTATION, dtype=float)!r})"),
    (Viewport, (2.0, 10.0, 20.0), ("scale", "x_shift", "y_shift"), "Viewport(scale=2.0, x_shift=10.0, y_shift=20.0)"),
    (SvgScene, (["<path/>"],), ("elements",), "SvgScene(elements=['<path/>'])"),
]
CASE_IDS = [case[0].__name__ for case in CASES]

BY_VALUE = {mk.ToleranceConfig, Viewport, *FIELDLESS}
MUTABLE = {mk.AxiomReport, SvgScene}  # by value, and unhashable
FROZEN_CASES = [case for case in CASES if case[0] not in MUTABLE]


@pytest.mark.parametrize("cls, args, names, text", CASES, ids=CASE_IDS)
def test_positional_and_keyword_construction_agree(cls, args, names, text):
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert repr(by_position) == repr(by_keyword) == text
    assert cls.__match_args__ == names


def test_defaults():
    assert repr(mk.ToleranceConfig()) == "ToleranceConfig(abs_tol=1e-09, rel_tol=1e-12)"
    assert mk.DistanceMatrix([[0]]).labels is None
    for cls, field in ((mk.AxiomReport, "witnesses"), (SvgScene, "elements")):
        a, b = cls(), cls()
        assert getattr(a, field) == getattr(b, field) == []
        assert getattr(a, field) is not getattr(b, field)  # no list shared between instances
        getattr(a, field).append("x")
        setattr(b, field, ["y"])  # the two classes that are not frozen
        assert (getattr(a, field), getattr(b, field)) == (["x"], ["y"])
        assert repr(cls()) == f"{cls.__name__}({field}=[])"


@pytest.mark.parametrize("cls, args, names, text", CASES, ids=CASE_IDS)
def test_equality_and_hashing(cls, args, names, text):
    a, b = cls(*args), cls(*args)
    assert a == a and not a != a
    if cls in BY_VALUE or cls in MUTABLE:
        assert a == b and not a != b
    else:  # numpy fields compare by identity, as every other class does
        assert a != b and not a == b
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(a)
        assert len({a, b}) == (1 if cls in BY_VALUE else 2)
        assert a in {a} and (b in {a}) == (cls in BY_VALUE)


def test_value_equality_reads_the_fields_and_the_class():
    assert mk.ToleranceConfig() != mk.ToleranceConfig(1e-3, 1e-6)
    assert hash(mk.ToleranceConfig(0.0, 0.0)) == hash(mk.ToleranceConfig(0.0, 0.0))
    assert Viewport(1.0, 2.0, 3.0) != Viewport(1.0, 2.0, 4.0)
    assert mk.AxiomReport() != mk.AxiomReport([WITNESS])
    assert SvgScene() != SvgScene(["<path/>"])
    assert len(set(cls() for cls in FIELDLESS)) == len(FIELDLESS)
    assert mk.Euclidean() != mk.Taxicab() and mk.ToleranceConfig() != (1e-9, 1e-12)

    class Inflated(mk.Euclidean):
        pass

    assert Inflated() == Inflated() and Inflated() != mk.Euclidean() and mk.Euclidean() != Inflated()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: mk.ToleranceConfig(-1.0), ValueError, "abs_tol must be finite and nonnegative, got -1.0"),
        (lambda: mk.ToleranceConfig(rel_tol=math.nan, abs_tol=-1), ValueError, "abs_tol must be finite and nonnegative, got -1"),
        (lambda: mk.ToleranceConfig(0.0, math.inf), ValueError, "rel_tol must be finite and nonnegative, got inf"),
        (lambda: mk.DistanceMatrix([[0, 1]], labels=("a",)), ValueError, "distance matrix must be square and nonempty, got shape (1, 2)"),
        (lambda: mk.DistanceMatrix([[0, 1], [1, 0]], ("a",)), ValueError, "label count must match matrix size"),
        (lambda: mk.Circle2D((0, 0, 0), -1), ValueError, "expected a 2-dimensional point, got 3 coordinates"),
        (lambda: mk.Circle2D((0, 0), 0), ValueError, "radius must be positive, got 0.0"),
        (lambda: mk.Circle3D((0, 0), -1, (0, 0)), ValueError, "expected a 3-dimensional point, got 2 coordinates"),
        (lambda: mk.Circle3D((0, 0, 0), -1, (0, 0)), ValueError, "radius must be positive, got -1.0"),
        (lambda: mk.Circle3D((0, 0, 0), 1, (0, 0, 0)), ValueError, "circle normal must be nonzero"),
        (lambda: mk.Ball(mk.Euclidean(), (0, "x"), -1), ValueError, "radius must be positive, got -1.0"),
        (lambda: mk.Ball(mk.Euclidean(), (0, "x"), 1), mk.CarrierError, "point coordinates must be numbers, got (0, 'x')"),
        (lambda: mk.Ball(mk.GreatCircle(), (1, 0, 0.5), 1), mk.CarrierError, "point is not on the unit sphere: |p| = 1.118033988749895"),
        (lambda: mk.BoundaryPolyline("nope", (0,), 1, []), ValueError, "expected a 2-dimensional point, got 1 coordinates"),
        (lambda: mk.BoundaryPolyline("nope", (0, 0), 1, [(1, 0, 0)]), ValueError, "expected a 2-dimensional point, got 3 coordinates"),
        (lambda: mk.BoundaryPolyline("nope", (0, 0), 1, [(1, 0)]), KeyError, "'nope'"),
        (lambda: mk.BoundaryPolyline("taxicab", (0, 0), 1, [(2, 0)]), ValueError, "boundary sample [2. 0.] is at distance 2.0, expected 1.0"),
        (lambda: mk.PlaneMap(np.eye(3), (0, math.inf)), ValueError, "plane map needs a 2x2 linear part and a 2-vector offset"),
        (lambda: mk.PlaneMap(np.eye(2), (0, math.inf)), ValueError, "map entries must be finite"),
        (lambda: mk.SphereMap(np.eye(2)), ValueError, "sphere map needs a 3x3 matrix"),
        (lambda: mk.SphereMap(2 * np.eye(3)), ValueError, "matrix is not orthogonal: max |A^T A - I| entry = 3"),
    ],
)
def test_validation_errors_in_their_order(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("cls, args, names, text", FROZEN_CASES, ids=[case[0].__name__ for case in FROZEN_CASES])
def test_frozen_classes_refuse_setting_and_deleting(cls, args, names, text):
    obj = cls(*args)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=re.escape(f"cannot assign to field {name!r}")):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=re.escape(f"cannot delete field {name!r}")):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize(
    "obj",
    [mk.ToleranceConfig(1e-3, 1e-6), mk.Ball(mk.Taxicab(), (1, 2), 3), mk.Euclidean()],
    ids=["ToleranceConfig", "Ball", "Euclidean"],
)
def test_copy_and_pickle_round_trips(obj):
    for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and repr(twin) == repr(obj)
        assert (twin == obj) == (type(obj) is not mk.Ball)
        with pytest.raises(AttributeError):
            twin.extra = 1
    ball = pickle.loads(pickle.dumps(mk.Ball(mk.Taxicab(), (1, 2), 3)))
    assert (1.5, 2.5) in ball and (4, 2) not in ball


def test_metric_spec_stays_an_open_base():
    class Scaled(mk.MetricSpec):
        """A plain subclass that sets its attributes in ``__init__``."""

        name = "scaled"

        def __init__(self, k):
            self.k = k

        def validate_point(self, x):
            return float(x)

        def _eval(self, x, y):
            return self.k * abs(x - y)

    spec = Scaled(2.0)
    spec.k = 3.0
    assert mk.distance(spec, 0, 1) == 3.0 and 1 in mk.Ball(spec, 0, 4.0)
    assert spec != Scaled(3.0) and repr(spec).startswith("<")


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys; import metrikos.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
