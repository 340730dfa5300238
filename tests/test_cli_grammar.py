"""A grammar-driven property test of ``cli.main``, run in process.

The grammar builds argv over every subcommand and metric tag, with odd
point strings, ``--map`` values of every JSON type, and point, graph and
matrix files of wrong types and shapes. Inputs stay small (``--random`` at
most 64, grids at most 40 x 40); a cap is only given values past it, which
are refused before anything is built. Every run must exit 0, 1 or 2 with
stderr empty or exactly one ``error: `` line, and any SVG written must parse
as XML and hold only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from metrikos import cli

TAGS = ["euclidean", "taxicab", "chebyshev", "discrete", "realline", "greatcircle", "graphpath", "nope"]
# text where a number belongs: argparse, the point parser and json read some
FIELDS = ["0", "1", "-1", "2", "0.5", "-3.25", "nan", "inf", "-inf", "1e400", "-1e400", "1e-320", "1e308", "-1e308",
          "0x10", "1_0", "", " 2", "1e", "+.5", "x"]
POINTS = st.one_of(
    st.sampled_from(["0,0", "1,2", "0", "3", "0,0,1", "1,0,0", "0.6,0.8,0", "1,2,3"]),
    st.lists(st.sampled_from(FIELDS), min_size=1, max_size=14).map(",".join),
)
# floats as argparse's float() reads them
FLOATS = st.sampled_from(["0", "1", "0.5", "-1", "1e-300", "2048", "1e308", "nan", "inf", "-inf", "1e400"])
LATTICE = st.sampled_from(["0,0", "1,1", "3,2", "39,39", "-1,0", "0", "a,b", "0,0,0", "5,", "1_0,1", "0x1,0", " 1,1"])

# JSON leaves; "@..." strings become raw JSON tokens that json.dumps cannot
# write: a float past the float range, NaN and Infinity, and a 400-digit int
RAW = {"@1e400": "1e400", "@-1e400": "-1e400", "@NaN": "NaN", "@Infinity": "Infinity", "@huge": "1" + "0" * 400}
LEAVES = st.sampled_from([True, False, None, "0.5", "x", 0, 1, 2, -2, 0.5, 3.25, 1e308, *RAW])
JSON = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from("ab"), kids, max_size=2),
                    max_leaves=10)
NUMBER = st.sampled_from([0, 1, -2, 0.5, 3.25, 0.785, 1e308, "@1e400", "@huge"])
MAP_FIELDS = {
    "rotation": ("theta", NUMBER),
    "translation": ("a", st.lists(NUMBER, min_size=2, max_size=2)),
    "reflect_about_point": ("a", st.lists(NUMBER, min_size=2, max_size=2)),
    "orthogonal": ("matrix", st.sampled_from([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]]])),
}
MAP_TAGS = [*MAP_FIELDS, "identity", "reflect_origin", "reflect_x1", "reflect_x2", "swap_axes", "nope"]


def dumps(value) -> str:
    text = json.dumps(value)
    for key, token in RAW.items():
        text = text.replace(json.dumps(key), token)
    return text


@st.composite
def map_json(draw):
    """A --map value: mostly an object with a tag and a field that is a
    number, a well-formed array or any JSON value, sometimes any JSON or
    text that is not JSON."""
    kind = draw(st.sampled_from(["object"] * 6 + ["json", "text"]))
    if kind == "json":
        return dumps(draw(JSON)), None
    if kind == "text":
        return draw(st.sampled_from(["{not json", '{"map": "translation", "a": [1, 2', "[" * 50, ""])), None
    tag = draw(st.sampled_from(MAP_TAGS))
    data = {"map": tag}
    if tag in MAP_FIELDS:
        key, good = MAP_FIELDS[tag]
        if draw(st.booleans()):
            data[key] = draw(st.one_of(good, LEAVES, st.lists(LEAVES, min_size=2, max_size=2), JSON))
    return dumps(data), data


@st.composite
def points_file(draw):
    kind = draw(st.sampled_from(["good", "good", "sphere", "json", "odd", "big"]))
    if kind == "big":  # past the cap of 2048 points
        return dumps({"dim": 2, "points": [[i, 0] for i in range(2049)]})
    if kind == "json":
        return dumps(draw(JSON))
    if kind == "sphere":
        return dumps({"dim": 3, "points": draw(st.lists(st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, -1], [0.6, 0.8, 0]]),
                                                        min_size=1, max_size=6))})
    dim = draw(st.integers(1, 3))
    row = st.lists(st.floats(-4, 4, allow_nan=False) | st.integers(-3, 3), min_size=dim, max_size=dim)
    if kind == "odd":
        dim = draw(st.sampled_from([dim, 0, -1, 2.5, True, "2", None]))
        row = st.one_of(row, JSON)
    return dumps({"dim": dim, "points": draw(st.lists(row, max_size=8))})


@st.composite
def graph_file(draw):
    kind = draw(st.sampled_from(["good", "good", "json", "odd", "big"]))
    if kind == "big":  # past the cap of 250,000 vertices
        return dumps({"vertices": 250_001, "edges": []})
    if kind == "json":
        return dumps(draw(JSON))
    n = draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1, 0.5, 2.5, 3])).map(list)
    vertices = n
    if kind == "odd":
        vertices = draw(st.sampled_from([n, 0, -1, 2.5, True, "3", None]))
        edge = st.one_of(edge, JSON)
    data = {"vertices": vertices, "edges": draw(st.lists(edge, max_size=10))}
    if draw(st.booleans()):
        data["coords"] = draw(st.one_of(st.just([[i, 0] for i in range(n)]), JSON))
    return dumps(data)


@st.composite
def matrix_file(draw):
    kind = draw(st.sampled_from(["good", "good", "odd", "big"]))
    if kind == "big":  # past the cap of 2048 rows
        return "1,1,1\n" * 2049
    n = draw(st.integers(1, 5))
    cell = st.sampled_from(["0", "1", "2", "0.5", "3"])
    if kind == "odd":
        cell = st.sampled_from(["0", "1", "-1", "nan", "inf", "1e400", "x", "", " 2", "1_0", "0x10"])
    rows = [",".join(draw(st.lists(cell, min_size=n, max_size=n))) for _ in range(n)]
    if kind == "odd" and draw(st.booleans()):
        rows = draw(st.lists(st.sampled_from(rows + ["1,2", "", "a,b,c", '"1"']), max_size=6))
    if draw(st.booleans()):
        rows.insert(0, ",".join("abcde"[:n]))  # a label header
    return "\n".join(rows) + "\n"


@st.composite
def invocation(draw):
    """(argv, files to write, the --map object or None, the --out name or None)."""
    command = draw(st.sampled_from(["dist", "check", "ball-svg", "isometry", "grid"]))
    files = {}

    def metric_source():
        how = draw(st.sampled_from(["metric"] * 4 + ["graph", "matrix", "graph-missing", "none"]))
        if how == "metric":
            return [f"--metric={draw(st.sampled_from(TAGS))}"]
        if how == "graph":
            files["g.json"] = draw(graph_file())
            return ["--metric=graphpath", "--graph=g.json"]
        if how == "matrix":
            files["m.csv"] = draw(matrix_file())
            return ["--matrix=m.csv"]
        return ["--metric=graphpath"] if how == "graph-missing" else []

    def sample_source():
        how = draw(st.sampled_from(["random", "random", "random", "points", "none"]))
        if how == "points":
            files["p.json"] = draw(points_file())
            return ["--points=p.json"]
        if how == "none":
            return []
        n = draw(st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 2049, 10**6])))
        dim = draw(st.one_of(st.just(2), st.integers(1, 4), st.sampled_from([0, 257])))  # 2 for a plane map
        return [f"--random={n}", f"--dim={dim}", f"--seed={draw(st.integers(0, 3))}"]

    def tolerances():
        return [f"--abs-tol={draw(FLOATS)}", f"--rel-tol={draw(FLOATS)}"] if draw(st.booleans()) else []

    the_map, out = None, None
    if command == "dist":
        argv = [*metric_source(), f"-p={draw(POINTS)}", f"-q={draw(POINTS)}"]
    elif command == "check":
        argv = [*metric_source(), *sample_source(), *tolerances()]
    elif command == "isometry":
        text, the_map = draw(map_json())
        argv = [f"--map={text}", *metric_source(), *sample_source(), *tolerances()]
    elif command == "ball-svg":
        out = draw(st.sampled_from(["ball.svg", "ball.svg", os.path.join("missing", "ball.svg")]))
        samples = draw(st.sampled_from([0, 7, 8, 9, 64, 100_001]))
        argv = [f"--metric={draw(st.sampled_from(TAGS))}", f"--center={draw(POINTS)}", f"--radius={draw(FLOATS)}",
                f"--samples={samples}", f"--out={out}"]
    else:
        small = st.tuples(st.sampled_from([-1, 0, 1, 2, 5, 40]), st.sampled_from([-1, 0, 1, 3, 40]))
        width, height = draw(st.one_of(small, st.sampled_from([(501, 500), (250_001, 1), (10**6, 10**6)])))
        argv = [str(width), str(height), f"--from={draw(LATTICE)}", f"--to={draw(LATTICE)}"]
    return [command, *argv], files, the_map, out


def isometry_case(data):
    argv = ["isometry", f"--map={json.dumps(data)}", "--metric=euclidean", "--random=4", "--dim=2"]
    return argv, {}, data, None


def refused_field(data) -> bool:
    """A known map's field that is a bool, null or a string, or a list
    holding a string or null: no reading of it gives numbers."""
    if not isinstance(data, dict) or data.get("map") not in MAP_FIELDS:
        return False
    value = data.get(MAP_FIELDS[data["map"]][0])

    def leaves(v):
        return [x for item in v for x in leaves(item)] if isinstance(v, list) else [v]

    return value is None or isinstance(value, bool) or any(x is None or (isinstance(x, str) and x not in RAW) for x in leaves(value))


def svg_numbers_are_finite(path) -> bool:
    numbers = []
    for element in ET.parse(path).getroot().iter():
        for value in element.attrib.values():
            for token in value.replace(",", " ").split():
                try:
                    numbers.append(float(token))
                except ValueError:  # a colour, a command letter, a font name
                    pass
    return bool(numbers) and all(map(math.isfinite, numbers))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocation())
# each field was once read by float(), as 1.0, 0.5 and (1.0, 2.0), and the map passed as an isometry
@example(isometry_case({"map": "rotation", "theta": True}))
@example(isometry_case({"map": "rotation", "theta": "0.5"}))
@example(isometry_case({"map": "translation", "a": [True, "2"]}))
# a non-finite point of many coordinates: its error once showed the array's repr over two lines
@example((["dist", "--metric=euclidean", f"-p=nan,{','.join(['1e308'] * 13)}", f"-q={','.join(['1'] * 14)}"], {}, None, None))
# a slack past the float range once warned of an overflow on stderr
@example((["isometry", '--map={"map": "identity"}', "--metric=euclidean", "--random=2", "--dim=2", "--abs-tol=1e308",
           "--rel-tol=1e308"], {}, {"map": "identity"}, None))
def test_every_invocation_exits_0_1_or_2_with_at_most_one_error_line(case):
    argv, files, the_map, out = case
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(here)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), (argv, err)
        assert (code == 2) == bool(err), (argv, code, err)
        if refused_field(the_map):
            assert code == 2, (argv, stdout.getvalue())
        if out is not None:
            written = os.path.exists(os.path.join(tmp, out))
            assert written == (code == 0), (argv, code)
            if written:
                assert svg_numbers_are_finite(os.path.join(tmp, out)), argv
