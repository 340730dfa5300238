"""Command-line front end.

Subcommands: dist, check, ball-svg, isometry, grid. Exit codes follow one
contract everywhere: 0 success / all checks pass, 1 a certification failed
(an axiom or isometry violation was found), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import fileio, sampling
from .balls import _SHAPES, DEFAULT_BOUNDARY_SAMPLES, MIN_BOUNDARY_SAMPLES, ball_boundary
from .core import (
    AXIOMS,
    DEFAULT_TOL,
    AxiomReport,
    Chebyshev,
    Discrete,
    Euclidean,
    GraphPath,
    GreatCircle,
    MatrixMetric,
    MetricSpec,
    RealLine,
    Taxicab,
    ToleranceConfig,
    distance,
    verify_axioms,
)
from .graphs import count_geodesics, grid_graph, grid_vertex, shortest_path_distance
from .isometry import SphereMap, is_isometry, named_map
from .svg import ball_figure

MAX_PRINTED_WITNESSES = 10

# Input caps, checked before anything is built: certifying N points takes
# O(N^3) time and O(N^2) memory, so a sample holds at most MAX_RANDOM_POINTS
# points (as many as a matrix file may) whether it comes from --random,
# --points or --matrix; a W x H grid holds W * H vertices (as many as a
# graph file may), random points hold --dim coordinates each, and a ball
# boundary --samples points.
MAX_RANDOM_POINTS = fileio.MAX_MATRIX_ROWS
MAX_GRID_VERTICES = fileio.MAX_GRAPH_VERTICES
MAX_DIM = 256
MAX_BOUNDARY_SAMPLES = 100_000

_PLAIN_METRICS = {spec.name: spec for spec in (Euclidean, Taxicab, Chebyshev, Discrete, RealLine, GreatCircle)}


def _fmt(x: float) -> str:
    """Decimal with 12 significant digits, locale-independent."""
    return format(float(x), ".12g")


def _fmt_point(p) -> str:
    return ",".join(map(_fmt, np.ravel(p)))


def _resolve_metric(args) -> MetricSpec:
    matrix_path = getattr(args, "matrix", None)
    if matrix_path:
        return MatrixMetric(fileio.load_matrix_csv(matrix_path))
    tag = getattr(args, "metric", None)
    if tag is None:
        raise ValueError("either --metric or --matrix is required")
    if tag == GraphPath.name:
        graph_path = getattr(args, "graph", None)
        if not graph_path:
            raise ValueError("--metric graphpath requires --graph FILE")
        return GraphPath(fileio.load_graph(graph_path))
    try:
        return _PLAIN_METRICS[tag]()
    except KeyError:
        raise ValueError(f"unknown metric tag {tag!r}") from None


def _parse_cli_point(spec: MetricSpec, text: str):
    if isinstance(spec, (GraphPath, MatrixMetric)):
        return int(text)
    return [float(c) for c in text.split(",")]


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _load_sample(spec: MetricSpec, args) -> list:
    """The sample to certify, refused past MAX_RANDOM_POINTS points whatever
    its source, before any distance table is built."""
    if args.matrix:
        source, sample = f"--matrix {args.matrix}", list(range(spec.matrix.n))
    elif args.points:
        source, sample = f"--points {args.points}", fileio.load_points(args.points)[1]
    elif args.random is not None:
        if not 0 < args.random <= MAX_RANDOM_POINTS:
            raise ValueError(f"--random takes 1 to {MAX_RANDOM_POINTS} points, got {args.random}")
        if not 0 < args.dim <= MAX_DIM:
            raise ValueError(f"--dim takes 1 to {MAX_DIM} coordinates, got {args.dim}")
        rng = np.random.default_rng(args.seed)
        return sampling.sample_for(spec, rng, args.random, dim=args.dim)
    else:
        raise ValueError("no sample given: use --points FILE or --random N")
    if len(sample) > MAX_RANDOM_POINTS:
        raise ValueError(f"{source} holds {len(sample)} points, past the cap of {MAX_RANDOM_POINTS}")
    return sample


def _print_report(report: AxiomReport) -> None:
    for axiom in AXIOMS:
        print(f"{axiom:<14}{'FAIL' if report.for_axiom(axiom) else 'PASS'}")
    for w in report.witnesses[:MAX_PRINTED_WITNESSES]:
        idx = ",".join(str(i) for i in w.indices)
        print(f"witness {w.axiom} ({idx}): lhs {_fmt(w.lhs)} rhs {_fmt(w.rhs)}")
    if len(report.witnesses) > MAX_PRINTED_WITNESSES:
        print(f"... {len(report.witnesses) - MAX_PRINTED_WITNESSES} further witnesses")
    print(f"RESULT {'PASS' if report.all_ok else 'FAIL'}")


def _map_field(data: dict, key: str, shape: tuple, usage: str) -> np.ndarray:
    """The numbers under ``key`` as an array of ``shape``, or ValueError."""
    try:
        arr = np.array(data[key], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: a JSON int past the float range
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"{data['map']} needs {usage}")
    return arr


def _map_from_json(text: str):
    data = fileio.parse_json(text, "--map")
    if not isinstance(data, dict) or not isinstance(data.get("map"), str):
        raise ValueError('map JSON must be an object with a "map" tag')
    tag = data["map"]
    if tag == "orthogonal":
        return SphereMap(_map_field(data, "matrix", (3, 3), '"matrix": a 3x3 array'))
    if tag in ("translation", "reflect_about_point"):
        return named_map(tag, *_map_field(data, "a", (2,), '"a": [a1, a2]').tolist())
    if tag == "rotation":
        return named_map(tag, float(_map_field(data, "theta", (), '"theta": a number')))
    return named_map(tag)


def cmd_dist(args) -> int:
    spec = _resolve_metric(args)
    p = _parse_cli_point(spec, args.point_p)
    q = _parse_cli_point(spec, args.point_q)
    print(_fmt(distance(spec, p, q)))
    return 0


def cmd_check(args) -> int:
    spec = _resolve_metric(args)
    sample = _load_sample(spec, args)
    report = verify_axioms(spec, sample, _tolerances(args))
    _print_report(report)
    return 0 if report.all_ok else 1


def cmd_ball_svg(args) -> int:
    if not MIN_BOUNDARY_SAMPLES <= args.samples <= MAX_BOUNDARY_SAMPLES:
        raise ValueError(
            f"--samples takes {MIN_BOUNDARY_SAMPLES} to {MAX_BOUNDARY_SAMPLES} boundary samples, got {args.samples}"
        )
    spec = _resolve_metric(args)
    boundary = ball_boundary(spec, _parse_cli_point(spec, args.center), args.radius, n=args.samples)
    ball_figure(boundary).write(args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_isometry(args) -> int:
    spec = _resolve_metric(args)
    the_map = _map_from_json(args.map)
    sample = _load_sample(spec, args)
    ok, witness = is_isometry(the_map, spec, sample, _tolerances(args))
    if ok:
        print("ISOMETRY")
        return 0
    print("NOT ISOMETRY")
    print(
        f"witness {_fmt_point(witness.x)} | {_fmt_point(witness.y)}: "
        f"before {_fmt(witness.before)} after {_fmt(witness.after)}"
    )
    return 1


def cmd_grid(args) -> int:
    if min(args.width, args.height) > 0 and args.width * args.height > MAX_GRID_VERTICES:
        raise ValueError(f"a {args.width}x{args.height} grid is past the cap of {MAX_GRID_VERTICES} vertices")
    g = grid_graph(args.width, args.height)

    def lattice_vertex(text: str) -> int:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"lattice vertex must be I,J, got {text!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < args.width and 0 <= j < args.height):
            raise ValueError(f"lattice vertex ({i},{j}) outside the {args.width}x{args.height} grid")
        return grid_vertex(args.width, i, j)

    u = lattice_vertex(args.src)
    v = lattice_vertex(args.dst)
    print(f"distance {_fmt(shortest_path_distance(g, u, v))}")
    print(f"count {count_geodesics(g, u, v)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metrikos",
        description="Distance evaluation, metric-axiom certification, isometry checks, "
        "grid path metrics, and unit-ball SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerances(p):
        tol = DEFAULT_TOL
        p.add_argument("--abs-tol", type=float, default=tol.abs_tol, help="absolute slack (default %(default)s)")
        p.add_argument("--rel-tol", type=float, default=tol.rel_tol, help="relative slack (default %(default)s)")

    def add_metric_source(p):
        p.add_argument("--metric", help=f"metric tag ({', '.join([*_PLAIN_METRICS, GraphPath.name])})")
        p.add_argument("--matrix", help="distance-matrix CSV (points are row indices)")
        p.add_argument("--graph", help="graph JSON for --metric graphpath")

    def add_sample_source(p):
        p.add_argument("--points", help="point-set JSON file")
        p.add_argument(
            "--random", type=int, metavar="N", help=f"certify N seeded random carrier points, N <= {MAX_RANDOM_POINTS}"
        )
        p.add_argument("--seed", type=int, default=0, help="RNG seed for --random (default 0)")
        p.add_argument(
            "--dim",
            type=int,
            default=sampling.DEFAULT_DIM,
            help=f"dimension for random coordinate points, 1 to {MAX_DIM} (default %(default)s)",
        )

    p = sub.add_parser("dist", help="print the distance between two points")
    add_metric_source(p)
    p.add_argument("-p", dest="point_p", required=True, help="first point: comma-separated coords or vertex id")
    p.add_argument("-q", dest="point_q", required=True, help="second point")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("check", help="certify the metric axioms on a sample")
    add_metric_source(p)
    add_sample_source(p)
    add_tolerances(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("ball-svg", help="render a metric ball boundary as SVG")
    *drawable, last = _SHAPES
    p.add_argument("--metric", required=True, help=f"{', '.join(drawable)}, or {last}")
    p.add_argument("--center", default="0,0", help="ball center X,Y (default 0,0)")
    p.add_argument("--radius", type=float, required=True, help="ball radius")
    p.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_BOUNDARY_SAMPLES,
        help=f"boundary sample count, {MIN_BOUNDARY_SAMPLES} to {MAX_BOUNDARY_SAMPLES} (default %(default)s)",
    )
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_ball_svg)

    p = sub.add_parser("isometry", help="test whether a map preserves a metric on a sample")
    p.add_argument("--map", required=True, help='map JSON, e.g. {"map": "rotation", "theta": 0.785}')
    add_metric_source(p)
    add_sample_source(p)
    add_tolerances(p)
    p.set_defaults(fn=cmd_isometry)

    p = sub.add_parser("grid", help="street-grid distance and minimal-path count")
    p.add_argument("width", type=int, help=f"grid width; width * height <= {MAX_GRID_VERTICES}")
    p.add_argument("height", type=int, help="grid height")
    p.add_argument("--from", dest="src", required=True, metavar="I,J", help="source lattice point")
    p.add_argument("--to", dest="dst", required=True, metavar="I,J", help="target lattice point")
    p.set_defaults(fn=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry of ``python -m metrikos`` and the ``metrikos`` script:
    ``main`` on ``sys.argv``, with the collector's tracked objects frozen
    before it and again after it.

    What the imports built and what the command built live until the
    process exits, which frees them all anyway. Frozen, no collection pass
    traverses them: not the passes during the command, which still collect
    the objects made after the first freeze, and not the interpreter's last
    one at exit. ``main`` sets nothing for the process, so in-process
    callers keep their collector as it was.
    """
    gc.freeze()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
