"""On-disk formats: point-set JSON, graph JSON, and distance-matrix CSV.

Point sets:   {"dim": n, "points": [[x, y, ...], ...]}
Graphs:       {"vertices": n, "edges": [[u, v, length], ...],
               "coords": [[x, y], ...]}   (coords optional)
Matrix CSV:   n rows of n comma-separated decimals, with an optional first
              header row of labels. All values must be finite.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from .core import DistanceMatrix
from .graphs import WeightedGraph
from .points import as_integer, as_points

# Graph files are capped as the CLI's grids are: at most this many vertices,
# and at most the edges of the largest grid under it, the 500 x 500 one.
MAX_GRAPH_VERTICES = 250_000
MAX_GRAPH_EDGES = 2 * (MAX_GRAPH_VERTICES - math.isqrt(MAX_GRAPH_VERTICES))
# A graph file is at most this many bytes (32 MiB), checked before it is
# parsed: the 500 x 500 grid with random float lengths in [0.1, 2) and random
# 2-D float coords in [-1, 1), as ``json.dumps`` writes it, takes 28.0 MiB
# (17.6 MiB without coords).
MAX_GRAPH_FILE_BYTES = 2**25

# A matrix CSV holds at most this many rows and columns of data; reading
# stops at the first row past either.
MAX_MATRIX_ROWS = 2048
# A point-set file is at most this many bytes (16 MiB), checked before it is
# parsed: room for 2048 points of 256 coordinates as ``dump_points`` writes
# them, one coordinate of up to 24 characters per line.
MAX_POINTS_FILE_BYTES = 2**24


def parse_json(text: str, source) -> object:
    """``json.loads(text)``, or a ValueError that names ``source`` (a file or
    a flag): for a syntax error, json's message with the source in front,
    and for JSON nested past the interpreter's recursion limit, which json
    raises as a RecursionError, a message of its own."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{source}: {err}") from None
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to parse") from None


def load_points(path) -> tuple[int, np.ndarray]:
    """Read a point-set JSON file; returns (dim, points), an (n, dim) array.
    A file past MAX_POINTS_FILE_BYTES bytes is refused before it is parsed."""
    with open(path) as f:
        size = os.fstat(f.fileno()).st_size
        if size > MAX_POINTS_FILE_BYTES:
            raise ValueError(f"{path}: a point file of {size} bytes is past the cap of {MAX_POINTS_FILE_BYTES} bytes")
        data = parse_json(f.read(), path)
    if not isinstance(data, dict) or "dim" not in data or not isinstance(data.get("points"), list):
        raise ValueError(f"{path}: expected an object with 'dim' and a 'points' list")
    dim = as_integer(data["dim"], f"{path}: dim")
    if dim < 1:
        raise ValueError(f"{path}: dim must be a positive integer")
    return dim, as_points(data["points"], dim=dim)


def dump_points(path, points) -> None:
    pts = as_points(points)
    if not len(pts):
        raise ValueError("point set must be nonempty")
    payload = {"dim": pts.shape[1], "points": pts.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_graph(path) -> WeightedGraph:
    """Read a graph JSON file into a WeightedGraph, which reads the decoded
    edge lists as they are. A file past MAX_GRAPH_FILE_BYTES bytes is
    refused before it is parsed, and one past MAX_GRAPH_VERTICES vertices
    or MAX_GRAPH_EDGES edges before the graph is built."""
    with open(path) as f:
        size = os.fstat(f.fileno()).st_size
        if size > MAX_GRAPH_FILE_BYTES:
            raise ValueError(f"{path}: a graph file of {size} bytes is past the cap of {MAX_GRAPH_FILE_BYTES} bytes")
        data = parse_json(f.read(), path)
    edges = data.get("edges") if isinstance(data, dict) else None
    if not (isinstance(edges, list) and "vertices" in data):
        raise ValueError(f"{path}: expected an object with 'vertices' and an 'edges' list of [u, v, length] lists")
    vertices = as_integer(data["vertices"], "vertex_count")
    if vertices > MAX_GRAPH_VERTICES:
        raise ValueError(f"{path}: a graph of {vertices} vertices is past the cap of {MAX_GRAPH_VERTICES} vertices")
    if len(edges) > MAX_GRAPH_EDGES:
        raise ValueError(f"{path}: a graph of {len(edges)} edges is past the cap of {MAX_GRAPH_EDGES} edges")
    return WeightedGraph(vertices, edges, coords=data.get("coords"))


def load_matrix_csv(path) -> DistanceMatrix:
    """Read a distance-matrix CSV, detecting an optional label header row.

    Only the CSV format is checked here: the file needs data rows, and at
    most MAX_MATRIX_ROWS rows and columns of them; reading stops at the
    first row past either. The ``DistanceMatrix`` that holds them parses
    the cells, as ``float()`` does, and checks that they are finite and
    square; its error is raised with the path in front.
    """
    rows = []
    with open(path, newline="") as f:
        try:
            for row in csv.reader(f):
                if len(row) > MAX_MATRIX_ROWS:
                    raise ValueError(
                        f"{path}: a matrix of {len(row)} columns is past the cap of {MAX_MATRIX_ROWS} rows and columns"
                    )
                if any(map(str.strip, row)):  # not a blank row
                    rows.append(row)
                    if len(rows) > MAX_MATRIX_ROWS + 1:  # past the data rows and a header
                        break
        except csv.Error as err:  # such as a field past csv.field_size_limit()
            raise ValueError(f"{path}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    labels = None
    try:
        np.array(rows[0], dtype=float)
    except ValueError:  # a label header row
        labels, rows = tuple(map(str.strip, rows[0])), rows[1:]
        if not rows:
            raise ValueError(f"{path}: header row but no data rows")
    if len(rows) > MAX_MATRIX_ROWS:
        raise ValueError(
            f"{path}: a matrix of more than {MAX_MATRIX_ROWS} rows is past the cap of {MAX_MATRIX_ROWS} rows and columns"
        )
    try:
        return DistanceMatrix(rows, labels=labels)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
