"""Seeded inputs and their oracles for the two benchmark workloads.

Nothing here imports metrikos: every expected answer comes from theory or
from an independent numpy computation, never from the program under test.

Each workload has a CLI plan (argv lists run as ``python -m metrikos ...``
plus a checker per case) and library data (plain numpy arrays, lists and
expected answers that ``libpart.py`` turns into metrikos calls). All
randomness flows from the workload seed through ``rng_for``.
"""

from __future__ import annotations

import json
import math
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Two workloads, so each run can be long enough to ride out a shared host's
# slow spells: ``probes`` carries the graph and grid jobs as well.
WORKLOADS = ("certify", "probes")

# Peak RSS each workload is expected to reach in one process (MB). The
# certify figure is the n=384 taxicab case: verify_axioms holds n^3 temporaries.
EXPECTED_PEAK_MB = {"certify": 1400, "probes": 60}

# A workload's largest case is not started unless this much memory is free.
BIG_CASE_MIN_AVAILABLE_MB = 2600

AXIOMS = ("symmetry", "nonnegativity", "identity", "triangle")
NESTING_KINDS = (
    "euclidean", "taxicab", "chebyshev", "discrete", "realline",
    "greatcircle", "graphpath", "polylinearc", "subspace", "matrix",
)
PLANE_MAPS = (
    "identity", "translation", "reflect_origin", "reflect_x1", "reflect_x2",
    "swap_axes", "rotation", "quarter_turn", "reflect_about_point",
)
# Isometry verdicts from theory: every named map except a rotation by a
# non-multiple of pi/2 preserves all three plane metrics.
ISOMETRY_TABLE = {
    (m, metric): not (m == "rotation" and metric != "euclidean")
    for m in PLANE_MAPS
    for metric in ("euclidean", "taxicab", "chebyshev")
}
SVG_SIZE = 512.0
SVG_VERTEX_TOL_PX = 0.015


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Generator for one input family; stable across processes (no hash())."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def available_mb() -> float:
    """MemAvailable from /proc/meminfo, in MB (inf where it cannot be read)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return math.inf


def require_memory(what: str) -> None:
    free = available_mb()
    if free < BIG_CASE_MIN_AVAILABLE_MB:
        raise MemoryError(
            f"{what} needs about {EXPECTED_PEAK_MB['certify']} MB, but only {free:.0f} MB "
            f"is available (minimum {BIG_CASE_MIN_AVAILABLE_MB} MB); refusing to risk the OOM killer"
        )


class Tally:
    """Operations attempted and the failures among them, one message each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, err) -> None:
        self.attempted += 1
        if err is not None:
            self.failures.append(f"{name}: {err}")


# --- independent distance formulas and generators ---------------------------


def sphere_points(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_graph(rng, n: int, extra: int) -> list[tuple[int, int, float]]:
    """Connected graph: a random spanning tree plus ``extra`` distinct edges."""
    keys = []
    present = set()
    for v in range(1, n):
        key = (int(rng.integers(0, v)), v)
        keys.append(key)
        present.add(key)
    while len(keys) < n - 1 + extra:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        key = (min(u, v), max(u, v))
        if u != v and key not in present:
            present.add(key)
            keys.append(key)
    lengths = rng.uniform(0.1, 2.0, size=len(keys))
    return [(u, v, float(w)) for (u, v), w in zip(keys, lengths)]


def floyd_warshall(n: int, edges) -> np.ndarray:
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for u, v, w in edges:
        D[u, v] = D[v, u] = min(D[u, v], w)
    via = np.empty_like(D)
    for k in range(n):
        np.add(D[:, k, None], D[None, k, :], out=via)
        np.minimum(D, via, out=D)
    return D


def euclid_matrix(P: np.ndarray) -> np.ndarray:
    return np.hypot(P[:, None, 0] - P[None, :, 0], P[:, None, 1] - P[None, :, 1])


def great_circle(p, q) -> float:
    return math.atan2(float(np.linalg.norm(np.cross(p, q))), float(np.dot(p, q)))


def planted_matrix(rng, n: int):
    """Euclidean distance matrix with one planted triangle violation.

    d(a, c) is raised just above d(a, b) + d(b, c), where b is the unique
    closest detour, by half the gap to the second-closest one. So (a, b, c)
    and (c, b, a) are the only violating triples and (a, b, c), a < c, is
    the first in lexicographic order.
    """
    D = euclid_matrix(rng.uniform(-1.0, 1.0, size=(n, 2)))
    while True:
        a, c = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        sums = D[a] + D[:, c]
        sums[[a, c]] = np.inf
        order = np.argsort(sums)
        b = int(order[0])
        gap = float(sums[order[1]] - sums[b])
        if gap > 1e-6:
            break
    D[a, c] = D[c, a] = float(sums[b]) + gap / 2.0
    return D, (a, b, c)


def write_points(path: str, P: np.ndarray) -> None:
    payload = {"dim": int(P.shape[1]), "points": [[float(x) for x in row] for row in P]}
    with open(path, "w") as f:
        json.dump(payload, f)


def write_graph(path: str, n: int, edges) -> None:
    with open(path, "w") as f:
        json.dump({"vertices": n, "edges": [list(e) for e in edges]}, f)


def write_matrix_csv(path: str, D: np.ndarray) -> None:
    with open(path, "w") as f:
        for row in D:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


def fmt12(x: float) -> str:
    """The CLI's documented number format: 12 significant digits."""
    return format(float(x), ".12g")


# --- CLI plans ----------------------------------------------------------------

Checker = Callable[[int, str], "str | None"]


@dataclass
class CliCase:
    tag: str
    argv: list[str]
    check: Checker


@dataclass
class CliPlan:
    once: list[CliCase]
    round: list[CliCase]
    big: set[str] = field(default_factory=set)


def _expect(exit_code: int, lines: list[str]) -> Checker:
    want = "".join(line + "\n" for line in lines)

    def check(rc: int, out: str):
        if rc != exit_code:
            return f"exit {rc}, expected {exit_code}"
        if out != want:
            return f"stdout {out[:200]!r}, expected {want[:200]!r}"
        return None

    return check


def _report_lines(failed: dict[str, bool], witnesses=()) -> list[str]:
    lines = [f"{axiom:<14}{'FAIL' if failed.get(axiom) else 'PASS'}" for axiom in AXIOMS]
    lines += witnesses
    lines.append(f"RESULT {'FAIL' if any(failed.values()) else 'PASS'}")
    return lines


def _planted_witness_lines(D, triple) -> list[str]:
    a, b, c = triple
    out = []
    for x, z in ((a, c), (c, a)):
        out.append(f"witness triangle ({x},{b},{z}): lhs {fmt12(D[x, z])} rhs {fmt12(D[x, b] + D[b, z])}")
    return out


def certify_cli(seed: int, workdir: str) -> CliPlan:
    rng = rng_for(seed, "certify/cli")
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    write_points(path("euclid256.json"), rng.uniform(-1.0, 1.0, size=(256, 2)))
    write_points(path("taxi256.json"), rng.uniform(-1.0, 1.0, size=(256, 3)))
    write_points(path("taxi384.json"), rng.uniform(-1.0, 1.0, size=(384, 3)))
    write_points(path("sphere256.json"), sphere_points(rng, 256))
    write_graph(path("g512.json"), 512, random_graph(rng, 512, 512))
    D, triple = planted_matrix(rng, 256)
    write_matrix_csv(path("planted256.csv"), D)
    passing = _expect(0, _report_lines({}))
    graph_seed = str(int(rng.integers(0, 2**31)))
    big = CliCase("check-taxicab-384", ["check", "--metric", "taxicab", "--points", path("taxi384.json")], passing)
    return CliPlan(
        once=[big],
        round=[
            CliCase("check-euclidean-256", ["check", "--metric", "euclidean", "--points", path("euclid256.json")], passing),
            CliCase("check-taxicab-256", ["check", "--metric", "taxicab", "--points", path("taxi256.json")], passing),
            CliCase("check-greatcircle-256", ["check", "--metric", "greatcircle", "--points", path("sphere256.json")], passing),
            CliCase(
                "check-graphpath-128",
                ["check", "--metric", "graphpath", "--graph", path("g512.json"), "--random", "128", "--seed", graph_seed],
                passing,
            ),
            CliCase(
                "check-planted-256",
                ["check", "--matrix", path("planted256.csv")],
                _expect(1, _report_lines({"triangle": True}, _planted_witness_lines(D, triple))),
            ),
        ],
        big={big.tag},
    )


def _dist_check(expected: float) -> Checker:
    def check(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            got = float(out.strip())
        except ValueError:
            return f"unparsable distance {out[:80]!r}"
        if abs(got - expected) > 1e-9 * max(1.0, expected):
            return f"distance {got}, expected {expected}"
        return None

    return check


def paths_cli(seed: int, workdir: str) -> CliPlan:
    """Cold-cache grid and random-graph queries; part of the probes workload."""
    rng = rng_for(seed, "paths/cli")
    graph_path = os.path.join(workdir, "g600.json")
    edges = random_graph(rng, 600, 600)
    write_graph(graph_path, 600, edges)
    D = floyd_warshall(600, edges)
    grids = []
    # W * H stays near 15000 and the source is a corner, so every one-shot
    # grid query costs about the same: geodesic counting covers the whole
    # grid from the source, and its counts grow largest from a corner.
    for _ in range(3):
        w = int(rng.integers(100, 151))
        h = int(round(15000 / w))
        i0, j0 = int(rng.integers(0, 2)) * (w - 1), int(rng.integers(0, 2)) * (h - 1)
        i1, j1 = int(rng.integers(0, w)), int(rng.integers(0, h))
        di, dj = abs(i1 - i0), abs(j1 - j0)
        grids.append(
            CliCase(
                f"grid-{w}x{h}",
                ["grid", str(w), str(h), "--from", f"{i0},{j0}", "--to", f"{i1},{j1}"],
                _expect(0, [f"distance {fmt12(di + dj)}", f"count {math.comb(di + dj, di)}"]),
            )
        )
    u, v = (int(x) for x in rng.choice(600, size=2, replace=False))
    dist = CliCase(
        "dist-graphpath-600",
        ["dist", "--metric", "graphpath", "--graph", graph_path, "-p", str(u), "-q", str(v)],
        _dist_check(float(D[u, v])),
    )
    return CliPlan(once=[], round=grids + [dist])


def _svg_polygon(text: str) -> list[tuple[float, float]]:
    m = re.search(r'<polygon points="([^"]*)"', text)
    if not m:
        return []
    return [tuple(float(c) for c in pair.split(",")) for pair in m.group(1).split()]


def _svg_vertices(tag: str) -> list[tuple[float, float]]:
    """Pixel positions of the boundary polygon's vertices.

    The figure fits the ball's bounding box into the 512 px viewport with a
    10% margin, so the center lands at 256 and every vertex 204.8 px away
    along the axes (or on both axes for the Chebyshev corners)."""
    lo, mid, hi = SVG_SIZE * 0.1, SVG_SIZE * 0.5, SVG_SIZE * 0.9
    if tag == "chebyshev":
        return [(hi, lo), (lo, lo), (lo, hi), (hi, hi)]
    return [(hi, mid), (mid, lo), (lo, mid), (mid, hi)]


def _ball_svg_check(tag: str, radius: float, out_path: str) -> Checker:
    reference: list[bytes] = []

    def check(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}, expected 0"
        if out != f"wrote {out_path}\n":
            return f"stdout {out[:120]!r}"
        with open(out_path, "rb") as f:
            data = f.read()
        if reference and data != reference[0]:
            return "SVG bytes differ between two identical runs"
        reference[:] = [data]
        text = data.decode("utf-8")
        if f"{tag} ball, r = {radius:.12g}" not in text:
            return "radius label missing"
        points = _svg_polygon(text)
        for vx, vy in _svg_vertices(tag):
            if not any(abs(px - vx) <= SVG_VERTEX_TOL_PX and abs(py - vy) <= SVG_VERTEX_TOL_PX for px, py in points):
                return f"polygon vertex ({vx:.2f},{vy:.2f}) missing"
        return None

    return check


def _isometry_check(expected: bool) -> Checker:
    def check(rc: int, out: str):
        lines = out.splitlines()
        if expected:
            return None if rc == 0 and lines == ["ISOMETRY"] else f"exit {rc} {out[:120]!r}, expected ISOMETRY"
        if rc != 1 or not lines or lines[0] != "NOT ISOMETRY":
            return f"exit {rc} {out[:120]!r}, expected NOT ISOMETRY"
        m = re.search(r"before (\S+) after (\S+)$", lines[1] if len(lines) > 1 else "")
        if not m or abs(float(m.group(1)) - float(m.group(2))) <= 1e-9:
            return "NOT ISOMETRY without a violating witness"
        return None

    return check


def plane_map_json(name: str, theta: float, a) -> str:
    if name == "rotation":
        return json.dumps({"map": "rotation", "theta": theta})
    if name == "quarter_turn":
        return json.dumps({"map": "rotation", "theta": math.pi / 2})
    if name in ("translation", "reflect_about_point"):
        return json.dumps({"map": name, "a": [float(a[0]), float(a[1])]})
    return json.dumps({"map": name})


def probes_cli(seed: int, workdir: str) -> CliPlan:
    rng = rng_for(seed, "probes/cli")
    pts_path = os.path.join(workdir, "plane128.json")
    write_points(pts_path, rng.uniform(-3.0, 3.0, size=(128, 2)))
    theta = float(rng.uniform(0.2, 1.3))
    a = rng.uniform(-2.0, 2.0, size=2)
    round_ = []
    for tag in ("euclidean", "taxicab", "chebyshev"):
        radius = float(rng.uniform(0.5, 3.0))
        cx, cy = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        out_path = os.path.join(workdir, f"ball_{tag}.svg")
        # "--center=X,Y": a separate "-1.5,0.2" would parse as an option
        argv = ["ball-svg", "--metric", tag, "--radius", repr(radius), f"--center={cx!r},{cy!r}",
                "--samples", "20000", "--out", out_path]
        round_.append(CliCase(f"ball-svg-{tag}", argv, _ball_svg_check(tag, radius, out_path)))
    # One isometry call per round keeps the ball-svg calls the majority, so
    # the latency percentiles sit inside one cluster of similar calls.
    iso = [("euclidean", "rotation"), ("taxicab", "rotation"), ("chebyshev", "swap_axes"), ("taxicab", "reflect_about_point")]
    metric, map_name = iso[int(rng.integers(0, len(iso)))]
    round_.append(
        CliCase(
            f"isometry-{map_name}-{metric}",
            ["isometry", "--map", plane_map_json(map_name, theta, a), "--metric", metric, "--points", pts_path],
            _isometry_check(ISOMETRY_TABLE[(map_name, metric)]),
        )
    )
    return CliPlan(once=[], round=round_ + paths_cli(seed, workdir).round)


CLI_PLANS = {"certify": certify_cli, "probes": probes_cli}


def sweep_cli(seed: int, workdir: str) -> CliPlan:
    """Small argv lists that reach every file loader and the SVG writer."""
    rng = rng_for(seed, "sweep/cli")
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    write_points(path("sweep_points.json"), rng.uniform(-1.0, 1.0, size=(12, 2)))
    D, triple = planted_matrix(rng, 12)
    write_matrix_csv(path("sweep_planted.csv"), D)
    edges = random_graph(rng, 32, 32)
    write_graph(path("sweep_graph.json"), 32, edges)
    radius = float(rng.uniform(0.5, 3.0))
    svg_path = path("sweep_ball.svg")
    return CliPlan(
        once=[],
        round=[
            CliCase("sweep-points", ["check", "--metric", "euclidean", "--points", path("sweep_points.json")],
                    _expect(0, _report_lines({}))),
            CliCase("sweep-matrix", ["check", "--matrix", path("sweep_planted.csv")],
                    _expect(1, _report_lines({"triangle": True}, _planted_witness_lines(D, triple)))),
            CliCase("sweep-graph", ["dist", "--metric", "graphpath", "--graph", path("sweep_graph.json"), "-p", "0", "-q", "31"],
                    _dist_check(float(floyd_warshall(32, edges)[0, 31]))),
            CliCase("sweep-ball-svg", ["ball-svg", "--metric", "taxicab", "--radius", repr(radius), "--samples", "64",
                                       "--out", svg_path], _ball_svg_check("taxicab", radius, svg_path)),
        ],
    )


# --- library data -------------------------------------------------------------


def certify_lib(seed: int, small: bool = False) -> dict:
    """Samples for verify_axioms; ``small`` gives the warm-up sizes."""
    rng = rng_for(seed, "certify/lib" + ("/small" if small else ""))
    n, big, graph_n, graph_k = (12, 16, 32, 8) if small else (256, 384, 512, 128)
    pool = 1 if small else 3
    cases = []
    for k in range(pool):
        edges = random_graph(rng, graph_n, graph_n)
        D, triple = planted_matrix(rng, n)
        cases.append(
            {
                "euclidean": rng.uniform(-1.0, 1.0, size=(n, 2)),
                "taxicab": rng.uniform(-1.0, 1.0, size=(n, 3)),
                "greatcircle": sphere_points(rng, n),
                "graph": (graph_n, edges, [int(v) for v in rng.choice(graph_n, size=graph_k, replace=False)]),
                "planted": (D, triple),
            }
        )
    return {"cases": cases, "big": rng.uniform(-1.0, 1.0, size=(big, 3))}


def paths_lib(seed: int, small: bool = False) -> dict:
    """A random graph with query lists, grid sweep shapes and geodesic targets."""
    rng = rng_for(seed, "paths/lib" + ("/small" if small else ""))
    n, queries = (40, 20) if small else (600, 300)
    edges = random_graph(rng, n, n)
    D = floyd_warshall(n, edges)
    reuse_share = 0.5
    query_lists = []
    for _ in range(1 if small else 3):
        reuse = rng.permutation(np.arange(queries) < round(reuse_share * queries))
        sources: list[int] = []
        qs = []
        for r in reuse:
            u = int(rng.choice(sources)) if (r and sources) else int(rng.integers(0, n))
            sources.append(u)
            v = int(rng.integers(0, n - 1))
            v += v >= u
            qs.append((u, v, float(D[u, v])))
        query_lists.append(qs)
    sweeps = [(3, 3)] if small else [[(12, 12), (12, 11), (11, 12)][k] for k in rng.permutation(3)]
    geodesics = []
    # Width ladder over 21..40 with W * H near 900, so each sweep costs about the same.
    for lo in ([21] if small else [21, 26, 31, 36]):
        w = int(rng.integers(lo, lo + 5))
        h = int(round(900 / w))
        targets = [(int(rng.integers(0, w)), int(rng.integers(0, h))) for _ in range(2 if small else 10)]
        geodesics.append((w, h, targets))
    return {"n": n, "edges": edges, "queries": query_lists, "sweeps": sweeps, "geodesics": geodesics}


def nesting_batch(rng, dist, m: int, configs: int) -> list[tuple[int, int, float, float]]:
    """Valid nesting configurations (i, j, r, t) over sample indices 0..m-1.

    Margins of at least 0.0025 keep every precondition clear of rounding."""
    out = []
    for _ in range(configs):
        i, j = (int(x) for x in rng.integers(0, m, size=2))
        dpq = dist(i, j)
        r = dpq + float(rng.uniform(0.05, 2.0))
        t = float(rng.uniform(0.05, 0.95)) * (r - dpq)
        out.append((i, j, r, t))
    return out


def probes_lib(seed: int, small: bool = False) -> dict:
    """C11-shaped nesting batches for every built-in kind, isometry tables,
    sphere maps, ball boundaries and memberships."""
    rng = rng_for(seed, "probes/lib" + ("/small" if small else ""))
    m, n_probes, configs, pool = (6, 5, 2, 1) if small else (12, 100, 100, 2)
    pts2 = rng.uniform(-1.0, 1.0, size=(m, 2))
    pts3 = rng.uniform(-1.0, 1.0, size=(m, 3))
    sph = sphere_points(rng, m)
    real = rng.uniform(-5.0, 5.0, size=m)
    graph_n = max(m, 8)
    graph_edges = random_graph(rng, graph_n, m)
    G = floyd_warshall(graph_n, graph_edges)
    poly = np.vstack([np.zeros(2), np.cumsum(rng.uniform(0.1, 1.0, size=(max(m, 8) - 1, 2))
                                             * rng.choice([-1.0, 1.0], size=(max(m, 8) - 1, 2)), axis=0)])
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(poly, axis=0).T))])
    E = euclid_matrix(pts2)
    kinds = {
        "euclidean": (list(pts2), lambda k: list(rng.uniform(-1.0, 1.0, size=(k, 2))), lambda i, j: E[i, j]),
        "taxicab": (list(pts3), lambda k: list(rng.uniform(-1.0, 1.0, size=(k, 3))),
                    lambda i, j: float(np.abs(pts3[i] - pts3[j]).sum())),
        "chebyshev": (list(pts2), lambda k: list(rng.uniform(-1.0, 1.0, size=(k, 2))),
                      lambda i, j: float(np.abs(pts2[i] - pts2[j]).max())),
        "discrete": (list(pts2), lambda k: list(rng.uniform(-1.0, 1.0, size=(k, 2))), lambda i, j: float(i != j)),
        "realline": ([float(x) for x in real], lambda k: [float(x) for x in rng.uniform(-5.0, 5.0, size=k)],
                     lambda i, j: abs(real[i] - real[j])),
        "greatcircle": (list(sph), lambda k: list(sphere_points(rng, k)), lambda i, j: great_circle(sph[i], sph[j])),
        "graphpath": (list(range(m)), lambda k: [int(v) for v in rng.integers(0, graph_n, size=k)], lambda i, j: G[i, j]),
        "polylinearc": (list(range(m)), lambda k: [int(v) for v in rng.integers(0, len(poly), size=k)],
                        lambda i, j: abs(cum[i] - cum[j])),
        "subspace": (list(pts2), lambda k: [pts2[int(v)] for v in rng.integers(0, m, size=k)], lambda i, j: E[i, j]),
        "matrix": (list(range(m)), lambda k: [int(v) for v in rng.integers(0, m, size=k)], lambda i, j: E[i, j]),
    }
    nesting = {}
    for kind in NESTING_KINDS:
        sample, draw, dist = kinds[kind]
        batches = [(draw(n_probes), nesting_batch(rng, dist, m, configs)) for _ in range(pool)]
        nesting[kind] = (sample, batches)

    n_iso = 8 if small else 128
    iso_points = list(rng.uniform(-3.0, 3.0, size=(n_iso, 2)))
    orthogonal = []
    for _ in range(2 if small else 10):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        orthogonal.append(q * np.sign(np.diag(r)))
    # Dyadic center and radius keep p - r and p + r exact, so the open
    # interval's endpoints are tested exactly.
    p = float(rng.integers(-64, 65)) / 64.0
    r = float(rng.integers(16, 129)) / 64.0
    line_probes = [p - r, p + r] + [float(x) for x in np.linspace(p - 2 * r, p + 2 * r, 8 if small else 1001)]
    c2 = rng.uniform(-1.0, 1.0, size=2)
    rad2 = float(rng.uniform(0.5, 2.0))
    angles = rng.uniform(0.0, 2 * math.pi, size=8 if small else 1000)
    factors = rng.choice([0.5, 0.9, 0.999, 1.001, 1.1, 2.0], size=angles.size)
    plane_probes = [c2 + rad2 * f * np.array([math.cos(a), math.sin(a)]) for a, f in zip(angles, factors)]
    boundaries = [
        (tag, rng.uniform(-2.0, 2.0, size=2), float(rng.uniform(0.5, 3.0)))
        for tag in ("euclidean", "taxicab", "chebyshev")
    ]
    return {
        "graph": (graph_n, graph_edges),
        "poly": poly,
        "euclid_matrix": E,
        "nesting": nesting,
        "isometry": {"points": iso_points, "theta": float(rng.uniform(0.2, 1.3)), "a": rng.uniform(-2.0, 2.0, size=2)},
        "sphere": {"points": list(sphere_points(rng, 6 if small else 48)), "maps": orthogonal},
        "line_ball": (p, r, line_probes, [p - r < x < p + r for x in line_probes]),
        "plane_ball": (c2, rad2, plane_probes, [bool(f < 1.0) for f in factors]),
        "boundaries": boundaries,
        "boundary_samples": 16 if small else 2000,
    }


def probes_and_paths_lib(seed: int, small: bool = False) -> dict:
    return {"probes": probes_lib(seed, small), "paths": paths_lib(seed, small)}


LIB_DATA = {"certify": certify_lib, "probes": probes_and_paths_lib}
