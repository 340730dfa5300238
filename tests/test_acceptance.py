"""Acceptance suite: one test per release criterion.

Each test prints a single [ACCEPTANCE] pass/fail line (visible with -s) and
enforces the criterion's stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

import metrikos as mk
from metrikos import sampling
from metrikos.svg import Viewport

from _support import builtin_cases


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


@contextmanager
def stopwatch(budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"runtime {elapsed:.3f}s exceeds budget {budget_seconds}s"


def rng_for(tag):
    # crc32, not hash(): PYTHONHASHSEED changes hash() from one process to the next
    return np.random.default_rng(zlib.crc32(tag.encode()))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "metrikos", *args], capture_output=True)


def test_c01_worked_plane_distances():
    with criterion("C01 worked plane distances"):
        cases = [
            (mk.Euclidean(), (0, 0), (1, 1), math.sqrt(2)),
            (mk.Taxicab(), (0, 0), (1, 1), 2.0),
            (mk.Chebyshev(), (0, 0), (1, 1), 1.0),
            (mk.Euclidean(), (0, 0), (1, 0), 1.0),
            (mk.Taxicab(), (0, 0), (1, 0), 1.0),
            (mk.Chebyshev(), (0, 0), (1, 0), 1.0),
        ]
        for spec, p, q, expected in cases:  # warmup, correctness
            assert abs(mk.distance(spec, p, q) - expected) <= 1e-12
        with stopwatch(0.001):
            for spec, p, q, expected in cases:
                mk.distance(spec, p, q)


def test_c02_axiom_certification():
    with criterion("C02 axiom certification on 64 random points"):
        rng = rng_for("c02")
        for spec, sample in builtin_cases(rng, n=64):
            with stopwatch(2.0):  # per metric
                report = mk.verify_axioms(spec, sample)
            assert report.all_ok, (spec.name, report.witnesses[:3])

        values = np.array([[abs(i - j) ** 2 for j in range(3)] for i in range(3)], dtype=float)
        planted = mk.MatrixMetric(mk.DistanceMatrix(values))
        report = mk.verify_axioms(planted, [0, 1, 2])
        assert not report.triangle_ok
        first = report.for_axiom("triangle")[0]
        assert first.indices == (0, 1, 2) and first.lhs == 4.0 and first.rhs == 2.0


def test_c03_spherical_metric():
    with criterion("C03 spherical chord vs arc"):
        with stopwatch(5.0):
            assert abs(mk.great_circle_distance((0, 0, 1), (0, 0, -1)) - math.pi) <= 1e-12

            rng = rng_for("c03")
            P = sampling.random_sphere_points(rng, 100_000)
            Q = sampling.random_sphere_points(rng, 100_000)
            chord = mk.chord_distances(P, Q)
            arc = mk.great_circle_distances(P, Q)
            assert np.max(np.abs(2.0 * np.sin(arc / 2.0) - chord)) <= 1e-12
            assert np.all(chord <= arc)

            R = sampling.random_sphere_points(rng, 100_000)
            lhs = mk.great_circle_distances(P, R)
            rhs = mk.great_circle_distances(P, Q) + mk.great_circle_distances(Q, R)
            assert np.all(lhs <= rhs + 1e-9)

            triple = np.abs(np.einsum("ij,ij->i", np.cross(P, Q), R))
            mask = triple > 1e-3
            assert mask.sum() > 10_000
            assert np.all((rhs - lhs)[mask] > 1e-9)


def test_c04_sinc_monotonicity():
    with criterion("C04 sinc monotone on (0, pi/2]"):
        with stopwatch(0.1):
            assert mk.sinc(0.0) == 1.0
            grid = np.linspace(math.pi / 2 / 10_000, math.pi / 2, 10_000)
            vals = np.array([mk.sinc(t) for t in grid])
            assert np.all(np.diff(vals) <= 0.0)


def test_c05_comparability_bound():
    with criterion("C05 local comparability of chord and arc"):
        with stopwatch(2.0):
            eps = 0.001
            delta = mk.comparability_delta(eps)
            # delta solves the defining ratio equation
            assert 2.0 * math.asin(delta / 2.0) / delta == pytest.approx(1.0 + eps, abs=1e-12)

            rng = rng_for("c05")
            n = 100_000
            P = sampling.random_sphere_points(rng, n)
            W = sampling.random_sphere_points(rng, n)
            W = W - np.sum(W * P, axis=1)[:, None] * P
            W /= np.linalg.norm(W, axis=1)[:, None]
            arcs = 2.0 * np.arcsin(rng.uniform(0.0, delta, size=n) / 2.0)
            Q = np.cos(arcs)[:, None] * P + np.sin(arcs)[:, None] * W
            Q /= np.linalg.norm(Q, axis=1)[:, None]
            d = mk.chord_distances(P, Q)
            dt = mk.great_circle_distances(P, Q)
            below = d < delta
            assert below.sum() > 99_000
            assert np.all(dt[below] <= (1.0 + eps) * d[below])

            # searching just above delta produces a violation
            arcs = 2.0 * np.arcsin(rng.uniform(delta * 1.001, delta * 1.1, size=1_000) / 2.0)
            Q = np.cos(arcs)[:, None] * P[:1_000] + np.sin(arcs)[:, None] * W[:1_000]
            Q /= np.linalg.norm(Q, axis=1)[:, None]
            d = mk.chord_distances(P[:1_000], Q)
            dt = mk.great_circle_distances(P[:1_000], Q)
            assert np.any(dt > (1.0 + eps) * d)


def test_c06_circular_projection_and_extremal_points():
    with criterion("C06 circular projection and point-to-circle extrema"):
        with stopwatch(10.0):
            rng = rng_for("c06")
            c = mk.Circle2D((0.0, 0.0), 1.0)
            radii = 1.0 + rng.uniform(0.0, 4.0, size=(100_000, 2))
            angles = rng.uniform(0.0, 2.0 * math.pi, size=(100_000, 2))
            P = radii[:, :1] * np.column_stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])])
            Q = radii[:, 1:] * np.column_stack([np.cos(angles[:, 1]), np.sin(angles[:, 1])])
            moved = np.linalg.norm(
                mk.circular_projections(c, P) - mk.circular_projections(c, Q), axis=1
            )
            assert np.all(moved <= np.linalg.norm(P - Q, axis=1) + 1e-12)

            # brute-force oracle: distances at 1e6 sampled circle points
            theta = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            for _ in range(100):
                circle = mk.Circle3D(
                    rng.uniform(-2, 2, size=3),
                    float(rng.uniform(0.2, 3.0)),
                    rng.normal(size=3),
                )
                x = rng.uniform(-4.0, 4.0, size=3)
                helper = (
                    np.array([1.0, 0.0, 0.0])
                    if abs(circle.normal[0]) < 0.9
                    else np.array([0.0, 1.0, 0.0])
                )
                u1 = np.cross(circle.normal, helper)
                u1 /= np.linalg.norm(u1)
                u2 = np.cross(circle.normal, u1)
                a = x - circle.center
                # |x - (center + r cos u1 + r sin u2)|^2 expanded over the samples
                d_sq = (
                    float(a @ a)
                    + circle.radius**2
                    - 2.0 * circle.radius * float(a @ u1) * cos_t
                    - 2.0 * circle.radius * float(a @ u2) * sin_t
                )
                try:
                    nearest, farthest = mk.circle_extremal_points(x, circle)
                except mk.DegenerateGeometryError:  # pragma: no cover
                    continue
                assert mk.euclidean_distance(x, nearest) == pytest.approx(
                    math.sqrt(float(d_sq.min())), abs=1e-6
                )
                assert mk.euclidean_distance(x, farthest) == pytest.approx(
                    math.sqrt(float(d_sq.max())), abs=1e-6
                )


def test_c07_extremal_point_reduction():
    with criterion("C07 farthest equidistant point reduction"):
        rng = rng_for("c07")
        degenerate = 0
        for _ in range(1_000):
            p, q, r = sampling.random_sphere_points(rng, 3)
            try:
                r0 = mk.farthest_equidistant_point(p, q, r)
            except mk.DegenerateGeometryError:  # pragma: no cover
                degenerate += 1
                continue
            assert abs(np.dot(np.cross(p, q), r0)) <= 1e-9
            d_pr = mk.great_circle_distance(p, r)
            d_pr0 = mk.great_circle_distance(p, r0)
            d_pq = mk.great_circle_distance(p, q)
            d_qr = mk.great_circle_distance(q, r)
            assert d_pr <= d_pr0 + 1e-9
            assert d_pr0 <= d_pq + d_qr + 1e-9
        assert degenerate < 5


def test_c08_grid_path_metric():
    with criterion("C08 street grids: taxicab equality and geodesic counts"):
        with stopwatch(5.0):
            for w, h in [(w, h) for w in range(1, 13) for h in (1, 5, 12)] + [(12, 12)]:
                g = mk.grid_graph(w, h)
                for a in range(g.vertex_count):
                    for b in range(g.vertex_count):
                        assert mk.shortest_path_distance(g, a, b) == mk.taxicab_distance(
                            g.coords[a], g.coords[b]
                        )
            g = mk.grid_graph(21, 21)
            origin = mk.grid_vertex(21, 0, 0)
            for m in range(21):
                for n in range(21 - m):
                    assert mk.count_geodesics(g, origin, mk.grid_vertex(21, m, n)) == math.comb(
                        m + n, m
                    )


def test_c09_intrinsic_vs_extrinsic():
    with criterion("C09 polyline arcs: chord below arc, intrinsically flat"):
        rng = rng_for("c09")
        for _ in range(1_000):
            c = sampling.random_polyline(rng, int(rng.integers(2, 12)))
            n = len(c)
            for i in range(n):
                for j in range(n):
                    arc = c.arc_distance(i, j)
                    chord = mk.euclidean_distance(c.vertices[i], c.vertices[j])
                    assert chord <= arc + 1e-12
                    assert arc == mk.real_line_distance(c.cumulative[i], c.cumulative[j])


def test_c10_isometries():
    with criterion("C10 which maps preserve which metrics"):
        with stopwatch(2.0):
            rng = rng_for("c10")
            sample = list(sampling.random_points(rng, 16, low=-3, high=3))
            planted = [(0.0, 0.0), (1.0, 0.0)] + sample
            quarter_turn = mk.rotation(math.pi / 4)

            ok, _ = mk.is_isometry(quarter_turn, mk.Euclidean(), planted)
            assert ok
            ok, witness = mk.is_isometry(quarter_turn, mk.Taxicab(), planted)
            assert not ok and witness is not None
            ok, witness = mk.is_isometry(quarter_turn, mk.Chebyshev(), planted)
            assert not ok and witness is not None

            shared = [
                mk.translation(1.5, -2.0),
                mk.reflect_origin(),
                mk.reflect_x1(),
                mk.reflect_x2(),
                mk.swap_axes(),
            ]
            for metric in (mk.Euclidean(), mk.Taxicab(), mk.Chebyshev()):
                for m in shared:
                    ok, witness = mk.is_isometry(m, metric, sample)
                    assert ok, (metric.name, witness)

            from scipy.stats import ortho_group

            sphere_sample = list(sampling.random_sphere_points(rng, 12))
            matrices = ortho_group.rvs(3, size=100, random_state=np.random.RandomState(42))
            for matrix in matrices:
                ok, witness = mk.is_isometry(mk.SphereMap(matrix), mk.GreatCircle(), sphere_sample)
                assert ok, witness


def test_c11_open_balls():
    with criterion("C11 open balls and the nesting lemma"):
        with stopwatch(5.0):
            rng = rng_for("c11")

            # real-line ball is the open interval, endpoints excluded
            p, r = 0.25, 1.75
            b = mk.Ball(mk.RealLine(), p, r)
            assert not mk.ball_contains(b, p + r) and not mk.ball_contains(b, p - r)
            for x in np.linspace(p - 2 * r, p + 2 * r, 201):
                assert mk.ball_contains(b, float(x)) == (p - r < x < p + r)

            # exact vertex sets of the polygon boundaries
            radius = 1.5
            diamond = mk.ball_boundary(mk.Taxicab(), (0, 0), radius, n=64)
            rows = {tuple(x) for x in diamond.samples}
            assert {(radius, 0.0), (0.0, radius), (-radius, 0.0), (0.0, -radius)} <= rows
            square = mk.ball_boundary(mk.Chebyshev(), (0, 0), radius, n=64)
            rows = {tuple(x) for x in square.samples}
            assert {(radius, radius), (-radius, radius), (-radius, -radius), (radius, -radius)} <= rows

            # nesting lemma: 1e3 random valid configurations x 1e2 probes per metric
            for spec, sample in builtin_cases(rng, n=12):
                first = sample[0]
                dim = len(first) if hasattr(first, "__len__") else 2
                probes = sampling.sample_for(spec, rng, 100, dim=dim)
                checked = 0
                attempts = 0
                while checked < 1_000 and attempts < 5_000:
                    attempts += 1
                    i, j = rng.integers(0, len(sample), size=2)
                    p_, q_ = sample[int(i)], sample[int(j)]
                    dpq = mk.distance(spec, p_, q_)
                    r_ = dpq + float(rng.uniform(0.05, 2.0))
                    t_ = float(rng.uniform(0.05, 1.0)) * (r_ - dpq)
                    if not 0 < t_ <= r_ - dpq:
                        continue
                    ok, witness = mk.check_nesting(spec, p_, r_, q_, t_, probes)
                    assert ok, (spec.name, witness)
                    checked += 1
                assert checked == 1_000, spec.name


def test_c12_cli_black_box(tmp_path):
    with criterion("C12 CLI exit codes, determinism, and figures"):
        res = run_cli("dist", "--metric", "euclidean", "-p", "0,0", "-q", "1,1")
        assert res.returncode == 0 and res.stdout == b"1.41421356237\n"

        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,4\n1,0,1\n4,1,0\n")
        res = run_cli("check", "--matrix", str(bad))
        assert res.returncode == 1
        assert b"witness triangle (0,1,2): lhs 4 rhs 2" in res.stdout

        res = run_cli("check", "--matrix", str(tmp_path / "missing.csv"))
        assert res.returncode == 2

        args = ("check", "--metric", "euclidean", "--random", "32", "--seed", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout

        vertex_sets = {
            "euclidean": [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
            "taxicab": [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
            "chebyshev": [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
        }
        specs = {"euclidean": mk.Euclidean(), "taxicab": mk.Taxicab(), "chebyshev": mk.Chebyshev()}
        for tag, vertices in vertex_sets.items():
            out_a = tmp_path / f"{tag}_a.svg"
            out_b = tmp_path / f"{tag}_b.svg"
            assert run_cli("ball-svg", "--metric", tag, "--radius", "1", "--out", str(out_a)).returncode == 0
            assert run_cli("ball-svg", "--metric", tag, "--radius", "1", "--out", str(out_b)).returncode == 0
            assert out_a.read_bytes() == out_b.read_bytes()

            root = ET.parse(out_a).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            assert root.get("version") == "1.1"

            xml = out_a.read_text()
            boundary = mk.ball_boundary(specs[tag], (0.0, 0.0), 1.0, n=256)
            lo, hi = boundary.samples.min(axis=0), boundary.samples.max(axis=0)
            vp = Viewport.fit(lo[0], hi[0], lo[1], hi[1])
            for vertex in vertices:
                px, py = vp.map(vertex)
                assert f"{px:.2f},{py:.2f}" in xml, (tag, vertex)
