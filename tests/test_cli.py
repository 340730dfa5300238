"""Black-box CLI tests: exit-code contract, output formats, determinism."""

import gc
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import metrikos as mk
from metrikos import cli, fileio, sampling


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "metrikos", *args],
        capture_output=True,
        cwd=cwd,
    )


class TestDist:
    def test_euclidean_diagonal(self):
        res = run_cli("dist", "--metric", "euclidean", "-p", "0,0", "-q", "1,1")
        assert res.returncode == 0
        assert res.stdout == b"1.41421356237\n"

    def test_chebyshev_diagonal(self):
        res = run_cli("dist", "--metric", "chebyshev", "-p", "0,0", "-q", "1,1")
        assert res.returncode == 0
        assert res.stdout == b"1\n"

    def test_great_circle_antipodal(self):
        res = run_cli("dist", "--metric", "greatcircle", "-p", "0,0,1", "-q", "0,0,-1")
        assert res.returncode == 0
        assert res.stdout == b"3.14159265359\n"

    def test_realline(self):
        res = run_cli("dist", "--metric", "realline", "-p", "5", "-q", "2")
        assert res.stdout == b"3\n"

    def test_graphpath(self, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 1.5], [1, 2, 2.0]]}))
        res = run_cli("dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "2")
        assert res.returncode == 0
        assert res.stdout == b"3.5\n"

    def test_graph_file_with_a_fractional_vertex_id_is_usage_error(self, tmp_path):
        # int() once read the edge [0, 1.5, 1.0] as (0, 1), and printed 2
        gfile = tmp_path / "g.json"
        for vertices, edges in ((3, [[0, 1.5, 1.0], [1, 2, 1.0]]), (2.7, [[0, 1, 1.0]]), (3, [[0, 1, 1.0], [True, 2, 1.0]])):
            gfile.write_text(json.dumps({"vertices": vertices, "edges": edges}))
            res = run_cli("dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "2")
            assert res.returncode == 2, (vertices, edges)
            assert res.stdout == b"" and b"must be an integer" in res.stderr, (vertices, edges)

    @pytest.mark.parametrize(
        "graph",
        [
            {"vertices": 2, "edges": 5},
            {"vertices": 2, "edges": [5]},
            {"vertices": 2, "edges": [[0, 1, [1]]]},
            {"vertices": 2, "edges": [[0, 1, 1.0]], "coords": 5},
            {"vertices": 2, "edges": [[0, 1]]},
            {"vertices": 2, "edges": [[0, 1, 10**400]]},
            {"vertices": 2, "edges": [[0, 1, -(10**400)]]},
        ],
        ids=["edges-not-a-list", "edge-not-a-list", "length-not-a-number", "coords-not-a-list", "edge-of-two",
             "length-past-float", "length-far-below-float"],
    )
    def test_malformed_graph_file_is_usage_error(self, tmp_path, capsys, graph):
        # each of these once ended in a TypeError or OverflowError traceback and exit 1
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(graph))
        assert cli.main(["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_graph_file_at_the_cap_is_read(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        argv = ["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "0"]
        gfile.write_text(json.dumps({"vertices": fileio.MAX_GRAPH_VERTICES, "edges": []}))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "0\n"
        # as many edges as the 500 x 500 grid has reach the edge checks
        assert fileio.MAX_GRAPH_VERTICES == cli.MAX_GRID_VERTICES == 500 * 500
        assert fileio.MAX_GRAPH_EDGES == 2 * 500 * 499
        gfile.write_text(json.dumps({"vertices": 3, "edges": [[1, 2, 1.0]] * fileio.MAX_GRAPH_EDGES}))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: duplicate undirected edge (1, 2)\n"

    def test_graph_file_past_the_cap_is_refused_before_building(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a graph past the cap")

        monkeypatch.setattr(fileio, "WeightedGraph", refuse)
        gfile = tmp_path / "g.json"
        argv = ["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "0"]
        for graph, message in [
            ({"vertices": fileio.MAX_GRAPH_VERTICES + 1, "edges": []},
             f"a graph of {fileio.MAX_GRAPH_VERTICES + 1} vertices is past the cap of {fileio.MAX_GRAPH_VERTICES} vertices"),
            ({"vertices": 2_000_000, "edges": []},
             f"a graph of 2000000 vertices is past the cap of {fileio.MAX_GRAPH_VERTICES} vertices"),
            ({"vertices": 3, "edges": [[1, 2, 1.0]] * (fileio.MAX_GRAPH_EDGES + 1)},
             f"a graph of {fileio.MAX_GRAPH_EDGES + 1} edges is past the cap of {fileio.MAX_GRAPH_EDGES} edges"),
        ]:
            gfile.write_text(json.dumps(graph))
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {gfile}: {message}\n"

    def test_grid_graph_file_at_the_byte_cap_is_read(self, tmp_path):
        # the 500 x 500 grid's edges with random float lengths, and random 2-D float coords
        rng = np.random.default_rng(19)
        ids = mk.grid_graph(500, 500)._ids
        lengths = rng.uniform(0.1, 2.0, size=ids.shape[1])
        coords = rng.uniform(-1.0, 1.0, size=(500 * 500, 2))
        gfile = tmp_path / "g.json"
        edges = [[u, v, w] for u, v, w in zip(*ids.tolist(), lengths.tolist())]
        gfile.write_text(json.dumps({"vertices": 500 * 500, "edges": edges, "coords": coords.tolist()}))
        del edges
        assert 28 * 2**20 <= gfile.stat().st_size <= fileio.MAX_GRAPH_FILE_BYTES == 32 * 2**20
        g = fileio.load_graph(gfile)
        assert g.vertex_count == 500 * 500 and np.array_equal(g._ids, ids)
        assert np.array_equal(g._lengths, lengths) and np.array_equal(g.coords, coords)

    def test_graph_file_past_the_byte_cap_is_refused_before_parsing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("parsed a graph file past the byte cap")

        gfile = tmp_path / "g.json"
        text = json.dumps({"vertices": 2, "edges": [[0, 1, 1.0]]})
        # valid JSON up to the last byte, one byte past the cap
        gfile.write_text(text + " " * (fileio.MAX_GRAPH_FILE_BYTES + 1 - len(text)))
        monkeypatch.setattr(fileio, "parse_json", refuse)
        assert cli.main(["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "1"]) == 2
        captured = capsys.readouterr()
        size = fileio.MAX_GRAPH_FILE_BYTES + 1
        assert captured.out == ""
        assert captured.err == f"error: {gfile}: a graph file of {size} bytes is past the cap of {fileio.MAX_GRAPH_FILE_BYTES} bytes\n"

    def test_deeply_nested_graph_file_is_usage_error(self, tmp_path, capsys):
        # json's RecursionError once ended in a traceback and exit 1
        gfile = tmp_path / "g.json"
        gfile.write_text('{"vertices": 2, "edges": ' + "[" * 100_000 + "}")
        assert cli.main(["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {gfile}: JSON nested too deeply to parse\n"

    def test_truncated_graph_file_is_usage_error_naming_the_file(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text('{"vertices": 2, "edges": [[0, 1, 1.0]')
        assert cli.main(["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {gfile}: Expecting ',' delimiter: line 1 column 38 (char 37)\n"

    def test_an_overflowed_graph_distance_is_usage_error(self, tmp_path, capsys):
        # it once read as "no path joins vertices 0 and 2"
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}))
        assert cli.main(["dist", "--metric", "graphpath", "--graph", str(gfile), "-p", "0", "-q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the distance from vertex 0 to vertex 2 overflows the float range\n"

    def test_an_overflowing_coordinate_distance_is_usage_error(self):
        # it printed inf and exited 0
        res = run_cli("dist", "--metric", "euclidean", "-p", "1e308,0", "-q=-1e308,0")
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr == b"error: the euclidean distance between (1e+308, 0.0) and (-1e+308, 0.0) overflows the float range\n"

    def test_unknown_metric_is_usage_error(self):
        res = run_cli("dist", "--metric", "hyperbolic", "-p", "0,0", "-q", "1,1")
        assert res.returncode == 2
        assert b"error" in res.stderr

    def test_malformed_point_is_usage_error(self):
        res = run_cli("dist", "--metric", "euclidean", "-p", "zero,zero", "-q", "1,1")
        assert res.returncode == 2

    def test_missing_subcommand_is_usage_error(self):
        res = run_cli()
        assert res.returncode == 2


class TestCheck:
    def test_two_point_matrix_passes(self, tmp_path):
        f = tmp_path / "ok.csv"
        f.write_text("0,1\n1,0\n")
        res = run_cli("check", "--matrix", str(f))
        assert res.returncode == 0
        assert b"RESULT PASS" in res.stdout

    def test_planted_matrix_fails_with_witness(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0,1,4\n1,0,1\n4,1,0\n")
        res = run_cli("check", "--matrix", str(f))
        assert res.returncode == 1
        out = res.stdout.decode()
        assert "triangle      FAIL" in out
        assert "witness triangle (0,1,2): lhs 4 rhs 2" in out

    def test_points_file(self, tmp_path, rng):
        f = tmp_path / "pts.json"
        fileio.dump_points(f, sampling.random_points(rng, 64))
        res = run_cli("check", "--metric", "taxicab", "--points", str(f))
        assert res.returncode == 0
        assert res.stdout.decode().count("PASS") == 5

    def test_points_file_with_a_fractional_dim_is_usage_error(self, tmp_path):
        # int() once read "dim": 2.5 as 2 and certified the points
        f = tmp_path / "pts.json"
        f.write_text(json.dumps({"dim": 2.5, "points": [[0, 0], [1, 0], [0, 1]]}))
        res = run_cli("check", "--metric", "euclidean", "--points", str(f))
        assert res.returncode == 2
        assert res.stdout == b"" and b"dim must be an integer, got 2.5" in res.stderr

    def test_seeded_random_sample_is_deterministic(self):
        args = ("check", "--metric", "greatcircle", "--random", "24", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_non_finite_tolerances_are_usage_errors(self, tmp_path):
        # under a NaN slack every compare fails, so this matrix used to pass
        f = tmp_path / "bad.csv"
        f.write_text("0,1,5\n1,0,1\n5,1,0\n")
        for flag in ("--abs-tol", "--rel-tol"):
            for value in ("nan", "inf"):
                res = run_cli("check", "--matrix", str(f), flag, value)
                assert res.returncode == 2, (flag, value)
                assert res.stdout == b"" and res.stderr.startswith(b"error: "), (flag, value)

    def test_random_out_of_range_is_refused_before_sampling(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled out of range")

        monkeypatch.setattr(sampling, "sample_for", refuse)
        for n in (cli.MAX_RANDOM_POINTS + 1, 10**12, -5, 0):
            assert cli.main(["check", "--metric", "euclidean", "--random", str(n)]) == 2
            assert f"1 to {cli.MAX_RANDOM_POINTS} points, got {n}" in capsys.readouterr().err
        assert f"N <= {cli.MAX_RANDOM_POINTS}" in run_cli("check", "--help").stdout.decode()

    def test_every_sample_source_is_capped_before_certifying(self, tmp_path, monkeypatch, capsys):
        # --points and --matrix samples were not capped, so their n x n
        # table and n^3 triangle pass had no bound; first the real cap,
        # through the console, on a file one point past it
        big, cap = tmp_path / "big.json", cli.MAX_RANDOM_POINTS
        fileio.dump_points(big, sampling.random_points(np.random.default_rng(0), cap + 1))
        res = run_cli("check", "--metric", "taxicab", "--points", str(big))
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr == f"error: --points {big} holds {cap + 1} points, past the cap of {cap}\n".encode()

        def refuse(*args, **kwargs):
            raise AssertionError("certified a sample past the cap")

        monkeypatch.setattr(cli, "verify_axioms", refuse)
        monkeypatch.setattr(cli, "is_isometry", refuse)
        monkeypatch.setattr(cli, "MAX_RANDOM_POINTS", 3)
        pts, csv = tmp_path / "pts.json", tmp_path / "m.csv"
        fileio.dump_points(pts, [(0, 0), (1, 0), (0, 1), (1, 1)])
        csv.write_text("0,1,1,2\n1,0,2,1\n1,2,0,1\n2,1,1,0\n")
        swap = '{"map": "swap_axes"}'
        for command in (["check"], ["isometry", "--map", swap]):
            for source in (["--metric", "taxicab", "--points", str(pts)], ["--matrix", str(csv)]):
                assert cli.main(command + source) == 2, command + source
                err = capsys.readouterr().err
                assert err == f"error: {source[-2]} {source[-1]} holds 4 points, past the cap of 3\n", err

    def test_oversized_sample_files_are_refused_before_parsing(self, tmp_path, monkeypatch, capsys):
        # a 2,049 x 2,049 CSV was parsed whole before the sample cap refused it
        big, cap = tmp_path / "big.csv", fileio.MAX_MATRIX_ROWS
        for rows, cols, message in (
            (cap + 1, 3, f"a matrix of more than {cap} rows is past the cap of {cap} rows and columns"),
            (2, cap + 1, f"a matrix of {cap + 1} columns is past the cap of {cap} rows and columns"),
        ):
            big.write_text("\n".join([",".join(["1"] * cols)] * rows) + "\n")
            res = run_cli("check", "--matrix", str(big))
            assert res.returncode == 2 and res.stdout == b""
            assert res.stderr == f"error: {big}: {message}\n".encode()
        assert cli.MAX_RANDOM_POINTS == cap
        monkeypatch.setattr(fileio, "MAX_POINTS_FILE_BYTES", 100)
        pts = tmp_path / "pts.json"
        fileio.dump_points(pts, [(0.5, 0.25)] * 20)
        size = pts.stat().st_size
        assert cli.main(["check", "--metric", "taxicab", "--points", str(pts)]) == 2
        assert capsys.readouterr().err == f"error: {pts}: a point file of {size} bytes is past the cap of 100 bytes\n"

    def test_deeply_nested_points_file_is_usage_error(self, tmp_path):
        pts = tmp_path / "deep.json"
        pts.write_text('{"dim": 2, "points": ' + "[" * 100_000 + "}")
        res = run_cli("check", "--metric", "euclidean", "--points", str(pts))
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr == f"error: {pts}: JSON nested too deeply to parse\n".encode()

    def test_truncated_points_file_is_usage_error_naming_the_file(self, tmp_path):
        pts = tmp_path / "trunc.json"
        pts.write_text('{"dim": 2, "points": [[0.5, 0.25], [1')
        res = run_cli("check", "--metric", "euclidean", "--points", str(pts))
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr == f"error: {pts}: Expecting ',' delimiter: line 1 column 38 (char 37)\n".encode()

    def test_dim_out_of_range_is_refused_before_sampling(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled out of range")

        monkeypatch.setattr(sampling, "sample_for", refuse)
        swap = '{"map": "swap_axes"}'
        for command in (["check"], ["isometry", "--map", swap]):
            for dim in (0, -2, cli.MAX_DIM + 1):
                argv = command + ["--metric", "euclidean", "--random", "4", "--dim", str(dim)]
                assert cli.main(argv) == 2, argv
                assert capsys.readouterr().err == f"error: --dim takes 1 to {cli.MAX_DIM} coordinates, got {dim}\n"
            assert f"1 to {cli.MAX_DIM}" in run_cli(command[0], "--help").stdout.decode()

    def test_no_sample_is_usage_error(self):
        res = run_cli("check", "--metric", "euclidean")
        assert res.returncode == 2

    def test_ragged_csv_names_the_square_check(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("0,1,2\n1,0\n2,1,0\n")
        res = run_cli("check", "--matrix", str(f))
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr == f"error: {f}: distance matrix must be square, got rows of different lengths\n".encode()

    def test_malformed_csv_is_usage_error(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("0,1,2\n1,0\n")
        res = run_cli("check", "--matrix", str(f))
        assert res.returncode == 2

    def test_entries_near_the_float_range_certify_without_a_warning(self, tmp_path):
        # the triangle pass's sums of two such entries overflow to inf; numpy
        # once printed a RuntimeWarning for them on stderr
        f = tmp_path / "big.csv"
        f.write_text("0,1.7e308,1.7e308\n1.7e308,0,1.7e308\n1.7e308,1.7e308,0\n")
        res = run_cli("check", "--matrix", str(f))
        assert res.returncode == 0 and res.stderr == b""
        assert res.stdout.endswith(b"RESULT PASS\n")


class TestBallSvg:
    def test_defaults_are_their_owners(self):
        from metrikos import balls

        parser = cli.build_parser()
        args = parser.parse_args(["ball-svg", "--metric", "taxicab", "--radius", "1", "--out", "x.svg"])
        assert args.samples == balls.DEFAULT_BOUNDARY_SAMPLES == 256
        assert parser.parse_args(["check", "--random", "4"]).dim == sampling.DEFAULT_DIM == 2
        for command, text in (("ball-svg", "8 to 100000 (default 256)"), ("check", "1 to 256 (default 2)")):
            assert text in " ".join(run_cli(command, "--help").stdout.decode().split())

    def test_shapes_carry_their_vertices(self, tmp_path):
        from metrikos.svg import Viewport

        cases = {
            "taxicab": [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
            "chebyshev": [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
            "euclidean": [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
        }
        tags = {"taxicab": mk.Taxicab(), "chebyshev": mk.Chebyshev(), "euclidean": mk.Euclidean()}
        for tag, vertices in cases.items():
            out = tmp_path / f"{tag}.svg"
            res = run_cli("ball-svg", "--metric", tag, "--radius", "1", "--out", str(out))
            assert res.returncode == 0
            xml = out.read_text()
            boundary = mk.ball_boundary(tags[tag], (0.0, 0.0), 1.0, n=256)
            lo = boundary.samples.min(axis=0)
            hi = boundary.samples.max(axis=0)
            vp = Viewport.fit(lo[0], hi[0], lo[1], hi[1])
            for vertex in vertices:
                px, py = vp.map(vertex)
                assert f"{px:.2f},{py:.2f}" in xml, (tag, vertex)

    def test_output_is_svg_11_xml(self, tmp_path):
        out = tmp_path / "circle.svg"
        res = run_cli("ball-svg", "--metric", "euclidean", "--radius", "2", "--out", str(out))
        assert res.returncode == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("ball-svg", "--metric", "chebyshev", "--radius", "1.5", "--center", "0.5,0.5", "--out", str(a))
        run_cli("ball-svg", "--metric", "chebyshev", "--radius", "1.5", "--center", "0.5,0.5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_shape_is_usage_error(self, tmp_path):
        res = run_cli("ball-svg", "--metric", "discrete", "--radius", "1", "--out", str(tmp_path / "x.svg"))
        assert res.returncode == 2

    def test_infinite_radius_is_refused_without_a_warning(self, tmp_path):
        out = tmp_path / "x.svg"
        for radius in ("inf", "-inf", "nan"):
            res = run_cli("ball-svg", "--metric", "euclidean", f"--radius={radius}", "--out", str(out))
            assert res.returncode == 2, radius
            want = "finite" if radius == "inf" else "positive"
            assert res.stderr == f"error: radius must be {want}, got {float(radius)}\n".encode(), radius
        assert not out.exists()

    def test_large_radius_and_far_center_are_drawn(self, tmp_path, capsys):
        # both exited 2 with "boundary sample ... is at distance ..."
        out = tmp_path / "big.svg"
        for args in (["--radius", "1e8"], ["--radius", "1", "--center=1e8,0"]):
            for metric in ("euclidean", "taxicab", "chebyshev"):
                assert cli.main(["ball-svg", "--metric", metric, *args, "--out", str(out)]) == 0, (metric, args)
                assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--metric", "taxicab", "--radius", "2048", "--center", "0,1e308"],
             "error: the taxicab ball of radius 2048.0 around (0.0, 1e+308) is lost in the rounding of its center\n"),
            (["--metric", "taxicab", "--radius", "1e308", "--center", "0,10"], None),
            (["--metric", "euclidean", "--radius", "1e308", "--center", "1e308,0"],
             "error: the euclidean ball of radius 1e+308 around (1e+308, 0.0) leaves the float range\n"),
        ],
        ids=["radius-below-the-center", "span-past-float", "boundary-past-float"],
    )
    def test_balls_near_the_top_of_the_float_range(self, tmp_path, capsys, args, error):
        # these drew y = inf, drew every vertex at (256, 256), and printed
        # numpy's repr of an infinite sample, each after a RuntimeWarning
        out = tmp_path / "x.svg"
        rc = cli.main(["ball-svg", *args, "--out", str(out)])
        if error is not None:
            assert (rc, capsys.readouterr().err) == (2, error)
            assert not out.exists()
            return
        assert rc == 0 and capsys.readouterr().err == ""
        xml = out.read_text()
        assert "inf" not in xml and "nan" not in xml  # how a number that is not finite prints
        polygon = ET.fromstring(xml).find("{http://www.w3.org/2000/svg}polygon").get("points")
        P = np.array([xy.split(",") for xy in polygon.split()], dtype=float)
        # a diamond spans the usable box, 10% in from each edge, on both axes
        assert P.min(axis=0).tolist() == [51.2, 51.2] and P.max(axis=0).tolist() == [460.8, 460.8]

    def test_samples_out_of_range_are_refused_before_tracing(self, monkeypatch, capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("traced a boundary out of range")

        monkeypatch.setattr(cli, "ball_boundary", refuse)
        lo, hi = cli.MIN_BOUNDARY_SAMPLES, cli.MAX_BOUNDARY_SAMPLES
        for n in (0, -3, lo - 1, hi + 1):
            argv = ["ball-svg", "--metric", "euclidean", "--radius", "1", "--samples", str(n), "--out", str(tmp_path / "x.svg")]
            assert cli.main(argv) == 2, n
            assert capsys.readouterr().err == f"error: --samples takes {lo} to {hi} boundary samples, got {n}\n"
        assert f"{lo} to {hi}" in run_cli("ball-svg", "--help").stdout.decode()


class TestIsometry:
    def test_rotation_on_euclidean(self):
        res = run_cli(
            "isometry",
            "--map", '{"map": "rotation", "theta": 0.7853981633974483}',
            "--metric", "euclidean",
            "--random", "32",
        )
        assert res.returncode == 0
        assert res.stdout == b"ISOMETRY\n"

    def test_rotation_on_taxicab_with_planted_pair(self, tmp_path):
        f = tmp_path / "pts.json"
        f.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0]]}))
        res = run_cli(
            "isometry",
            "--map", '{"map": "rotation", "theta": 0.7853981633974483}',
            "--metric", "taxicab",
            "--points", str(f),
        )
        assert res.returncode == 1
        out = res.stdout.decode()
        assert out.startswith("NOT ISOMETRY")
        assert "before 1 after 1.41421356237" in out

    def test_swap_axes_on_taxicab(self):
        res = run_cli(
            "isometry", "--map", '{"map": "swap_axes"}', "--metric", "taxicab", "--random", "16"
        )
        assert res.returncode == 0

    def test_orthogonal_map_on_great_circle(self):
        res = run_cli(
            "isometry",
            "--map", '{"map": "orthogonal", "matrix": [[0,1,0],[1,0,0],[0,0,-1]]}',
            "--metric", "greatcircle",
            "--random", "16",
        )
        assert res.returncode == 0

    def test_index_sample_under_a_plane_map_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        assert cli.main(["isometry", "--map", '{"map": "swap_axes"}', "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == "error: expected a 2-dimensional point, got 1 coordinates\n"

    def test_bad_map_json_is_usage_error(self):
        res = run_cli("isometry", "--map", "{not json", "--metric", "euclidean", "--random", "4")
        assert res.returncode == 2
        # a missing or misshapen field is a usage error too, not a traceback,
        # and so is an int past the float range, which once raised OverflowError
        huge = "1" + "0" * 400
        for bad in ('{"map": "orthogonal"}', '{"map": "translation", "a": 5}', '{"map": "rotation", "theta": 1e400}',
                    f'{{"map": "rotation", "theta": {huge}}}', f'{{"map": "translation", "a": [-{huge}, 0]}}',
                    f'{{"map": "orthogonal", "matrix": [[{huge}, 0, 0], [0, 1, 0], [0, 0, 1]]}}'):
            res = run_cli("isometry", "--map", bad, "--metric", "euclidean", "--random", "4")
            assert res.returncode == 2, bad
            assert res.stderr.startswith(b"error: ") and b"Traceback" not in res.stderr, bad
            assert b"math domain" not in res.stderr, bad

    def test_map_fields_that_are_not_numbers_are_usage_errors(self, capsys):
        # each was read by float(), as 1.0, 0.5, (1.0, 2.0) and (1.0, 0.0), and passed as an isometry
        for bad, message in (('{"map": "rotation", "theta": true}', 'rotation needs "theta": a number'),
                             ('{"map": "rotation", "theta": "0.5"}', 'rotation needs "theta": a number'),
                             ('{"map": "translation", "a": [true, "2"]}', 'translation needs "a": [a1, a2]'),
                             ('{"map": "orthogonal", "matrix": [[true, 0, 0], [0, 1, 0], [0, 0, "1"]]}',
                              'orthogonal needs "matrix": a 3x3 array')):
            assert cli.main(["isometry", "--map", bad, "--metric", "euclidean", "--random", "4"]) == 2, bad
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n", bad

    def test_deeply_nested_map_json_is_usage_error(self, capsys):
        argv = ["isometry", "--map", "[" * 100_000, "--metric", "euclidean", "--random", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --map: JSON nested too deeply to parse\n"

    def test_malformed_map_json_names_the_flag(self, capsys):
        argv = ["isometry", "--map", '{"map": "translation", "a": [1, 2', "--metric", "euclidean", "--random", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --map: Expecting ',' delimiter: line 1 column 34 (char 33)\n"


class TestGrid:
    def test_adjacent_diagonal(self):
        res = run_cli("grid", "10", "10", "--from", "0,0", "--to", "1,1")
        assert res.returncode == 0
        assert res.stdout == b"distance 2\ncount 2\n"

    def test_two_by_two_block(self):
        res = run_cli("grid", "10", "10", "--from", "0,0", "--to", "2,2")
        assert res.stdout == b"distance 4\ncount 6\n"

    def test_same_vertex(self):
        res = run_cli("grid", "5", "5", "--from", "0,0", "--to", "0,0")
        assert res.stdout == b"distance 0\ncount 1\n"

    def test_reversed_query_prints_the_same_lines(self):
        forward = run_cli("grid", "40", "30", "--from", "0,0", "--to", "39,29")
        backward = run_cli("grid", "40", "30", "--from", "39,29", "--to", "0,0")
        assert forward.returncode == backward.returncode == 0
        assert forward.stdout == backward.stdout == b"distance 68\ncount 13750991318793417920\n"

    def test_out_of_range_vertex(self):
        res = run_cli("grid", "3", "3", "--from", "0,0", "--to", "5,5")
        assert res.returncode == 2

    def test_past_the_cap_is_refused_before_building(self, monkeypatch, capsys):
        from metrikos import graphs

        def refuse(*args, **kwargs):
            raise AssertionError("built a grid past the cap")

        monkeypatch.setattr(graphs, "grid_graph", refuse)
        for w, h in ((100_000, 100_000), (1, cli.MAX_GRID_VERTICES + 1)):
            assert cli.main(["grid", str(w), str(h), "--from", "0,0", "--to", "0,0"]) == 2
            assert f"cap of {cli.MAX_GRID_VERTICES} vertices" in capsys.readouterr().err
        res = run_cli("grid", "100000", "100000", "--from", "0,0", "--to", "1,1")
        assert res.returncode == 2 and res.stderr.startswith(b"error: ")
        assert f"width * height <= {cli.MAX_GRID_VERTICES}" in run_cli("grid", "--help").stdout.decode()


class TestProcessEntry:
    def test_main_leaves_the_collector_as_it_was(self):
        # only the process entry, run(), freezes the collector
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(["dist", "--metric", "euclidean", "-p", "0,0", "-q", "1,1"]) == 0
        assert cli.main(["dist", "--metric", "nope", "-p", "0", "-q", "1"]) == 2
        with pytest.raises(SystemExit):
            cli.main(["dist"])
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dist", "--metric", "euclidean", "-p", "0,0", "-q", "1,1"], 0),
            (["check", "--matrix", "{asym}"], 1),
            (["dist", "--metric", "euclidean", "-p", "0,0"], 2),
            (["dist", "--metric", "euclidean", "-p", "0,0", "-q", "1,x"], 2),
        ],
        ids=["dist", "asym-check", "usage-error", "input-error"],
    )
    def test_run_exits_and_prints_as_main_does(self, tmp_path, argv, code):
        asym = tmp_path / "asym.csv"
        asym.write_text("0,1,5,1\n1,0,1,2\n4,1,0,1\n1,2,1,0\n")
        argv = [a.format(asym=asym) for a in argv]
        # the installed script's form, python -m metrikos, and main alone
        entries = (
            [sys.executable, "-c", "import sys; from metrikos.cli import run; sys.exit(run())"],
            [sys.executable, "-m", "metrikos"],
            [sys.executable, "-c", "import sys; from metrikos.cli import main; sys.exit(main())"],
        )
        results = [subprocess.run([*entry, *argv], capture_output=True) for entry in entries]
        for res in results:
            assert res.returncode == code, res.stderr
            assert (res.stdout, res.stderr) == (results[-1].stdout, results[-1].stderr)
        assert bool(results[-1].stdout) == (code < 2) and bool(results[-1].stderr) == (code == 2)
