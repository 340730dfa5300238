import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import metrikos as mk
from metrikos import cli, fileio
from metrikos.svg import SvgScene, Viewport, ball_figure


def per_pair_points(pixel_points) -> str:
    """A polygon's points text one pair at a time, as the SVG writer once
    built it: each coordinate a numpy scalar in an f-string."""
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in pixel_points)


def ball_svg_digest(tmp_path, metric, samples) -> str:
    """The SHA-256 of the ball-svg file of radius 1.3 around (0.75, -1.5)."""
    out = tmp_path / "ball.svg"
    argv = ["ball-svg", "--metric", metric, "--radius", "1.3", "--center=0.75,-1.5", "--samples", str(samples)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def polygon_points(scene: SvgScene) -> str:
    return scene.elements[0].split('points="')[1].split('"')[0]


class TestPointSetFiles:
    def test_round_trip(self, tmp_path, rng):
        pts = [rng.uniform(-2, 2, size=3) for _ in range(5)]
        path = tmp_path / "pts.json"
        fileio.dump_points(path, pts)
        dim, loaded = fileio.load_points(path)
        assert dim == 3
        assert all(np.array_equal(a, b) for a, b in zip(pts, loaded))
        with pytest.raises(ValueError, match="^point set must be nonempty$"):
            fileio.dump_points(path, [])

    def test_dim_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "points": [[1, 2], [3]]}))
        with pytest.raises(ValueError):
            fileio.load_points(path)
        # int() would read 2.5 as 2 and true as 1
        for dim in (2.5, True, "2", None):
            path.write_text(json.dumps({"dim": dim, "points": [[1, 2], [3, 4]]}))
            with pytest.raises(mk.CarrierError, match="dim must be an integer"):
                fileio.load_points(path)
        path.write_text(json.dumps({"dim": 0, "points": []}))
        with pytest.raises(ValueError) as err:
            fileio.load_points(path)
        assert str(err.value) == f"{path}: dim must be a positive integer"
        path.write_text(json.dumps({"dim": 2.0, "points": [[1, 2], [3, 4]]}))
        dim, points = fileio.load_points(path)
        assert dim == 2 and points.dtype == np.float64 and points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 1, "points": [[NaN]]}')
        with pytest.raises(ValueError):
            fileio.load_points(path)

    def test_a_file_past_the_byte_cap_is_not_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "p.json"
        fileio.dump_points(path, [(1.0, 2.0), (3.0, 4.0)])
        size = path.stat().st_size
        monkeypatch.setattr(fileio, "MAX_POINTS_FILE_BYTES", size)
        assert fileio.load_points(path)[0] == 2

        def refuse(f):
            raise AssertionError("parsed a file past the cap")

        monkeypatch.setattr(fileio, "MAX_POINTS_FILE_BYTES", size - 1)
        monkeypatch.setattr(fileio.json, "load", refuse)
        with pytest.raises(ValueError) as err:
            fileio.load_points(path)
        assert str(err.value) == f"{path}: a point file of {size} bytes is past the cap of {size - 1} bytes"

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"points": [[1, 2]]}')
        with pytest.raises(ValueError, match="dim"):
            fileio.load_points(path)
        # not a list of points: once a TypeError, which the CLI does not catch
        for points in ("5", "null", '{"0": [1, 2]}'):
            path.write_text('{"dim": 2, "points": %s}' % points)
            with pytest.raises(ValueError, match="'points' list"):
                fileio.load_points(path)

    def test_deeply_nested_json_is_a_value_error(self, tmp_path):
        # json's RecursionError once passed through the CLI as a traceback
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 2, "points": ' + "[" * 100_000 + "}")
        with pytest.raises(ValueError) as err:
            fileio.load_points(path)
        assert str(err.value) == f"{path}: JSON nested too deeply to parse"

    def test_a_json_syntax_error_names_the_file(self, tmp_path):
        # json's own message once came without the file it was about
        path = tmp_path / "trunc.json"
        path.write_text('{"dim": 2, "points": [[0.5, 0.25], [1')
        with pytest.raises(ValueError) as err:
            fileio.load_points(path)
        assert str(err.value) == f"{path}: Expecting ',' delimiter: line 1 column 38 (char 37)"


class TestGraphFiles:
    def test_load(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "vertices": 3,
            "edges": [[0, 1, 1.0], [1, 2, 2.5]],
            "coords": [[0, 0], [1, 0], [1, 1]],
        }))
        g = fileio.load_graph(path)
        assert g.vertex_count == 3
        assert mk.shortest_path_distance(g, 0, 2) == 3.5
        assert np.array_equal(g.coords[2], (1, 1))

    def test_bad_edge_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, -3.0]]}))
        with pytest.raises(ValueError):
            fileio.load_graph(path)

    def test_edges_must_be_lists_of_three_with_numeric_lengths(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": 2, "edges": 5}))
        with pytest.raises(ValueError, match="'edges' list of \\[u, v, length\\] lists"):
            fileio.load_graph(path)
        # WeightedGraph reads each edge, and names it as the file writes it
        for edges, message in (
            ([5], "edge 5 must be a (u, v, length) triple"),
            ([[0, 1]], "edge [0, 1] must be a (u, v, length) triple"),
            ([[0, 1, 1.0, 2.0]], "edge [0, 1, 1.0, 2.0] must be a (u, v, length) triple"),
            ([[0, 1, [1]]], "edge [0, 1, [1]] must have a number as its length, got [1]"),
            ([[0, 1, "1.5"]], "edge [0, 1, '1.5'] must have a number as its length, got '1.5'"),
            ([[0, 1, True]], "edge [0, 1, True] must have a number as its length, got True"),
            ([[0, 1, None]], "edge [0, 1, None] must have a number as its length, got None"),
        ):
            path.write_text(json.dumps({"vertices": 2, "edges": edges}))
            with pytest.raises(mk.CarrierError) as err:
                fileio.load_graph(path)
            assert str(err.value) == message
        path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 2]]}))
        assert fileio.load_graph(path).edges == ((0, 1, 2.0),)

    def test_fractional_vertex_count_and_ids_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        for vertices, edges in ((2.7, [[0, 1, 1.0]]), (3, [[0, 1.5, 1.0]]), ("3", [[0, 1, 1.0]])):
            path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
            with pytest.raises(mk.CarrierError, match="must be an integer"):
                fileio.load_graph(path)
        path.write_text(json.dumps({"vertices": 3.0, "edges": [[0, 1.0, 1.0]]}))
        assert fileio.load_graph(path).edges == ((0, 1, 1.0),)

    def test_deeply_nested_json_is_a_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": 2, "edges": ' + "[" * 100_000 + "}")
        with pytest.raises(ValueError) as err:
            fileio.load_graph(path)
        assert str(err.value) == f"{path}: JSON nested too deeply to parse"

    def test_a_json_syntax_error_names_the_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"vertices": 2, "edges": [[0, 1, 1.0]')
        with pytest.raises(ValueError) as err:
            fileio.load_graph(path)
        assert str(err.value) == f"{path}: Expecting ',' delimiter: line 1 column 38 (char 37)"


class TestMatrixCsv:
    def test_plain(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        m = fileio.load_matrix_csv(path)
        assert m.labels is None
        assert np.array_equal(m.values, [[0, 1], [1, 0]])

    def test_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n0,1,4\n1,0,1\n4,1,0\n")
        m = fileio.load_matrix_csv(path)
        assert m.labels == ("a", "b", "c")
        assert m.values[0, 2] == 4.0

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,2\n")
        with pytest.raises(ValueError, match="square"):
            fileio.load_matrix_csv(path)

    def test_ragged_rows_rejected_as_not_square(self, tmp_path):
        path = tmp_path / "m.csv"
        for text in ("0,1,2\n1,0\n2,1,0\n", "a,b\n0,1\n1\n"):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                fileio.load_matrix_csv(path)
            assert str(err.value).startswith(f"{path}: distance matrix must be square")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,inf\n1,0\n")
        with pytest.raises(ValueError, match="finite"):
            fileio.load_matrix_csv(path)

    def test_rows_past_the_cap_are_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "MAX_MATRIX_ROWS", 3)
        path = tmp_path / "m.csv"
        # at the cap, with or without a header row
        for text in ("0,1,1\n1,0,1\n1,1,0\n", "a,b,c\n0,1,1\n1,0,1\n1,1,0\n"):
            path.write_text(text)
            assert fileio.load_matrix_csv(path).n == 3
        # past it: reading stops at the first row past the cap, before the rows that would fail to parse
        tall = f"{path}: a matrix of more than 3 rows is past the cap of 3 rows and columns"
        wide = f"{path}: a matrix of 4 columns is past the cap of 3 rows and columns"
        for text, message in (
            ("0,1,1\n1,0,1\n1,1,0\n1,1,1\n" + "x\n" * 5, tall),
            ("a,b,c\n0,1,1\n1,0,1\n1,1,0\n1,1,1\n", tall),
            ("0,1,1,1\n" + "x\n" * 5, wide),
            ("0,1,1\n1,0,1\n1,1,0,1\n", wide),
            ("a,b,c,d\n0,1,1,1\n", wide),
        ):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                fileio.load_matrix_csv(path)
            assert str(err.value) == message

    def test_cells_are_read_as_float_reads_them(self, tmp_path):
        # DistanceMatrix parses the cells as written, by Python's float grammar
        cells = ["1_0", " 1.5 ", "+.5", "5.", "-0", "\u0661\u0662", "\u0663.\u0665", "1e-3", "\u2003 2 ", "-7E+2", "0.1"]
        n = len(cells)
        table = [[cells[(i + j) % n] for j in range(n)] for i in range(n)]
        path = tmp_path / "m.csv"
        for header in ("", ",".join(f"p{i}" for i in range(n)) + "\n"):
            path.write_text(header + "".join(",".join(row) + "\n" for row in table), encoding="utf-8")
            got = fileio.load_matrix_csv(path).values
            assert got.tobytes() == np.array([[float(c) for c in row] for row in table]).tobytes()
        for text in ("0,1\nx,0\n", "a,b\n0,x\n1,0\n"):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                fileio.load_matrix_csv(path)
            assert str(err.value) == f"{path}: could not convert string to float: 'x'"

    def test_a_field_past_the_csv_limit_is_a_value_error(self, tmp_path):
        # csv.Error is no ValueError, so the CLI printed a traceback and exited 1
        path = tmp_path / "m.csv"
        path.write_text("0," + "1" * 200_000 + "\n")
        with pytest.raises(ValueError) as err:
            fileio.load_matrix_csv(path)
        assert str(err.value) == f"{path}: field larger than field limit (131072)"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            fileio.load_matrix_csv(path)
        path.write_text("a,b\n\n")
        with pytest.raises(ValueError) as err:
            fileio.load_matrix_csv(path)
        assert str(err.value) == f"{path}: header row but no data rows"


class TestSvg:
    def test_scene_parses_as_svg_11(self, tmp_path):
        boundary = mk.ball_boundary(mk.Taxicab(), (0, 0), 1.0, n=16)
        scene = ball_figure(boundary)
        path = tmp_path / "fig.svg"
        scene.write(path)
        root = ET.parse(path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        assert len(list(root)) == 3  # polygon, center cross, label

    def test_deterministic_output(self):
        boundary = mk.ball_boundary(mk.Euclidean(), (0.3, -0.2), 1.5, n=64)
        a = ball_figure(boundary).to_xml()
        b = ball_figure(boundary).to_xml()
        assert a == b

    def test_viewport_preserves_aspect_and_flips_y(self):
        vp = Viewport.fit(-1.0, 1.0, -1.0, 1.0, 512, 512)
        x0, y0 = vp.map((0.0, 0.0))
        assert (x0, y0) == (256.0, 256.0)
        _, y_up = vp.map((0.0, 0.5))
        assert y_up < y0  # mathematical up is screen up
        x_right, _ = vp.map((0.5, 0.0))
        assert x_right > x0

    def test_margin_fraction(self):
        vp = Viewport.fit(-1.0, 1.0, -1.0, 1.0, 100, 100)
        left, _ = vp.map((-1.0, 0.0))
        right, _ = vp.map((1.0, 0.0))
        assert left == pytest.approx(10.0)
        assert right == pytest.approx(90.0)

    @pytest.mark.parametrize(
        "metric, digest",
        [
            ("taxicab", "a79ff7c3be1d05884fbaf268f78d2385343287dcdb640ba25bafd1a6eafc59cb"),
            ("chebyshev", "009235b80c90e9b05a09d4681c096e197b59a3647b17c07f6505cbfb1e34e836"),
        ],
    )
    def test_ball_svg_bytes_are_pinned(self, tmp_path, capsys, metric, digest):
        # The SHA-256 of the ball-svg file as the per-sample boundary loops
        # and the per-pair formatting drew it. The Euclidean circle is left
        # out: its samples come from np.cos and np.sin, whose last bits vary
        # from one platform to another; test_euclidean_figures_match_the_per_pair_text
        # compares it with the per-pair text instead.
        assert ball_svg_digest(tmp_path, metric, 20000) == digest

    @pytest.mark.parametrize(
        "metric, samples, digest",
        [
            ("taxicab", 8, "1cab4f6388385fbf6ef0b7841efcbabaa149df87d6a1d527086fe07724e46972"),
            ("taxicab", 2000, "a5bcf035df23e529a13ea38148618c97a751e2f8bbb0f09d9ba9526a4b29c6e2"),
            ("chebyshev", 8, "0d57d8faedee0d503df30d69cbea9b7796b85ad013325119cd33014feda48b5f"),
            ("chebyshev", 2000, "5dfa067568ff820ca53d74b0b82af871fac8175e5d4e955abc58cc0c65f49516"),
        ],
    )
    def test_ball_svg_bytes_at_fewer_samples_are_pinned(self, tmp_path, capsys, metric, samples, digest):
        # the same figures, drawn the same way, at 8 and 2,000 samples
        assert ball_svg_digest(tmp_path, metric, samples) == digest

    def test_boundary_vertices_land_in_figure(self):
        boundary = mk.ball_boundary(mk.Taxicab(), (0, 0), 1.0, n=256)
        scene = ball_figure(boundary)
        xml = scene.to_xml()
        xs = np.append(boundary.samples[:, 0], 0.0)
        ys = np.append(boundary.samples[:, 1], 0.0)
        vp = Viewport.fit(xs.min(), xs.max(), ys.min(), ys.max(), 512, 512)
        for vertex in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]:
            px, py = vp.map(vertex)
            assert f"{px:.2f},{py:.2f}" in xml

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0, 0.0],
            [-0.004, -0.005, -0.0049999, 0.004, -0.006],
            [0.125, 0.375, -0.125, 0.005, 1.005, 2.675, -2.675, 1.115, 0.045],
            [1e6, -1e6, 999999.995, 123456.785, 5e5 + 0.125],
            [255.99999999, 256.0, 51.2, 460.8, 1e-300, -1e-300],
        ],
        ids=["signed-zero", "rounds-to-minus-zero", "halves-and-near-halves", "1e6-pixels", "viewport-values"],
    )
    def test_polygon_text_matches_the_per_pair_text(self, values):
        # every value in either coordinate, in every pairing
        v = np.array(values)
        P = np.column_stack([np.repeat(v, len(v)), np.tile(v, len(v))])
        scene = SvgScene()
        scene.add_polygon(P)
        assert polygon_points(scene) == per_pair_points(P)

    @pytest.mark.parametrize("n", [0, 1, 2, 20003])
    def test_polygon_text_matches_at_any_length(self, n, rng):
        P = rng.uniform(-1e6, 1e6, size=(n, 2)) * rng.choice([1e-6, 1e-3, 1.0], size=(n, 2))
        scene = SvgScene()
        scene.add_polygon(P)
        assert polygon_points(scene) == per_pair_points(P)
        assert scene.elements[0] == (
            f'<polygon points="{per_pair_points(P)}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>'
        )

    @pytest.mark.parametrize("n", [8, 2000, 20000])
    def test_euclidean_figures_match_the_per_pair_text(self, n):
        for center, radius in [((0.0, 0.0), 1.0), ((-0.0, -0.0), 0.125), ((0.75, -1.5), 1.3), ((-3.0, 2.675), 2.675), ((1e8, 0.0), 1.0)]:
            boundary = mk.ball_boundary(mk.Euclidean(), center, radius, n=n)
            samples = boundary.samples
            xs, ys = np.append(samples[:, 0], center[0]), np.append(samples[:, 1], center[1])
            vp = Viewport.fit(xs.min(), xs.max(), ys.min(), ys.max(), 512, 512)
            assert polygon_points(ball_figure(boundary)) == per_pair_points(vp.map_rows(samples)), (center, radius)
