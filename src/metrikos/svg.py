"""Minimal deterministic SVG 1.1 emission for ball-boundary figures.

Figures are data-space geometry mapped through a fixed viewport: content is
centered with a 10% margin, aspect preserved, and the y-axis flipped so that
mathematical "up" points up on screen. Every figure is FIGURE_SIZE pixels
square and drawn in one style (colours, stroke widths, marker and font
sizes), so the scene's methods take geometry and text only. Output is plain
XML text built from formatted floats, so identical inputs give
byte-identical files. A polygon's text is one ``%`` format over its whole
(n, 2) pixel array, with no Python step per sample.
"""

from __future__ import annotations

import numpy as np

from .balls import BoundaryPolyline
from .frozen import Frozen, field_repr
from .points import as_point

MARGIN_FRACTION = 0.1
FIGURE_SIZE = 512  # pixels a side


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class Viewport(Frozen):
    """Affine data-to-pixel map with uniform scale and flipped y-axis."""

    __match_args__ = ("scale", "x_shift", "y_shift")
    _by_value = True

    def __init__(self, scale: float, x_shift: float, y_shift: float):
        vars(self).update(scale=scale, x_shift=x_shift, y_shift=y_shift)

    @classmethod
    def fit(cls, xmin, xmax, ymin, ymax) -> "Viewport":
        # half spans and midpoints from halved bounds: no sum or difference
        # of two finite bounds overflows, and halving is exact, so the scale
        # and shifts are those of the whole spans wherever those are finite
        half = max(0.5 * xmax - 0.5 * xmin, 0.5 * ymax - 0.5 * ymin, 0.5e-30)
        scale = 0.5 * FIGURE_SIZE * (1.0 - 2.0 * MARGIN_FRACTION) / half
        x_shift = 0.5 * FIGURE_SIZE - scale * (0.5 * xmin + 0.5 * xmax)
        y_shift = 0.5 * FIGURE_SIZE + scale * (0.5 * ymin + 0.5 * ymax)
        return cls(scale=scale, x_shift=x_shift, y_shift=y_shift)

    def map(self, p) -> tuple[float, float]:
        return tuple(self.map_rows(as_point(p, dim=2)[None, :])[0])

    def map_rows(self, P: np.ndarray) -> np.ndarray:
        """Pixel coordinates of the rows of an (n, 2) array of validated
        points: the one pixel formula, which ``map`` applies to one point."""
        return np.column_stack([self.scale * P[:, 0] + self.x_shift, -self.scale * P[:, 1] + self.y_shift])


class SvgScene:
    """An SVG document of FIGURE_SIZE pixels a side, assembled from
    polygons, cross markers and labels in one fixed style. Scenes compare
    by their element lists and are not hashable."""

    __match_args__ = ("elements",)
    __repr__ = field_repr

    def __init__(self, elements: list[str] | None = None):
        self.elements = [] if elements is None else elements

    def __eq__(self, other):
        return self.elements == other.elements if type(other) is type(self) else NotImplemented

    def add_polygon(self, pixel_points):
        # one format over the (n, 2) array: "%.2f" rounds as _fmt does
        P = np.asarray(pixel_points, dtype=float)
        pts = ("%.2f,%.2f " * len(P) % tuple(P.ravel().tolist()))[:-1]
        self.elements.append(f'<polygon points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>')

    def add_cross(self, x: float, y: float):
        s = 5.0  # arm length in pixels
        self.elements.append(
            f'<path d="M {_fmt(x - s)} {_fmt(y)} L {_fmt(x + s)} {_fmt(y)} '
            f'M {_fmt(x)} {_fmt(y - s)} L {_fmt(x)} {_fmt(y + s)}" '
            f'stroke="#b03030" stroke-width="1.5" fill="none"/>'
        )

    def add_text(self, x: float, y: float, text: str):
        self.elements.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" font-size="14">{text}</text>')

    def to_xml(self) -> str:
        body = "\n".join(f"  {el}" for el in self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{FIGURE_SIZE}" height="{FIGURE_SIZE}" '
            f'viewBox="0 0 {FIGURE_SIZE} {FIGURE_SIZE}">\n'
            f"{body}\n"
            "</svg>\n"
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_xml())


def ball_figure(boundary: BoundaryPolyline) -> SvgScene:
    """Render a ball boundary as a closed curve with center marker and
    radius label."""
    samples = boundary.samples
    xs = np.append(samples[:, 0], boundary.center[0])
    ys = np.append(samples[:, 1], boundary.center[1])
    vp = Viewport.fit(xs.min(), xs.max(), ys.min(), ys.max())
    scene = SvgScene()
    scene.add_polygon(vp.map_rows(samples))
    cx, cy = vp.map(boundary.center)
    scene.add_cross(cx, cy)
    scene.add_text(10.0, FIGURE_SIZE - 10.0, f"{boundary.metric_tag} ball, r = {boundary.radius:.12g}")
    return scene
