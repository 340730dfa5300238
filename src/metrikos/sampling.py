"""Seeded random carrier samples for certification runs, tests, and demos."""

from __future__ import annotations

import numpy as np

from .core import GreatCircle, MetricSpec, Subspace, _Indices
from .graphs import Polyline, WeightedGraph


def random_points(rng: np.random.Generator, n: int, dim: int = 2, low: float = -1.0, high: float = 1.0) -> np.ndarray:
    """Uniform points in a coordinate box, one per row."""
    return rng.uniform(low, high, size=(n, dim))


def random_sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform unit-sphere points (normalized gaussians), one per row."""
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-6):  # pragma: no cover - astronomically rare
        bad = norms < 1e-6
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edges: int = 0,
    integer_lengths: bool = False,
) -> WeightedGraph:
    """Random connected graph: a random spanning tree plus optional extras."""
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
        present.add((u, v))
    attempts = 0
    while len(edges) < (n - 1) + extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append(key)
    if integer_lengths:
        lengths = rng.integers(1, 10, size=len(edges))
    else:
        lengths = rng.uniform(0.1, 2.0, size=len(edges))
    return WeightedGraph(n, [(u, v, float(w)) for (u, v), w in zip(edges, lengths)])


def random_polyline(rng: np.random.Generator, n: int, step: float = 1.0) -> Polyline:
    """Random walk polyline with n vertices and nonzero steps."""
    if n < 2:
        raise ValueError("need at least two vertices")
    steps = rng.uniform(0.1 * step, step, size=(n - 1, 2)) * rng.choice([-1.0, 1.0], size=(n - 1, 2))
    pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    return Polyline(pts)


def sample_for(spec: MetricSpec, rng: np.random.Generator, n: int, dim: int = 2) -> list:
    """Draw n random points from the carrier of ``spec``, in the dimension
    of a coordinate spec that fixes one (the real line) or else in ``dim``."""
    if isinstance(spec, GreatCircle):
        return list(random_sphere_points(rng, n))
    if isinstance(spec, _Indices):
        return [int(v) for v in rng.integers(0, spec.size, size=n)]
    if isinstance(spec, Subspace):
        pool = sorted(spec.allowed)
        idx = rng.integers(0, len(pool), size=n)
        return [np.array(pool[i]) if isinstance(pool[i], tuple) else pool[i] for i in idx]
    return list(random_points(rng, n, dim=getattr(spec, "dim", None) or dim))
