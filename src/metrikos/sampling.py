"""Seeded random carrier samples for certification runs, tests, and demos."""

from __future__ import annotations

import numpy as np

from .core import GreatCircle, MetricSpec, Subspace, _Indices
from .graphs import Polyline, WeightedGraph

# Coordinate points are drawn in this many dimensions unless told otherwise.
DEFAULT_DIM = 2


def random_points(rng: np.random.Generator, n: int, dim: int = DEFAULT_DIM, low: float = -1.0, high: float = 1.0) -> np.ndarray:
    """Uniform points in a coordinate box, one per row."""
    return rng.uniform(low, high, size=(n, dim))


def random_sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform unit-sphere points (normalized gaussians), one per row."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int = 0) -> WeightedGraph:
    """Random connected graph: a random spanning tree plus optional extras,
    with edge lengths uniform in [0.1, 2)."""
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
    lengths = rng.uniform(0.1, 2.0, size=len(edges))
    return WeightedGraph._from_arrays(n, np.array(edges, dtype=np.int64).reshape(-1, 2).T, lengths)


def random_polyline(rng: np.random.Generator, n: int) -> Polyline:
    """Random walk polyline with n vertices and steps of 0.1 to 1 in each
    coordinate."""
    if n < 2:
        raise ValueError("need at least two vertices")
    steps = rng.uniform(0.1, 1.0, size=(n - 1, 2)) * rng.choice([-1.0, 1.0], size=(n - 1, 2))
    pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    return Polyline(pts)


def sample_for(spec: MetricSpec, rng: np.random.Generator, n: int, dim: int = DEFAULT_DIM) -> list:
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
