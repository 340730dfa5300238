"""A fixed reference task that measures how fast the host runs right now.

On a shared host the same code runs 20-60% slower for minutes at a time,
because other guests load the same cores; a 48-second run cannot average
that out. So the benchmark times this task between every two timed
operations and reports each operation's time rescaled to a host on which
the task takes ``REFERENCE_S``, using the task's times right before and
right after it. The benchmark and all its children are pinned to one CPU,
so the task measures the CPU the operation ran on. The task mixes the
kinds of work metrikos does: a tight interpreted loop, many small numpy
calls, passes over an array the size of a CPU's second-level cache, and a
dict-and-heap Dijkstra over a 3000-vertex graph of Python objects. In slow
spells, metrikos' operations slowed by more than the first three and by
less than the Dijkstra; their sum tracked them within a few percent. The
task does not depend on metrikos, so a change to metrikos cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import time

import numpy as np

# What the task took, run back to back, on the 2-CPU host the benchmark was
# calibrated on. Between operations it takes longer, as each operation
# leaves the caches cold; timings are reported at this speed.
REFERENCE_S = 0.009


def _random_graph(n: int) -> list[list[tuple[int, float]]]:
    """Adjacency lists of a random spanning tree plus ``n`` more edges."""
    rng = random.Random(5)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for v in range(1, 2 * n):
        a, b = (rng.randrange(v), v) if v < n else (rng.randrange(n), rng.randrange(n))
        w = rng.random() + 0.1
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


_ADJ = _random_graph(3000)


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts later, to one CPU
    (where the platform lets a process choose its CPUs)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_seconds() -> float:
    """The faster of two runs of the task; one run alone jitters by 10%.

    The garbage collector is off meanwhile, so the size of the caller's
    heap cannot move the task's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_task() for _ in range(2))
    finally:
        if enabled:
            gc.enable()


def _task() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    a = np.arange(256.0)
    for _ in range(150):
        a = np.sqrt(a + 1.0)
    b = np.arange(32768.0)
    for _ in range(20):
        b = b * 1.0000001
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y, w in _ADJ[x]:
            if d + w < dist.get(y, float("inf")):
                dist[y] = d + w
                heapq.heappush(heap, (d + w, y))
    return time.perf_counter() - t0


def rescaled(dt: float, before: float, after: float) -> float:
    """``dt`` measured between two reference times, at the reference speed."""
    return dt * 2.0 * REFERENCE_S / (before + after)
