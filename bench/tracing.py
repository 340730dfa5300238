"""Spans around calls into metrikos' public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every metrikos module
that binds it (and traced methods on their classes) with a wrapper, and
``uninstall`` puts the originals back. The program itself is not edited.

Coarse calls (verify_axioms, check_nesting, cli.main, ...) keep a full span:
name, start, end, parent span and benchmark operation id. Hot per-point calls
(as_point, validate_point, ...) run millions of times, so they are aggregated
(count, inclusive and self time) instead of stored one by one. Either kind
charges its duration to the enclosing call, so self times are exact.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the method.
COARSE = [
    ("metrikos.cli", "main", "cli.main"),
    ("metrikos.fileio", "load_points", "fileio.load_points"),
    ("metrikos.fileio", "load_matrix_csv", "fileio.load_matrix_csv"),
    ("metrikos.fileio", "load_graph", "fileio.load_graph"),
    ("metrikos.core", "verify_axioms", "core.verify_axioms"),
    ("metrikos.core", "pairwise_distances", "core.pairwise_distances"),
    ("metrikos.graphs", "grid_graph", "graphs.grid_graph"),
    ("metrikos.graphs", "WeightedGraph.__init__", "graphs.weighted_graph"),
    ("metrikos.graphs", "count_geodesics", "graphs.count_geodesics"),
    ("metrikos.balls", "check_nesting", "balls.check_nesting"),
    ("metrikos.balls", "ball_boundary", "balls.ball_boundary"),
    ("metrikos.svg", "ball_figure", "svg.ball_figure"),
    ("metrikos.svg", "SvgScene.write", "svg.write"),
    ("metrikos.isometry", "is_isometry", "isometry.is_isometry"),
]
HOT = [
    ("metrikos.points", "as_point", "points.as_point"),
    ("metrikos.sphere", "sphere_point", "sphere.sphere_point"),
    ("metrikos.plane", "taxicab_distance", "plane.taxicab_distance"),
    ("metrikos.core", "distance", "core.distance"),
    ("metrikos.graphs", "shortest_path_distance", "graphs.shortest_path_distance"),
    ("metrikos.graphs", "WeightedGraph.single_source", "graphs.single_source"),
    ("metrikos.balls", "ball_contains", "balls.ball_contains"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, self, parent, op_id)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(float)  # work counters recorded at the same boundaries
        self.op_id = -1
        self._stack: list[list] = []  # [span id for children, child seconds]
        self._patches: list[tuple] = []
        self._sources_seen = weakref.WeakKeyDictionary()

    # --- recording ---------------------------------------------------------

    def _wrap(self, fn, name, keep_span, naming=None, after=None):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = naming(args) if naming else name
            parent = stack[-1][0] if stack else -1
            if keep_span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                entry = stats[label]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if keep_span:
                    spans[sid] = (label, t0, t1, dt - frame[1], parent, self.op_id)
            if after:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _source_name(self, args):
        graph, source = args[0], int(args[1])
        seen = self._sources_seen.setdefault(graph, set())
        hit = source in seen
        seen.add(source)
        return "graphs.single_source_hit" if hit else "graphs.single_source_cold"

    def _after_verify(self, args, report):
        n = len(args[1])
        self.counts["core.pairs"] += n * n
        self.counts["core.triples"] += n**3
        self.counts["core.witnesses"] += len(report.witnesses)

    def _after_write(self, args, _result):
        self.counts["svg.bytes"] += os.path.getsize(args[1])
        self.counts["svg.writes"] += 1

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        naming = {
            "graphs.single_source": self._source_name,
            "balls.check_nesting": lambda args: "balls.check_nesting." + args[0].name,
        }
        after = {"core.verify_axioms": self._after_verify, "svg.write": self._after_write}
        modules = [m for name, m in sorted(sys.modules.items()) if name == "metrikos" or name.startswith("metrikos.")]
        for keep, table in ((True, COARSE), (False, HOT)):
            for modname, attr, name in table:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], name, keep, naming.get(name), after.get(name)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, keep, naming.get(name), after.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        # validate_point is one layer implemented per metric class.
        core = sys.modules["metrikos.core"]
        for cls in vars(core).values():
            if inspect.isclass(cls) and issubclass(cls, core.MetricSpec) and "validate_point" in cls.__dict__:
                self._patch(cls, "validate_point", self._wrap(cls.__dict__["validate_point"], "core.validate_point", False))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner) else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def mean(self, name: str, scale: float):
        calls, incl, _ = self.stats.get(name, (0, 0.0, 0.0))
        return incl / calls * scale if calls else None

    def self_times(self) -> dict:
        return {name: {"calls": c, "inclusive_s": i, "self_s": s} for name, (c, i, s) in sorted(self.stats.items())}

    def dump(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["layers"] = self.self_times()
        payload["counts"] = dict(self.counts)
        payload["span_fields"] = ["name", "start", "end", "self", "parent", "op_id"]
        payload["spans"] = self.spans
        with open(path, "w") as f:
            json.dump(payload, f)
