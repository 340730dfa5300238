"""The library part of one workload, run in a process of its own.

``run.py`` starts this script so that the process's peak RSS belongs to the
library part alone. It imports metrikos from the checkout, builds the
workload's inputs, warms up on small inputs, then calls the public library
functions in a closed loop and checks every answer against its oracle. With
``--trace 1`` it also replays the same operations under ``tracing.Tracer``
and reports the per-layer metrics. It writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
from functools import partial
from typing import Callable, NamedTuple

T_PROCESS = time.perf_counter()

import numpy as np  # noqa: E402  (after T_PROCESS: numpy's import is set-up time)

import workloads as w  # noqa: E402
from hostspeed import reference_seconds, rescaled  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Tally  # noqa: E402


class Op(NamedTuple):
    name: str
    run: Callable[[], "str | None"]
    companion: "Callable[[], object] | None" = None  # traced run only: pairwise on the same input
    big: bool = False


class Plan(NamedTuple):
    once: list
    rounds: list  # round r runs rounds[r % len(rounds)]


def run_op(op: Op):
    t0 = time.perf_counter()
    try:
        err = op.run()
    except Exception as exc:  # a raising operation is a failed operation, never retried
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, err


# --- operations ---------------------------------------------------------------


def _verify_true(mk, make_spec, sample):
    report = mk.verify_axioms(make_spec(), sample)
    if report.all_ok and not report.witnesses:
        return None
    return f"true metric rejected: {report.witnesses[:2]}"


def _verify_planted(mk, D, triple):
    report = mk.verify_axioms(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(D.shape[0])))
    a, b, c = triple
    want = [
        mk.Witness("triangle", (a, b, c), float(D[a, c]), float(D[a, b] + D[b, c])),
        mk.Witness("triangle", (c, b, a), float(D[c, a]), float(D[c, b] + D[b, a])),
    ]
    ok = (report.symmetry_ok, report.nonnegativity_ok, report.identity_ok, report.triangle_ok)
    if ok != (True, True, True, False) or report.witnesses != want:
        return f"planted violation {triple}: verdicts {ok}, witnesses {report.witnesses[:3]}"
    return None


def certify_plan(mk, data) -> Plan:
    rounds = []
    for case in data["cases"]:
        ops = []
        for kind, spec_cls in (("euclidean", mk.Euclidean), ("taxicab", mk.Taxicab), ("greatcircle", mk.GreatCircle)):
            sample = list(case[kind])
            ops.append(Op(f"verify-{kind}", partial(_verify_true, mk, spec_cls, sample),
                          partial(mk.pairwise_distances, spec_cls(), sample)))
        n, edges, verts = case["graph"]
        make_graph = lambda n=n, edges=edges: mk.GraphPath(mk.WeightedGraph(n, edges))  # noqa: E731
        ops.append(Op("verify-graphpath", partial(_verify_true, mk, make_graph, verts),
                      lambda f=make_graph, v=verts: mk.pairwise_distances(f(), v)))
        D, triple = case["planted"]
        ops.append(Op("verify-planted", partial(_verify_planted, mk, D, triple),
                      lambda D=D: mk.pairwise_distances(mk.MatrixMetric(mk.DistanceMatrix(D)), list(range(D.shape[0])))))
        rounds.append(ops)
    big = list(data["big"])
    once = [Op(f"verify-taxicab-{len(big)}", partial(_verify_true, mk, mk.Taxicab, big),
               partial(mk.pairwise_distances, mk.Taxicab(), big), big=len(big) >= 384)]
    return Plan(once, rounds)


def _graph_job(mk, n, edges, queries):
    g = mk.WeightedGraph(n, edges)
    for u, v, want in queries:
        got = mk.shortest_path_distance(g, u, v)
        if abs(got - want) > 1e-9 * max(1.0, want):
            return f"d({u},{v}) = {got}, Floyd-Warshall gives {want}"
    return None


def _grid_sweep(mk, width, height):
    g = mk.grid_graph(width, height)
    coords = g.coords
    cells = [(a % width, a // width) for a in range(width * height)]
    for a, (ia, ja) in enumerate(cells):
        for b, (ib, jb) in enumerate(cells):
            want = abs(ia - ib) + abs(ja - jb)
            if mk.shortest_path_distance(g, a, b) != want or mk.taxicab_distance(coords[a], coords[b]) != want:
                return f"{width}x{height} grid: pair ({a},{b}) is not at distance {want}"
    return None


def _geodesic_sweep(mk, grids):
    for width, height, targets in grids:
        g = mk.grid_graph(width, height)
        for i, j in targets:
            got = mk.count_geodesics(g, 0, j * width + i)
            if got != math.comb(i + j, i):
                return f"{width}x{height} grid: {got} geodesics to ({i},{j}), expected C({i + j},{i})"
    return None


def paths_plan(mk, data) -> Plan:
    """The graph and grid jobs of the probes workload."""
    rounds = []
    for k, queries in enumerate(data["queries"]):
        sweep = data["sweeps"][k % len(data["sweeps"])]
        rounds.append([
            Op("graph-job", partial(_graph_job, mk, data["n"], data["edges"], queries)),
            Op(f"grid-sweep-{sweep[0]}x{sweep[1]}", partial(_grid_sweep, mk, *sweep)),
            Op("geodesic-sweep", partial(_geodesic_sweep, mk, data["geodesics"])),
        ])
    return Plan([], rounds)


def _same(spec):
    return spec


def _nesting(mk, make_spec, sample, probes, configs):
    spec = make_spec()
    for i, j, r, t in configs:
        ok, witness = mk.check_nesting(spec, sample[i], r, sample[j], t, probes)
        if not ok:
            return f"{spec.name}: nesting failed for config ({i},{j},{r},{t}): {witness}"
    return None


def _isometry_table(mk, spec, maps, points):
    for name, the_map, want in maps:
        ok, witness = mk.is_isometry(the_map, spec, points)
        if ok != want or (not ok and witness is None):
            return f"{name} under {spec.name}: verdict {ok}, expected {want}"
    return None


def _sphere_maps(mk, matrices, points):
    for Q in matrices:
        ok, witness = mk.is_isometry(mk.SphereMap(Q), mk.GreatCircle(), points)
        if not ok:
            return f"orthogonal map rejected on the sphere: {witness}"
    return None


_RADIUS = {
    "euclidean": lambda d: np.hypot(d[:, 0], d[:, 1]),
    "taxicab": lambda d: np.abs(d).sum(axis=1),
    "chebyshev": lambda d: np.abs(d).max(axis=1),
}


def _polygon_vertices(tag, c, r):
    if tag == "chebyshev":
        return [(c[0] + r, c[1] - r), (c[0] + r, c[1] + r), (c[0] - r, c[1] + r), (c[0] - r, c[1] - r)]
    if tag == "taxicab":
        return [(c[0] + r, c[1] + 0.0), (c[0] + 0.0, c[1] + r), (c[0] - r, c[1] + 0.0), (c[0] + 0.0, c[1] - r)]
    return [(c[0] + r, c[1] + 0.0)]  # the only circle sample with exact coordinates


def _boundaries(mk, svg, specs, cases, samples):
    for tag, c, r in cases:
        b = mk.ball_boundary(specs[tag], c, r, n=samples)
        rows = {tuple(x) for x in b.samples.tolist()}
        missing = [v for v in _polygon_vertices(tag, c, r) if v not in rows]
        if missing:
            return f"{tag} boundary lacks polygon vertices {missing}"
        off = np.abs(_RADIUS[tag](b.samples - c) - r).max()
        if off > 1e-9:
            return f"{tag} boundary sample off the radius by {off}"
        if f"{tag} ball, r = {r:.12g}" not in svg.ball_figure(b).to_xml():
            return f"{tag} figure lacks its radius label"
    return None


def _memberships(mk, balls):
    for ball, probes, want in balls:
        got = [mk.ball_contains(ball, x) for x in probes]
        if got != want:
            bad = next(k for k, (g, e) in enumerate(zip(got, want)) if g != e)
            return f"ball membership of probe {probes[bad]}: {got[bad]}, expected {want[bad]}"
    return None


def probes_plan(mk, data) -> Plan:
    from metrikos import svg

    graph_n, graph_edges = data["graph"]
    specs = {
        "euclidean": mk.Euclidean,
        "taxicab": mk.Taxicab,
        "chebyshev": mk.Chebyshev,
        "discrete": mk.Discrete,
        "realline": mk.RealLine,
        "greatcircle": mk.GreatCircle,
        # a fresh graph per batch, so each batch starts with a cold SSSP cache
        "graphpath": lambda: mk.GraphPath(mk.WeightedGraph(graph_n, graph_edges)),
        "polylinearc": partial(_same, mk.PolylineArc(mk.Polyline(data["poly"]))),
        "subspace": partial(_same, mk.restrict(mk.Euclidean(), data["nesting"]["subspace"][0])),
        "matrix": partial(_same, mk.MatrixMetric(mk.DistanceMatrix(data["euclid_matrix"]))),
    }
    iso = data["isometry"]
    a0, a1 = (float(x) for x in iso["a"])
    params = {"translation": (a0, a1), "reflect_about_point": (a0, a1), "rotation": (iso["theta"],)}
    maps = {}
    for name in w.PLANE_MAPS:
        maps[name] = mk.rotation(math.pi / 2) if name == "quarter_turn" else mk.named_map(name, *params.get(name, ()))
    plane_specs = {"euclidean": mk.Euclidean(), "taxicab": mk.Taxicab(), "chebyshev": mk.Chebyshev()}
    p, r, line_probes, line_want = data["line_ball"]
    c2, rad2, plane_probes, plane_want = data["plane_ball"]
    balls = [(mk.Ball(mk.RealLine(), p, r), line_probes, line_want),
             (mk.Ball(mk.Euclidean(), c2, rad2), plane_probes, plane_want)]
    pool = len(next(iter(data["nesting"].values()))[1])
    rounds = []
    for k in range(pool):
        ops = []
        for kind in w.NESTING_KINDS:
            sample, batches = data["nesting"][kind]
            probes, configs = batches[k]
            ops.append(Op(f"nesting-{kind}", partial(_nesting, mk, specs[kind], sample, probes, configs)))
        for metric, spec in plane_specs.items():
            table = [(name, maps[name], w.ISOMETRY_TABLE[(name, metric)]) for name in w.PLANE_MAPS]
            ops.append(Op(f"isometry-{metric}", partial(_isometry_table, mk, spec, table, iso["points"])))
        ops.append(Op("isometry-sphere", partial(_sphere_maps, mk, data["sphere"]["maps"], data["sphere"]["points"])))
        ops.append(Op("ball-boundary", partial(_boundaries, mk, svg, plane_specs, data["boundaries"], data["boundary_samples"])))
        ops.append(Op("ball-membership", partial(_memberships, mk, balls)))
        rounds.append(ops)
    return Plan([], rounds)


def probes_and_paths_plan(mk, data) -> Plan:
    """Round k runs probes round k % 2 and paths round k % 3, so the rounds
    cycle through every pairing."""
    a, b = probes_plan(mk, data["probes"]), paths_plan(mk, data["paths"])
    n = math.lcm(len(a.rounds), len(b.rounds))
    return Plan(a.once + b.once, [a.rounds[k % len(a.rounds)] + b.rounds[k % len(b.rounds)] for k in range(n)])


PLANS = {"certify": certify_plan, "probes": probes_and_paths_plan}


# --- phases -------------------------------------------------------------------


def closed_loop(plan: Plan, seconds: float, step: Callable[[Op], None]) -> float:
    """Call ``step`` on the once-ops, then on whole rounds, for about
    ``seconds``; returns the elapsed time.

    Stopping only between rounds keeps each run's mix of operations fixed."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    for op in plan.once:
        if op.big:
            w.require_memory(op.name)
        step(op)
    r = 0
    while True:
        t_round = time.perf_counter()
        for op in plan.rounds[r % len(plan.rounds)]:
            step(op)
        r += 1
        now = time.perf_counter()
        if now + (now - t_round) / 2 >= deadline:  # stop at the round boundary nearest the deadline
            break
    return time.perf_counter() - t0


def run_loop(plan: Plan, seconds: float, tally: Tally):
    """The measured loop; returns ((op name, seconds, seconds at the
    reference speed) of correct ops, elapsed)."""
    samples = []
    refs = [reference_seconds()]  # the reference time after an op is the one before the next

    def step(op):
        dt, err = run_op(op)
        refs.append(reference_seconds())
        tally.record(op.name, err)
        if err is None:
            samples.append((op.name, dt, rescaled(dt, refs[-2], refs[-1])))

    return samples, closed_loop(plan, seconds, step)


def setup(mk, workload, seed, tally, reps):
    """Build inputs and warm up on small ones, ``reps`` times; returns the
    plan and the median set-up time at the reference speed."""
    times = []
    for rep in range(reps):
        before = reference_seconds()
        t0 = time.perf_counter()
        plan = PLANS[workload](mk, w.LIB_DATA[workload](seed))
        small = PLANS[workload](mk, w.LIB_DATA[workload](seed, small=True))
        for op in small.once + small.rounds[0]:
            _, err = run_op(op)
            if rep == 0:
                tally.record("warm-up " + op.name, err)
        dt = time.perf_counter() - t0
        times.append(rescaled(dt, before, reference_seconds()))
    return plan, statistics.median(times)


# --- traced run ---------------------------------------------------------------

OPS_FIRST = ("ops", "cli", "sweep")
CLI_FIRST = ("cli", "ops", "sweep")
# per-layer metric -> (span name, unit scale, phases to take it from, in order)
LAYER_MEANS = {
    "cli.main_ms": ("cli.main", 1e3, CLI_FIRST),
    "fileio.load_points_ms": ("fileio.load_points", 1e3, CLI_FIRST),
    "fileio.load_matrix_csv_ms": ("fileio.load_matrix_csv", 1e3, CLI_FIRST),
    "fileio.load_graph_ms": ("fileio.load_graph", 1e3, CLI_FIRST),
    "points.as_point_us": ("points.as_point", 1e6, OPS_FIRST),
    "sphere.sphere_point_us": ("sphere.sphere_point", 1e6, OPS_FIRST),
    "core.validate_point_us": ("core.validate_point", 1e6, OPS_FIRST),
    "plane.taxicab_distance_us": ("plane.taxicab_distance", 1e6, OPS_FIRST),
    "core.distance_us": ("core.distance", 1e6, OPS_FIRST),
    "core.pairwise_distances_ms": ("core.pairwise_distances", 1e3, OPS_FIRST),
    "core.verify_axioms_ms": ("core.verify_axioms", 1e3, OPS_FIRST),
    "graphs.grid_graph_ms": ("graphs.grid_graph", 1e3, OPS_FIRST),
    "graphs.weighted_graph_ms": ("graphs.weighted_graph", 1e3, OPS_FIRST),
    "graphs.single_source_cold_ms": ("graphs.single_source_cold", 1e3, OPS_FIRST),
    "graphs.shortest_path_distance_us": ("graphs.shortest_path_distance", 1e6, OPS_FIRST),
    "graphs.count_geodesics_ms": ("graphs.count_geodesics", 1e3, OPS_FIRST),
    "balls.ball_contains_us": ("balls.ball_contains", 1e6, OPS_FIRST),
    "balls.ball_boundary_ms": ("balls.ball_boundary", 1e3, CLI_FIRST),
    "svg.ball_figure_ms": ("svg.ball_figure", 1e3, CLI_FIRST),
    "svg.write_ms": ("svg.write", 1e3, CLI_FIRST),
    "isometry.is_isometry_ms": ("isometry.is_isometry", 1e3, OPS_FIRST),
}
LAYER_MEANS.update({
    f"balls.check_nesting_ms.{kind}": (f"balls.check_nesting.{kind}", 1e3, OPS_FIRST) for kind in w.NESTING_KINDS
})


def run_traced(op: Op, tracer: Tracer, op_id: int, tally: Tally) -> float:
    tracer.op_id = op_id
    dt, err = run_op(op)
    tally.record(op.name, err)
    if op.companion is not None:
        op.companion()
    return dt


def cli_pass(mk, plan, tally) -> None:
    """In-process cli.main over the plan's argv lists, checked like the CLI runs."""
    for case in plan.once + plan.round:
        if case.tag in plan.big:
            w.require_memory(case.tag)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                try:
                    rc = mk.cli.main(case.argv)
                except SystemExit as exc:  # argparse's usage errors; a child would exit with this code
                    rc = exc.code if isinstance(exc.code, int) else 1
            err = case.check(rc, out.getvalue())
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        tally.record("cli.main " + case.tag, err)


def verify_peak_mb(ops, tally) -> float:
    """Largest tracemalloc peak over one verify_axioms call per input."""
    peak = 0.0
    for op in ops:
        if op.big:
            w.require_memory(op.name)
        tracemalloc.start()
        try:
            _, err = run_op(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        tally.record("tracemalloc " + op.name, err)
    return peak


def layer_metrics(phases: dict, peaks: dict, overhead: float) -> tuple[dict, dict]:
    values, sources = {}, {}
    for metric, (span, scale, order) in LAYER_MEANS.items():
        for phase in order:
            v = phases[phase].mean(span, scale)
            if v is not None:
                values[metric], sources[metric] = v, phase
                break
    for phase in ("ops", "sweep"):
        t = phases[phase]
        verify, pairwise = t.stats.get("core.verify_axioms"), t.stats.get("core.pairwise_distances")
        if verify and pairwise:
            values["core.axiom_passes_ms"] = (verify[1] / verify[0] - pairwise[1] / pairwise[0]) * 1e3
            for name in ("core.pairs", "core.triples", "core.witnesses"):
                values[name] = t.counts[name]
                sources[name] = phase
            sources["core.axiom_passes_ms"] = phase
            break
    for phase in OPS_FIRST:
        t = phases[phase]
        cold = t.stats.get("graphs.single_source_cold", (0,))[0]
        hit = t.stats.get("graphs.single_source_hit", (0,))[0]
        if cold + hit:
            values["graphs.sssp_cache_hit_share"] = hit / (cold + hit)
            sources["graphs.sssp_cache_hit_share"] = phase
            break
    for phase in CLI_FIRST:
        t = phases[phase]
        if t.counts.get("svg.writes"):
            values["svg.bytes"] = t.counts["svg.bytes"] / t.counts["svg.writes"]
            sources["svg.bytes"] = phase
            break
    phase = "ops" if "ops" in peaks else "sweep"
    values["core.verify_axioms_peak_mb"], sources["core.verify_axioms_peak_mb"] = peaks[phase], phase
    values["trace.overhead_frac"], sources["trace.overhead_frac"] = overhead, "ops"
    return values, sources


def trace_run(mk, args, plan, tally):
    """Per-layer metrics. Each operation runs once untraced and once traced,
    in alternating order, whole rounds for 40% of ``--seconds``; the time
    ratio is the tracing overhead. Then cli.main runs in process over the
    workload's argv lists. Layers the workload does not reach are measured
    on a small sweep of every workload."""
    phases = {name: Tracer() for name in ("ops", "cli", "sweep")}
    tracer = phases["ops"]
    sequence, totals = [], [0.0, 0.0]  # untraced, traced seconds

    def both(op):
        for traced in ((False, True) if len(sequence) % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    totals[1] += run_traced(op, tracer, len(sequence), tally)
                finally:
                    tracer.uninstall()
            else:
                dt, err = run_op(op)
                totals[0] += dt
                tally.record(op.name, err)
        sequence.append(op.name)

    closed_loop(plan, args.seconds * 0.4, both)

    cli_plan = w.CLI_PLANS[args.workload](args.seed, args.workdir)
    tracer = phases["cli"]
    tracer.install()
    try:
        cli_pass(mk, cli_plan, tally)
    finally:
        tracer.uninstall()

    peaks = {}
    verify_ops = [op for op in plan.once + plan.rounds[0] if op.name.startswith("verify-")]
    if verify_ops:
        peaks["ops"] = verify_peak_mb(verify_ops, tally)

    tracer = phases["sweep"]
    small = {name: PLANS[name](mk, w.LIB_DATA[name](args.seed, small=True)) for name in w.WORKLOADS}
    sweep_ops = [op for plan_ in small.values() for op in plan_.once + plan_.rounds[0]]
    tracer.install()
    try:
        for k, op in enumerate(sweep_ops):
            run_traced(op, tracer, k, tally)
        cli_pass(mk, w.sweep_cli(args.seed, args.workdir), tally)
    finally:
        tracer.uninstall()
    peaks["sweep"] = verify_peak_mb(small["certify"].once + small["certify"].rounds[0], tally)

    values, sources = layer_metrics(phases, peaks, (totals[1] - totals[0]) / totals[0])
    os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
    tracer = phases["ops"]
    tracer.dump(args.trace_out, {
        "workload": args.workload,
        "seed": args.seed,
        "operations": sequence,
        "metrics": values,
        "metric_sources": sources,
        "cli_layers": phases["cli"].self_times(),
        "sweep_layers": phases["sweep"].self_times(),
    })
    return values, sources


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=w.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chunk", type=int, default=0,
                    help="chunk 0 times its set-up three times and runs the once-ops; later chunks skip both")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--out", required=True, help="result JSON")
    ap.add_argument("--trace-out", help="span file written by the traced run")
    args = ap.parse_args(argv)

    import metrikos as mk
    import metrikos.cli  # noqa: F401  (loads fileio and svg, which the traced run patches)

    import_s = time.perf_counter() - T_PROCESS
    if not os.path.realpath(mk.__file__).startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: imported metrikos from {mk.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    tally = Tally()
    plan, gen_s = setup(mk, args.workload, args.seed, tally, 3 if args.chunk == 0 else 1)
    if args.chunk:
        plan = plan._replace(once=[])
    result = {"import_s": import_s, "gen_s": gen_s}
    if args.trace:
        result["metrics"], result["metric_sources"] = trace_run(mk, args, plan, tally)
    else:
        samples, elapsed = run_loop(plan, args.seconds, tally)
        result.update(samples=samples, elapsed_s=elapsed)
    result.update(
        attempted=tally.attempted,
        failed=len(tally.failures),
        failures=tally.failures[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
