"""metrikos benchmark: one workload, end to end through the CLI and the library.

    python3 bench/run.py --workload certify --seed 1 --seconds 48 --trace 0

Run from the root of a checkout. The benchmark imports metrikos only from
the checkout's ``src`` directory and exits with code 2, printing no result,
when that is missing.

With ``--trace 0`` it measures the end-to-end metrics. Set-up time is the
sum of three medians of three: building the CLI inputs and their oracle
answers, ``import metrikos`` in a fresh interpreter, and building the
library inputs plus the warm-up on small ones (in ``libpart.py``). The CLI
phase runs ``python -m metrikos`` children one at a time for half of
``--seconds``; the peak RSS of each child comes from ``os.wait4``. The
library phase runs ``libpart.py`` children for the other half. The two
phases alternate in four chunks each. Every time in the end-to-end metrics
is rescaled to the reference speed of ``hostspeed.py``, from reference
tasks timed right before and after it. With ``--trace 1`` it times
``python -c "import metrikos.cli"`` and has ``libpart.py`` replay the
library operations under spans, reporting the per-layer metrics instead.

Every answer is checked against an oracle that does not call metrikos, and
no operation is retried. Lines before the last one on stdout give details
such as the seed, tail percentiles and failures. The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# Pin BLAS threads before numpy loads, here and in every child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

from hostspeed import pin_to_one_cpu, reference_seconds, rescaled  # noqa: E402  (after the pins: it loads numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # everything, children included, ends before this
IMPORT_PROBES = 5
CHUNKS = 4  # CLI and library chunks per run, alternating
IMPORT_TIMER = "import time; t = time.perf_counter(); import metrikos, metrikos.cli; print(time.perf_counter() - t)"


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv, env, out_path, timeout):
    """Run one child to completion; returns (wall s, exit code, peak RSS MB).

    The child's stdout goes to ``out_path`` and its stderr to
    ``out_path + ".err"``. A child still running after ``timeout`` is killed
    and reaped, and its exit code is reported as -9."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(values):
    """The highest percentile with at least ten samples beyond it, but never
    below the median. Returns (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    k = max(n - 11, n // 2)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def median_by_name(samples) -> dict:
    by_name: dict[str, list] = {}
    for name, _, dt in samples:
        by_name.setdefault(name, []).append(dt)
    return {name: statistics.median(v) * 1e3 for name, v in sorted(by_name.items())}


def environment() -> dict:
    import numpy

    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            mem_kb = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_total_mb": mem_kb / 1024.0 if mem_kb else None,
    }


def cli_chunk(w, plan, seconds, once, workdir, env, tally, samples, deadline_abs):
    """Closed loop of CLI children for about ``seconds``: the once-cases if
    ``once``, then whole rounds. Appends (case, wall s, wall s at the
    reference speed) of correct runs to ``samples``; returns (elapsed s,
    peak RSS MB of the children)."""
    peak = 0.0
    out_path = os.path.join(workdir, "cli.out")
    refs = [reference_seconds()]  # the reference time after a child is the one before the next

    def one(case):
        nonlocal peak
        if case.tag in plan.big:
            w.require_memory(case.tag)
        wall, rc, rss = run_child([sys.executable, "-m", "metrikos", *case.argv], env, out_path,
                                  min(CLI_TIMEOUT_S, deadline_abs - time.perf_counter()))
        refs.append(reference_seconds())
        peak = max(peak, rss)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            err = case.check(rc, f.read())
        tally.record(case.tag, err)
        if err is None:
            samples.append((case.tag, wall, rescaled(wall, refs[-2], refs[-1])))

    t0 = time.perf_counter()
    end = t0 + seconds
    for case in plan.once if once else []:
        one(case)
    while True:
        t_round = time.perf_counter()
        for case in plan.round:
            one(case)
        now = time.perf_counter()
        if now + (now - t_round) / 2 >= end:  # stop at the round boundary nearest the end
            break
    return time.perf_counter() - t0, peak


def lib_chunk(args, seconds, chunk, workdir, env, deadline_abs):
    """One library child for about ``seconds``; returns (its result, peak RSS MB)."""
    out = os.path.join(workdir, "lib.json")
    argv = [sys.executable, os.path.join(HERE, "libpart.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
            "--chunk", str(chunk),
            "--workdir", workdir, "--src", SRC, "--out", out,
            "--trace-out", os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.json")]
    _, rc, rss = run_child(argv, env, os.path.join(workdir, "lib.stdout"), deadline_abs - time.perf_counter())
    if rc != 0 or not os.path.exists(out):
        with open(os.path.join(workdir, "lib.stdout.err"), errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        raise RuntimeError(f"library part exited with code {rc}")
    with open(out) as f:
        return json.load(f), rss


def import_seconds(env, workdir, tally) -> float:
    """Median of three timed ``import metrikos`` in fresh interpreters, at
    the reference speed."""
    times = []
    out_path = os.path.join(workdir, "import.out")
    for _ in range(3):
        before = reference_seconds()
        _, rc, _ = run_child([sys.executable, "-c", IMPORT_TIMER], env, out_path, CLI_TIMEOUT_S)
        after = reference_seconds()
        tally.record("import metrikos", None if rc == 0 else f"exit {rc}")
        if rc == 0:
            with open(out_path) as f:
                times.append(rescaled(float(f.read()), before, after))
    if not times:
        raise RuntimeError("metrikos does not import")
    return statistics.median(times)


def traced_metrics(args, env, workdir, tally, deadline_abs, details):
    import_ms = []
    for _ in range(IMPORT_PROBES):
        wall, rc, _ = run_child([sys.executable, "-c", "import metrikos.cli"], env,
                                os.path.join(workdir, "import.out"), CLI_TIMEOUT_S)
        tally.record("import metrikos.cli", None if rc == 0 else f"exit {rc}")
        import_ms.append(wall * 1e3)
    lib, _ = lib_chunk(args, args.seconds, 0, workdir, env, deadline_abs)
    details["metric_sources"] = lib["metric_sources"]
    return dict(lib["metrics"], **{"cli.import_ms": statistics.median(import_ms)}), [lib]


def end_to_end_metrics(args, w, plan, env, workdir, tally, deadline_abs, details):
    details["import_s"] = import_seconds(env, workdir, tally)
    # CLI and library chunks alternate, so a slow spell of a shared machine
    # lands on both halves instead of on one of them.
    cli_named, cli_used, cli_peak, libs, lib_peak = [], 0.0, 0.0, [], 0.0
    for chunk in range(CHUNKS):
        target = args.seconds / 2 * (chunk + 1) / CHUNKS
        used, peak = cli_chunk(w, plan, target - cli_used, chunk == 0, workdir, env, tally, cli_named, deadline_abs)
        cli_used, cli_peak = cli_used + used, max(cli_peak, peak)
        lib, peak = lib_chunk(args, target - sum(x["elapsed_s"] for x in libs), chunk, workdir, env, deadline_abs)
        libs.append(lib)
        lib_peak = max(lib_peak, peak)
    lib_named = [sample for lib in libs for sample in lib["samples"]]
    if not cli_named or not lib_named:
        raise RuntimeError("no operation completed correctly")
    cli_samples = [dt for _, _, dt in cli_named]
    lib_samples = [dt for _, _, dt in lib_named]
    cli_tail, cli_pct, cli_beyond = tail(cli_samples)
    lib_tail, lib_pct, lib_beyond = tail(lib_samples)
    details.update(
        cli_samples=len(cli_samples), cli_tail_percentile=cli_pct, cli_tail_beyond=cli_beyond,
        lib_samples=len(lib_samples), lib_tail_percentile=lib_pct, lib_tail_beyond=lib_beyond,
        lib_gen_s=libs[0]["gen_s"], lib_import_s=libs[0]["import_s"],
        cli_median_ms_by_case=median_by_name(cli_named), lib_median_ms_by_op=median_by_name(lib_named),
        # wall times as measured, before rescaling, and the host's speed factor
        cli_p50_wall_ms=statistics.median(wall for _, wall, _ in cli_named) * 1e3,
        lib_p50_wall_ms=statistics.median(wall for _, wall, _ in lib_named) * 1e3,
        host_slowdown=statistics.median(wall / dt for _, wall, dt in cli_named + lib_named),
    )
    return {
        "setup_s": details["cli_setup_s"] + details["import_s"] + libs[0]["gen_s"],
        "cli_p50_ms": statistics.median(cli_samples) * 1e3,
        "cli_tail_ms": cli_tail * 1e3,
        "cli_peak_rss_mb": cli_peak,
        "lib_ops_per_s": len(lib_samples) / sum(lib_samples),
        "lib_p50_ms": statistics.median(lib_samples) * 1e3,
        "lib_tail_ms": lib_tail * 1e3,
        "lib_peak_rss_mb": lib_peak,
    }, libs


def measure(args, w, workdir, t_start):
    """Returns (metrics, details, attempted, failed, failure messages)."""
    env = child_env()
    deadline_abs = t_start + RUN_BUDGET_S
    tally = w.Tally()
    setup_times = []
    for _ in range(3):
        before = reference_seconds()
        t0 = time.perf_counter()
        plan = w.CLI_PLANS[args.workload](args.seed, workdir)
        dt = time.perf_counter() - t0
        setup_times.append(rescaled(dt, before, reference_seconds()))
    details = {"cli_setup_s": statistics.median(setup_times)}
    if args.trace:
        metrics, libs = traced_metrics(args, env, workdir, tally, deadline_abs, details)
    else:
        metrics, libs = end_to_end_metrics(args, w, plan, env, workdir, tally, deadline_abs, details)
    attempted = tally.attempted + sum(lib["attempted"] for lib in libs)
    failed = len(tally.failures) + sum(lib["failed"] for lib in libs)
    failures = tally.failures + [f for lib in libs for f in lib["failures"]]
    details["failed_frac"] = failed / attempted
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    return metrics, details, attempted, failed, failures


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metrikos", "__init__.py")):
        print(f"error: no metrikos sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {w.WORKLOADS}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        metrics, details, attempted, failed, failures = measure(args, w, workdir, t_start)
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for failure in failures[:10]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "expected_peak_mb": w.EXPECTED_PEAK_MB[args.workload],
        "wall_s": time.perf_counter() - t_start, **details,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
