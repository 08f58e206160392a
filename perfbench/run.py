"""The miconic benchmark: one workload, answer-checked, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload ball_ext --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; ``README.md`` says why each
was chosen and which layer metrics should move which end-to-end metric.

A run pins the BLAS and OpenMP thread pools to one thread, imports the
solver from ``src/`` of the checkout, sets up, then solves the workload
pass after pass until ``--seconds`` have gone by (at least one pass).
Every answer is checked against the workload's reference.  While set-up
and untraced passes run, a short calibration probe (``calibrate.py``)
runs every 0.05 s of CPU time, and every reported end-to-end time is
scaled by the probes around it into calibrated seconds, so that a shared
host whose speed changes from second to second does not move the figures.

With ``--trace 0`` the final line holds the end-to-end metrics, measured
with nothing wrapped.  With ``--trace 1`` untraced and traced passes
alternate; the final line holds the per-layer metrics (medians over the
traced passes) and the tracing overhead, and the spans are written to
``.perfbench_out/``.

A watchdog ends the run ``--seconds`` + 100 s after start even if a solve
never returns (the solver's own time limit does not reach inside a MILP or
IPM solve); the instances left unfinished count as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import calibrate  # noqa: E402
import checkout  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WATCHDOG_GRACE_S = 100.0


class Watchdog(Exception):
    """The run's time limit passed."""


def _on_alarm(signum, frame):
    raise Watchdog()


def environment():
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (info["name"], info["version"])

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def solve(inst, span):
    """Build, verify and compile when the instance is a model, then run OA.

    Returns ``(program, outcome, status, objective in model units)``.
    """
    from miconic import dcp_verify, emit_conic, oa_solve

    program = inst.program
    if program is None:
        with span("model.build"):
            model = inst.model()
        with span("model.verify"):
            report = dcp_verify(model)
        if not report.ok:
            return None, None, "not_dcp", None
        with span("compile.emit"):
            program, _ = emit_conic(model)
    with span("oa"):
        outcome = oa_solve(program)
    obj = None if outcome.obj is None else outcome.obj + program.obj_offset
    return program, outcome, outcome.status, obj


def run_pass(insts, span, solves, records, sampler=None):
    """Solve every instance once, appending ``(index, seconds, ok, scale)``.

    ``seconds`` runs from the instance's first step (model building or
    the OA call) to the end of its answer check.  ``records`` gets
    ``(program, outcome)`` per instance (None when the model failed its
    check).  With a running ``calibrate.Sampler``, ``seconds`` leaves out
    the probes' time and ``seconds * scale`` is the instance's time in
    calibrated seconds; without one, ``scale`` is None.
    """
    import workloads

    for i, inst in enumerate(insts):
        with span("instance", instance=i):
            t0 = sampler.mark() if sampler else time.perf_counter()
            program, outcome, status, obj = solve(inst, span)
            with span("check"):
                ok = workloads.agrees(inst, status, obj)
            if sampler:
                t1 = sampler.mark()
                seconds, scale = sampler.raw(t0, t1), sampler.scale(t0, t1)
            else:
                seconds, scale = time.perf_counter() - t0, None
        solves.append((i, seconds, ok, scale))
        records.append(None if outcome is None else (program, outcome))


def setup(name, seed, answers, import_s):
    """Generate the instances, load the reference and warm up; time the median.

    Repeated so that the reported set-up time is a median.  The warm-up
    disk solve runs with an empty cut-direction cache each time.  Returns
    the set-up time in calibrated seconds: the imports, scaled by the
    first probe, plus the median of the calibrated repetitions.
    """
    import workloads
    from miconic import oa

    times = []
    warm_ok = True
    sampler = calibrate.Sampler()
    with sampler.running():
        for _ in range(SETUP_REPEATS):
            t0 = sampler.mark()
            getattr(oa, "_interior_cache", {}).clear()
            insts = workloads.make(name, seed, answers)
            warm_ok = workloads.warm_up() and warm_ok
            times.append(sampler.calibrated(t0, sampler.mark()))
    setup_s = (import_s * calibrate.REFERENCE_S / sampler.probes[0]
               + statistics.median(times))
    return insts, setup_s, warm_ok


def measure(insts, seconds, traced):
    """Run passes until about ``seconds`` have gone by.

    Untraced runs time every pass with nothing wrapped, under the
    calibration probes.  Traced runs alternate untraced and traced passes,
    at least one of each; traced passes run without probes.  A pass's wall
    is the sum of its instance times, without the probes.  No pass starts
    that would end more than half a pass after ``seconds``, judged by the
    pass before.  Returns the per-pass walls, the per-instance solves, the
    per-traced-pass layer metrics and spans, and whether the watchdog
    fired (unfinished instances of the interrupted pass then count as
    failed solves).
    """
    import tracer

    walls = {False: [], True: []}
    solves, layer, spans = [], [], []
    sampler = calibrate.Sampler()
    t0 = time.perf_counter()
    pass_no = 0
    try:
        while True:
            start = len(solves)
            with_trace = traced and pass_no % 2 == 1
            tr = tracer.Tracer() if with_trace else None
            records = []
            tp = time.perf_counter()
            if with_trace:
                with tr.installed():
                    run_pass(insts, tr.span, solves, records)
            else:
                with sampler.running():
                    run_pass(insts, tracer.no_span, solves, records, sampler)
            elapsed = time.perf_counter() - t0
            pass_s = time.perf_counter() - tp
            wall = sum(s[1] for s in solves[start:])
            walls[with_trace].append(wall)
            if with_trace:
                layer.append(tracer.layer_metrics(tr, records, wall))
                spans.append(tr.spans)
            pass_no += 1
            enough = elapsed + 0.5 * pass_s >= seconds
            if enough and (not traced or walls[True]):
                return walls, solves, layer, spans, False
    except Watchdog:
        done = len(solves) - start
        solves.extend((i, None, False, None)
                      for i in range(done, len(insts)))
        return walls, solves, layer, spans, True


def _median_metrics(per_pass):
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(name, seed, env, spans):
    checkout.OUT.mkdir(exist_ok=True)
    path = checkout.OUT / ("%s-seed%d-spans.jsonl" % (name, seed))
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env, "workload": name, "seed": seed}) + "\n")
        for k, pass_spans in enumerate(spans):
            for i, s in enumerate(pass_spans):
                fh.write(json.dumps(dict(s, traced_pass=k, id=i)) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ball_ext", "ball_naive", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    checkout.use_sources()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(
        signal.ITIMER_REAL,
        args.seconds + WATCHDOG_GRACE_S - (time.perf_counter() - T_START),
    )
    try:
        import workloads  # imports numpy, scipy and miconic

        import_s = time.perf_counter() - T_START
        # outside every timed region: brute force only if the stored
        # reference does not match the corpus generator
        answers = workloads.stale_reference_answers(args.workload)
        insts, setup_s, warm_ok = setup(args.workload, args.seed, answers,
                                        import_s)
        walls, solves, layer, spans, timed_out = measure(
            insts, args.seconds, bool(args.trace))
    except Watchdog:
        print("perfbench: the watchdog fired before measuring began",
              file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    env = environment()
    failed = sum(not ok for _, _, ok, _ in solves)
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d: %d untraced + %d traced passes, %d solves%s"
          % (args.workload, args.seed, len(walls[False]), len(walls[True]),
             len(solves), ", watchdog fired" if timed_out else ""))
    print("pass walls: untraced %s traced %s" % (
        [round(w, 4) for w in walls[False]], [round(w, 4) for w in walls[True]]))
    if args.trace:
        metrics = _median_metrics(layer) if layer else {}
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False])
            - 1.0 if walls[True] and walls[False] else 0.0)
        print("spans written to %s"
              % write_spans(args.workload, args.seed, env, spans))
    else:
        metrics = end_to_end(walls[False], solves, setup_s)
    units = declared_units()
    for key in sorted(metrics):
        print("%-28s %.6g %s" % (key, metrics[key], units[key]))
    print(json.dumps({
        "correct": failed == 0 and warm_ok and not timed_out,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def end_to_end(pass_walls, solves, setup_s):
    """The end-to-end metrics of an untraced run.

    Each instance's time is scaled into calibrated seconds by the probes
    taken during it, and summarised by its median over the run's passes.
    ``pass_s`` is the sum of those medians over the workload, and the
    percentiles are taken across the instances; pooled samples of a few
    very different sizes would put a percentile between two sizes, where
    it swings with every pass.  The raw wall-clock figures are printed for
    reference.
    """
    import numpy

    raw, cal = defaultdict(list), defaultdict(list)
    for i, seconds, _, scale in solves:
        if seconds is not None:
            raw[i].append(seconds)
            cal[i].append(seconds * scale)
    typical = [statistics.median(v) for v in cal.values()]
    raw_typical = [statistics.median(v) for v in raw.values()]
    if not typical:  # the watchdog fired during the first instance
        typical = raw_typical = [time.perf_counter() - T_START]
    wrong_frac = sum(not ok for _, _, ok, _ in solves) / len(solves)
    print("solve time samples: %d instances over %d passes; wrong_frac %.6g; "
          "raw wall clock: wall_s (median pass) %.6g s, sum of per-instance "
          "medians %.6g s, their p50 %.6g s and p80 %.6g s" % (
              len(typical), len(pass_walls), wrong_frac,
              statistics.median(pass_walls or [0.0]), sum(raw_typical),
              *numpy.percentile(raw_typical, [50, 80])))
    p50, p80 = numpy.percentile(typical, [50, 80])
    return {
        "pass_s": sum(typical),
        "solve_p50_s": float(p50),
        "solve_p80_s": float(p80),
        "agree_frac": 1.0 - wrong_frac,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def declared_units():
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
