"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/check_spread.py --seeds 10
    python3 perfbench/check_spread.py --workloads corpus --seeds 5 --first 100

Each run is a separate ``run.py`` process, one at a time.  For every
end-to-end metric of every workload this prints the median over the runs
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  A spread under a third of the
bound is steady enough.  Raw run output goes to ``.perfbench_out/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(checkout.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=200)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main(argv=None):
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    checkout.OUT.mkdir(exist_ok=True)
    log = checkout.OUT / ("spread-%d.jsonl" % int(time.time()))
    bad = 0
    with open(log, "w") as fh:
        for workload in args.workloads:
            runs = []
            for seed in range(args.first, args.first + args.seeds):
                res, lines, elapsed = run_once(
                    workload, seed, args.seconds, args.trace)
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "elapsed_s": elapsed, "result": res,
                                     "stdout": lines}) + "\n")
                fh.flush()
                runs.append(res)
                print("%s seed %d: correct=%s attempted=%d failed=%d "
                      "(%.1f s) %s" % (
                          workload, seed, res["correct"], res["attempted"],
                          res["failed"], elapsed,
                          " ".join("%s=%.5g" % (m["name"],
                                                res["metrics"][m["name"]]["value"])
                                   for m in metrics[:6])), flush=True)
                bad += not res["correct"]
            if len(runs) < 2 or args.trace:
                continue
            for m in metrics:
                med, sp = spread([r["metrics"][m["name"]]["value"]
                                  for r in runs])
                flag = "ok" if sp <= m["bound"] / 3 else (
                    "within bound" if sp <= m["bound"] else "TOO WIDE")
                print("  %-12s %-12s median %-12.6g spread %.4f bound %.2f %s"
                      % (workload, m["name"], med, sp, m["bound"], flag))
    print("raw output in %s" % log)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
