"""Census digest: one sha256 over what OA returns on 194 programs.

Run with ``PYTHONPATH=src python tests/census.py``.  It prints the status
counts and a digest twice: once as is, and once with the IPM capped at
one iteration, which sends fibers without a certificate down the
separation path.  After each digest come the LPs that milp.py posed with
a warm start, how many of those fell back to a cold solve (the result's
LpResult.warm is false), all the LPs milp.py posed with their simplex
iterations, and the IPM solves oa.py posed with their iterations,
line-search trials and Hessian builds, then their predictor steps,
centering steps and long steps (predictors accepted at the long first
trial).  A change meant to keep every answer compares both lines with
its parent's.  pytest does not collect this file.

The programs are the extended balls n = 2..8, the aggregated balls
n = 2..5, disk, trimloss, the duality failure program, and the seed
2024, 42 and 7 corpora of 40 feasible then 20 infeasible programs each.
Each program contributes its status and diagnostic, its objective and
both bounds as ``float.hex``, its OA iterations, the incumbent x and z,
each cut's bytes, provenance and assignment, and every trace record.

A change meant to keep every answer, but not every bit, compares answers
instead:

    PYTHONPATH=src python tests/census.py --dump new.json
    PYTHONPATH=src python tests/census.py --compare old.json new.json

``--dump PATH`` writes, per IPM cap and program, the status, objective,
both bounds, OA iterations, cut count and the MILP nodes of the whole
run as JSON, and prints the digest lines as well.  ``--compare OLD NEW``
prints each status change, each program whose OA iterations, cut count
or MILP nodes changed, and the largest relative objective difference,
|a - b| / max(1, |a|), and exits 1 on a status change or a difference
above 1e-6; the counts gate nothing.

tests/data/census_answers.json is such a dump, and CI compares a fresh
dump with it.  A change that moves a status or an objective on purpose
refreshes it, and says why in CHANGES.md:

    PYTHONPATH=src python tests/census.py --dump tests/data/census_answers.json
"""

import argparse
import collections
import hashlib
import json
import sys

import numpy as np

from miconic import instances, ipm, milp, oa
from miconic.compile import emit_conic
from miconic.oa import oa_solve


def programs():
    progs = [emit_conic(instances.empty_ball_model(n, "extended"))[0]
             for n in range(2, 9)]
    progs += [emit_conic(instances.empty_ball_model(n, "naive"))[0]
              for n in range(2, 6)]
    progs += [emit_conic(instances.disk_model())[0],
              emit_conic(instances.trimloss_model())[0],
              instances.duality_failure_program()]
    for seed in (2024, 42, 7):
        rng = np.random.default_rng(seed)
        progs += [instances.random_feasible_program(rng) for _ in range(40)]
        progs += [instances.random_infeasible_program(rng)
                  for _ in range(20)]
    return progs


def _hex(value):
    return "None" if value is None else float(value).hex()


def _array(value):
    return b"None" if value is None else np.asarray(value, float).tobytes()


def census():
    """Status counts, the sha256 of every program's outcome, and each
    program's answer (see --dump)."""
    digest = hashlib.sha256()
    counts = collections.Counter()
    answers = []
    for prog in programs():
        res = oa_solve(prog)
        counts[res.status] += 1
        fields = [res.status, res.diagnostic, _hex(res.obj),
                  _hex(res.lower_bound), _hex(res.upper_bound),
                  res.iterations]
        digest.update(repr(fields).encode())
        digest.update(_array(res.x))
        digest.update(_array(res.z))
        for cut in res.cuts:
            digest.update(_array(cut.beta))
            digest.update(repr((cut.provenance, cut.assignment)).encode())
        for record in res.trace:
            digest.update(repr(sorted(record.items())).encode())
        answers.append({
            "status": res.status,
            "objective": _number(res.obj),
            "lower_bound": _number(res.lower_bound),
            "upper_bound": _number(res.upper_bound),
            "iterations": res.iterations,
            "cuts": len(res.cuts),
            "milp_nodes": sum(record["milp_nodes"] or 0
                              for record in res.trace),
        })
    return counts, digest.hexdigest(), answers


def _number(value):
    """A JSON value for a float: None for None, else its repr, which
    keeps infinities and round-trips exactly."""
    return None if value is None else repr(float(value))


def run(dump=None):
    answers = {}
    solve_lp = milp.solve_lp
    starts = collections.Counter()

    def counting_lp(prob, warm=None):
        res = solve_lp(prob, warm=warm)
        starts["lps"] += 1
        starts["iterations"] += res.iterations
        # solve_lp ignores the start of an LP without rows
        if warm is not None and len(prob.A):
            starts["warm"] += 1
            starts["cold"] += not res.warm
        return res

    solve_continuous = oa.solve_continuous
    ipm_work = collections.Counter()

    def counting_ipm(prob):
        res = solve_continuous(prob)
        ipm_work["solves"] += 1
        ipm_work["iterations"] += res.iterations
        ipm_work.update(res.metrics)
        return res

    for label, cap in (("as is", ipm._MAX_ITERS), ("ipm._MAX_ITERS = 1", 1)):
        saved, ipm._MAX_ITERS = ipm._MAX_ITERS, cap
        starts.clear()
        ipm_work.clear()
        milp.solve_lp, oa.solve_continuous = counting_lp, counting_ipm
        try:
            counts, digest, answers[label] = census()
        finally:
            ipm._MAX_ITERS = saved
            milp.solve_lp, oa.solve_continuous = solve_lp, solve_continuous
        summary = ", ".join("%d %s" % (n, status)
                            for status, n in sorted(counts.items()))
        print("%s: %s; sha256 %s; %d warm starts, %d fell back cold; "
              "%d LPs, %d simplex iterations; %d IPM solves, %d iterations, "
              "%d line-search trials, %d Hessian builds; %d predictor, "
              "%d centering and %d long steps"
              % (label, summary, digest, starts["warm"], starts["cold"],
                 starts["lps"], starts["iterations"], ipm_work["solves"],
                 ipm_work["iterations"], ipm_work["line_search_trials"],
                 ipm_work["hessian_builds"], ipm_work["predictor_steps"],
                 ipm_work["centering_steps"], ipm_work["long_steps"]))
    if dump is not None:
        with open(dump, "w") as handle:
            json.dump(answers, handle, indent=1)


def compare(old_path, new_path):
    """Print the status changes, the programs whose counts moved and the
    largest relative objective difference between two dumps; 1 on a
    status change or an objective difference above 1e-6."""
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    changes, worst = 0, 0.0
    for label in old:
        if len(old[label]) != len(new[label]):
            print("%s: %d programs, then %d" % (label, len(old[label]),
                                                 len(new[label])))
            return 1
        for i, (a, b) in enumerate(zip(old[label], new[label])):
            moved = ["%s %s -> %s" % (key, a[key], b[key])
                     for key in ("iterations", "cuts", "milp_nodes")
                     if a[key] != b[key]]
            if moved:
                print("%s: program %d: %s" % (label, i, ", ".join(moved)))
            if a["status"] != b["status"]:
                changes += 1
                print("%s: program %d: %s -> %s" % (label, i, a["status"],
                                                     b["status"]))
            elif a["objective"] is not None and b["objective"] is not None:
                x, y = float(a["objective"]), float(b["objective"])
                if x != y:
                    worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    print("%d status changes; largest relative objective difference %.3g"
          % (changes, worst))
    return int(changes > 0 or not worst <= 1e-6)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write each program's answer here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of solving")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run(args.dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
