"""Census digest: one sha256 over what OA returns on 194 programs.

Run with ``PYTHONPATH=src python tests/census.py``.  It prints the status
counts and a digest twice: once as is, and once with the IPM capped at
one iteration, which sends fibers without a certificate down the
separation path.  A change meant to keep every answer compares both lines
with its parent's.  pytest does not collect this file.

The programs are the extended balls n = 2..8, the aggregated balls
n = 2..5, disk, trimloss, the duality failure program, and the seed
2024, 42 and 7 corpora of 40 feasible then 20 infeasible programs each.
Each program contributes its status and diagnostic, its objective and
both bounds as ``float.hex``, its OA iterations, the incumbent x and z,
each cut's bytes, provenance and assignment, and every trace record.
"""

import collections
import hashlib

import numpy as np

from miconic import instances, ipm
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
    """Status counts and the sha256 of every program's outcome."""
    digest = hashlib.sha256()
    counts = collections.Counter()
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
    return counts, digest.hexdigest()


def main():
    for label, cap in (("as is", ipm._MAX_ITERS), ("ipm._MAX_ITERS = 1", 1)):
        saved, ipm._MAX_ITERS = ipm._MAX_ITERS, cap
        try:
            counts, digest = census()
        finally:
            ipm._MAX_ITERS = saved
        summary = ", ".join("%d %s" % (n, status)
                            for status, n in sorted(counts.items()))
        print("%s: %s; sha256 %s" % (label, summary, digest))


if __name__ == "__main__":
    main()
