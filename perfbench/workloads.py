"""The benchmark's workloads: their instances and reference answers.

Three workloads stress different layers of the solver stack:

* ``ball_ext``: the extended empty ball, n = 2..8.  One OA iteration per
  instance with one deep branch-and-bound tree and one root IPM solve.
* ``ball_naive``: the aggregated empty ball, n = 2..5.  Many OA
  iterations, each re-solving a MILP over a growing cut pool.
* ``corpus``: the 60-instance oracle corpus (40 feasible and 20
  infeasible random mixed-cone programs drawn from seed 2024).  Nearly
  all time is in the IPM.

The ball workloads do not use the benchmark seed.  The corpus always holds
the seed-2024 programs, and the seed sets the order they are solved in, so
one stored reference serves every seed.  Freshly drawn corpora would differ
by about a third in solve time from one seed to the next; rescaling the
rows per seed changes answers (see README.md).
"""

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from miconic import instances
from miconic.compile import emit_conic
from miconic.oa import brute_force_solve, oa_solve
from miconic.program import ConicProgram

CORPUS_SEED = 2024
CORPUS_FEASIBLE = 40
CORPUS_INFEASIBLE = 20
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# an objective agrees with its reference within RTOL * (1 + |reference|)
RTOL = 1e-5
DISK_ATOL = 1e-6

@dataclass
class Instance:
    """One solve with its reference answer.

    Exactly one of ``model`` (a callable building a DcpModel, which the
    benchmark verifies and compiles on the timed path) and ``program`` (a
    ready ConicProgram) is set.  ``ref_obj`` is in model units
    (``obj + obj_offset``) and is None when the reference status has no
    objective.
    """

    name: str
    ref_status: str
    ref_obj: float = None
    model: object = None
    program: ConicProgram = None


def agrees(inst, status, obj):
    """Whether a solve's status and model-units objective match the reference."""
    if status != inst.ref_status:
        return False
    if inst.ref_obj is None:
        return True
    return obj is not None and abs(obj - inst.ref_obj) <= RTOL * (
        1.0 + abs(inst.ref_obj)
    )


def ball_instances(variant, sizes):
    return [
        Instance(
            "ball_%s_%d" % (variant, n), "infeasible",
            model=partial(instances.empty_ball_model, n, variant),
        )
        for n in sizes
    ]


def corpus_programs():
    """The oracle corpus: feasible programs first, then infeasible ones."""
    rng = np.random.default_rng(CORPUS_SEED)
    programs = [
        instances.random_feasible_program(rng) for _ in range(CORPUS_FEASIBLE)
    ]
    programs += [
        instances.random_infeasible_program(rng)
        for _ in range(CORPUS_INFEASIBLE)
    ]
    return programs


def fingerprint(programs):
    """A digest of the programs' data, to detect a changed generator."""
    h = hashlib.sha256()
    for p in programs:
        for arr in (p.c, p.A_x, p.A_z, p.b, p.L, p.U):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(repr([(f.kind, f.dim, f.alpha) for f in p.cones.factors])
                 .encode())
        h.update(repr(float(p.obj_offset)).encode())
    return h.hexdigest()


def compute_reference(programs):
    """Reference answers: brute force on the feasible programs.

    The infeasible programs are infeasible by construction, so their
    reference is that status alone.
    """
    answers = []
    for i, p in enumerate(programs):
        if i >= CORPUS_FEASIBLE:
            answers.append(["infeasible", None])
            continue
        res = brute_force_solve(p)
        obj = None if res.obj is None else float(res.obj + p.obj_offset)
        answers.append([res.status, obj])
    return answers


def stored_reference(programs):
    """The stored answers, or None when they were made for other programs."""
    data = json.loads(REFERENCE_PATH.read_text())
    if data["fingerprint"] != fingerprint(programs):
        return None
    return data["answers"]


def corpus_instances(seed, answers=None):
    """The corpus in the solve order drawn from ``seed``.

    ``answers`` overrides the stored reference (after regeneration).
    """
    programs = corpus_programs()
    if answers is None:
        answers = stored_reference(programs)
        if answers is None:
            raise RuntimeError(
                "perfbench/reference.json was made for other corpus programs"
            )
    order = np.random.default_rng(seed).permutation(len(programs))
    return [
        Instance("corpus_%d" % i, answers[i][0], answers[i][1],
                 program=programs[i])
        for i in order
    ]


def stale_reference_answers(name):
    """Fresh reference answers when the stored ones no longer apply, else None.

    Brute force over the corpus takes about a minute, so callers run this
    once, outside every timed region.
    """
    if name != "corpus":
        return None
    programs = corpus_programs()
    if stored_reference(programs) is not None:
        return None
    return compute_reference(programs)


def make(name, seed, answers=None):
    """The instances of workload ``name`` under ``seed``."""
    if name == "ball_ext":
        return ball_instances("extended", range(2, 9))
    if name == "ball_naive":
        return ball_instances("naive", range(2, 6))
    if name == "corpus":
        return corpus_instances(seed, answers)
    raise ValueError("unknown workload %r" % name)


def warm_up():
    """Solve the disk model once; True when it matches its closed form."""
    program, _ = emit_conic(instances.disk_model())
    res = oa_solve(program)
    return res.status == "optimal" and abs(
        res.obj + program.obj_offset - instances.disk_best_value()
    ) <= DISK_ATOL


def write_reference():
    programs = corpus_programs()
    data = {
        "corpus_seed": CORPUS_SEED,
        "fingerprint": fingerprint(programs),
        "answers": compute_reference(programs),
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return data
