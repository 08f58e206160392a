"""Tests of the benchmark itself: tracing, counts, answers, calibration and
the watchdog.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibrate
import checkout
import run
import tracer
import workloads
from miconic import cones, oa
import miconic.milp as milp

INTEGER_COUNTS = (
    "oa.iters", "oa.cuts", "oa.cuts_init", "oa.cuts_dual", "oa.cuts_ray",
    "oa.cuts_sep", "oa.milp_rows_max", "milp.calls", "milp.nodes",
    "simplex.lps", "simplex.pivots", "ipm.solves", "ipm.iters",
    "cones.barrier_calls", "cones.strict_member_calls",
)
WRAPPED = (
    (oa, "solve_milp"), (oa, "solve_continuous"), (milp, "solve_lp"),
    (cones, "barrier_value_grad_hess"), (cones, "strict_member"),
)


@pytest.fixture(scope="module")
def small():
    """A few quick instances of every kind the workloads hold."""
    corpus = workloads.corpus_instances(seed=7)
    return (
        workloads.ball_instances("extended", range(2, 5))
        + workloads.ball_instances("naive", (2, 3))
        + corpus[:4] + corpus[40:43]
    )


def traced_pass(insts):
    tr = tracer.Tracer()
    solves, records = [], []
    with tr.installed():
        run.run_pass(insts, tr.span, solves, records)
    return tr, solves, records


def test_originals_restored_after_tracing(small):
    before = [getattr(mod, attr) for mod, attr in WRAPPED]
    traced_pass(small[:2])
    assert [getattr(mod, attr) for mod, attr in WRAPPED] == before
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert oa.solve_milp is not before[0]
            raise RuntimeError("boom")
    assert [getattr(mod, attr) for mod, attr in WRAPPED] == before


def test_child_spans_lie_inside_parents(small):
    tr, solves, _ = traced_pass(small)
    assert all(ok for _, _, ok, _ in solves)
    names = {s["name"] for s in tr.spans}
    assert {"instance", "oa", "milp", "simplex", "ipm", "check"} <= names
    for s in tr.spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == "instance"
            continue
        p = tr.spans[s["parent"]]
        assert p["start"] <= s["start"] and s["end"] <= p["end"]
        assert s["instance"] == p["instance"]


def test_trace_counts_equal_public_results(small, monkeypatch):
    seen = {"milp": [], "ipm": []}

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            seen[key].append(res)
            return res
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(oa, "solve_milp", recording("milp", oa.solve_milp))
        mp.setattr(oa, "solve_continuous",
                   recording("ipm", oa.solve_continuous))
        solves, records = [], []
        run.run_pass(small, tracer.no_span, solves, records)
    tr, _, traced_records = traced_pass(small)
    m = tracer.layer_metrics(tr, traced_records, 1.0)
    assert m["oa.iters"] == sum(o.iterations for _, o in records)
    assert m["oa.cuts"] == sum(len(o.cuts) for _, o in records)
    assert m["milp.nodes"] == sum(r.nodes for r in seen["milp"])
    assert m["milp.calls"] == len(seen["milp"])
    assert m["ipm.iters"] == sum(r.iterations for r in seen["ipm"])
    assert m["ipm.solves"] == len(seen["ipm"])


def test_two_traced_runs_give_identical_counts(small):
    first = tracer.layer_metrics(*traced_pass(small)[::2], 1.0)
    second = tracer.layer_metrics(*traced_pass(small)[::2], 1.0)
    for key in INTEGER_COUNTS:
        assert first[key] == second[key], key
    assert first["milp.nodes"] > 0 and first["cones.barrier_calls"] > 0


def test_layer_self_times_account_for_the_pass(small):
    import time

    t0 = time.perf_counter()
    tr, _, records = traced_pass(small)
    m = tracer.layer_metrics(tr, records, time.perf_counter() - t0)
    assert 0.95 <= m["trace.accounted_frac"] <= 1.0


def test_stored_reference_matches_the_corpus():
    answers = workloads.stored_reference(workloads.corpus_programs())
    assert answers is not None and len(answers) == 60
    assert all(status == "optimal" for status, _ in answers[:40])
    assert all(a == ["infeasible", None] for a in answers[40:])


def test_seed_sets_the_corpus_order_only():
    a = workloads.corpus_instances(seed=1)
    b = workloads.corpus_instances(seed=2)
    assert sorted(i.name for i in a) == sorted(i.name for i in b)
    assert [i.name for i in a] != [i.name for i in b]
    assert [i.name for i in a] == [
        i.name for i in workloads.corpus_instances(seed=1)]
    for inst in a[:5]:
        _, _, status, obj = run.solve(inst, tracer.no_span)
        assert workloads.agrees(inst, status, obj), inst.name


@pytest.mark.xfail(strict=True, reason="OA answers depend on row scaling")
def test_oa_answer_is_invariant_to_row_scaling():
    """Why the seed does not rescale corpus rows.

    Halving the single equality row of corpus program 31 leaves its
    feasible set and optimum unchanged, yet OA then reports the MILP
    relaxation unbounded (assumption_failure) where brute force finds the
    optimum.  When this passes, the corpus could vary rows by seed.
    """
    from miconic.program import ConicProgram

    inst = next(i for i in workloads.corpus_instances(seed=0)
                if i.name == "corpus_31")
    p = inst.program
    halved = ConicProgram(c=p.c, A_x=0.5 * p.A_x, A_z=0.5 * p.A_z,
                          b=0.5 * p.b, L=p.L, U=p.U, cones=p.cones,
                          obj_offset=p.obj_offset)
    res = oa.oa_solve(halved)
    assert workloads.agrees(inst, res.status, res.obj)


def test_calibration_probes_leave_out_their_time_and_restore_the_timer():
    previous = signal.getsignal(signal.SIGVTALRM)
    sampler = calibrate.Sampler()
    with sampler.running():
        a = sampler.mark()
        cpu0 = time.process_time()
        while time.process_time() - cpu0 < 0.4:
            sum(range(1000))
        b = sampler.mark()
    assert b[2] - a[2] >= 3
    assert 0.0 < sampler.raw(a, b) < b[0] - a[0]
    assert sampler.raw(a, b) == pytest.approx(
        b[0] - a[0] - sum(sampler.probes[a[2]:b[2]]))
    assert sampler.calibrated(a, b) == pytest.approx(
        sampler.raw(a, b) * calibrate.REFERENCE_S
        * (b[2] - a[2] + 1) / sum(sampler.probes[a[2] - 1:b[2]]))
    assert signal.getsignal(signal.SIGVTALRM) is previous
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)


def test_watchdog_counts_unfinished_instances_as_failed():
    insts = workloads.ball_instances("extended", (8, 8))
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        walls, solves, _, _, timed_out = run.measure(insts, 60.0, False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert timed_out
    assert walls[False] == []
    assert len(solves) == len(insts)
    assert not any(ok for _, _, ok, _ in solves)


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    proc = _run_cli(checkout.ROOT, "--workload", "ball_naive", "--seed", "3",
                    "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench[section]}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "corpus", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
