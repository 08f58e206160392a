"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test prints a single ``[criterion N] PASS`` line with the measured
numbers; a failing criterion shows up as the test's FAILED line.
"""

import time

import numpy as np
import pytest

from miconic import cones, instances
from miconic.compile import emit_conic, recover_solution
from miconic.ipm import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    OPTIMAL,
    solve_continuous,
)
from miconic.oa import ASSUMPTION_FAILURE, brute_force_solve, oa_solve

CORPUS_SEED = 2024


@pytest.fixture(scope="module")
def ball_runs():
    runs = {}
    for n in range(2, 9):
        prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
        t0 = time.perf_counter()
        res = oa_solve(prog)
        runs[("extended", n)] = (res, time.perf_counter() - t0)
    for n in range(2, 6):
        prog, _ = emit_conic(instances.empty_ball_model(n, "naive"))
        t0 = time.perf_counter()
        res = oa_solve(prog)
        runs[("naive", n)] = (res, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    programs = [instances.random_feasible_program(rng) for _ in range(40)]
    programs += [instances.random_infeasible_program(rng) for _ in range(20)]
    return [
        {"program": p, "oa": oa_solve(p), "brute": brute_force_solve(p)}
        for p in programs
    ]


def _agree(ro, rb, rtol=1e-5):
    if ro.status != rb.status:
        return False
    if ro.obj is None or rb.obj is None:
        return ro.obj is None and rb.obj is None
    return abs(ro.obj - rb.obj) <= rtol * (1.0 + abs(rb.obj))


def test_criterion_01_disaggregated_ball_infeasible_fast(ball_runs):
    """n = 2..8 disaggregated: infeasible in <= 3 iterations, < 5 s total."""
    total = 0.0
    per_n = []
    for n in range(2, 9):
        res, secs = ball_runs[("extended", n)]
        total += secs
        per_n.append(f"n={n} {secs:.2f}s")
        assert res.status == INFEASIBLE, f"n={n}: {res.status}"
        assert res.iterations <= 3, f"n={n}: {res.iterations} iterations"
    assert total < 5.0, f"total {total:.2f}s ({', '.join(per_n)})"
    print(f"\n[criterion 1] PASS — n=2..8 infeasible, <=3 iterations each, "
          f"{total:.2f}s total")


def test_criterion_02_aggregated_ball_exponential_cuts(ball_runs):
    """n = 2..5 aggregated: >= 2**n cuts before infeasibility, < 60 s at 5."""
    for n in range(2, 6):
        res, secs = ball_runs[("naive", n)]
        assert res.status == INFEASIBLE, f"n={n}: {res.status}"
        assert len(res.cuts) >= 2 ** n, f"n={n}: {len(res.cuts)} cuts"
    assert ball_runs[("naive", 5)][1] < 60.0
    counts = [len(ball_runs[("naive", n)][0].cuts) for n in range(2, 6)]
    print(f"\n[criterion 2] PASS — cut counts {counts} vs "
          f"thresholds {[2 ** n for n in range(2, 6)]}, "
          f"n=5 in {ball_runs[('naive', 5)][1]:.2f}s")


def test_criterion_03_formulation_contrast(ball_runs):
    """Disaggregation stays <= 3 iterations while aggregate cuts double."""
    for n in range(2, 9):
        assert ball_runs[("extended", n)][0].iterations <= 3
    counts = [len(ball_runs[("naive", n)][0].cuts) for n in range(2, 6)]
    for n, count in zip(range(2, 6), counts):
        assert count >= 2 ** n
    for previous, current in zip(counts, counts[1:]):
        assert current > 1.4 * previous, f"growth stalled: {counts}"
    iters = [ball_runs[("extended", n)][0].iterations for n in range(2, 9)]
    print(f"\n[criterion 3] PASS — disaggregated iterations {iters}, "
          f"aggregated cut growth {counts}")


def test_criterion_04_disk_optimum():
    """Disk instance: optimal <= 3 iterations at (2, 1.5), value to 1e-6."""
    prog, cmap = emit_conic(instances.disk_model())
    res = oa_solve(prog)
    assert res.status == OPTIMAL
    assert res.iterations <= 3
    vals = recover_solution(cmap, np.concatenate([res.x, res.z]))
    assert abs(vals["x1"] - 2.0) <= 1e-6
    assert abs(vals["x2"] - 1.5) <= 1e-5
    value = res.obj + prog.obj_offset
    assert abs(value - instances.disk_best_value()) <= 1e-6
    rb = brute_force_solve(prog)
    assert abs(res.obj - rb.obj) <= 1e-6
    print(f"\n[criterion 4] PASS — optimal at (2, 1.5) in {res.iterations} "
          f"iteration(s), value {value:.9f} matches the oracle to 1e-6")


def test_criterion_05_duality_failure_detected():
    """Pathological instance: assumption failure, <= 50 iters, <= 10 s."""
    prog = instances.duality_failure_program()
    t0 = time.perf_counter()
    res = oa_solve(prog)
    secs = time.perf_counter() - t0
    assert res.status == ASSUMPTION_FAILURE
    assert res.status not in (OPTIMAL, INFEASIBLE)
    assert res.iterations <= 50
    assert secs <= 10.0
    print(f"\n[criterion 5] PASS — assumption_failure in {res.iterations} "
          f"iteration(s), {secs:.2f}s")


def test_criterion_06_oracle_equivalence_on_corpus(corpus):
    """>= 60 instances: >= 95% agreement; rest documented numeric failures."""
    assert len(corpus) >= 60
    kinds = set()
    for entry in corpus:
        program = entry["program"]
        kinds |= {f.kind for f in program.cones.factors}
        assert program.num_integer <= 4
        assert np.all(program.U - program.L <= 4)
    assert kinds == {cones.NONNEG, cones.SOC, cones.RSOC, cones.EXP,
                     cones.POW}
    disagreements = [e for e in corpus if not _agree(e["oa"], e["brute"])]
    silent = [
        e for e in disagreements
        if NUMERIC_FAILURE not in (e["oa"].status, e["brute"].status)
        or not (e["oa"].diagnostic or e["brute"].diagnostic)
    ]
    assert not silent, [
        (e["oa"].status, e["brute"].status) for e in silent
    ]
    rate = 1.0 - len(disagreements) / len(corpus)
    assert rate >= 0.95, f"agreement rate {rate:.3f}"
    print(f"\n[criterion 6] PASS — {len(corpus)} instances, agreement "
          f"{rate:.1%}, {len(disagreements)} documented numeric failure(s)")


def test_criterion_07_cut_validity_on_sampled_points(corpus):
    """Every pool cut satisfies beta.z >= -1e-7 on 1e4 sampled points."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    checked = 0
    worst = np.inf
    for entry in corpus:
        res = entry["oa"]
        if not res.cuts:
            continue
        betas = np.array([cut.beta for cut in res.cuts])
        points = cones.sample_product(entry["program"].cones, rng,
                                      size=10_000)
        low = float(np.min(betas @ points.T))
        worst = min(worst, low)
        assert low >= -1e-7, f"cut violation {low:.3e}"
        checked += len(betas)
    assert checked > 0
    print(f"\n[criterion 7] PASS — {checked} cuts x 10000 points, "
          f"worst inner product {worst:.3e} >= -1e-7")


def test_criterion_08_certificate_suite():
    """100 random instances per class: tight gaps and valid Farkas rays."""
    rng = np.random.default_rng(CORPUS_SEED + 2)
    worst_gap = 0.0
    for _ in range(100):
        problem = instances.random_continuous_feasible(rng)
        res = solve_continuous(problem)
        assert res.status == OPTIMAL, res.status
        gap = abs(problem.c @ res.z - problem.b @ res.lam)
        gap /= 1.0 + abs(problem.c @ res.z) + abs(problem.b @ res.lam)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6, f"gap {gap:.3e}"
    worst_pairing = np.inf
    for _ in range(100):
        problem = instances.random_continuous_infeasible(rng)
        res = solve_continuous(problem)
        assert res.status == INFEASIBLE, res.status
        beta = -problem.A.T @ res.lam
        for f, sl in problem.cones.slices():
            assert cones.member(cones.dual(f), beta[sl], 1e-7), f.kind
        pairing = float(problem.b @ res.lam)
        worst_pairing = min(worst_pairing, pairing)
        assert pairing > 1e-9, f"pairing {pairing:.3e}"
    print(f"\n[criterion 8] PASS — 100 optimal certificates "
          f"(worst gap {worst_gap:.2e}) and 100 infeasibility certificates "
          f"(weakest pairing {worst_pairing:.2e})")


def test_criterion_09_trimloss_toy():
    """Trimloss toy: pure second-order program, matches brute force 1e-5."""
    prog, _ = emit_conic(instances.trimloss_model())
    assert prog.num_integer == 2
    kinds = {f.kind for f in prog.cones.factors}
    assert kinds <= {cones.NONNEG, cones.SOC, cones.RSOC}, kinds
    res = oa_solve(prog)
    rb = brute_force_solve(prog)
    assert res.status == rb.status == OPTIMAL
    assert abs(res.obj - rb.obj) <= 1e-5 * (1.0 + abs(rb.obj))
    print(f"\n[criterion 9] PASS — second-order kinds {sorted(kinds)}, "
          f"value {res.obj + prog.obj_offset:.9f} matches brute force")
