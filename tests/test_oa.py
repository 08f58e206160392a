"""Behavioral tests for the outer-approximation driver and brute force."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from miconic import cones, instances, ipm, milp, oa, simplex
from miconic.compile import emit_conic, recover_solution
from miconic.errors import InvalidCut, NumericFailure, TooLarge
from miconic.ipm import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ConicResult,
    ContinuousConicProblem,
    solve_continuous,
)
from miconic.oa import (
    ASSUMPTION_FAILURE,
    ITERATION_LIMIT,
    SEPARATION,
    SUBPROBLEM_DUAL,
    TIME_LIMIT,
    Cut,
    OaConfig,
    OaState,
    add_cut,
    brute_force_solve,
    oa_solve,
)
from miconic.milp import MilpResult, solve_milp
from miconic.modelio import parse_model
from miconic.program import ConicProgram


def _state(K):
    return OaState(cones=K, tol=1e-5)


def _corpus(seed, index):
    rng = np.random.default_rng(seed)
    return [instances.random_feasible_program(rng)
            for _ in range(index + 1)][index]


def _agreement(ro, rb, rtol=1e-5):
    if ro.status != rb.status:
        return False
    if ro.obj is None or rb.obj is None:
        return ro.obj is None and rb.obj is None
    return abs(ro.obj - rb.obj) <= rtol * (1.0 + abs(rb.obj))


# ---------------------------------------------------------------- add_cut


def test_duplicate_cut_leaves_pool_unchanged():
    st = _state(cones.ConeProduct((cones.soc(3),)))
    add_cut(st, Cut(np.array([1.0, 0.5, 0.0]), SEPARATION))
    n = len(st.cuts)
    add_cut(st, Cut(np.array([2.0, 1.0, 0.0]), SEPARATION))
    assert len(st.cuts) == n
    # a repeat of a pooled cut of another provenance and assignment
    add_cut(st, Cut(np.array([3.0, 1.5, 0.0]), SUBPROBLEM_DUAL, (1,)))
    assert len(st.cuts) == n


def test_zero_cut_is_vacuous():
    st = _state(cones.ConeProduct((cones.nonneg(2),)))
    add_cut(st, Cut(np.zeros(2), SEPARATION))
    assert len(st.cuts) == 0


def test_cut_outside_dual_cone_is_rejected():
    st = _state(cones.ConeProduct((cones.soc(3),)))
    with pytest.raises(InvalidCut):
        add_cut(st, Cut(np.array([-1.0, 0.0, 0.0]), SEPARATION))
    st2 = _state(cones.ConeProduct((cones.exp_cone(),)))
    with pytest.raises(InvalidCut):
        add_cut(st2, Cut(np.array([-1.0, -1.0, -1.0]), SEPARATION))


def test_near_boundary_cut_is_repaired_not_rejected():
    K = cones.ConeProduct((cones.exp_cone(),))
    st = _state(K)
    e = float(np.e)
    boundary = np.array([-e, 0.0, 1.0])  # dual-cone boundary direction
    nudged = boundary - np.array([0.0, 0.0, 3e-6])
    assert not cones.member(cones.dual(K.factors[0]), nudged / e, 1e-9)
    add_cut(st, Cut(nudged, SUBPROBLEM_DUAL))
    assert len(st.cuts) == 1
    stored = st.cuts[0].beta
    assert cones.member(cones.dual(K.factors[0]), stored, 1e-9)


@pytest.mark.parametrize("factor", [
    cones.nonneg(3), cones.soc(3), cones.rsoc(4), cones.exp_cone(),
    cones.pow_cone(0.3)], ids=str)
def test_block_just_outside_its_dual_factor_is_repaired_onto_it(factor):
    d = cones.dual(factor)
    g = cones.interior_point(d)
    assert cones.strict_member(d, g) and np.max(np.abs(g)) == 1.0
    # a boundary point of the dual factor, pushed out along -g
    nudged = cones.tangents(factor)[-1] - 1e-6 * g
    nudged = nudged / np.max(np.abs(nudged))
    assert not cones.member(d, nudged, 1e-9)
    st = _state(cones.ConeProduct((factor,)))
    add_cut(st, Cut(nudged, SUBPROBLEM_DUAL))
    (cut,) = st.cuts
    assert cones.member(d, cut.beta, 1e-9)
    assert np.max(np.abs(cut.beta - nudged)) < 1e-3


def test_stored_cuts_are_max_norm_one():
    st = _state(cones.ConeProduct((cones.nonneg(3),)))
    add_cut(st, Cut(np.array([0.0, 5.0, 2.5]), SEPARATION))
    assert np.max(np.abs(st.cuts[0].beta)) == pytest.approx(1.0)


def test_cut_length_mismatch_is_rejected():
    st = _state(cones.ConeProduct((cones.nonneg(3),)))
    with pytest.raises(InvalidCut):
        add_cut(st, Cut(np.ones(4), SEPARATION))


def test_cut_with_a_non_finite_entry_is_rejected():
    st = _state(cones.ConeProduct((cones.nonneg(3),)))
    with pytest.raises(InvalidCut, match="cut has non-finite entries"):
        add_cut(st, Cut(np.array([1.0, np.nan, 0.0]), SEPARATION))
    assert st.cuts == []


def test_cut_on_one_factor_is_checked_against_that_factor_only(monkeypatch):
    K = cones.ConeProduct((cones.nonneg(1),) * 99 + (cones.soc(3),))
    st = _state(K)
    calls = []
    member = cones.member

    def counting(cone, p, tol=0.0):
        calls.append(cone.kind)
        return member(cone, p, tol)

    monkeypatch.setattr(cones, "member", counting)
    beta = np.zeros(K.dim)
    beta[-3:] = [2.0, 1.0, -1.0]
    add_cut(st, Cut(beta, SEPARATION))
    assert calls == [cones.SOC]
    assert len(st.cuts) == 1 and st.cuts[0].beta[-3] == 1.0


def test_cut_on_two_factors_pools_as_two_one_factor_cuts():
    st = _state(cones.ConeProduct((cones.nonneg(2), cones.soc(3))))
    add_cut(st, Cut(np.array([2.0, 1.0, 3.0, 1.5, 0.0]), SEPARATION))
    assert [c.beta.tolist() for c in st.cuts] == [
        [1.0, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.5, 0.0]]
    assert all(c.provenance == SEPARATION for c in st.cuts)


def test_cut_with_one_block_beyond_repair_leaves_the_pool_unchanged():
    st = _state(cones.ConeProduct((cones.nonneg(2), cones.soc(3))))
    add_cut(st, Cut(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), SEPARATION))
    before = list(st.cuts)
    # the orthant block is valid and new; the SOC block is not
    with pytest.raises(InvalidCut):
        add_cut(st, Cut(np.array([1.0, 1.0, -1.0, 0.0, 0.0]), SEPARATION))
    assert st.cuts == before


def test_every_pool_cut_lies_on_exactly_one_factor():
    progs = [emit_conic(instances.disk_model())[0],
             emit_conic(instances.trimloss_model())[0],
             emit_conic(instances.empty_ball_model(3, "naive"))[0],
             instances.duality_failure_program()]
    rng = np.random.default_rng(2024)
    progs += [instances.random_feasible_program(rng) for _ in range(15)]
    progs += [instances.random_infeasible_program(rng) for _ in range(5)]
    total = 0
    for prog in progs:
        res = oa_solve(prog)
        for cut in res.cuts:
            touched = [sl for _, sl in prog.cones.slices()
                       if np.any(cut.beta[sl])]
            assert len(touched) == 1
        # no two pooled cuts point the same way
        units = np.array([c.beta / np.linalg.norm(c.beta) for c in res.cuts])
        cosines = units @ units.T
        np.fill_diagonal(cosines, -1.0)
        assert not np.any(cosines > 1.0 - 1e-10)
        total += len(res.cuts)
    assert total > 100


def _milp_data_by_rows(program, state):
    """The first MILP of state, as a loop over the pool, one row at a
    time: the reference oa._grow's array assembly must match byte for
    byte."""
    m, nx, nz = program.num_rows, program.num_integer, program.num_conic
    z_lb = np.full(nz, -np.inf)
    rows, rhs = [], []
    if np.isfinite(state.z_lower):
        rows.append(program.c)
        rhs.append(state.z_lower - 1e-6 * (1.0 + abs(state.z_lower)))
    for cut in state.cuts:
        nonzero = np.nonzero(cut.beta)[0]
        if nonzero.size == 1:
            z_lb[nonzero[0]] = 0.0
        else:
            rows.append(cut.beta)
    k = len(rows)
    A = np.zeros((m + k, nx + nz + k))
    A[:m, :nx] = program.A_x
    A[:m, nx : nx + nz] = program.A_z
    for i, beta in enumerate(rows):
        A[m + i, nx : nx + nz] = beta
        A[m + i, nx + nz + i] = -1.0
    b = np.concatenate([program.b, rhs, np.zeros(k - len(rhs))])
    c = np.concatenate([np.zeros(nx), program.c, np.zeros(k)])
    lb = np.concatenate([program.L, z_lb, np.zeros(k)])
    ub = np.concatenate([program.U, np.full(nz + k, np.inf)])
    return A, b, c, lb, ub, list(range(nx))


def test_milp_data_matches_the_row_by_row_reference():
    # the empty pool, the pool after _initialize and after each of up to
    # three iterations, each with and without the objective row
    progs = [emit_conic(instances.empty_ball_model(3, "naive"))[0],
             emit_conic(instances.trimloss_model())[0],
             _no_conic_program(2.0)]
    rng = np.random.default_rng(7)
    progs += [instances.random_feasible_program(rng) for _ in range(6)]
    folds = rows = 0
    for prog in progs:
        state = _state(prog.cones)
        end = None
        for step in range(5):
            for st in (state, dataclasses.replace(state, z_lower=-np.inf)):
                grown = oa._grow(prog, st, None)
                got = (grown.A, grown.b, grown.c, grown.lb, grown.ub,
                       list(range(prog.num_integer)))
                want = _milp_data_by_rows(prog, st)
                for g, w in zip(got, want):
                    assert np.shape(g) == np.shape(w)
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            nx, nz = prog.num_integer, prog.num_conic
            folds += int(np.sum(got[3][nx : nx + nz] == 0.0))
            rows += len(got[1]) - prog.num_rows
            if end is not None:
                break
            end = (oa._initialize(prog, state) if step == 0
                   else oa._iterate(prog, state, {}, None))
    assert folds > 0 and rows > 0


def test_each_milp_array_extends_the_last_one(monkeypatch):
    # OA keeps the last MILP's arrays and appends to them: the Gomory rows
    # of the first MILP stay in every later one, and an iteration that
    # adds no row hands the very same array on (seed 7's first program
    # has one when the IPM is capped at one iteration)
    arrays = []

    def recording(*args, **kwargs):
        arrays.append(args[0])
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(oa, "solve_milp", recording)
    rng = np.random.default_rng(2024)
    progs = [instances.random_feasible_program(rng) for _ in range(40)]
    progs += [emit_conic(instances.empty_ball_model(n, "naive"))[0]
              for n in (3, 4)]
    capped = instances.random_feasible_program(np.random.default_rng(7))
    gmi = kept = grown = 0
    for prog in progs + [capped]:
        if prog is capped:
            monkeypatch.setattr(ipm, "_MAX_ITERS", 1)
        arrays.clear()
        out = oa_solve(prog)
        if out.trace:
            gmi += out.trace[0]["gmi_rows"] > 0 and len(arrays) > 1
        for old, new in zip(arrays, arrays[1:]):
            m, n = old.shape
            assert np.array_equal(new[:m, :n], old)
            if new.shape == old.shape:
                assert new is old
                kept += 1
            else:
                grown += 1
    assert gmi > 0 and grown > 20 and kept > 0


# --------------------------------------------------------- fixed instances


def test_disk_optimum_and_recovery():
    prog, cmap = emit_conic(instances.disk_model())
    res = oa_solve(prog)
    assert res.status == OPTIMAL
    assert res.iterations <= 3
    value = res.obj + prog.obj_offset
    assert value == pytest.approx(instances.disk_best_value(), abs=1e-6)
    rb = brute_force_solve(prog)
    assert abs(res.obj - rb.obj) <= 1e-6 * (1.0 + abs(rb.obj))
    vals = recover_solution(cmap, np.concatenate([res.x, res.z]))
    assert vals["x1"] == pytest.approx(2.0, abs=1e-6)
    assert vals["x2"] == pytest.approx(1.5, abs=1e-5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_disaggregated_ball_is_infeasible_quickly(n):
    prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
    res = oa_solve(prog)
    assert res.status == INFEASIBLE
    assert res.iterations <= 3


@pytest.mark.parametrize("n", [2, 3])
def test_aggregated_ball_needs_exponentially_many_cuts(n):
    prog, _ = emit_conic(instances.empty_ball_model(n, "naive"))
    res = oa_solve(prog)
    assert res.status == INFEASIBLE
    assert res.iterations > 3
    assert len(res.cuts) >= 2 ** n


def test_no_block_of_a_ball_run_is_dropped_beyond_repair(monkeypatch):
    # the balls' root duals are within ipm.EPS_OPT of zero, so they give no
    # block to repair, and tangents are pooled without a repair
    outcomes, onto_dual = [], oa._onto_dual

    def recording(f, block):
        outcomes.append(onto_dual(f, block))
        return outcomes[-1]

    monkeypatch.setattr(oa, "_onto_dual", recording)
    for n, variant in ([(n, "extended") for n in range(2, 9)]
                       + [(n, "naive") for n in range(2, 6)]):
        prog, _ = emit_conic(instances.empty_ball_model(n, variant))
        assert oa_solve(prog).status == INFEASIBLE
    assert outcomes and all(block is not None for block in outcomes)


def test_unattained_dual_fiber_reports_assumption_failure():
    res = oa_solve(instances.duality_failure_program())
    assert res.status == ASSUMPTION_FAILURE
    assert res.status not in (OPTIMAL, INFEASIBLE)
    assert res.iterations <= 50
    assert res.diagnostic


def test_uncertified_fiber_failure_names_the_subproblem_exit(monkeypatch):
    # a one-iteration IPM certifies no fiber, so OA separates the MILP
    # point of seed-2024 corpus program 8 until no cut is left; iteration
    # 2 adds none and raises the lower bound by one ulp, a rise within the
    # gap tolerance, so the MILP would repeat
    monkeypatch.setattr(ipm, "_MAX_ITERS", 1)
    res = oa_solve(_corpus(2024, 8))
    assert res.status == ASSUMPTION_FAILURE
    assert res.iterations == 2
    assert res.trace[-1]["new_cuts"] == 0
    assert res.diagnostic.startswith(
        "integer assignment [2, 2] added no cut and left the lower bound "
        "unchanged")
    assert res.diagnostic.endswith(": iteration limit of 1 reached")


def test_zero_certificate_cycle_without_incumbent_is_caught(monkeypatch):
    # every fiber after the root answers infeasible with a zero ray, which
    # adds no cut; with no incumbent the run must still stop at the first
    # fiber that also leaves the lower bound where it was, up to a rise
    # within the gap tolerance, since the next MILP would repeat its
    # iteration.  Here the first MILP's bound exceeds the root's by about
    # 3e-11, so the run stops after one MILP.  The root is solved as it is
    root = []

    def zero_certificate(prob):
        if not root:
            root.append(solve_continuous(prob))
            return root[0]
        return ConicResult(INFEASIBLE, lam=np.zeros(prob.A.shape[0]),
                           obj=np.inf)

    monkeypatch.setattr(oa, "solve_continuous", zero_certificate)
    res = oa_solve(emit_conic(instances.trimloss_model())[0],
                   OaConfig(max_iters=50))
    assert res.status == ASSUMPTION_FAILURE
    (stop,) = res.trace
    assert stop["subproblem_status"] == INFEASIBLE
    assert 0.0 < stop["lower_bound"] - root[0].obj <= 1e-5 * (
        1.0 + abs(root[0].obj))
    assert stop["new_cuts"] == 0
    assert str(stop["assignment"]) in res.diagnostic
    assert "infeasible" in res.diagnostic


def test_trimloss_matches_brute_force():
    prog, _ = emit_conic(instances.trimloss_model())
    kinds = {f.kind for f in prog.cones.factors}
    assert kinds <= {cones.NONNEG, cones.SOC, cones.RSOC}
    res = oa_solve(prog)
    rb = brute_force_solve(prog)
    assert res.status == rb.status == OPTIMAL
    assert abs(res.obj - rb.obj) <= 1e-5 * (1.0 + abs(rb.obj))
    assert res.obj + prog.obj_offset == pytest.approx(37.0 / 3.0, rel=1e-5)


# ------------------------------------------------------- driver invariants


def _trace_instances():
    rng = np.random.default_rng(7)
    progs = [emit_conic(instances.disk_model())[0],
             emit_conic(instances.trimloss_model())[0]]
    progs += [instances.random_feasible_program(rng) for _ in range(4)]
    # an infeasible-MILP exit and an assumption-failure exit
    progs += [emit_conic(instances.empty_ball_model(3, "naive"))[0],
              instances.duality_failure_program()]
    return progs


def test_bounds_are_monotone_along_the_trace():
    for prog in _trace_instances():
        res = oa_solve(prog)
        if not res.trace:
            # the run ended at its root relaxation, before any iteration
            assert res.iterations == 0
            assert res.lower_bound <= res.upper_bound + 1e-9
            continue
        lows = [rec["lower_bound"] for rec in res.trace]
        ups = [rec["upper_bound"] for rec in res.trace]
        for a, b in zip(lows, lows[1:]):
            assert b >= a - 1e-9
        for a, b in zip(ups, ups[1:]):
            assert b <= a + 1e-9
        assert lows[-1] == res.lower_bound
        assert ups[-1] == res.upper_bound


def test_no_assignment_revisited_in_terminating_runs():
    for prog in _trace_instances():
        res = oa_solve(prog)
        if res.status not in (OPTIMAL, INFEASIBLE):
            continue
        seen = [tuple(rec["assignment"]) for rec in res.trace
                if rec["assignment"] is not None]
        interior = seen[:-1]
        assert len(interior) == len(set(interior))


def test_bounds_sandwich_the_brute_force_value():
    for prog in _trace_instances():
        res = oa_solve(prog)
        rb = brute_force_solve(prog)
        if rb.status != OPTIMAL:
            continue
        slack = 1e-6 * (1.0 + abs(rb.obj))
        assert res.lower_bound <= rb.obj + slack
        if np.isfinite(res.upper_bound):
            assert res.upper_bound >= rb.obj - slack


def test_all_pool_cuts_are_valid_on_sampled_cone_points():
    rng = np.random.default_rng(3)
    progs = [emit_conic(instances.trimloss_model())[0],
             instances.random_feasible_program(rng),
             instances.duality_failure_program()]
    for prog in progs:
        res = oa_solve(prog)
        if not res.cuts:
            continue
        betas = np.array([c.beta for c in res.cuts])
        pts = cones.sample_product(prog.cones, rng, size=2000)
        assert float(np.min(betas @ pts.T)) >= -1e-7


def test_iteration_limit_status():
    prog, _ = emit_conic(instances.empty_ball_model(3, "naive"))
    res = oa_solve(prog, OaConfig(max_iters=2))
    assert res.status == ITERATION_LIMIT
    assert res.iterations == 2


@pytest.mark.parametrize("setting, value", [
    ("tol", float("nan")), ("tol", -1.0), ("tol", 0.0), ("tol", np.inf),
    ("max_iters", -3), ("time_limit", float("nan")), ("time_limit", -1.0)])
def test_config_rejects_a_setting_out_of_range(setting, value):
    with pytest.raises(ValueError, match=setting):
        OaConfig(**{setting: value})


def test_time_limit_status():
    prog, _ = emit_conic(instances.empty_ball_model(3, "naive"))
    res = oa_solve(prog, OaConfig(time_limit=0.0))
    assert res.status == TIME_LIMIT


def test_time_limit_reaches_inside_branch_and_bound(monkeypatch):
    # a clock that advances 1 ms per reading: the extended ball's one MILP
    # stops at the 50 ms limit, before the node LPs it takes without one
    prog, _ = emit_conic(instances.empty_ball_model(8, "extended"))
    (full,) = oa_solve(prog).trace
    clock = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: 1e-3 * next(clock))
    res = oa_solve(prog, OaConfig(time_limit=0.05))
    assert res.status == TIME_LIMIT and res.iterations == 1
    (record,) = res.trace
    assert record["milp_status"] == TIME_LIMIT
    assert 0 < record["milp_nodes"] < full["milp_nodes"]
    assert record["milp_pivots"] >= record["milp_nodes"]
    assert res.lower_bound == record["lower_bound"] < np.inf


def test_a_deadline_passed_before_the_gomory_rounds_solves_no_round_lp(
        monkeypatch):
    # a clock that stands still for the run's first two readings, then
    # advances 1 ms per reading: with no time at all, OA still poses its
    # first MILP, and the Gomory rounds check the deadline before their
    # first LP
    clock = itertools.count()
    monkeypatch.setattr(time, "monotonic",
                        lambda: 1e-3 * max(0, next(clock) - 1))
    lps = []

    def recording(prob, warm=None):
        lps.append(prob)
        return simplex.solve_lp(prob, warm=warm)

    monkeypatch.setattr(milp, "solve_lp", recording)
    prog, _ = emit_conic(instances.empty_ball_model(8, "extended"))
    res = oa_solve(prog, OaConfig(time_limit=0.0))
    assert res.status == TIME_LIMIT and res.iterations == 1
    (record,) = res.trace
    assert record["milp_status"] == TIME_LIMIT
    assert record["gmi_lps"] == record["gmi_rounds"] == 0
    assert record["gmi_rows"] == record["milp_nodes"] == 0
    assert lps == []


def test_infeasible_milp_after_an_incumbent_keeps_it(monkeypatch):
    # valid cuts cannot cut off a feasible point, so the second MILP being
    # infeasible is a failed assumption; the run keeps what it has proven
    prog, _ = emit_conic(instances.trimloss_model())
    first = oa_solve(prog, OaConfig(max_iters=1))
    assert first.x is not None
    calls = []

    def second_infeasible(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            return MilpResult(INFEASIBLE, lower_bound=np.inf)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(oa, "solve_milp", second_infeasible)
    res = oa_solve(prog)
    assert res.status == ASSUMPTION_FAILURE
    assert res.diagnostic == (
        "MILP relaxation infeasible while an incumbent exists")
    assert res.iterations == 2
    assert np.array_equal(res.x, first.x) and np.array_equal(res.z, first.z)
    assert res.obj == res.upper_bound == first.upper_bound
    assert res.lower_bound == first.lower_bound
    assert res.lower_bound == pytest.approx(7.3137086, abs=1e-6)
    assert res.upper_bound == pytest.approx(8.0, abs=1e-6)


def test_unsolvable_milp_after_an_incumbent_keeps_it(monkeypatch):
    # a MILP the simplex cannot solve ends the run with what it has proven
    prog, _ = emit_conic(instances.trimloss_model())
    first = oa_solve(prog, OaConfig(max_iters=1))
    assert first.x is not None
    calls = []

    def second_unsolvable(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise NumericFailure("simplex false rays outnumber columns")
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(oa, "solve_milp", second_unsolvable)
    res = oa_solve(prog)
    assert res.status == ASSUMPTION_FAILURE
    assert res.diagnostic == ("MILP relaxation could not be solved: "
                              "simplex false rays outnumber columns")
    assert res.iterations == 2
    assert np.array_equal(res.x, first.x) and np.array_equal(res.z, first.z)
    assert res.obj == res.upper_bound == first.upper_bound
    assert res.lower_bound == first.lower_bound


@pytest.mark.parametrize("module, cap, value, cause", [
    (milp, "_NODE_LIMIT", 3, "branch and bound node limit exceeded"),
    (simplex, "_MAX_ITER", 1, "simplex iteration limit")])
def test_a_milp_the_solver_gives_up_on_names_its_layer(monkeypatch, module,
                                                        cap, value, cause):
    # the extended ball's first MILP needs 29 node LPs of several pivots
    # after its Gomory rounds
    monkeypatch.setattr(module, cap, value)
    prog, _ = emit_conic(instances.empty_ball_model(6, "extended"))
    res = oa_solve(prog)
    assert res.status == ASSUMPTION_FAILURE
    assert res.diagnostic == "MILP relaxation could not be solved: " + cause


@pytest.mark.parametrize("factor", [cones.Cone(cones.EXPDUAL, 3),
                                    cones.Cone(cones.POWDUAL, 3, 0.3)])
def test_program_rejects_a_dual_cone_kind(factor):
    # dual families have no barrier and no tangents to seed cuts from
    with pytest.raises(ValueError, match=factor.kind):
        ConicProgram(
            c=np.array([1.0, 0.0, 0.0]),
            A_x=np.zeros((1, 0)),
            A_z=np.array([[0.0, 1.0, 0.0]]),
            b=np.array([1.0]),
            L=np.zeros(0),
            U=np.zeros(0),
            cones=cones.ConeProduct((factor,)),
        )


def test_continuous_only_program():
    prog = ConicProgram(
        c=np.array([2.0, 5.0]),
        A_x=np.zeros((1, 0)),
        A_z=np.array([[1.0, 1.0]]),
        b=np.array([1.0]),
        L=np.zeros(0),
        U=np.zeros(0),
        cones=cones.ConeProduct((cones.nonneg(2),)),
    )
    res = oa_solve(prog)
    assert res.status == OPTIMAL
    assert res.obj == pytest.approx(2.0, abs=1e-7)


def _no_conic_program(a):
    # a x = 1 with x integer in [0, 2] and an empty cone product
    return ConicProgram(
        c=np.zeros(0),
        A_x=np.array([[a]]),
        A_z=np.zeros((1, 0)),
        b=np.array([1.0]),
        L=np.array([0.0]),
        U=np.array([2.0]),
        cones=cones.ConeProduct(()),
    )


@pytest.mark.parametrize("a, status, iterations", [
    (1.0, OPTIMAL, 0),     # x = 1 solves the root, which is integral
    (2.0, INFEASIBLE, 1),  # the root's x = 1/2 leaves one MILP, infeasible
])
def test_program_without_conic_columns(a, status, iterations):
    # the MILP has no conic columns and no cut rows
    res = oa_solve(_no_conic_program(a))
    assert res.status == status and res.iterations == iterations
    if status == OPTIMAL:
        assert res.obj == 0.0 and res.x.tolist() == [1.0]


# ------------------------------------------- a feasible relaxation point


def _cone_program(L):
    # x in [L, 3], x + z0 = 3 and z1 = 1 with z in the second-order cone
    return ConicProgram(
        c=np.array([1.0, 0.0, 0.0]),
        A_x=np.array([[1.0], [0.0]]),
        A_z=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        b=np.array([3.0, 1.0]),
        L=np.array([L]),
        U=np.array([3.0]),
        cones=cones.ConeProduct((cones.soc(3),)),
    )


def test_feasible_accepts_an_integral_point_in_its_box_rows_and_cone():
    # rows are checked at the rounded x: x + z0 = 3 holds after rounding
    x = oa._feasible(_cone_program(0.0), np.array([1.0 + 5e-7]),
                     np.array([2.0, 1.0, 0.0]))
    assert x is not None and np.array_equal(x, [1.0])


@pytest.mark.parametrize("L, x, z", [
    (0.0, 1.0 + 1e-5, [2.0 - 1e-5, 1.0, 0.0]),  # x off-integral
    (2.0, 1.0, [2.0, 1.0, 0.0]),                # x below its box [2, 3]
    # x + z0 = 3 holds exactly before rounding; rounding x moves the row
    # by 5e-7, above the 1e-7 * (1 + 3) tolerance
    (0.0, 1.0 + 5e-7, [2.0 - 5e-7, 1.0, 0.0]),
    (0.0, 1.0, [2.0, 1.0, 3.0]),                # z outside the cone
    (0.0, np.nan, [2.0, 1.0, 0.0]),
    (0.0, 1.0, [2.0, np.inf, 0.0]),
], ids=["off-integral", "outside-box", "rows-after-rounding", "outside-K",
        "non-finite-x", "non-finite-z"])
def test_feasible_rejects_a_point_the_program_does_not_admit(L, x, z):
    assert oa._feasible(_cone_program(L), np.array([x]),
                        np.array(z)) is None


def test_an_integral_root_ends_the_run_before_any_milp():
    prog = _corpus(2024, 0)
    res = oa_solve(prog)
    assert res.status == OPTIMAL
    assert res.iterations == 0 and res.trace == []
    assert np.array_equal(res.x, np.round(res.x))
    assert _agreement(res, brute_force_solve(prog))


def test_a_milp_point_in_k_ends_its_iteration_without_the_fiber(monkeypatch):
    # seed-2024 corpus program 20: the first MILP's point lies in K, so
    # the run solves the root relaxation and no fiber
    prog = _corpus(2024, 20)
    calls = []

    def counting(prob):
        calls.append(prob)
        return solve_continuous(prob)

    monkeypatch.setattr(oa, "solve_continuous", counting)
    res = oa_solve(prog)
    assert res.status == OPTIMAL and res.iterations == 1
    (record,) = res.trace
    assert record["subproblem_status"] is None
    assert record["subproblem_value"] is None
    # the root relaxation and no fiber: one call fewer than an iteration
    # that solves its fiber
    assert len(calls) == res.iterations
    assert _agreement(res, brute_force_solve(prog))


# ------------------------------------------------------------ brute force


def test_brute_force_rejects_huge_grids():
    nx = 20
    prog = ConicProgram(
        c=np.array([1.0]),
        A_x=np.zeros((1, nx)),
        A_z=np.array([[1.0]]),
        b=np.array([0.0]),
        L=np.zeros(nx),
        U=np.full(nx, 4.0),
        cones=cones.ConeProduct((cones.nonneg(1),)),
    )
    with pytest.raises(TooLarge):
        brute_force_solve(prog)


def test_brute_force_single_assignment_matches_continuous_solve():
    prog, _ = emit_conic(instances.disk_model())
    pinned = ConicProgram(
        c=prog.c, A_x=prog.A_x, A_z=prog.A_z, b=prog.b,
        L=np.full_like(prog.L, 2.0), U=np.full_like(prog.U, 2.0),
        cones=prog.cones,
    )
    rb = brute_force_solve(pinned)
    direct = solve_continuous(ContinuousConicProblem(
        prog.A_z, prog.b - prog.A_x @ np.array([2.0]), prog.c, prog.cones))
    assert rb.status == direct.status == OPTIMAL
    assert rb.obj == pytest.approx(direct.obj, abs=1e-12)


def test_brute_force_reports_an_unbounded_fiber():
    # OA's status on this model is a known defect, so only the oracle's
    # exit is checked
    prog, _ = emit_conic(parse_model("(var x) (min x)"))
    rb = brute_force_solve(prog)
    assert rb.status == UNBOUNDED
    assert rb.lower_bound == rb.upper_bound == -np.inf


def test_brute_force_all_fibers_infeasible():
    rng = np.random.default_rng(11)
    rb = brute_force_solve(instances.random_infeasible_program(rng))
    assert rb.status == INFEASIBLE


def test_brute_force_empty_integer_range_is_infeasible():
    prog = ConicProgram(
        c=np.array([1.0]),
        A_x=np.array([[1.0]]),
        A_z=np.array([[1.0]]),
        b=np.array([0.0]),
        L=np.array([0.2]),
        U=np.array([0.8]),
        cones=cones.ConeProduct((cones.nonneg(1),)),
    )
    assert brute_force_solve(prog).status == INFEASIBLE


# ------------------------------------------------------------ mini corpus


def test_halved_row_of_corpus_program_31_stays_optimal():
    # halving the single row of seed-2024 feasible program 31 changes
    # neither its feasible set nor its optimum; it used to end in
    # assumption_failure, because a MILP's simplex returned a false ray
    rng = np.random.default_rng(2024)
    prog = [instances.random_feasible_program(rng) for _ in range(32)][31]
    halved = ConicProgram(
        c=prog.c, A_x=0.5 * prog.A_x, A_z=0.5 * prog.A_z, b=0.5 * prog.b,
        L=prog.L, U=prog.U, cones=prog.cones, obj_offset=prog.obj_offset,
    )
    res = oa_solve(halved)
    assert res.status == OPTIMAL, res.diagnostic
    assert res.obj + prog.obj_offset == pytest.approx(-0.70273, abs=1e-5)
    rb = brute_force_solve(prog)
    assert _agreement(res, rb)


def test_seed_42_corpus_program_38_is_optimal_at_its_root():
    # its first MILP's root LP still fails in the simplex (see
    # test_false_rays_outnumbering_the_columns_end_the_solve); OA ends at
    # the integral root before building that MILP
    prog = _corpus(42, 38)
    res = oa_solve(prog)
    assert res.status == OPTIMAL, res.diagnostic
    assert res.iterations == 0
    assert res.obj == pytest.approx(-1.2891758, abs=1e-6)
    assert _agreement(res, brute_force_solve(prog))


def test_random_corpus_oa_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    progs = [instances.random_feasible_program(rng) for _ in range(12)]
    progs += [instances.random_infeasible_program(rng) for _ in range(6)]
    failures = []
    for i, prog in enumerate(progs):
        ro = oa_solve(prog)
        rb = brute_force_solve(prog)
        if not _agreement(ro, rb):
            failures.append((i, ro.status, rb.status))
    assert not failures, failures


def test_oa_answer_does_not_depend_on_the_order_of_the_cone_factors():
    rng = np.random.default_rng(2024)
    progs = [instances.random_feasible_program(rng) for _ in range(40)]
    progs += [instances.random_infeasible_program(rng) for _ in range(20)]
    perm_rng = np.random.default_rng(5)
    for prog in progs[::4]:
        slices = [sl for _, sl in prog.cones.slices()]
        order = perm_rng.permutation(len(slices))
        cols = np.concatenate([np.arange(prog.num_conic)[slices[k]]
                               for k in order])
        permuted = ConicProgram(
            c=prog.c[cols], A_x=prog.A_x, A_z=prog.A_z[:, cols], b=prog.b,
            L=prog.L, U=prog.U, obj_offset=prog.obj_offset,
            cones=cones.ConeProduct(
                tuple(prog.cones.factors[k] for k in order)),
        )
        ro, rp = oa_solve(prog), oa_solve(permuted)
        assert _agreement(rp, ro), (ro.status, rp.status, ro.obj, rp.obj)
