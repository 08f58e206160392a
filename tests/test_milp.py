"""Branch-and-bound checks against exhaustive integer enumeration."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import miconic.milp as milp
from miconic import instances, oa, simplex
from miconic.compile import emit_conic
from miconic.errors import NumericFailure, UnboundedInteger
from miconic.milp import solve_milp
from miconic.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp


def oracle_milp(A, b, c, lb, ub, int_idx):
    """Fix every integral assignment in turn and keep the best LP value."""
    ranges = [range(int(lb[j]), int(ub[j]) + 1) for j in int_idx]
    best = np.inf
    feasible = False
    for assignment in itertools.product(*ranges):
        flb, fub = lb.copy(), ub.copy()
        for j, v in zip(int_idx, assignment):
            flb[j] = fub[j] = float(v)
        res = solve_lp(LpProblem(A, b, c, flb, fub))
        if res.status == OPTIMAL:
            feasible = True
            best = min(best, res.obj)
    if not feasible:
        return INFEASIBLE, None
    return OPTIMAL, best


def random_instance(rng):
    m = rng.integers(1, 3)
    n = rng.integers(m + 1, 6)
    n_int = rng.integers(1, n + 1)
    int_idx = sorted(rng.choice(n, size=n_int, replace=False).tolist())
    A = np.round(rng.standard_normal((m, n)) * 2.0, 1)
    lb = rng.integers(-2, 1, size=n).astype(float)
    ub = lb + rng.integers(1, 4, size=n)
    c = np.round(rng.standard_normal(n) * 3.0, 1)
    if rng.uniform() < 0.75:
        x0 = rng.uniform(lb, ub)
        for j in int_idx:
            x0[j] = round(x0[j])
        b = A @ x0
    else:
        b = np.round(rng.standard_normal(m) * 2.0, 1)
    return A, b, c, lb, ub, int_idx


def test_against_enumeration_oracle():
    rng = np.random.default_rng(303)
    n_opt = n_inf = 0
    for _ in range(100):
        A, b, c, lb, ub, int_idx = random_instance(rng)
        want_status, want_obj = oracle_milp(A, b, c, lb, ub, int_idx)
        res = solve_milp(A, b, c, lb, ub, int_idx)
        assert res.status == want_status
        if want_status == OPTIMAL:
            n_opt += 1
            assert_allclose(res.obj, want_obj, rtol=1e-6, atol=1e-6)
            assert res.lower_bound <= res.obj + 1e-9
            # integer coordinates come back exactly integral
            for j in int_idx:
                assert res.x[j] == round(res.x[j])
            assert np.all(res.x >= lb - 1e-7) and np.all(res.x <= ub + 1e-7)
            assert_allclose(A @ res.x, b, atol=1e-6 * (1 + np.abs(b).max()))
        else:
            n_inf += 1
    assert n_opt > 50
    assert n_inf > 5


def test_small_knapsack():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 5 over binaries; best is (1,1,0) -> 9
    A = np.array([[2.0, 3.0, 1.0, 1.0]])
    b = np.array([5.0])
    c = np.array([-5.0, -4.0, -3.0, 0.0])
    lb = np.zeros(4)
    ub = np.array([1.0, 1.0, 1.0, np.inf])
    res = solve_milp(A, b, c, lb, ub, [0, 1, 2])
    assert res.status == OPTIMAL
    assert_allclose(res.obj, -9.0, atol=1e-9)
    assert_allclose(res.x[:3], [1.0, 1.0, 0.0])


def test_infeasible_parity_gap():
    # 2x = 3 has no integral solution in range
    res = solve_milp([[2.0]], [3.0], [1.0], [-10.0], [10.0], [0])
    assert res.status == INFEASIBLE


def test_unbounded_free_column():
    # x integral and pinned by the row; z free with negative direction in objective
    A = np.array([[1.0, 0.0]])
    res = solve_milp(A, [0.0], [0.0, 1.0], [0.0, -np.inf], [1.0, np.inf], [0])
    assert res.status == UNBOUNDED
    assert res.ray is not None
    assert_allclose(A @ res.ray, [0.0], atol=1e-12)
    # the ray keeps the integer coordinate fixed
    assert res.ray[0] == 0.0


def test_unbounded_after_branching():
    # relaxation value depends on x, but every fixed x leaves z unbounded below
    A = np.array([[1.0, 1.0, 0.0]])
    b = np.array([0.5])
    c = np.array([0.0, 0.0, 1.0])
    lb = np.array([0.0, -np.inf, -np.inf])
    ub = np.array([1.0, np.inf, np.inf])
    res = solve_milp(A, b, c, lb, ub, [0])
    assert res.status == UNBOUNDED


def test_integer_bounds_must_be_finite():
    with pytest.raises(UnboundedInteger):
        solve_milp([[1.0]], [0.0], [1.0], [0.0], [np.inf], [0])


def test_gap_and_bound_reporting():
    rng = np.random.default_rng(404)
    A = rng.standard_normal((2, 5))
    x0 = np.array([1.0, 2.0, 0.5, -0.5, 1.5])
    b = A @ x0
    c = rng.standard_normal(5)
    lb = np.array([0.0, 0.0, -3.0, -3.0, -3.0])
    ub = np.array([3.0, 3.0, 3.0, 3.0, 3.0])
    res = solve_milp(A, b, c, lb, ub, [0, 1])
    assert res.status == OPTIMAL
    gap = res.obj - res.lower_bound
    assert gap <= 1e-6 * (1.0 + abs(res.obj)) + 1e-12


def test_branching_from_the_parent_basis_matches_cold_solves():
    # the two children of a root node, each solved from the root's basis
    rng = np.random.default_rng(313)
    n_children = n_infeasible = 0
    for _ in range(100):
        A, b, c, lb, ub, int_idx = random_instance(rng)
        root = solve_lp(LpProblem(A, b, c, lb, ub))
        if root.status != OPTIMAL:
            continue
        frac = [j for j in int_idx if abs(root.x[j] - round(root.x[j])) > 1e-6]
        if not frac:
            continue
        j = frac[0]
        left_ub, right_lb = ub.copy(), lb.copy()
        left_ub[j] = np.floor(root.x[j])
        right_lb[j] = left_ub[j] + 1.0
        for clb, cub in ((lb, left_ub), (right_lb, ub)):
            child = LpProblem(A, b, c, clb, cub)
            warm = solve_lp(child, warm=root.basis)
            cold = solve_lp(child)
            n_children += 1
            assert warm.warm
            assert warm.status == cold.status
            if cold.status == OPTIMAL:
                assert_allclose(warm.obj, cold.obj, rtol=1e-7, atol=1e-7)
            else:
                n_infeasible += 1
                g = A.T @ warm.farkas
                sup = float(np.sum(np.where(g > 0, g * cub, g * clb)))
                assert float(b @ warm.farkas) > sup
    assert n_children > 40
    assert n_infeasible > 5


def test_nodes_count_the_node_lps_and_children_start_warm(monkeypatch):
    calls = []

    def counting(prob, warm=None):
        res = solve_lp(prob, warm=warm)
        calls.append((warm is not None, res.warm))
        return res

    monkeypatch.setattr(milp, "solve_lp", counting)
    rng = np.random.default_rng(303)
    for _ in range(40):
        A, b, c, lb, ub, int_idx = random_instance(rng)
        calls.clear()
        res = solve_milp(A, b, c, lb, ub, int_idx)
        assert res.nodes == len(calls)
        # only the root is solved cold; every child gets its parent's basis
        assert [given for given, _ in calls] == [False] + [True] * (len(calls) - 1)


def test_children_of_an_unbounded_fractional_node_start_warm(monkeypatch):
    # x0 - x1 = 0.5 with x0 integer in [0, 2] and x1 in [0, 1], and x2
    # free at cost 1: the root LP is unbounded at x0 = 0.5, so its node
    # is branched, and both children start from its tableau
    seen = _lp_recorder(monkeypatch)
    args = (np.array([[1.0, -1.0, 0.0]]), [0.5], [0.0, 0.0, 1.0],
            [0.0, 0.0, -np.inf], [2.0, 1.0, np.inf], [0])
    res = solve_milp(*args)
    assert res.status == UNBOUNDED and res.nodes == len(seen) == 3
    (_, _, root), *children = seen
    assert root.status == UNBOUNDED and root.x[0] == 0.5
    assert [lp.status for _, _, lp in children] == [INFEASIBLE, UNBOUNDED]
    for _, given, lp in children:
        assert given is root.basis and lp.warm
    # a Gomory round whose LP is unbounded hands on its tableau as well
    seen.clear()
    out = milp.gomory_rounds(*args)
    ((bound, _, _, _, tab),) = out.warm
    assert out.lps == 1 and out.rows == 0 and bound == -np.inf
    assert tab is seen[0][2].basis
    res = solve_milp(*args, warm=out.warm)
    assert res.status == UNBOUNDED and res.nodes == 3
    assert all(lp.warm for _, _, lp in seen[1:])


def test_extended_ball_tree_has_every_node_and_no_fallback(monkeypatch):
    # no relaxation of the empty ball is infeasible before every x_i is
    # fixed, so the tree of its first MILP, without Gomory rows, is
    # complete: 2^(n+1) - 1 node LPs
    lps = []

    def recording_lp(prob, warm=None):
        res = solve_lp(prob, warm=warm)
        lps.append(res)
        return res

    monkeypatch.setattr(milp, "solve_lp", recording_lp)
    for n in range(2, 6):
        lps.clear()
        res = solve_milp(*_ball_milp(n))
        assert res.status == INFEASIBLE
        assert res.nodes == len(lps) == 2 ** (n + 1) - 1
        assert all(r.warm for r in lps[1:])
    # through OA, where the Gomory rounds' LPs come first, none falls back
    # either: n = 7 has a warm infeasible node LP whose Farkas vector
    # leaves a rounding residue on an unbounded slack column, which the
    # check reads by the dual phase's zero rule
    for n in range(2, 9):
        lps.clear()
        prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
        out = oa.oa_solve(prog)
        assert out.status == INFEASIBLE and out.iterations == 1
        (record,) = out.trace
        assert len(lps) == record["gmi_lps"] + record["milp_nodes"]
        assert all(r.warm for r in lps[1:])


# ---------------------------------- warm inverses along the ball trees


def _ball_milp(n):
    """The first OA MILP of the extended empty ball of dimension n."""
    prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
    state = oa.OaState(cones=prog.cones, tol=1e-5)
    assert oa._initialize(prog, state) is None
    grown = oa._grow(prog, state, None)
    return (grown.A, grown.b, grown.c, grown.lb, grown.ub,
            list(range(prog.num_integer)))


def test_ball_trees_refactor_once_and_no_inverse_outlives_its_age_cap(
    monkeypatch,
):
    # each child starts from its parent's inverse, so the cold root's
    # factorization serves the whole tree (a fresh one per node LP would
    # make 2^(n+1) - 1); the 64-update cap counts along each path
    refactors, ages = [], []
    real_refactor = simplex._Tableau.refactor
    real_pivot = simplex._Tableau.pivot

    def refactor(tab):
        refactors.append(1)
        real_refactor(tab)

    def pivot(tab, *args):
        ages.append(tab.age)
        real_pivot(tab, *args)
        ages.append(tab.age)

    monkeypatch.setattr(simplex._Tableau, "refactor", refactor)
    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    for n in range(2, 8):
        refactors.clear()
        res = solve_milp(*_ball_milp(n))
        assert res.status == INFEASIBLE and res.nodes == 2 ** (n + 1) - 1
        if n <= 6:
            assert len(refactors) == 1
    assert max(ages) == 64


def test_warm_starts_share_the_extended_array_of_their_cold_solve(
    monkeypatch,
):
    # the third warm node LP fails and falls back cold: its result gets a
    # new [A | artificials] array, which its own descendants then share
    seen = _lp_recorder(monkeypatch)
    real_dual_phase = simplex._dual_phase
    calls = itertools.count()

    def dual_phase(tab, c):
        if next(calls) == 2:
            raise simplex.NumericFailure("injected")
        return real_dual_phase(tab, c)

    monkeypatch.setattr(simplex, "_dual_phase", dual_phase)
    A, *rest = _ball_milp(5)
    assert solve_milp(A, *rest).nodes == len(seen) == 63
    root = seen[0][2].basis
    fallback = [res for _, warm, res in seen
                if warm is not None and not res.warm]
    assert len(fallback) == 1 and fallback[0].basis is not None
    assert fallback[0].basis.A is not root.A
    shared = 0
    for _, warm, res in seen:
        if res.basis is None:
            continue
        assert res.basis.source is A
        if res.warm:
            assert res.basis.A is warm.A
            shared += res.basis.A is fallback[0].basis.A
    assert shared > 0


def _lp_recorder(monkeypatch):
    seen = []

    def recording(prob, warm=None):
        res = solve_lp(prob, warm=warm)
        seen.append((prob, warm, res))
        return res

    monkeypatch.setattr(milp, "solve_lp", recording)
    return seen


def _assert_matches_cold(prob, res):
    cold = solve_lp(prob)
    assert res.status == cold.status
    if cold.status == OPTIMAL:
        assert_allclose(res.obj, cold.obj, rtol=1e-7, atol=1e-7)
        resid = float(np.max(np.abs(prob.A @ res.x - prob.b)))
        assert resid <= 1e-8 * (1.0 + float(np.max(np.abs(prob.b))))
    elif cold.status == INFEASIBLE:
        # the sup of y.A x over the box; products that are zero up to
        # rounding (max|y| = 1) carry no bound on the free columns
        g = prob.A.T @ res.farkas
        g[np.abs(g) <= 1e-12] = 0.0
        top = np.where(g > 0, prob.ub, prob.lb)
        sup = float(np.sum(g[g != 0.0] * top[g != 0.0]))
        assert float(prob.b @ res.farkas) > sup


def test_every_warm_node_lp_matches_a_cold_solve(monkeypatch):
    # the ball trees, then every MILP of the OA runs on the first ten
    # programs of the oracle corpus and on the aggregated balls, whose
    # MILPs after the first resume the last MILP's leaves
    seen = _lp_recorder(monkeypatch)
    for n in range(2, 7):
        solve_milp(*_ball_milp(n))
    # every node but the five roots starts warm
    assert sum(res.warm for _, _, res in seen) == len(seen) - 5
    rng = np.random.default_rng(2024)
    for _ in range(10):
        oa.oa_solve(instances.random_feasible_program(rng))
    for n in range(2, 5):
        oa.oa_solve(emit_conic(instances.empty_ball_model(n, "naive"))[0])
    for prob, given, res in seen:
        if given is not None:
            _assert_matches_cold(prob, res)


def test_resuming_a_tightened_milp_matches_the_enumeration_oracle():
    # each round appends a row a.x >= a.x* + 1/2 with its slack, which
    # cuts off the last optimum x*, and resumes the last round's leaves;
    # beside each round, a side round raises one integer's lower bound
    # past the least upper bound a leaf has on it, which empties those
    # leaves' boxes, and resumes the same leaves
    def check(A, b, c, lb, ub, int_idx, leaves):
        res = solve_milp(A, b, c, lb, ub, int_idx, warm=leaves)
        want_status, want_obj = oracle_milp(A, b, c, lb, ub, int_idx)
        assert res.status == want_status
        if want_status == OPTIMAL:
            assert_allclose(res.obj, want_obj, rtol=1e-6, atol=1e-6)
        return res

    rng = np.random.default_rng(331)
    rounds = bound_rounds = emptied = 0
    for _ in range(60):
        A, b, c, lb, ub, int_idx = random_instance(rng)
        res = solve_milp(A, b, c, lb, ub, int_idx)
        for k in range(4):
            if res.leaves:
                top, j = min((min(leaf[3][j] for leaf in res.leaves), j)
                             for j in int_idx)
                if top < ub[j]:
                    raised = lb.copy()
                    raised[j] = top + 1.0
                    emptied += sum(leaf[3][j] < raised[j]
                                   for leaf in res.leaves)
                    check(A, b, c, raised, ub, int_idx, res.leaves)
                    bound_rounds += 1
            if k == 3 or res.status != OPTIMAL:
                break
            a = np.round(rng.standard_normal(A.shape[1]), 1)
            A = np.block([[A, np.zeros((A.shape[0], 1))], [a, -1.0]])
            b = np.append(b, a @ res.x + 0.5)
            c, lb = np.append(c, 0.0), np.append(lb, 0.0)
            ub = np.append(ub, np.inf)
            res = check(A, b, c, lb, ub, int_idx, res.leaves)
            rounds += 1
    assert rounds > 60 and bound_rounds > 30 and emptied > bound_rounds


def _oa_milp_recorder(monkeypatch):
    """Record each OA MILP as (args, warm, result, node LPs)."""
    seen = _lp_recorder(monkeypatch)
    milps = []

    def recording(*args, **kwargs):
        first = len(seen)
        res = solve_milp(*args, **kwargs)
        milps.append((args, kwargs.get("warm"), res, seen[first:]))
        return res

    monkeypatch.setattr(oa, "solve_milp", recording)
    return milps


def test_each_oa_milp_resumes_the_previous_milps_leaves(monkeypatch):
    milps = _oa_milp_recorder(monkeypatch)
    rounds = []

    def recording_rounds(*args, **kwargs):
        rounds.append(milp.gomory_rounds(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(oa, "gomory_rounds", recording_rounds)
    resumed = 0
    for n in range(2, 5):
        milps.clear()
        rounds.clear()
        prog = emit_conic(instances.empty_ball_model(n, "naive"))[0]
        out = oa.oa_solve(prog)
        nx = prog.num_integer
        assert out.iterations == len(milps) > 2
        for i, (_, warm, res, lps) in enumerate(milps):
            assert out.trace[i]["milp_leaves"] == len(res.leaves)
            # the start is the previous MILP's leaves, the very list, and
            # the first MILP's is the Gomory rounds' one leaf
            if i == 0:
                (gmi,) = rounds
                assert warm is gmi.warm and len(warm) == 1
            else:
                assert warm is milps[i - 1][2].leaves
            # a start that no node LP of this MILP returned is a leaf's
            # tableau, carried onto this MILP's array
            own = {id(lp.basis) for _, _, lp in lps}
            boxes = [(leaf[2][:nx], leaf[3][:nx]) for leaf in warm]
            for prob, given, lp in lps:
                # every node lies in a leaf's box: the root box is posed
                # again only while an integral root LP left it a leaf
                lo, hi = prob.lb[:nx], prob.ub[:nx]
                assert any(np.all(lo >= blo) and np.all(hi <= bhi)
                           for blo, bhi in boxes)
                # and no LP starts cold
                assert given is not None
                if id(given) not in own:
                    assert given.source is prob.A and lp.warm
                    resumed += 1
    assert resumed > 20


def test_a_resumed_milp_checks_each_earlier_array_once(monkeypatch):
    # the leaves made on one earlier array share one bordering check and
    # one extended array per MILP, however many of them are resumed
    checked, carried, milps = [], [], []
    real_check, real_border = simplex._bordering, simplex.border

    def check(A, warm):
        checked.append(id(warm.A))
        return real_check(A, warm)

    def border(warm, A, arrays):
        carried.append(id(warm.A))
        return real_border(warm, A, arrays)

    def recording(*args, **kwargs):
        checked.clear()
        carried.clear()
        res = solve_milp(*args, **kwargs)
        milps.append((sorted(checked), sorted(set(carried)), len(carried)))
        return res

    monkeypatch.setattr(simplex, "_bordering", check)
    monkeypatch.setattr(milp, "border", border)
    monkeypatch.setattr(oa, "solve_milp", recording)
    out = oa.oa_solve(emit_conic(instances.empty_ball_model(3, "naive"))[0])
    assert out.status == INFEASIBLE and len(milps) == out.iterations
    for checks, arrays, _ in milps:
        assert checks == arrays
    # fewer checks than carried leaves: some array served several
    assert sum(n for *_, n in milps) > sum(len(c) for c, *_ in milps) > 0


def _resumed_programs():
    """The aggregated balls n=2..5, disk, trimloss and the first ten
    programs of the seed-2024 oracle corpus."""
    progs = [emit_conic(instances.empty_ball_model(n, "naive"))[0]
             for n in range(2, 6)]
    progs += [emit_conic(instances.disk_model())[0],
              emit_conic(instances.trimloss_model())[0]]
    rng = np.random.default_rng(2024)
    progs += [instances.random_feasible_program(rng) for _ in range(10)]
    return progs


def test_each_oa_run_poses_one_lp_without_a_start(monkeypatch):
    # its first; every later LP, a Gomory round's, a node's or a resumed
    # leaf's, starts from a tableau the run made, and none falls back cold
    seen = _lp_recorder(monkeypatch)
    progs = [emit_conic(instances.empty_ball_model(n, "extended"))[0]
             for n in range(2, 9)]
    runs = 0
    for prog in progs + _resumed_programs():
        seen.clear()
        oa.oa_solve(prog)
        # solve_lp ignores the start of an LP without rows
        posed = [(given, res) for prob, given, res in seen if len(prob.A)]
        if not posed:
            continue
        runs += 1
        assert [given is None for given, _ in posed] == (
            [True] + [False] * (len(posed) - 1))
        assert all(res.warm for _, res in posed[1:])
    assert runs > 10


def test_a_resumed_milp_matches_a_fresh_tree(monkeypatch):
    milps = _oa_milp_recorder(monkeypatch)
    for prog in _resumed_programs():
        oa.oa_solve(prog)
    monkeypatch.undo()
    resumed = stopped = 0
    for args, warm, res, _ in milps:
        fresh = solve_milp(*args)
        assert res.status == fresh.status
        if fresh.status != OPTIMAL:
            continue
        tol = 1e-9 * (1.0 + abs(fresh.obj))
        assert abs(res.obj - fresh.obj) <= tol
        assert res.lower_bound <= fresh.obj + tol
        if res.nodes < 2:
            continue
        resumed += 1
        # a clock that ticks once per node LP stops the resumed search
        # after half of its node LPs
        clock = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        k = res.nodes // 2
        cut = solve_milp(*args, warm=warm, deadline=next(clock) + k + 0.5)
        monkeypatch.undo()
        assert cut.status == milp.TIME_LIMIT and cut.nodes == k
        assert cut.lower_bound <= fresh.obj + tol
        stopped += 1
    assert resumed == stopped > 20


def test_oa_on_the_aggregated_balls_solves_few_node_lps():
    # one tree for the whole run: a fresh tree per OA iteration solves
    # 1,424 node LPs here
    nodes = 0
    for n in range(2, 6):
        prog = emit_conic(instances.empty_ball_model(n, "naive"))[0]
        out = oa.oa_solve(prog)
        assert out.status == INFEASIBLE
        nodes += sum(record["milp_nodes"] for record in out.trace)
    assert nodes <= 300


# ------------------------------------------ the node LPs against HiGHS

# linprog's status codes for a solved LP, infeasible LP and unbounded LP
_HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
# HiGHS's default feasibility tolerances (1e-7) move its values by up to
# 2.7e-7, more than the 1e-7 the oracles compare to
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def _census_programs():
    """The extended balls n=2..8, the aggregated balls n=2..5, disk,
    trimloss and the seed-2024 oracle corpus."""
    progs = [emit_conic(instances.empty_ball_model(n, "extended"))[0]
             for n in range(2, 9)]
    progs += [emit_conic(instances.empty_ball_model(n, "naive"))[0]
              for n in range(2, 6)]
    progs += [emit_conic(instances.disk_model())[0],
              emit_conic(instances.trimloss_model())[0]]
    rng = np.random.default_rng(2024)
    progs += [instances.random_feasible_program(rng) for _ in range(40)]
    progs += [instances.random_infeasible_program(rng) for _ in range(20)]
    return progs


def test_every_oa_node_lp_agrees_with_highs(monkeypatch):
    # HiGHS shares no code with the simplex, so it guards every start the
    # node LPs take: cold, from the parent's inverse and bordered
    seen = _lp_recorder(monkeypatch)
    for prog in _census_programs():
        oa.oa_solve(prog)
    # a start that no node LP returned is a leaf's tableau carried onto a
    # later MILP's array
    own = {id(res.basis) for _, _, res in seen}
    carried = undecided = 0
    for prob, given, res in seen:
        bounds = [(lo if np.isfinite(lo) else None,
                   hi if np.isfinite(hi) else None)
                  for lo, hi in zip(prob.lb, prob.ub)]
        ref = linprog(prob.c, A_eq=prob.A, b_eq=prob.b, bounds=bounds,
                      method="highs", options=_HIGHS_OPTIONS)
        if ref.status == 4:
            # HiGHS leaves some LPs with Gomory rows undecided ("model
            # status unknown")
            undecided += 1
            assert (_elastic_infeasible(prob.A, prob.b, bounds)
                    == (res.status == INFEASIBLE))
            continue
        assert _HIGHS_STATUS[ref.status] == res.status
        if res.status == OPTIMAL:
            assert abs(res.obj - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        carried += given is not None and id(given) not in own
    assert len(seen) > 400 and carried > 150 and 4 * undecided < len(seen)


def _elastic_infeasible(A, b, bounds):
    """Whether min sum(e+ + e-) subject to A x + e+ - e- = b and bounds
    on x, HiGHS's elastic LP, exceeds 1e-7."""
    m, n = A.shape
    elastic = linprog(np.concatenate([np.zeros(n), np.ones(2 * m)]),
                      A_eq=np.hstack([A, np.eye(m), -np.eye(m)]), b_eq=b,
                      bounds=list(bounds) + [(0.0, None)] * (2 * m),
                      method="highs")
    assert elastic.status == 0
    return elastic.fun > 1e-7


def _random_mixed_milp(rng):
    """A MILP with 1-3 rows, 2-6 columns and 1-3 integer columns boxed in
    [-2, 2]; some continuous bounds are infinite, and half of the
    instances are anchored at a point of the box integral on int_idx."""
    m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    int_idx = sorted(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                replace=False).tolist())
    A = np.round(rng.standard_normal((m, n)) * 2.0, 1)
    c = np.round(rng.standard_normal(n) * 2.0, 1)
    lb = rng.integers(-2, 1, size=n).astype(float)
    ub = lb + rng.integers(0, 3, size=n)
    if rng.uniform() < 0.5:
        x0 = rng.uniform(lb, ub)
        x0[int_idx] = np.round(x0[int_idx])
        b = A @ x0
    else:
        b = np.round(rng.standard_normal(m) * 3.0, 1)
    free = np.ones(n, dtype=bool)
    free[int_idx] = False
    lb[free & (rng.uniform(size=n) < 0.15)] = -np.inf
    ub[free & (rng.uniform(size=n) < 0.15)] = np.inf
    return A, b, c, lb, ub, int_idx


def _assert_agrees_with_enumeration(A, b, c, lb, ub, int_idx, res):
    # linprog on each integer assignment's LP; scipy.optimize.milp is not
    # the oracle, since with its default presolve it calls some feasible
    # MILPs infeasible
    want, best = INFEASIBLE, np.inf
    for values in itertools.product(
            *(range(int(lb[j]), int(ub[j]) + 1) for j in int_idx)):
        flb, fub = lb.copy(), ub.copy()
        flb[int_idx] = fub[int_idx] = values
        bounds = [(lo if np.isfinite(lo) else None,
                   hi if np.isfinite(hi) else None)
                  for lo, hi in zip(flb, fub)]
        ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs",
                      options=_HIGHS_OPTIONS)
        status = _HIGHS_STATUS[ref.status]
        if status == UNBOUNDED:
            want = UNBOUNDED
            break
        if status == OPTIMAL:
            want, best = OPTIMAL, min(best, ref.fun)
    assert res.status == want
    if want == OPTIMAL:
        assert abs(res.obj - best) <= 1e-7 * max(1.0, abs(best))


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fresh_and_resumed_milps_agree_with_enumeration(seed):
    # a fresh solve; then, from its leaves, a solve with one continuous
    # lower bound raised above its optimal value (at most to its upper
    # bound), and one with a bordered row g.x - s = h appended that the
    # optimum violates, as OA's cuts are
    rng = np.random.default_rng(seed)
    A, b, c, lb, ub, int_idx = _random_mixed_milp(rng)
    res = solve_milp(A, b, c, lb, ub, int_idx)
    _assert_agrees_with_enumeration(A, b, c, lb, ub, int_idx, res)
    if res.status != OPTIMAL:
        return
    continuous = [j for j in range(len(c)) if j not in int_idx]
    if continuous:
        j = int(rng.choice(continuous))
        raised = lb.copy()
        raised[j] = min(ub[j], np.floor(res.x[j]) + 1.0)
        _assert_agrees_with_enumeration(
            A, b, c, raised, ub, int_idx,
            solve_milp(A, b, c, raised, ub, int_idx, warm=res.leaves))
    g = np.round(rng.standard_normal(len(c)), 1)
    A = np.block([[A, np.zeros((len(b), 1))], [g, -1.0]])
    b = np.append(b, g @ res.x + 0.5)
    c, lb, ub = np.append(c, 0.0), np.append(lb, 0.0), np.append(ub, np.inf)
    _assert_agrees_with_enumeration(
        A, b, c, lb, ub, int_idx,
        solve_milp(A, b, c, lb, ub, int_idx, warm=res.leaves))


# ------------------------------------------ Gomory mixed-integer rounds


def _highs_fiber(A, b, c, lb, ub):
    """HiGHS's status and value of one LP; an LP that HiGHS leaves
    undecided ("model status unknown", 4) is decided by the elastic LP
    (_elastic_infeasible), and counts as optimal, with value None, when
    it is feasible."""
    bounds = [(lo if np.isfinite(lo) else None,
               hi if np.isfinite(hi) else None) for lo, hi in zip(lb, ub)]
    ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs",
                  options=_HIGHS_OPTIONS)
    if ref.status == 4:
        return (INFEASIBLE if _elastic_infeasible(A, b, bounds) else OPTIMAL,
                None)
    status = _HIGHS_STATUS[ref.status]
    return status, ref.fun if status == OPTIMAL else None


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
# seeds on which HiGHS at its default tolerances valued an assignment's
# LP with the rows up to 2.7e-7 below its value without them
@example(seed=2532)
@example(seed=1000956)
@example(seed=3000000109)
def test_gomory_rows_keep_every_integer_assignment_and_the_optimum(seed):
    # the first of up to 20 draws whose rounds append rows (about one in
    # six does); then each integer assignment's LP, with and without the
    # rows: one feasible without them stays feasible with them, at the
    # same value, so the MILP optimum stays too
    rng = np.random.default_rng(seed)
    for _ in range(20):
        A, b, c, lb, ub, int_idx = _random_mixed_milp(rng)
        out = milp.gomory_rounds(A, b, c, lb, ub, int_idx)
        if out.rows:
            break
    else:
        return
    assert out.A.shape == (len(b) + out.rows, len(c) + out.rows)
    # the MILP optimum without and with the rows; an assignment whose LP
    # HiGHS leaves undecided has no value to compare
    best, best_after, valued = np.inf, np.inf, True
    for values in itertools.product(
            *(range(int(lb[j]), int(ub[j]) + 1) for j in int_idx)):
        before = _highs_fiber(A, b, c, *_fixed(lb, ub, int_idx, values))
        after = _highs_fiber(out.A, out.b, out.c,
                             *_fixed(out.lb, out.ub, int_idx, values))
        if before[0] == UNBOUNDED:
            assert after[0] == UNBOUNDED
            return
        if before[0] != OPTIMAL:
            continue
        assert after[0] == OPTIMAL
        best = min(best, before[1])
        if after[1] is None:
            valued = False
            continue
        assert abs(after[1] - before[1]) <= 1e-7 * max(1.0, abs(before[1]))
        best_after = min(best_after, after[1])
    if valued and np.isfinite(best):
        assert abs(best_after - best) <= 1e-7 * max(1.0, abs(best))


def _fixed(lb, ub, int_idx, values):
    flb, fub = lb.copy(), ub.copy()
    flb[int_idx] = fub[int_idx] = values
    return flb, fub


def test_a_numeric_failure_ends_the_rounds_with_the_finished_rounds_rows(
        monkeypatch):
    # the third round LP raises: the rounds keep the rows of the first two,
    # and the start is the second round's tableau
    args = _ball_milp(5)
    monkeypatch.setattr(milp, "_GMI_ROUNDS", 2)
    two = milp.gomory_rounds(*args)
    monkeypatch.undo()
    calls = itertools.count()

    def failing(prob, warm=None):
        if next(calls) == 2:
            raise NumericFailure("injected")
        return solve_lp(prob, warm=warm)

    monkeypatch.setattr(milp, "solve_lp", failing)
    out = milp.gomory_rounds(*args)
    monkeypatch.undo()
    assert out.rounds == two.rounds == 2
    # the LP that raised counts as posed
    assert out.lps == two.lps + 1 == 3
    assert out.rows == two.rows > 0
    for got, want in zip((out.A, out.b, out.c, out.lb, out.ub),
                         (two.A, two.b, two.c, two.lb, two.ub)):
        assert np.array_equal(got, want)
    # the second round's LP was posed before its own rows were appended
    (leaf,) = out.warm
    assert leaf[4].source.shape[0] < out.A.shape[0]
    res = solve_milp(out.A, out.b, out.c, out.lb, out.ub, args[5],
                     warm=out.warm)
    assert res.status == INFEASIBLE


# --------------------------------------------- deadlines and pivot counts


def test_a_deadline_already_past_stops_before_a_second_node_lp(monkeypatch):
    seen = _lp_recorder(monkeypatch)
    res = solve_milp(*_ball_milp(6), deadline=time.monotonic() - 1.0)
    assert res.status == milp.TIME_LIMIT
    assert res.nodes == len(seen) <= 1
    assert res.lower_bound == -np.inf


def test_a_deadline_mid_search_leaves_a_valid_lower_bound(monkeypatch):
    # a clock that ticks once per node LP stops the search after k of them
    clock = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
    rng = np.random.default_rng(303)
    stopped = 0
    for _ in range(60):
        A, b, c, lb, ub, int_idx = random_instance(rng)
        want_status, want_obj = oracle_milp(A, b, c, lb, ub, int_idx)
        full = solve_milp(A, b, c, lb, ub, int_idx)
        if want_status != OPTIMAL or full.nodes < 4:
            continue
        k = full.nodes // 2
        start = next(clock)
        res = solve_milp(A, b, c, lb, ub, int_idx, deadline=start + k + 0.5)
        assert res.status == milp.TIME_LIMIT and res.nodes == k
        assert res.lower_bound <= want_obj + 1e-9
        # the stopped search hands on its leaves, and resuming them
        # finishes it
        rest = solve_milp(A, b, c, lb, ub, int_idx, warm=res.leaves)
        assert rest.status == OPTIMAL
        assert_allclose(rest.obj, want_obj, rtol=1e-6, atol=1e-6)
        stopped += 1
    assert stopped > 5


def test_pivots_sum_the_node_lps_iterations(monkeypatch):
    seen = _lp_recorder(monkeypatch)
    results = []

    def recording_milp(*args, **kwargs):
        res = solve_milp(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(oa, "solve_milp", recording_milp)
    prog, _ = emit_conic(instances.empty_ball_model(5, "extended"))
    out = oa.oa_solve(prog)
    (res,) = results
    (record,) = out.trace
    # the node LPs follow the Gomory rounds' LPs
    assert len(seen) == record["gmi_lps"] + res.nodes
    assert (res.pivots + record["gmi_pivots"]
            == sum(r.iterations for _, _, r in seen)
            > record["gmi_lps"] + res.nodes)
    assert res.pivots == sum(r.iterations
                             for _, _, r in seen[record["gmi_lps"]:])
    assert record["milp_nodes"] == res.nodes
    assert record["milp_pivots"] == res.pivots
    # an unbounded node is branched on its own LP's point: one LP per node
    seen.clear()
    A = np.array([[1.0, 1.0, 0.0]])
    res = solve_milp(A, [0.5], [0.0, 0.0, 1.0], [0.0, -np.inf, -np.inf],
                     [1.0, np.inf, np.inf], [0])
    assert res.status == UNBOUNDED and len(seen) == res.nodes
    assert res.pivots == sum(r.iterations for _, _, r in seen)
