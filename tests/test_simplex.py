"""Simplex checks against a brute-force vertex enumeration oracle."""

import copy
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from miconic import instances, oa, simplex
from miconic.compile import emit_conic
from miconic.errors import NumericFailure
from miconic.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpResult, solve_lp


def enumerate_vertices(A, b, lb, ub, tol=1e-8):
    """All basic feasible points of {Ax=b, lb<=x<=ub} with finite bounds.

    Every vertex of the (bounded) feasible polytope sets some size-m column
    subset basic and rests the remaining coordinates on a bound, so trying
    all subsets and bound patterns enumerates every vertex.
    """
    m, n = A.shape
    points = []
    for basis in itertools.combinations(range(n), m):
        B = A[:, list(basis)]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        rest = [j for j in range(n) if j not in basis]
        for pattern in itertools.product((0, 1), repeat=len(rest)):
            x = np.zeros(n)
            for j, p in zip(rest, pattern):
                x[j] = lb[j] if p == 0 else ub[j]
            rhs = b - A[:, rest] @ x[rest] if rest else b
            x[list(basis)] = np.linalg.solve(B, rhs)
            if np.all(x >= lb - tol) and np.all(x <= ub + tol):
                points.append(x)
    return points


def oracle_lp(A, b, c, lb, ub):
    pts = enumerate_vertices(A, b, lb, ub)
    if not pts:
        return INFEASIBLE, None
    vals = [float(c @ x) for x in pts]
    return OPTIMAL, min(vals)


def random_instance(rng):
    m = rng.integers(1, 4)
    n = rng.integers(m + 1, 7)
    A = np.round(rng.standard_normal((m, n)) * 2.0, 1)
    lb = rng.integers(-3, 1, size=n).astype(float)
    ub = lb + rng.integers(1, 5, size=n)
    c = np.round(rng.standard_normal(n) * 3.0, 1)
    if rng.uniform() < 0.7:
        # anchor b at a random box point so most instances are feasible
        x0 = rng.uniform(lb, ub)
        b = A @ x0
    else:
        b = np.round(rng.standard_normal(m) * 3.0, 1)
    return LpProblem(A, b, c, lb, ub)


def check_farkas(prob, y, tol=1e-9):
    g = prob.A.T @ y
    sup = 0.0
    for j in range(len(g)):
        sup += g[j] * (prob.ub[j] if g[j] > 0 else prob.lb[j])
    scale = 1.0 + abs(sup) + float(np.abs(prob.b @ y))
    assert float(prob.b @ y) > sup + tol * scale


def check_optimal(prob, res, tol=1e-7):
    assert res.status == OPTIMAL
    x = res.x
    assert np.all(x >= prob.lb - 1e-8)
    assert np.all(x <= prob.ub + 1e-8)
    assert_allclose(prob.A @ x, prob.b, atol=1e-7 * (1 + np.abs(prob.b).max()))
    # weak duality gap closes at the reported dual
    d = prob.c - prob.A.T @ res.y
    dual_val = float(prob.b @ res.y)
    for j in range(len(d)):
        dual_val += d[j] * (prob.lb[j] if d[j] > 0 else prob.ub[j])
    assert_allclose(dual_val, res.obj, rtol=1e-6, atol=1e-7)


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(101)
    n_feasible = n_infeasible = 0
    for _ in range(200):
        prob = random_instance(rng)
        want_status, want_obj = oracle_lp(prob.A, prob.b, prob.c, prob.lb, prob.ub)
        res = solve_lp(prob)
        assert res.status == want_status
        if want_status == OPTIMAL:
            n_feasible += 1
            check_optimal(prob, res)
            assert_allclose(res.obj, want_obj, rtol=1e-7, atol=1e-7)
        else:
            n_infeasible += 1
            check_farkas(prob, res.farkas)
    assert n_feasible > 100
    assert n_infeasible > 10


def test_simple_known_lp():
    # min -x - y on the unit square cut by x + y <= 1.5 (slack s)
    A = np.array([[1.0, 1.0, 1.0]])
    prob = LpProblem(A, [1.5], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, np.inf])
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.obj, -1.5, atol=1e-9)


def test_bounds_only_no_rows():
    prob = LpProblem(
        np.zeros((0, 3)), [], [1.0, -2.0, 0.0], [-1.0, -1.0, -5.0], [2.0, 3.0, 5.0]
    )
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.x, [-1.0, 3.0, 0.0])
    assert_allclose(res.obj, -7.0)


def test_unbounded_with_ray():
    # min -x1 with x1 - x2 = 0, both nonnegative and unbounded above
    A = np.array([[1.0, -1.0]])
    prob = LpProblem(A, [0.0], [-1.0, 0.0], [0.0, 0.0], [np.inf, np.inf])
    res = solve_lp(prob)
    assert res.status == UNBOUNDED
    r = res.ray
    assert_allclose(A @ r, [0.0], atol=1e-9)
    assert float(prob.c @ r) < -1e-9
    assert np.all(r >= -1e-9)


def test_unbounded_free_column():
    # z only appears in the objective; the equality row fixes x + y
    A = np.array([[1.0, 1.0, 0.0]])
    prob = LpProblem(
        A, [2.0], [0.0, 0.0, 1.0], [0.0, 0.0, -np.inf], [5.0, 5.0, np.inf]
    )
    res = solve_lp(prob)
    assert res.status == UNBOUNDED
    assert float(prob.c @ res.ray) < 0.0
    assert_allclose(A @ res.ray, [0.0], atol=1e-12)


def test_infeasible_box_vs_row():
    # x1 + x2 = 10 cannot be met inside [0,1]^2
    prob = LpProblem([[1.0, 1.0]], [10.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(prob)
    assert res.status == INFEASIBLE
    check_farkas(prob, res.farkas)


def test_fixed_variables():
    # second variable pinned by equal bounds
    prob = LpProblem(
        [[1.0, 1.0], [0.0, 1.0]], [4.0, 2.5], [1.0, 0.0], [0.0, 2.5], [10.0, 2.5]
    )
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.x, [1.5, 2.5])


def test_cold_start_rests_each_idle_column_at_its_documented_bound():
    # x0 = 1 with x0 in [0, 2]; every other column has a zero cost and a
    # zero column, so it never moves from where the cold start rests it:
    # at the finite bound nearest zero, a tie going to the lower one, else
    # at its one finite bound, else free at zero
    lb = [0.0, -1.0, -3.0, -2.0, 4.0, -np.inf, -np.inf]
    ub = [2.0, 3.0, 1.0, 2.0, np.inf, -5.0, np.inf]
    A = np.zeros((1, 7))
    A[0, 0] = 1.0
    res = solve_lp(LpProblem(A, [1.0], [1.0] + [0.0] * 6, lb, ub))
    assert res.status == OPTIMAL
    assert res.x.tolist() == [1.0, -1.0, 1.0, -2.0, 4.0, -5.0, 0.0]


def test_degenerate_cycling_guard():
    # classic cycling-prone instance; must terminate at -1/20
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    n = 7
    prob = LpProblem(A, b, c, np.zeros(n), np.full(n, np.inf))
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.obj, -0.05, atol=1e-9)


def test_negative_lower_bounds():
    prob = LpProblem(
        [[1.0, 2.0]], [0.0], [1.0, 1.0], [-4.0, -3.0], [4.0, 3.0]
    )
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    # optimum at x2 = -2 forces x1 = 4? no: minimize x1 + x2 on x1 = -2 x2
    # candidates: x2 in [-2, 2] from x1 bounds; f = -2 x2 + x2 = -x2 -> x2 = 2
    assert_allclose(res.obj, -2.0, atol=1e-9)


def test_crossing_bounds_rejected():
    with pytest.raises(ValueError):
        LpProblem([[1.0]], [0.0], [1.0], [2.0], [1.0])


def test_larger_random_lps_feasibility():
    rng = np.random.default_rng(202)
    for _ in range(30):
        m, n = 8, 14
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        b = A @ x0
        lb = np.full(n, -2.0)
        ub = np.full(n, 2.0)
        c = rng.standard_normal(n)
        res = solve_lp(LpProblem(A, b, c, lb, ub))
        assert res.status == OPTIMAL
        assert float(c @ res.x) <= float(c @ x0) + 1e-7
        check_optimal(LpProblem(A, b, c, lb, ub), res)


def tightened(prob, rng):
    """prob with one bound of one variable moved inside its box."""
    lb, ub = prob.lb.copy(), prob.ub.copy()
    j = int(rng.integers(len(lb)))
    cut = lb[j] + float(rng.uniform()) * (ub[j] - lb[j])
    if rng.uniform() < 0.5:
        ub[j] = cut
    else:
        lb[j] = cut
    return LpProblem(prob.A, prob.b, prob.c, lb, ub)


def test_warm_start_after_one_tightened_bound_matches_cold():
    rng = np.random.default_rng(505)
    n_warm = n_warm_infeasible = 0
    for _ in range(300):
        parent = random_instance(rng)
        first = solve_lp(parent)
        if first.status != OPTIMAL:
            continue
        child = tightened(parent, rng)
        warm = solve_lp(child, warm=first.basis)
        cold = solve_lp(child)
        assert warm.status == cold.status
        n_warm += warm.warm
        if warm.status == OPTIMAL:
            check_optimal(child, warm)
            assert_allclose(warm.obj, cold.obj, rtol=1e-7, atol=1e-7)
        else:
            check_farkas(child, warm.farkas)
            n_warm_infeasible += warm.warm
    assert n_warm > 100
    assert n_warm_infeasible > 10


def test_warm_start_with_perturbed_costs_and_a_tightened_bound_matches_cold():
    rng = np.random.default_rng(4242)
    n_warm = n_infeasible = 0
    for _ in range(300):
        parent = random_instance(rng)
        first = solve_lp(parent)
        if first.status != OPTIMAL:
            continue
        c = parent.c + rng.standard_normal(len(parent.c))
        child = tightened(
            LpProblem(parent.A, parent.b, c, parent.lb, parent.ub), rng)
        res = solve_lp(child, warm=first.basis)
        cold = solve_lp(child)
        assert res.warm and res.status == cold.status
        if res.status == OPTIMAL:
            check_optimal(child, res)
            assert_allclose(res.obj, cold.obj, rtol=1e-7, atol=1e-7)
        else:
            check_farkas(child, res.farkas)
            n_infeasible += 1
        n_warm += 1
    assert n_warm > 200
    assert n_infeasible > 10


def test_warm_start_needs_far_fewer_pivots_than_cold():
    rng = np.random.default_rng(606)
    warm_pivots = cold_pivots = 0
    for _ in range(20):
        m, n = 8, 14
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(-1.0, 1.0, size=n)
        c = rng.standard_normal(n)
        parent = LpProblem(A, b, c, np.full(n, -2.0), np.full(n, 2.0))
        first = solve_lp(parent)
        assert first.status == OPTIMAL
        # branch on the basic coordinate nearest the middle of its box
        j = int(np.argmin(np.abs(first.x)))
        ub = parent.ub.copy()
        ub[j] = first.x[j] - 0.5
        child = LpProblem(A, b, c, parent.lb, ub)
        warm = solve_lp(child, warm=first.basis)
        cold = solve_lp(child)
        assert warm.warm and warm.status == cold.status
        if cold.status == OPTIMAL:
            check_optimal(child, warm)
            assert_allclose(warm.obj, cold.obj, rtol=1e-7, atol=1e-7)
        else:
            check_farkas(child, warm.farkas)
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots / 2


def test_warm_start_with_flipped_costs_finishes_warm():
    rng = np.random.default_rng(707)
    solves = warm_iterations = cold_iterations = 0
    for _ in range(100):
        prob = random_instance(rng)
        first = solve_lp(prob)
        if first.status != OPTIMAL:
            continue
        # the basis is optimal for c, so for -c it is dual infeasible unless
        # the problem is degenerate; the final primal pass mends that
        flipped = LpProblem(prob.A, prob.b, -prob.c, prob.lb, prob.ub)
        res = solve_lp(flipped, warm=first.basis)
        cold = solve_lp(flipped)
        assert res.warm
        assert res.status == cold.status == OPTIMAL
        assert_allclose(res.obj, cold.obj, rtol=1e-7, atol=1e-7)
        check_optimal(flipped, res)
        solves += 1
        warm_iterations += res.iterations
        cold_iterations += cold.iterations
    assert solves == 85
    assert warm_iterations < cold_iterations


def test_warm_start_with_a_basis_of_other_shape_solves_cold():
    prob = LpProblem([[1.0, 1.0, 1.0]], [1.5], [-1.0, -1.0, 0.0],
                     [0.0, 0.0, 0.0], [1.0, 1.0, np.inf])
    other = solve_lp(LpProblem([[1.0, 2.0]], [1.0], [1.0, 1.0],
                               [0.0, 0.0], [1.0, 1.0]))
    res = solve_lp(prob, warm=other.basis)
    assert res.status == OPTIMAL and not res.warm
    assert_allclose(res.obj, -1.5, atol=1e-9)
    assert res.basis is not None


def _tableau(A, b, lb, ub, basis, status):
    A = np.asarray(A, dtype=float)
    tab = simplex._Tableau(
        A=A, b=np.asarray(b, dtype=float), lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float), basis=np.array(basis),
        status=np.array(status), enterable=np.ones(A.shape[1], dtype=bool),
    )
    tab.refactor()
    return tab


def test_false_ray_from_a_drifted_inverse_is_refactored_away():
    # min -x2 with x1 = x2 and x1 <= 2: bounded, optimum x = (2, 2).  A
    # drifted Binv (here with its sign flipped) makes x2 look like a ray
    # along which x1 falls without limit, but A ray != 0
    tab = _tableau([[1.0, -1.0]], [0.0], [-np.inf, 0.0], [2.0, np.inf],
                   basis=[0], status=[simplex._BASIC, simplex._AT_LOWER])
    tab.Binv = -tab.Binv
    tab.age = 5
    st, x = simplex._phase(tab, np.array([0.0, -1.0]), allow_unbounded=True)
    assert st == OPTIMAL
    assert_allclose(x, [2.0, 2.0])


def test_false_ray_on_a_fresh_basis_bars_its_column_until_the_basis_changes(
    monkeypatch,
):
    # x1 = 1e12 x2 with x1 free: the ray of x2 descends by 1e-12 per unit
    # of its largest entry, below the pricing tolerance, so it is no ray.
    # x2 is kept out until x4 enters, priced again after that pivot, kept
    # out again, and may enter afterwards
    checked = []
    real = simplex._ray_holds

    def spy(A, c, ray):
        checked.append(ray.copy())
        return real(A, c, ray)

    monkeypatch.setattr(simplex, "_ray_holds", spy)
    tab = _tableau(
        [[1.0, -1e12, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], [0.0, 1.0],
        [-np.inf, 0.0, 0.0, 0.0], [np.inf] * 4, basis=[0, 2],
        status=[simplex._BASIC, simplex._AT_LOWER, simplex._BASIC,
                simplex._AT_LOWER],
    )
    c = np.array([0.0, -1.0, 0.0, -0.5])
    st, x = simplex._phase(tab, c, allow_unbounded=True)
    assert st == OPTIMAL
    assert_allclose(x, [0.0, 0.0, 0.0, 1.0])
    # once before the pivot; after it, once on the updated inverse and
    # once on its refactor
    assert len(checked) == 3
    assert all(r[1] == 1.0 for r in checked)
    assert tab.enterable.all()


def test_false_ray_through_a_nearly_singular_basis_is_not_unbounded():
    # the root LP of the first OA MILP for seed-2024 corpus program 31 with
    # its equality row halved: that row, seven cut rows with slacks and the
    # objective row c.z - s = -0.70273, s >= 0, which bounds the LP.  The
    # cold solve priced a column whose "ray" had entries up to 5e7,
    # max|A ray| = 1e-8 and c.ray = -2e-9: -4e-17 once scaled to max 1
    rows = [
        {0: -0.1875419879955593, 1: 0.443700316285514,
         2: -0.3499739923153898, 3: -0.29110596629904695,
         4: -0.24543186700409358, 5: -0.25354166392939503,
         6: 0.38316984631221945, 7: 0.05422222239249313},
        {2: 0.5860251632372422, 3: 0.4139748367627578, 4: 1.0},
        {2: 0.5860251632372422, 3: 0.4139748367627578, 4: -1.0},
        {5: -0.36787944117144233, 6: -0.7357588823428847, 7: 1.0},
        {5: -1.0, 6: -1.0, 7: 1.0},
        {5: -1.0, 7: 0.36787944117144233},
        {2: 0.7372237297118838, 3: 1.0, 4: 0.6296340583493997},
        {5: -1.0, 6: 0.2635714065260008, 7: 0.2826427894959608},
        {2: 1.8510786316054135, 3: 2.367806843252113,
         4: 1.5392724998010248, 5: -0.9915913182406979,
         6: 0.014860356979987888, 7: 0.2938549663640193},
    ]
    cols = np.zeros((9, 8))
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[i, j] = v
    A = np.hstack([cols, -np.eye(9)[:, 1:]])
    b = np.zeros(9)
    b[0], b[8] = 0.3392299475067073, -0.7027264729091872
    c = np.concatenate([cols[8], np.zeros(8)])
    lb = np.concatenate([[1.0, 0.0, 0.0, 0.0, -np.inf, -np.inf, 0.0, 0.0],
                         np.zeros(8)])
    ub = np.concatenate([[3.0, 1.0], np.full(14, np.inf)])
    prob = LpProblem(A, b, c, lb, ub)
    res = solve_lp(prob)
    assert res.status == OPTIMAL
    assert np.all(res.x >= lb - 1e-8) and np.all(res.x <= ub + 1e-8)
    assert_allclose(A @ res.x, b, atol=1e-7)
    # the objective row is tight at the optimum
    assert res.obj == pytest.approx(b[8], abs=1e-8)


def _first_milp_root_lp(name):
    # the root LP of the first OA MILP of a corpus program, as
    # oa._initialize and oa._grow built it and solve_milp solves it
    # cold.  Its path through the false rays hangs on the last bits of the
    # root relaxation's cut, so the LP is kept as data, each float in hex,
    # which round-trips exactly
    path = Path(__file__).with_name("data") / "first_milp_root_lps.json"
    lp = json.loads(path.read_text())[name]
    return LpProblem(*(np.vectorize(float.fromhex, otypes=[float])(lp[key])
                       for key in ("A", "b", "c", "lb", "ub")))


def _count_false_rays(monkeypatch):
    # the column count of each ray the simplex finds false, in order
    false_rays = []
    real = simplex._ray_holds

    def spy(A, c, ray):
        holds = real(A, c, ray)
        if not holds:
            false_rays.append(A.shape[1])
        return holds

    monkeypatch.setattr(simplex, "_ray_holds", spy)
    return false_rays


def test_repeated_false_rays_fall_back_to_blands_rule(monkeypatch):
    # seed-2024 corpus program 31's root LP, cold and with its row not
    # halved: its nearly singular bases yield false ray after false ray,
    # each barring one column, and without a switch to Bland's rule, which
    # the second false ray makes, it took 646 pivots and 288 false rays
    false_rays = _count_false_rays(monkeypatch)
    res = solve_lp(_first_milp_root_lp("seed2024_program31"))
    assert len(false_rays) >= 2
    assert res.iterations <= 100
    assert res.status == OPTIMAL
    # OA ends at this program's integral root, before that MILP
    rng = np.random.default_rng(2024)
    prog = [instances.random_feasible_program(rng) for _ in range(32)][31]
    out = oa.oa_solve(prog)
    assert out.status == OPTIMAL and out.iterations == 0
    assert out.obj == pytest.approx(-0.70273, abs=1e-5)


def test_false_rays_outnumbering_the_columns_end_the_solve(monkeypatch):
    # seed-42 corpus program 38: the first OA MILP's root LP (10 x 19,
    # cold) reaches a basis so near singular that two columns swap with a
    # false ray every two pivots, and the solve once ran on to the
    # iteration cap.  The phase now stops at the 30th false ray, one more
    # than its extended array's 29 columns.  OA ends at this program's
    # integral root, so the LP is posed directly
    false_rays = _count_false_rays(monkeypatch)
    with pytest.raises(NumericFailure, match="false rays outnumber columns"):
        solve_lp(_first_milp_root_lp("seed42_program38"))
    assert false_rays == [29] * 30


# ------------------------------------------- warm starts that hand over


def _one_row_parent():
    # min -2 x1 - x2 with x1 + x2 + x3 = 1.2: x1 rests at its upper bound
    # 0.5, x2 = 0.7 is basic and x3 rests at 0
    prob = LpProblem([[1.0, 1.0, 1.0]], [1.2], [-2.0, -1.0, 0.0],
                     [0.0, 0.0, 0.0], [0.5, 1.0, np.inf])
    first = solve_lp(prob)
    assert first.status == OPTIMAL
    assert first.basis.status[0] == simplex._AT_UPPER
    return prob, first


def _child(prob, ub):
    return LpProblem(prob.A, prob.b, prob.c, prob.lb, ub)


def _assert_handed_over(res, cold, warm_iterations):
    assert res.status == cold.status
    assert res.obj == cold.obj
    assert not res.warm
    assert res.iterations == warm_iterations + cold.iterations


def _recording_dual_phase(monkeypatch, spent, fail=False):
    real = simplex._dual_phase

    def dual_phase(tab, c):
        out = real(tab, c)
        spent.append(tab.iterations)
        if fail:
            raise simplex.NumericFailure("injected")
        return out

    monkeypatch.setattr(simplex, "_dual_phase", dual_phase)


def test_warm_start_from_a_bound_the_child_drops_solves_cold():
    prob, first = _one_row_parent()
    child = _child(prob, [np.inf, 1.0, np.inf])
    res = solve_lp(child, warm=first.basis)
    cold = solve_lp(child)
    assert cold.status == OPTIMAL and cold.obj == pytest.approx(-2.4)
    _assert_handed_over(res, cold, 0)


def test_warm_farkas_vector_that_fails_its_check_solves_cold(monkeypatch):
    prob, first = _one_row_parent()
    # x1 + x2 + x3 <= 0.5 + 0.5 + 0.1 < 1.2
    child = _child(prob, [0.5, 0.5, 0.1])
    cold = solve_lp(child)
    assert cold.status == INFEASIBLE
    spent = []
    _recording_dual_phase(monkeypatch, spent)
    monkeypatch.setattr(simplex, "_farkas_holds", lambda *args: False)
    res = solve_lp(child, warm=first.basis)
    assert spent[0] > 0
    _assert_handed_over(res, cold, spent[0])


def test_numeric_failure_in_the_warm_solve_solves_cold(monkeypatch):
    prob, first = _one_row_parent()
    child = _child(prob, [0.5, 0.5, np.inf])
    cold = solve_lp(child)
    assert cold.status == OPTIMAL
    spent = []
    _recording_dual_phase(monkeypatch, spent, fail=True)
    res = solve_lp(child, warm=first.basis)
    assert spent[0] > 0
    _assert_handed_over(res, cold, spent[0])


def test_warm_start_whose_basic_columns_are_all_free_stays_warm():
    # min x1 s.t. x0 + x1 = 1 with x0 free and basic: the only basic value
    # has no bound to violate, so the child with x1 <= 1 is solved warm
    prob = LpProblem(np.array([[1.0, 1.0]]), [1.0], [0.0, 1.0],
                     [-np.inf, 0.0], [np.inf, 2.0])
    first = solve_lp(prob)
    assert first.status == OPTIMAL and first.basis.basis.tolist() == [0]
    child = _child(prob, [np.inf, 1.0])
    res = solve_lp(child, warm=first.basis)
    assert res.warm
    assert res.status == OPTIMAL and res.obj == solve_lp(child).obj
    # a basic value that is not a number still ends the warm start
    broken = copy.copy(first.basis)
    broken.Binv = np.full((1, 1), np.nan)
    assert not solve_lp(child, warm=broken).warm


def _assert_feasible_point(prob, res):
    assert res.status == UNBOUNDED
    x = res.x
    assert np.all(prob.lb <= x) and np.all(x <= prob.ub)
    resid = float(np.max(np.abs(prob.A @ x - prob.b), initial=0.0))
    assert resid <= 1e-8 * (1.0 + float(np.max(np.abs(prob.b), initial=0.0)))


def test_every_unbounded_result_carries_a_feasible_point():
    # cold solves: the inputs of the two unbounded tests above
    for prob in (
        LpProblem([[1.0, -1.0]], [0.0], [-1.0, 0.0], [0.0, 0.0],
                  [np.inf, np.inf]),
        LpProblem([[1.0, 1.0, 0.0]], [2.0], [0.0, 0.0, 1.0],
                  [0.0, 0.0, -np.inf], [5.0, 5.0, np.inf]),
    ):
        _assert_feasible_point(prob, solve_lp(prob))
    # a problem without rows
    box = LpProblem(np.zeros((0, 3)), [], [1.0, -1.0, 0.0],
                    [-1.0, 2.0, -4.0], [2.0, np.inf, -3.0])
    res = solve_lp(box)
    _assert_feasible_point(box, res)
    assert_allclose(res.x, [0.0, 2.0, -3.0])
    # a warm start whose primal pass finds a ray returns it: x4, fixed at 0
    # in the parent, has reduced cost -5e-8 and raises x2 without limit
    A = np.array([[1.0, 1.0, 1.0, -1.0]])
    c = np.array([-2.0, -1.0, 0.0, 1.0 - 5e-8])
    lb = np.zeros(4)
    parent = LpProblem(A, [1.2], c, lb, [0.5, np.inf, np.inf, 0.0])
    first = solve_lp(parent)
    assert first.status == OPTIMAL
    child = LpProblem(A, [1.2], c, lb, [0.5, np.inf, np.inf, np.inf])
    res = solve_lp(child, warm=first.basis)
    cold = solve_lp(child)
    assert res.warm and res.status == cold.status == UNBOUNDED
    r = res.ray / float(np.max(np.abs(res.ray)))
    assert float(np.max(np.abs(A @ r))) <= 1e-12
    assert float(c @ r) < 0.0
    _assert_feasible_point(child, res)


# ------------------------------------- the inverse a warm basis carries


def _branched_children(rng):
    """An optimal parent LP and its two children on a basic coordinate."""
    m, n = 8, 14
    A = rng.standard_normal((m, n))
    b = A @ rng.uniform(-1.0, 1.0, size=n)
    c = rng.standard_normal(n)
    parent = LpProblem(A, b, c, np.full(n, -2.0), np.full(n, 2.0))
    first = solve_lp(parent)
    assert first.status == OPTIMAL
    j = int(np.argmin(np.abs(first.x)))
    left_ub, right_lb = parent.ub.copy(), parent.lb.copy()
    left_ub[j] = first.x[j] - 0.25
    right_lb[j] = first.x[j] + 0.25
    left = LpProblem(A, b, c, parent.lb, left_ub)
    right = LpProblem(A, b, c, right_lb, parent.ub)
    return first, left, right


def _same_result(r, s):
    assert r.status == s.status and r.warm == s.warm
    assert r.iterations == s.iterations
    for name in ("x", "obj", "y", "farkas"):
        assert np.array_equal(getattr(r, name), getattr(s, name))
    if r.basis is not None:
        assert np.array_equal(r.basis.basis, s.basis.basis)
        assert np.array_equal(r.basis.Binv, s.basis.Binv)
        assert r.basis.age == s.basis.age


def test_children_solved_in_either_order_give_identical_results():
    # both children start from the parent's inverse; each must pivot on a
    # copy, or the second child would start from the first one's inverse
    rng = np.random.default_rng(909)
    pivoted = 0
    for _ in range(20):
        first, left, right = _branched_children(rng)
        kept = first.basis.Binv.copy()
        l1 = solve_lp(left, warm=first.basis)
        r1 = solve_lp(right, warm=first.basis)
        r2 = solve_lp(right, warm=first.basis)
        l2 = solve_lp(left, warm=first.basis)
        _same_result(l1, l2)
        _same_result(r1, r2)
        assert np.array_equal(first.basis.Binv, kept)
        pivoted += min(l1.iterations, r1.iterations) > 0
    assert pivoted > 10


def test_warm_basis_from_another_array_of_equal_values_solves_cold():
    # the carried inverse belongs to the parent's A; an equal copy of A
    # must not be trusted with it
    rng = np.random.default_rng(910)
    for _ in range(10):
        first, left, _ = _branched_children(rng)
        same = solve_lp(left, warm=first.basis)
        assert same.warm
        copied = LpProblem(left.A.copy(), left.b, left.c, left.lb, left.ub)
        res = solve_lp(copied, warm=first.basis)
        cold = solve_lp(copied)
        assert not res.warm
        _same_result(res, cold)


# ------------------------------------------ warm starts on a bordered array


def bordered(prob, rng, k, x):
    """prob with k new rows g.x - s = h appended, each with its own slack
    s in a new column that is zero above it: the shape of an OA cut row.

    h is drawn around g.x, so some rows cut the point x off.  The slack's
    upper bound never binds; an infinite one would turn rounding noise in
    a basic slack's reduced cost into an infinite dual bound in
    check_optimal.
    """
    m, n = prob.A.shape
    G = np.round(rng.standard_normal((k, n)) * 2.0, 1)
    A = np.zeros((m + k, n + k))
    A[:m, :n] = prob.A
    A[m:, :n] = G
    A[m:, n:] = -np.eye(k)
    h = G @ x + rng.uniform(-1.0, 2.0, size=k)
    return LpProblem(A, np.concatenate([prob.b, h]),
                     np.concatenate([prob.c, np.zeros(k)]),
                     np.concatenate([prob.lb, np.zeros(k)]),
                     np.concatenate([prob.ub, np.full(k, 1e6)]))


def test_warm_start_on_a_bordered_array_matches_cold():
    rng = np.random.default_rng(1414)
    n_warm = n_infeasible = n_pivoted = 0
    for _ in range(200):
        parent = random_instance(rng)
        first = solve_lp(parent)
        if first.status != OPTIMAL:
            continue
        child = bordered(parent, rng, int(rng.integers(1, 4)), first.x)
        # the parent's own tableau is posed on another array
        assert not solve_lp(child, warm=first.basis).warm
        res = solve_lp(child, warm=simplex.border(first.basis, child.A, {}))
        cold = solve_lp(child)
        assert res.warm and res.status == cold.status
        if res.status == OPTIMAL:
            check_optimal(child, res)
            assert_allclose(res.obj, cold.obj, rtol=1e-7, atol=1e-7)
            assert res.basis.source is child.A
        else:
            check_farkas(child, res.farkas)
            n_infeasible += 1
        n_warm += 1
        n_pivoted += res.iterations > 1
    assert n_warm > 150
    assert n_infeasible > 50
    assert n_pivoted > 80


def test_a_bordered_start_extends_the_carried_inverse(monkeypatch):
    # border builds [[B^-1, 0], [-S^-1 R B^-1, S^-1]] from the parent's
    # inverse, keeps its age, and the warm solve factors nothing
    refactors = []
    real_refactor = simplex._Tableau.refactor

    def refactor(tab):
        refactors.append(1)
        real_refactor(tab)

    rng = np.random.default_rng(1414)
    checked = 0
    for _ in range(200):
        parent = random_instance(rng)
        first = solve_lp(parent)
        if first.status != OPTIMAL:
            continue
        child = bordered(parent, rng, int(rng.integers(1, 4)), first.x)
        tab = simplex.border(first.basis, child.A, {})
        assert tab.source is child.A and tab.age == first.basis.age
        want = np.linalg.inv(tab.A[:, tab.basis])
        err = np.max(np.abs(tab.Binv - want)) / np.max(np.abs(want))
        assert err <= 1e-12
        monkeypatch.setattr(simplex._Tableau, "refactor", refactor)
        assert solve_lp(child, warm=simplex.border(first.basis, child.A,
                                                   {})).warm
        monkeypatch.undo()
        checked += 1
    assert checked > 150
    assert not refactors


def _bordered_pair():
    """An optimal parent LP and a two-row bordered child."""
    rng = np.random.default_rng(1415)
    m, n = 3, 6
    A = rng.standard_normal((m, n))
    b = A @ rng.uniform(-1.0, 1.0, size=n)
    parent = LpProblem(A, b, rng.standard_normal(n), np.full(n, -2.0),
                       np.full(n, 2.0))
    first = solve_lp(parent)
    assert first.status == OPTIMAL
    child = bordered(parent, rng, 2, first.x)
    assert solve_lp(child, warm=simplex.border(first.basis, child.A, {})).warm
    return parent, first, child


def _leading_block_differs(A):
    A[0, 0] += 1.0
    return A


def _slack_nonzero_above(A):
    A[0, -1] = 1.0
    return A


def _one_slack_for_two_rows(A):
    A[-1, -2] = -1.0
    return A


def _slacks_swapped(A):
    A[-2:, -2:] = [[0.0, -1.0], [-1.0, 0.0]]
    return A


def _one_column_more(A):
    A = np.hstack([A, np.zeros((A.shape[0], 1))])
    A[-1, -1] = 1.0
    return A


@pytest.mark.parametrize("edit", [_leading_block_differs,
                                  _slack_nonzero_above,
                                  _one_slack_for_two_rows,
                                  _slacks_swapped,
                                  _one_column_more])
def test_warm_start_on_an_array_that_does_not_border_solves_cold(edit):
    _, first, child = _bordered_pair()
    A = edit(child.A.copy())
    extra = A.shape[1] - child.A.shape[1]
    other = LpProblem(A, child.b, np.append(child.c, np.zeros(extra)),
                      np.append(child.lb, np.zeros(extra)),
                      np.append(child.ub, np.full(extra, np.inf)))
    assert simplex.border(first.basis, A, {}) is None
    res = solve_lp(other, warm=first.basis)
    assert not res.warm
    _same_result(res, solve_lp(other))


def test_warm_start_on_an_array_with_fewer_rows_solves_cold():
    # the bordered child's tableau does not serve the parent it grew from
    parent, _, child = _bordered_pair()
    grown = solve_lp(child)
    assert grown.status == OPTIMAL
    assert simplex.border(grown.basis, parent.A, {}) is None
    res = solve_lp(parent, warm=grown.basis)
    assert not res.warm
    _same_result(res, solve_lp(parent))


# ------------------------------------------------ every start against HiGHS

# linprog's status codes for a solved LP, infeasible LP and unbounded LP,
# and feasibility tolerances tight enough for a 1e-7 comparison, as in
# test_milp.py
_HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def _random_bounded_lp(rng):
    """A small LP with integer bounds, some infinite, and at times a
    repeated row or two equal columns; half of them anchored at a box
    point, so most of those are feasible."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    A = np.round(rng.standard_normal((m, n)) * 2.0, 1)
    if m > 1 and rng.uniform() < 0.2:
        A[-1] = A[0]
    if n > 1 and rng.uniform() < 0.2:
        A[:, -1] = A[:, 0]
    lo = rng.integers(-3, 1, size=n).astype(float)
    hi = lo + rng.integers(0, 4, size=n)
    c = np.round(rng.standard_normal(n) * 2.0, 1)
    if rng.uniform() < 0.5:
        b = A @ rng.uniform(lo, hi)
    else:
        b = np.round(rng.standard_normal(m) * 3.0, 1)
    lb = np.where(rng.uniform(size=n) < 0.15, -np.inf, lo)
    ub = np.where(rng.uniform(size=n) < 0.15, np.inf, hi)
    return LpProblem(A, b, c, lb, ub)


def _assert_agrees_with_highs(prob, res):
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(prob.lb, prob.ub)]
    ref = linprog(prob.c, A_eq=prob.A, b_eq=prob.b, bounds=bounds,
                  method="highs", options=_HIGHS_OPTIONS)
    assert _HIGHS_STATUS[ref.status] == res.status
    if res.status == OPTIMAL:
        assert abs(res.obj - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


@settings(max_examples=400, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cold_warm_and_bordered_solves_agree_with_highs(seed):
    # HiGHS shares no code with the simplex.  Each LP is solved cold; an
    # optimal one is then re-solved warm from its tableau with one bound
    # moved to the floor or ceiling of its optimal value, as branch and
    # bound does, and through border with one or two cut rows appended
    rng = np.random.default_rng(seed)
    prob = _random_bounded_lp(rng)
    first = solve_lp(prob)
    _assert_agrees_with_highs(prob, first)
    if first.status != OPTIMAL:
        return
    j = int(rng.integers(len(prob.c)))
    # the bounds are integers, so the rounded value stays within them
    xj = float(np.clip(first.x[j], prob.lb[j], prob.ub[j]))
    lb, ub = prob.lb.copy(), prob.ub.copy()
    if rng.uniform() < 0.5:
        ub[j] = np.floor(xj)
    else:
        lb[j] = np.ceil(xj)
    child = LpProblem(prob.A, prob.b, prob.c, lb, ub)
    _assert_agrees_with_highs(child, solve_lp(child, warm=first.basis))
    grown = bordered(prob, rng, int(rng.integers(1, 3)), first.x)
    tab = simplex.border(first.basis, grown.A, {})
    assert tab is not None
    _assert_agrees_with_highs(grown, solve_lp(grown, warm=tab))


# ----------------------------- carried basic values and reduced costs


def _random_solves(seeds):
    """Solve, for each seed, an LP drawn as the HiGHS property draws it:
    cold; when optimal, warm with one bound tightened and a new c; and
    through border with one to three rows cutting near its point."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        prob = _random_bounded_lp(rng)
        first = solve_lp(prob)
        if first.status != OPTIMAL:
            continue
        j = int(rng.integers(len(prob.c)))
        xj = float(np.clip(first.x[j], prob.lb[j], prob.ub[j]))
        lb, ub = prob.lb.copy(), prob.ub.copy()
        if rng.uniform() < 0.5:
            ub[j] = np.floor(xj)
        else:
            lb[j] = np.ceil(xj)
        c = np.round(rng.standard_normal(len(prob.c)) * 2.0, 1)
        solve_lp(LpProblem(prob.A, prob.b, c, lb, ub), warm=first.basis)
        grown = bordered(prob, rng, int(rng.integers(1, 4)), first.x)
        solve_lp(grown, warm=simplex.border(first.basis, grown.A, {}))


def _extended_ball_solves(ns=range(5, 9)):
    for n in ns:
        prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
        assert oa.oa_solve(prog).status == INFEASIBLE


def test_carried_values_and_reduced_costs_track_a_fresh_recomputation(
    monkeypatch,
):
    # after every pivot of cold, warm and bordered solves and of the
    # extended balls' Gomory and node LPs, xB and d agree with Binv's
    # recomputation, and d is exactly zero on the basis, the entering
    # column included
    drift = {"xB": [], "d": []}
    real = simplex._Tableau.pivot

    def pivot(tab, *args):
        real(tab, *args)
        fresh = {"xB": tab.values()[tab.basis],
                 "d": tab.c - tab.A.T @ tab.duals(tab.c)}
        for key, want in fresh.items():
            err = np.max(np.abs(getattr(tab, key) - want))
            assert err <= 1e-9 * (1.0 + np.max(np.abs(want))), key
            drift[key].append(err)
        assert not np.any(tab.d[tab.basis])

    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    _random_solves(range(300))
    random_pivots = len(drift["xB"])
    _extended_ball_solves()
    assert random_pivots > 300
    assert len(drift["xB"]) - random_pivots > 500


def _recording_farkas(monkeypatch):
    # each Farkas vector _dual_phase returns, with the problem it was
    # posed on: the tableau's b and bounds lead with the problem's own
    seen = []
    real = simplex._dual_phase

    def dual_phase(tab, c):
        y = real(tab, c)
        if y is not None:
            n = tab.source.shape[1]
            seen.append((LpProblem(tab.source, tab.b, c[:n], tab.lb[:n],
                                   tab.ub[:n]), y))
        return y

    monkeypatch.setattr(simplex, "_dual_phase", dual_phase)
    return seen


def test_every_dual_phase_farkas_vector_passes_its_check(monkeypatch):
    # the dual phase's exit and _farkas_holds read one zero rule: every
    # Farkas vector it returns, scaled to max|y| = 1, passes the check,
    # on random bordered LPs and on the extended balls' infeasible node
    # LPs, whose n = 7 vectors leave rounding residues on unbounded
    # columns
    seen = _recording_farkas(monkeypatch)
    _random_solves(range(300))
    random_vectors = len(seen)
    _extended_ball_solves()
    assert random_vectors > 100
    assert len(seen) - random_vectors > 50
    for prob, y in seen:
        assert simplex._farkas_holds(prob, y / np.max(np.abs(y)),
                                     simplex._infeasible_floor(prob))
