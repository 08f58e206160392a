"""Continuous conic solver checks: certificates are validated independently."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from miconic import cones, instances, ipm
from miconic.cones import ConeProduct
from miconic.ipm import (
    ALMOST_OPTIMAL,
    INFEASIBLE,
    NUMERIC_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    ContinuousConicProblem,
    ConicResult,
    _barrier_grad,
    _BlockHessian,
    _no_steps,
    _point,
    solve_continuous,
)
from miconic.simplex import LpProblem, solve_lp

POOL = [
    lambda: cones.nonneg(3),
    lambda: cones.soc(3),
    lambda: cones.soc(4),
    lambda: cones.rsoc(3),
    lambda: cones.rsoc(4),
    lambda: cones.exp_cone(),
    lambda: cones.pow_cone(0.5),
    lambda: cones.pow_cone(0.3),
]


def random_cone_product(rng, max_factors=3):
    k = rng.integers(1, max_factors + 1)
    return ConeProduct([POOL[i]() for i in rng.choice(len(POOL), size=k)])


def sample_dual_interior(K, rng):
    Kd = K.dual()
    return np.concatenate([cones.sample_interior(f, rng) for f in Kd.factors])


def check_optimal_certificate(prob, res, tol=1e-6):
    assert res.status in (OPTIMAL, ALMOST_OPTIMAL)
    z, lam = res.z, res.lam
    zs = 1.0 + np.abs(z).max()
    assert cones.member_product(prob.cones, z, tol * zs)
    assert np.abs(prob.A @ z - prob.b).max() <= tol * (1 + np.abs(prob.b).max())
    beta = prob.c - prob.A.T @ lam
    assert cones.member_product(
        prob.cones.dual(), beta, tol * (1 + np.abs(beta).max())
    )
    pobj, dobj = float(prob.c @ z), float(prob.b @ lam)
    assert abs(pobj - dobj) <= tol * (1 + abs(pobj) + abs(dobj))


def check_infeasible_certificate(prob, res, tol=1e-6):
    assert res.status == INFEASIBLE
    lam = res.lam
    beta = -(prob.A.T @ lam)
    assert cones.member_product(
        prob.cones.dual(), beta, tol * (1 + np.abs(beta).max())
    )
    assert float(prob.b @ lam) > 1e-9


def check_unbounded_certificate(prob, res, tol=1e-6):
    assert res.status == UNBOUNDED
    ray = res.ray
    assert cones.member_product(prob.cones, ray, tol * (1 + np.abs(ray).max()))
    assert np.max(np.abs(prob.A @ ray), initial=0.0) <= tol * (
        1 + np.max(np.abs(prob.A), initial=0.0)
    )
    assert float(prob.c @ ray) < -1e-9


def test_random_feasible_strongly_dual_instances():
    rng = np.random.default_rng(501)
    for _ in range(40):
        K = random_cone_product(rng)
        n = K.dim
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        z0 = cones.sample_product(K, rng, interior=True)
        b = A @ z0
        c = sample_dual_interior(K, rng) + A.T @ rng.standard_normal(m)
        prob = ContinuousConicProblem(A, b, c, K)
        res = solve_continuous(prob)
        assert res.status == OPTIMAL, res.status
        check_optimal_certificate(prob, res)
        # the sampled interior point is feasible, so it bounds the optimum
        assert res.obj <= float(c @ z0) + 1e-6 * (1 + abs(res.obj))


def test_random_infeasible_instances():
    rng = np.random.default_rng(503)
    for _ in range(25):
        K = random_cone_product(rng)
        n = K.dim
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        lam0 = rng.standard_normal(m)
        lam0 /= np.linalg.norm(lam0)
        beta0 = sample_dual_interior(K, rng)
        # force A'lam0 = -beta0 and b.lam0 = 1, which rules out any z in K
        A = A + np.outer(lam0, -beta0 - A.T @ lam0)
        b = b + lam0 * (1.0 - float(lam0 @ b))
        prob = ContinuousConicProblem(A, b, c=rng.standard_normal(n), cones=K)
        res = solve_continuous(prob)
        check_infeasible_certificate(prob, res)


def test_random_unbounded_instances():
    rng = np.random.default_rng(505)
    for _ in range(15):
        K = random_cone_product(rng)
        n = K.dim
        m = int(rng.integers(1, n - 1)) if n > 2 else 1
        r0 = cones.sample_product(K, rng, interior=True)
        A = rng.standard_normal((m, n))
        A = A - np.outer(A @ r0, r0) / float(r0 @ r0)
        z0 = cones.sample_product(K, rng, interior=True)
        b = A @ z0
        c = rng.standard_normal(n)
        c = c - r0 * (float(c @ r0) + 1.0) / float(r0 @ r0)
        prob = ContinuousConicProblem(A, b, c, K)
        res = solve_continuous(prob)
        check_unbounded_certificate(prob, res)


def test_soc_norm_closed_form():
    # min t with the tail pinned: optimum is the euclidean norm of the tail
    x_bar = np.array([3.0, 4.0])
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    prob = ContinuousConicProblem(A, x_bar, [1.0, 0.0, 0.0], ConeProduct([cones.soc(3)]))
    res = solve_continuous(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.obj, 5.0, rtol=1e-6)


def test_rsoc_quadratic_closed_form():
    # min x s.t. 2 x y >= |w|^2 with y, w pinned: x* = |w|^2 / (2 y)
    A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    b = np.array([2.0, 3.0, 1.0])
    prob = ContinuousConicProblem(
        A, b, [1.0, 0.0, 0.0, 0.0], ConeProduct([cones.rsoc(4)])
    )
    res = solve_continuous(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.obj, 10.0 / 4.0, rtol=1e-6)


def test_exp_closed_form():
    # min z s.t. (x_bar, 1, z) in the exponential cone: z* = exp(x_bar)
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([1.7, 1.0])
    prob = ContinuousConicProblem(
        A, b, [0.0, 0.0, 1.0], ConeProduct([cones.exp_cone()])
    )
    res = solve_continuous(prob)
    assert res.status == OPTIMAL
    assert_allclose(res.obj, math.exp(1.7), rtol=1e-6)


def test_pow_closed_form():
    # min x s.t. |z| <= x^a y^(1-a) with y, z pinned
    a = 0.25
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([2.0, 1.5])
    prob = ContinuousConicProblem(
        A, b, [1.0, 0.0, 0.0], ConeProduct([cones.pow_cone(a)])
    )
    res = solve_continuous(prob)
    assert res.status == OPTIMAL
    want = (1.5 / 2.0 ** (1 - a)) ** (1.0 / a)
    assert_allclose(res.obj, want, rtol=1e-6)


def test_lp_matches_simplex():
    rng = np.random.default_rng(507)
    for _ in range(15):
        m, n = 3, 7
        A = rng.standard_normal((m, n))
        z0 = rng.uniform(0.5, 2.0, size=n)
        b = A @ z0
        c = rng.standard_normal(n)
        K = ConeProduct([cones.nonneg(n)])
        res = solve_continuous(ContinuousConicProblem(A, b, c, K))
        lp = solve_lp(LpProblem(A, b, c, np.zeros(n), np.full(n, np.inf)))
        if lp.status == "optimal":
            assert res.status == OPTIMAL
            # a certificate validated at 1e-7 pins the objective to roughly
            # that scale times the certificate norms, not to 1e-7 itself
            assert_allclose(res.obj, lp.obj, rtol=1e-5, atol=1e-5)
        else:
            assert res.status == UNBOUNDED


def test_duality_gap_pathology_is_numeric_failure():
    # y pinned to zero flattens the cone; the dual program is empty even
    # though the primal optimum exists, so no certificate can ever validate
    A = np.array([[0.0, 1.0, 0.0]])
    b = np.array([0.0])
    c = np.array([0.0, 0.0, 1.0])
    prob = ContinuousConicProblem(A, b, c, ConeProduct([cones.rsoc(3)]))
    res = solve_continuous(prob)
    assert res.status == NUMERIC_FAILURE


def test_fast_path_fully_determined_feasible():
    K = ConeProduct([cones.soc(3)])
    A = np.eye(3)
    b = np.array([5.0, 3.0, -2.0])
    c = np.array([1.0, -1.0, 0.5])
    res = solve_continuous(ContinuousConicProblem(A, b, c, K))
    assert res.status == OPTIMAL
    assert_allclose(res.z, b)
    assert_allclose(res.obj, float(c @ b))
    assert res.iterations == 0


def test_fast_path_fully_determined_infeasible():
    K = ConeProduct([cones.exp_cone()])
    A = np.eye(3)
    b = np.array([1.0, 1.0, 1.0])  # 1*e^1 > 1, outside
    prob = ContinuousConicProblem(A, b, np.zeros(3), K)
    res = solve_continuous(prob)
    check_infeasible_certificate(prob, res)


def test_fast_path_overdetermined_consistent():
    K = ConeProduct([cones.rsoc(3)])
    point = np.array([1.0, 2.0, 1.5])
    A = np.vstack([np.eye(3), np.eye(3)])
    b = np.concatenate([point, point])
    c = np.array([1.0, 1.0, 1.0])
    res = solve_continuous(ContinuousConicProblem(A, b, c, K))
    assert res.status == OPTIMAL
    assert_allclose(res.obj, 4.5)


def test_inconsistent_rows_certificate():
    K = ConeProduct([cones.nonneg(3)])
    A = np.vstack([np.eye(3), [1.0, 0.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0, 2.0])  # last row contradicts the first
    prob = ContinuousConicProblem(A, b, np.ones(3), K)
    res = solve_continuous(prob)
    assert res.status == INFEASIBLE
    # pure row inconsistency: the certificate lives in the row space
    assert np.abs(prob.A.T @ res.lam).max() <= 1e-7
    assert float(prob.b @ res.lam) > 1e-9


def test_redundant_rows_are_harmless():
    rng = np.random.default_rng(509)
    K = ConeProduct([cones.soc(4)])
    A = rng.standard_normal((2, 4))
    z0 = cones.sample_product(K, rng, interior=True)
    b = A @ z0
    A2 = np.vstack([A, A[0] * 2.0])
    b2 = np.concatenate([b, [b[0] * 2.0]])
    c = sample_dual_interior(K, rng)
    r1 = solve_continuous(ContinuousConicProblem(A, b, c, K))
    r2 = solve_continuous(ContinuousConicProblem(A2, b2, c, K))
    assert r1.status == OPTIMAL and r2.status == OPTIMAL
    assert_allclose(r1.obj, r2.obj, rtol=1e-6)
    check_optimal_certificate(ContinuousConicProblem(A2, b2, c, K), r2)


def test_badly_scaled_rows():
    rng = np.random.default_rng(511)
    K = ConeProduct([cones.soc(3), cones.nonneg(2)])
    A = rng.standard_normal((3, 5))
    z0 = cones.sample_product(K, rng, interior=True)
    b = A @ z0
    c = sample_dual_interior(K, rng)
    scale = np.array([1e6, 1.0, 1e-5])
    prob = ContinuousConicProblem(A * scale[:, None], b * scale, c, K)
    res = solve_continuous(prob)
    assert res.status == OPTIMAL
    check_optimal_certificate(prob, res)


def test_no_rows_at_all():
    K = ConeProduct([cones.soc(3)])
    c_in = np.array([2.0, 0.5, 0.5])  # interior of the dual
    res = solve_continuous(ContinuousConicProblem(np.zeros((0, 3)), [], c_in, K))
    assert res.status == OPTIMAL and res.obj == 0.0
    c_out = np.array([0.5, 1.0, 0.0])  # outside the dual: unbounded
    prob = ContinuousConicProblem(np.zeros((0, 3)), [], c_out, K)
    res = solve_continuous(prob)
    check_unbounded_certificate(prob, res)


def test_all_zero_rows_are_dropped_before_the_iterations():
    # every row is zero and consistent with b = 0, so what is left is
    # min c.z over the cone: 0 when c is dual-interior, unbounded otherwise
    K = ConeProduct([cones.soc(3)])
    prob = ContinuousConicProblem(np.zeros((2, 3)), np.zeros(2),
                                  [2.0, 0.5, 0.1], K)
    res = solve_continuous(prob)
    assert res.status == OPTIMAL and res.iterations == 0
    assert_array_equal(res.z, np.zeros(3))
    prob = ContinuousConicProblem(np.zeros((2, 3)), np.zeros(2),
                                  [-1.0, 0.5, 0.1], K)
    check_unbounded_certificate(prob, solve_continuous(prob))


@pytest.mark.parametrize("rows", [0, 2])
def test_unbounded_ray_without_effective_rows_has_max_abs_one(rows):
    K = ConeProduct([cones.soc(3)])
    prob = ContinuousConicProblem(np.zeros((rows, 3)), np.zeros(rows),
                                  [0.5, 1.0, 0.0], K)
    res = solve_continuous(prob)
    assert res.status == UNBOUNDED
    assert np.max(np.abs(res.ray)) == 1.0
    check_unbounded_certificate(prob, res)


@pytest.mark.parametrize("rows", [0, 1])
def test_cost_at_the_dual_boundary_without_effective_rows(rows):
    # membership and the ray agree on the 1e-9 tolerance of cones.separate
    K = ConeProduct([cones.soc(3)])
    prob = ContinuousConicProblem(np.zeros((rows, 3)), np.zeros(rows),
                                  [1.0, 1.0 + 1e-12, 0.0], K)
    res = solve_continuous(prob)
    assert res.status == OPTIMAL and res.obj == 0.0
    assert_array_equal(res.z, np.zeros(3))
    prob = ContinuousConicProblem(np.zeros((rows, 3)), np.zeros(rows),
                                  [1.0, 1.0 + 1e-8, 0.0], K)
    res = solve_continuous(prob)
    assert res.status == UNBOUNDED
    assert res.ray.tolist() == [1.0, -1.0, 0.0]
    check_unbounded_certificate(prob, res)


def test_iteration_limit_returns_the_best_almost_optimal_point(monkeypatch):
    prob = instances.random_continuous_feasible(np.random.default_rng(2))
    # 14 iterations reach optimal; 12 stop at a point only almost optimal
    assert solve_continuous(prob).iterations == 14
    monkeypatch.setattr(ipm, "_MAX_ITERS", 12)
    res = solve_continuous(prob)
    assert res.status == ALMOST_OPTIMAL
    assert res.iterations == 12
    assert res.diagnostic == "iteration limit of 12 reached"
    K = prob.cones
    assert ipm._validate_optimal(prob.A, prob.b, prob.c, K, K.dual(), res.z,
                                 res.lam, ipm.EPS_ALMOST) is not None


def test_empty_z_block():
    prob = ContinuousConicProblem(np.zeros((1, 0)), [0.0], [], ConeProduct([]))
    assert solve_continuous(prob).status == OPTIMAL
    prob = ContinuousConicProblem(np.zeros((1, 0)), [1.0], [], ConeProduct([]))
    assert solve_continuous(prob).status == INFEASIBLE


def test_a_zero_row_with_a_tiny_right_side_is_infeasible_at_any_width():
    # 0.z = 1e-13 holds for no z, with columns or without: both shapes take
    # the one preprocessing path and its exact row-space certificate
    for K in (ConeProduct([]), ConeProduct([cones.nonneg(2)])):
        prob = ContinuousConicProblem(np.zeros((1, K.dim)), [1e-13],
                                      np.ones(K.dim), K)
        res = solve_continuous(prob)
        assert res.status == INFEASIBLE
        assert not np.any(prob.A.T @ res.lam)
        assert float(prob.b @ res.lam) > 0.0


def test_block_hessian_solve_matches_checked_triangular_solves():
    # the reference is scipy's validated Cholesky solve on the same factor,
    # whose diagonal blocks are the blocks' own factors up to rounding
    rng = np.random.default_rng(909)
    for _ in range(20):
        K = ConeProduct(
            [cones.nonneg(1)] * 3 + list(random_cone_product(rng).factors)
        )
        z = cones.sample_product(K, rng, interior=True)
        mu = float(rng.uniform(0.1, 10.0))
        W = _BlockHessian(K, z, mu)
        assert_array_equal(W.grad, _barrier_grad(K, z))
        outside = np.ones((K.dim, K.dim), dtype=bool)
        for f, sl in K.slices():
            h = cones.barrier_value_grad_hess(f, z[sl])[2]
            assert_allclose(W.L[sl, sl], np.linalg.cholesky(mu * h),
                            rtol=1e-12)
            outside[sl, sl] = False
        assert np.all(W.L[outside] == 0.0)
        for rhs in (rng.standard_normal(K.dim),
                    rng.standard_normal((K.dim, 4))):
            assert_array_equal(W.solve(rhs),
                               scipy.linalg.cho_solve((W.L, True), rhs))


def test_jitter_repairs_only_the_block_that_needs_it(monkeypatch):
    K = ConeProduct([cones.soc(3), cones.nonneg(3), cones.exp_cone(),
                     cones.soc(3)])
    rng = np.random.default_rng(913)
    z = cones.sample_product(K, rng, interior=True)
    beta = sample_dual_interior(K, rng)
    mu = 0.7
    plain = _BlockHessian(K, z, mu)
    real = cones.barrier_value_grad_hess
    # the first of the two second-order factors, which share one group and
    # one index array, and the exponential factor, a group of its own
    for kind, rows, bad in ((cones.SOC, (2, 3), slice(0, 3)),
                            (cones.EXP, (1, 3), slice(6, 9))):
        stacks = []

        def first_hessian_is(h_bad):
            # the group's barrier call returns every block of the group;
            # only its first is made bad
            def barrier(f, zf):
                val, g, h = real(f, zf)
                stacks.append((f.kind, zf.shape))
                if f.kind == kind:
                    h = h.copy()
                    h[0] = h_bad
                return val, g, h
            monkeypatch.setattr(cones, "barrier_value_grad_hess", barrier)

        # positive semidefinite of rank one: its own Cholesky fails, and
        # the jitter alone makes it definite
        first_hessian_is(np.ones((3, 3)))
        W = _BlockHessian(K, z, mu)
        assert (kind, rows) in stacks
        want = plain.H.copy()
        want[bad, bad] = (mu * np.ones((3, 3))
                          + 1e-13 * max(1.0, mu) * np.eye(3))
        assert_array_equal(W.H, want)
        assert_array_equal(W.grad, plain.grad)
        others = np.ones((K.dim, K.dim), dtype=bool)
        others[bad, bad] = False
        assert_array_equal(W.L[others], plain.L[others])
        assert_allclose(W.L @ W.L.T, W.H, rtol=0, atol=1e-12)

        # indefinite: the jitter cannot repair it
        first_hessian_is(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            _BlockHessian(K, z, mu)
        assert _point(K, K.dual(), z, beta, 1.0, 1.0, _no_steps()) is None


def random_feasible_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        K = random_cone_product(rng)
        n = K.dim
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        b = A @ cones.sample_product(K, rng, interior=True)
        c = sample_dual_interior(K, rng) + A.T @ rng.standard_normal(m)
        yield ContinuousConicProblem(A, b, c, K)


def test_step_counts_add_up_and_line_searches_stay_short():
    iterations = trials = 0
    for prob in random_feasible_problems(501, 40):
        res = solve_continuous(prob)
        assert res.status == OPTIMAL
        steps = res.metrics
        # the last iteration certifies the point and takes no step
        assert steps["predictor_steps"] + steps["centering_steps"] == (
            res.iterations - 1)
        assert steps["predictor_steps"] > 0
        # the first Hessian, then at most one per trial point
        assert 1 <= steps["hessian_builds"] <= steps["line_search_trials"] + 1
        iterations += res.iterations
        trials += steps["line_search_trials"]
    # predictors start near the central path, so few backtracks are needed
    assert trials / iterations <= 3.0


def test_accepted_trial_hessian_is_not_built_again(monkeypatch):
    # the barrier calls made inside each _point call, and those made
    # outside any
    points = []
    outside = []
    real_barrier = cones.barrier_value_grad_hess
    real_point = ipm._point

    def counted_barrier(f, z):
        (points[-1] if judging else outside).append(f)
        return real_barrier(f, z)

    def counted_point(*args):
        nonlocal judging
        points.append([])
        judging = True
        try:
            return real_point(*args)
        finally:
            judging = False

    judging = False
    monkeypatch.setattr(cones, "barrier_value_grad_hess", counted_barrier)
    monkeypatch.setattr(ipm, "_point", counted_point)
    for prob in random_feasible_problems(503, 10):
        points.clear()
        outside.clear()
        res = solve_continuous(prob)
        assert res.status == OPTIMAL
        groups = len(prob.cones.groups)
        # the start point, then one per trial point, and none at the top
        # of later iterations
        assert len(points) == 1 + res.metrics["line_search_trials"]
        # one barrier call per cone group for the starting gradient, and
        # every other inside a _point call
        assert len(outside) == groups
        # each Hessian build begun calls the first group's barrier, and at
        # most one call per group
        assert res.metrics["hessian_builds"] == sum(map(bool, points))
        assert all(len(calls) <= groups for calls in points)


@pytest.mark.parametrize("factor", [
    cones.nonneg(3), cones.soc(4), cones.rsoc(4), cones.exp_cone(),
    cones.pow_cone(0.3),
], ids=lambda f: f.kind)
def test_proximity_hessian_equals_a_fresh_build(factor):
    # the loop takes an accepted trial's record as the next iterate in
    # place of building its Hessian there, so it must be that build, bit
    # for bit
    rng = np.random.default_rng(911)
    K = ConeProduct([factor, cones.nonneg(1)])
    for _ in range(5):
        z = cones.sample_product(K, rng, interior=True)
        beta = sample_dual_interior(K, rng)
        tau, kappa = rng.uniform(0.5, 2.0, size=2)
        point = _point(K, K.dual(), z, beta, tau, kappa, _no_steps())
        assert point.z is z and point.beta is beta
        assert (point.tau, point.kappa) == (tau, kappa)
        mu = (float(z @ beta) + tau * kappa) / (K.nu + 1.0)
        assert point.mu == mu
        fresh = _BlockHessian(K, z, mu)
        W = point.W
        assert_array_equal(W.grad, fresh.grad)
        assert_array_equal(W.H, fresh.H)
        assert_array_equal(W.L, fresh.L)
        e = beta + mu * fresh.grad
        want = float(e @ fresh.solve(e)) / mu + (tau * kappa / mu - 1.0) ** 2
        assert point.prox2 == want


def test_point_is_none_for_each_way_a_point_fails(monkeypatch):
    K = ConeProduct([cones.soc(3), cones.nonneg(2), cones.exp_cone()])
    Kd = K.dual()
    rng = np.random.default_rng(915)
    z = cones.sample_product(K, rng, interior=True)
    beta = sample_dual_interior(K, rng)
    calls = []
    real = cones.barrier_value_grad_hess

    def counted(f, zf):
        calls.append(f.kind)
        return real(f, zf)

    monkeypatch.setattr(cones, "barrier_value_grad_hess", counted)
    metrics = _no_steps()
    assert _point(K, Kd, z, beta, 1.0, 1.0, metrics) is not None
    assert metrics["hessian_builds"] == 1
    assert calls == [cones.SOC, cones.NONNEG, cones.EXP]

    # the exponential factor, the last group, moved onto its boundary,
    # where mu stays positive
    z_out = z.copy()
    z_out[-1] = 0.0
    assert float(z_out @ beta) + 1.0 > 0.0
    beta_out = beta.copy()
    beta_out[0] = -1.0
    huge = 1e300 * np.ones_like(z)
    failures = [
        (z, beta, 0.0, 1.0, False),
        (z, beta, -1.0, 1.0, False),
        (z, beta, 1.0, 0.0, False),
        (z, beta, 1.0, -1.0, False),
        (z, beta, np.nan, 1.0, False),
        (z, beta_out, 1.0, 1.0, False),
        (z, beta, 1.0, np.inf, False),
        (huge * z, huge * beta, 1.0, 1.0, False),
        # only z outside K begins a Hessian build, which the barrier of
        # the last group ends
        (z_out, beta, 1.0, 1.0, True),
    ]
    for zf, bf, tau, kappa, built in failures:
        calls.clear()
        metrics = _no_steps()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _point(K, Kd, zf, bf, tau, kappa, metrics) is None
        assert metrics["hessian_builds"] == built
        assert calls == ([cones.SOC, cones.NONNEG, cones.EXP] if built else [])


def _one_problem():
    return next(random_feasible_problems(505, 1))


def test_iterations_count_on_failed_factorization(monkeypatch):
    # the third Schur complement factorization fails, once by a nonzero
    # info from LAPACK and once by a factor that is not finite
    prob = _one_problem()
    m = prob.A.shape[0]
    real = ipm._potrf
    for failed in (lambda a: (a, 1), lambda a: (np.full_like(a, np.nan), 0)):
        schur = []

        def third_schur_fails(a, **kwargs):
            # the barrier Hessian is n x n with n > m
            if a.shape == (m, m):
                schur.append(None)
                if len(schur) == 3:
                    return failed(a)
            return real(a, **kwargs)

        monkeypatch.setattr(ipm, "_potrf", third_schur_fails)
        res = solve_continuous(prob)
        assert res.status in (NUMERIC_FAILURE, ALMOST_OPTIMAL)
        assert res.iterations == 3
        assert res.diagnostic == "Schur complement not factored"


def test_iterations_count_on_repeated_stalls(monkeypatch):
    real = ipm._BlockHessian
    built = []

    def only_first(K, z, mu):
        built.append(None)
        if len(built) > 1:
            raise np.linalg.LinAlgError("forced")
        return real(K, z, mu)

    monkeypatch.setattr(ipm, "_BlockHessian", only_first)
    res = solve_continuous(_one_problem())
    # no trial point gets a Hessian, so each iteration stalls; the third
    # stall ends the loop
    assert res.status == NUMERIC_FAILURE
    assert res.iterations == 3
    assert res.metrics["line_search_trials"] == 3 * 90
    assert res.diagnostic == "3 straight line searches stalled"


def test_unformed_starting_hessian_is_named(monkeypatch):
    def never(K, z, mu):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(ipm, "_BlockHessian", never)
    res = solve_continuous(_one_problem())
    assert res.status == NUMERIC_FAILURE
    assert res.iterations == 1
    assert res.diagnostic == "barrier Hessian not formed at the current point"
