"""Continuous conic solver checks: certificates are validated independently."""

import inspect
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from miconic import cones, instances, ipm
from miconic.cones import ConeProduct
from miconic.ipm import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    ContinuousConicProblem,
    ConicResult,
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
    assert res.status == OPTIMAL
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


def test_iteration_limit_is_a_named_numeric_failure(monkeypatch):
    prob = instances.random_continuous_feasible(np.random.default_rng(2))
    # 10 iterations reach optimal; 8 stop with no certificate
    assert solve_continuous(prob).iterations == 10
    monkeypatch.setattr(ipm, "_MAX_ITERS", 8)
    res = solve_continuous(prob)
    assert res.status == NUMERIC_FAILURE
    assert res.iterations == 8
    assert res.diagnostic == "iteration limit of 8 reached"
    assert res.z is None and res.lam is None


def test_last_allowed_iteration_takes_no_step(monkeypatch):
    # the last allowed iteration offers its point to the validators and
    # stops: a step from it would give a point no validator sees
    prob = instances.random_continuous_feasible(np.random.default_rng(2))
    monkeypatch.setattr(ipm, "_MAX_ITERS", 1)
    res = solve_continuous(prob)
    assert res.status == NUMERIC_FAILURE and res.iterations == 1
    assert res.diagnostic == "iteration limit of 1 reached"
    steps = res.metrics
    assert steps["line_search_trials"] == 0
    assert steps["predictor_steps"] == steps["centering_steps"] == 0
    assert steps["long_steps"] == 0
    # the start's, made in this first solve over the product
    assert steps["hessian_builds"] == 1


# the validators called directly on small orthant programs; each
# parametrization holds one accepted input and rejections that no solve in
# this suite reaches

_ORTHANT = ConeProduct([cones.nonneg(2)])


@pytest.mark.parametrize("z, lam, accepted", [
    ([1.0, 1.0], [1.0], True),
    ([np.nan, 1.0], [1.0], False),
    ([1.0, 1.0], [np.inf], False),
    # the rows, objectives and dual hold; z is outside the orthant
    ([2.5, -0.5], [1.0], False),
], ids=["certified", "non-finite-z", "non-finite-lam", "z-outside-K"])
def test_validate_optimal(z, lam, accepted):
    # min z0 + z1 s.t. z0 + z1 = 2: every feasible point is optimal, lam = 1
    A, b, c = np.array([[1.0, 1.0]]), np.array([2.0]), np.array([1.0, 1.0])
    cand = ipm._validate_optimal(A, b, c, _ORTHANT, _ORTHANT.dual(),
                                 np.array(z), np.array(lam), ipm.scale(b))
    assert (cand is not None) == accepted


@pytest.mark.parametrize("a11, b, lam, accepted", [
    # A'lam = 0: lam certifies through its pairing alone
    (1.0, [1.0, 0.0], [1.0, -1.0], True),
    (1.0, [0.0, 1.0], [1.0, -1.0], False),
    # A'lam = (0, -1e-13) takes the same branch, but scaling lam to unit
    # pairing makes A'lam 1e-4, above the tolerance
    (1.0 + 1e-13, [1e-9, 0.0], [1.0, -1.0], False),
    (1.0, [1.0, 0.0], [np.nan, -1.0], False),
], ids=["row-space", "row-space-bad-pairing", "row-space-after-scaling",
        "non-finite-lam"])
def test_validate_infeasible(a11, b, lam, accepted):
    A = np.array([[1.0, 1.0], [1.0, a11]])
    lam_n = ipm._validate_infeasible(A, np.array(b), _ORTHANT.dual(),
                                     np.array(lam))
    assert (lam_n is not None) == accepted
    if accepted:
        assert float(np.array(b) @ lam_n) == 1.0


@pytest.mark.parametrize("z, accepted", [
    ([2.0, 2.0, 0.0], True),
    ([np.inf, 1.0, 0.0], False),
    ([0.0, 0.0, 0.0], False),
    # in the kernel and descending, but outside the orthant
    ([1.0, 1.0, -1.0], False),
], ids=["ray", "non-finite-z", "zero-ray", "outside-K"])
def test_validate_unbounded(z, accepted):
    # min -z0 - z1 s.t. z0 = z1 over R^3_+ is unbounded along (1, 1, 0)
    A, c = np.array([[1.0, -1.0, 0.0]]), np.array([-1.0, -1.0, 0.0])
    K = ConeProduct([cones.nonneg(3)])
    ray = ipm._validate_unbounded(A, c, K, np.array(z), ipm.scale(A),
                                  ipm.scale(c))
    assert (ray is not None) == accepted
    if accepted:
        assert ray.tolist() == [1.0, 1.0, 0.0]


def _unbounded_in_full(A, c, K, z):
    # _validate_unbounded as written before its early exit: every test in
    # its first order, A ray before the pairing
    if not np.isfinite(z).all():
        return None
    s = float(np.abs(z).max(initial=0.0))
    if s <= 0.0:
        return None
    ray = z / s
    arow = float(np.abs(A @ ray).max(initial=0.0))
    if arow > ipm.EPS_OPT * (1.0 + float(np.abs(A).max(initial=0.0))):
        return None
    floor = 30.0 * np.sqrt(arow) * (1.0 + float(np.abs(c).max(initial=0.0)))
    if float(c @ ray) > -max(ipm.EPS_PAIRING, floor):
        return None
    if not cones.member_product(K, ray, 1e-14):
        return None
    return ray


def test_unbounded_early_exit_keeps_every_verdict_and_ray():
    # rays near the kernel of A, inside K or on its boundary, with c.ray
    # drawn on both sides of -EPS_PAIRING and of the sqrt(kernel residual)
    # floor; one A in three is zero, so A ray = 0 exactly and EPS_PAIRING
    # alone decides
    rng = np.random.default_rng(921)
    verdicts = {True: 0, False: 0}
    early = close = 0
    for _ in range(400):
        K = random_cone_product(rng)
        n = K.dim
        m = int(rng.integers(1, n))
        z = cones.sample_product(K, rng, interior=bool(rng.integers(2)))
        ray = z / np.abs(z).max()
        A = rng.standard_normal((m, n))
        A -= np.outer(A @ ray, ray) / float(ray @ ray)
        A += 10.0 ** rng.uniform(-22, -10) * rng.standard_normal((m, n))
        if rng.integers(3) == 0:
            A[:] = 0.0
        c = rng.standard_normal(n)
        target = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -4)
        c += (target - float(c @ ray)) * ray / float(ray @ ray)
        zs = z * 10.0 ** rng.uniform(-3, 3)
        want = _unbounded_in_full(A, c, K, zs)
        got = ipm._validate_unbounded(A, c, K, zs, ipm.scale(A), ipm.scale(c))
        assert (got is None) == (want is None)
        if want is not None:
            assert_array_equal(got, want)
        verdicts[want is not None] += 1
        descent = float(c @ (zs / np.abs(zs).max()))
        early += descent > -ipm.EPS_PAIRING
        close += want is not None and descent > -10.0 * ipm.EPS_PAIRING
    # both verdicts, both sides of the early exit, and rays accepted within
    # a decade of its threshold are exercised
    assert min(verdicts.values()) >= 20
    assert 100 <= early <= 300
    assert close >= 3, close


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


def test_pivoted_qr_matches_scipy_qr():
    # the direct dgeqp3 call against scipy.linalg.qr(pivoting=True), bit
    # for bit, on the transposed row arrays preprocessing factors: full
    # rank, with dependent rows, and empty
    rng = np.random.default_rng(925)
    shapes = [(0, 1), (2, 0), (0, 0)] + [
        tuple(rng.integers(1, 9, size=2)) for _ in range(300)]
    for n, m in shapes:
        A = rng.standard_normal((m, n))
        if m > 1 and rng.integers(2):
            A[-1] = rng.standard_normal(m - 1) @ A[:-1]
        r, perm = scipy.linalg.qr(A.T, mode="r", pivoting=True)
        diag, order = ipm._pivoted_qr(A.T)
        assert_array_equal(diag, np.abs(np.diag(r)))
        assert_array_equal(order, perm)
    with pytest.raises(ValueError):
        ipm._pivoted_qr(np.array([[1.0, np.nan]]))


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
        outside = np.ones((K.dim, K.dim), dtype=bool)
        for f, sl in K.slices():
            _, grad, h = cones.barrier_value_grad_hess(f, z[sl])
            assert_allclose(W.grad[sl], grad, rtol=1e-12)
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


def test_each_predictor_first_tries_one_long_step_held_to_the_narrow_one(
        monkeypatch):
    # each line search's trials, read through _point: a trial's z is a
    # closure over its step alpha, and each search is one more predictor
    # or centering step in the metrics
    searches = {}
    real = ipm._point

    def recorded(K, Kd, z, beta, tau, kappa, metrics, limit=np.inf):
        point = real(K, Kd, z, beta, tau, kappa, metrics, limit)
        if callable(z):
            steps = (metrics["predictor_steps"], metrics["centering_steps"])
            alpha = inspect.getclosurevars(z).nonlocals["alpha"]
            searches.setdefault(steps, []).append((alpha, limit, point))
        return point

    monkeypatch.setattr(ipm, "_point", recorded)
    rng = np.random.default_rng(11)
    probs = list(random_feasible_problems(509, 20))
    probs += [instances.random_continuous_infeasible(rng) for _ in range(10)]
    total_long = 0
    for prob in probs:
        searches.clear()
        res = solve_continuous(prob)
        assert res.status in (OPTIMAL, INFEASIBLE)
        predictors = long_first = previous = 0
        for (_, centering), trials in searches.items():
            # a predictor step leaves the centering count as it was
            predictor, previous = centering == previous, centering
            if not predictor:
                continue
            predictors += 1
            alpha, limit, point = trials[0]
            assert (alpha, limit) == (ipm._LONG, ipm._NARROW)
            # a search stops at its accepted trial
            if len(trials) == 1:
                assert point.prox2 <= ipm._NARROW
                long_first += 1
        steps = res.metrics
        assert predictors == steps["predictor_steps"]
        assert long_first == steps["long_steps"] <= steps["predictor_steps"]
        total_long += steps["long_steps"]
    assert total_long > 0


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
        # one per trial point, and none at the top of later iterations:
        # the start is not judged by _point
        assert len(points) == res.metrics["line_search_trials"]
        # every barrier call inside a _point call: the start's gradient
        # and Hessian come from the shape tables
        assert outside == []
        # each Hessian build begun calls the first group's barrier, and at
        # most one call per group; the start's build, made in this first
        # solve over the product, calls none
        assert res.metrics["hessian_builds"] == 1 + sum(map(bool, points))
        assert all(len(calls) <= groups for calls in points)


def test_solves_over_one_product_share_its_start(monkeypatch):
    # the start (z0, -F'(z0)), its record with the Hessian and its factor,
    # and the dual product are made once per cone product and kept
    # read-only; only the first solve over the product builds the start's
    # Hessian, so a second solve counts one build fewer and the rest alike
    made = []
    real = cones.interior_point

    def counted(f):
        made.append(f)
        return real(f)

    monkeypatch.setattr(cones, "interior_point", counted)
    prob = next(random_feasible_problems(507, 1))
    K = prob.cones
    first = solve_continuous(prob)
    # the start is read from the shape tables, not from interior_point
    assert first.status == OPTIMAL and made == []
    start = K.start
    metrics = _no_steps()
    point = ipm._start(K, metrics)
    assert metrics["hessian_builds"] == 0
    again = solve_continuous(ContinuousConicProblem(prob.A, prob.b, prob.c, K))
    assert K.start is start and ipm._start(K, _no_steps()) is point
    assert K.dual() is K.dual() and K.dual().dual() is K
    assert point.z is start.z and point.beta is start.beta
    assert (point.tau, point.kappa) == (1.0, 1.0)
    for a in (start.z, start.beta, start.grad, point.W.grad, point.W.H,
              point.W.L):
        assert not a.flags.writeable
    builds = first.metrics["hessian_builds"]
    assert builds > first.iterations > 0
    assert again.metrics == dict(first.metrics, hessian_builds=builds - 1)
    assert again.iterations == first.iterations
    assert_array_equal(again.z, first.z)
    for f, sl in K.slices():
        assert_array_equal(start.z[sl], real(f))
        grad = cones.barrier_value_grad_hess(f, start.z[sl])[1]
        assert_array_equal(start.beta[sl], -grad)


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

    # the proximity floor alone: with the orthant duals scaled up, the
    # orthant's share of prox2 exceeds the wide neighbourhood, so a trial
    # held to it is refused before beta's interior tests and any barrier
    tested = []
    real_strict = cones.strict_member

    def counted_strict(f, p):
        tested.append(f.kind)
        return real_strict(f, p)

    monkeypatch.setattr(cones, "strict_member", counted_strict)
    beta_far = beta.copy()
    beta_far[3:5] *= 10.0
    far = _point(K, Kd, z, beta_far, 1.0, 1.0, _no_steps())
    assert far is not None and far.prox2 > ipm._WIDE
    calls.clear()
    tested.clear()
    metrics = _no_steps()
    assert _point(K, Kd, z, beta_far, 1.0, 1.0, metrics, ipm._WIDE) is None
    assert metrics["hessian_builds"] == 0
    assert calls == [] and tested == []


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_proximity_floor_never_refuses_a_point_within_its_limit(seed):
    # held to its own prox2 as the limit, an interior point of a product
    # with an orthant group is built, not refused by the floor: the floor
    # never exceeds prox2 beyond the margin
    rng = np.random.default_rng(seed)
    factors = [cones.nonneg(int(rng.integers(1, 4)))]
    factors += random_cone_product(rng).factors
    K = ConeProduct([factors[i] for i in rng.permutation(len(factors))])
    Kd = K.dual()
    z = cones.sample_product(K, rng, interior=True)
    z = z * 10.0 ** rng.uniform(-3, 3)
    beta = sample_dual_interior(K, rng) * 10.0 ** rng.uniform(-3, 3)
    tau, kappa = 10.0 ** rng.uniform(-2, 2, size=2)
    point = _point(K, Kd, z, beta, tau, kappa, _no_steps())
    assert point is not None
    metrics = _no_steps()
    again = _point(K, Kd, z, beta, tau, kappa, metrics, point.prox2)
    assert again is not None and again.prox2 == point.prox2
    assert metrics["hessian_builds"] == 1
    if all(f.kind == cones.NONNEG for f in K.factors):
        # the orthant alone: the floor is prox2 itself, so a limit just
        # below it refuses the point without a build
        metrics = _no_steps()
        assert _point(K, Kd, z, beta, tau, kappa, metrics,
                      point.prox2 * (1.0 - 1e-6)) is None
        assert metrics["hessian_builds"] == 0


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
        assert res.status == NUMERIC_FAILURE
        assert res.iterations == 3
        assert res.diagnostic == "Schur complement not factored"


def test_iterations_count_on_a_stalled_line_search(monkeypatch):
    real = ipm._BlockHessian
    built = []

    def only_first(K, z, mu):
        built.append(None)
        if len(built) > 1:
            raise np.linalg.LinAlgError("forced")
        return real(K, z, mu)

    monkeypatch.setattr(ipm, "_BlockHessian", only_first)
    res = solve_continuous(_one_problem())
    # no trial point gets a Hessian, so the first line search uses up its
    # 90 trials and ends the solve
    assert res.status == NUMERIC_FAILURE
    assert res.iterations == 1
    assert res.metrics["line_search_trials"] == 90
    assert res.diagnostic == "line search stalled"


def test_unformed_starting_hessian_is_named(monkeypatch):
    def never(K, z, mu):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(ipm, "_BlockHessian", never)
    res = solve_continuous(_one_problem())
    assert res.status == NUMERIC_FAILURE
    assert res.iterations == 0
    assert res.diagnostic == "barrier Hessian not formed at the starting point"
