"""Membership, duality, separation, and barrier checks for the cone library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from miconic import cones
from miconic.cones import Cone, ConeProduct
from miconic.errors import DimensionMismatch, NotInterior

ALL_PRIMAL = [
    cones.nonneg(1),
    cones.nonneg(4),
    cones.soc(2),
    cones.soc(3),
    cones.soc(5),
    cones.rsoc(3),
    cones.rsoc(6),
    cones.exp_cone(),
    cones.pow_cone(0.5),
    cones.pow_cone(0.25),
    cones.pow_cone(0.8),
]

ALL_DUAL = [
    Cone(cones.EXPDUAL, 3),
    Cone(cones.POWDUAL, 3, 0.25),
    Cone(cones.POWDUAL, 3, 0.5),
    Cone(cones.POWDUAL, 3, 0.8),
]

ALL_FAMILIES = ALL_PRIMAL + ALL_DUAL


def test_membership_orthant():
    c = cones.nonneg(3)
    assert cones.member(c, [0.0, 1.0, 2.0])
    assert not cones.member(c, [-1e-6, 1.0, 2.0])
    assert cones.member(c, [-1e-6, 1.0, 2.0], tol=1e-5)


def test_membership_soc():
    c = cones.soc(3)
    assert cones.member(c, [5.0, 3.0, 4.0])
    assert not cones.member(c, [4.999, 3.0, 4.0])
    assert cones.member(c, [4.999, 3.0, 4.0], tol=2e-3)
    assert not cones.member(c, [-1.0, 0.0, 0.0])


def test_membership_rsoc_tolerance_example():
    c = cones.rsoc(3)
    # 2*0*5 = 0 < 0.1**2, so this fails exactly but passes at a loose tol
    assert not cones.member(c, [0.0, 5.0, 0.1], tol=0.0)
    assert cones.member(c, [0.0, 5.0, 0.1], tol=1.1e-2)
    assert cones.member(c, [1.0, 2.0, 2.0])
    assert not cones.member(c, [1.0, 2.0, 2.1])
    assert not cones.member(c, [-1.0, -1.0, 1.0])


def test_membership_exp():
    c = cones.exp_cone()
    assert cones.member(c, [1.0, 1.0, math.e + 1e-12])
    assert not cones.member(c, [1.0, 1.0, math.e - 1e-3])
    # closure ray: y = 0 needs x <= 0 and z >= 0
    assert cones.member(c, [0.0, 0.0, 5.0])
    assert cones.member(c, [-3.0, 0.0, 0.0])
    assert not cones.member(c, [1e-3, 0.0, 5.0])
    assert not cones.member(c, [0.0, -1.0, 5.0])
    # huge ratio x/y must not overflow
    assert not cones.member(c, [1e4, 1e-3, 1e5])


def test_membership_exp_dual():
    c = Cone(cones.EXPDUAL, 3)
    # u < 0 branch: -u * exp(v/u) <= e * w
    assert cones.member(c, [-1.0, 0.0, 1.0 / math.e + 1e-12])
    assert not cones.member(c, [-1.0, 0.0, 1.0 / math.e - 1e-3])
    assert cones.member(c, [0.0, 2.0, 3.0])
    assert not cones.member(c, [0.0, -1e-3, 3.0])
    assert not cones.member(c, [1e-3, 1.0, 1.0])


def test_membership_exp_where_the_exponential_underflows():
    # y * exp(x/y) underflows to 0 at x/y = -1000, yet is positive, so the
    # point is outside once z <= 0; the dual maps [-1, 1000, 0] there too
    assert not cones.member(cones.exp_cone(), [-1000.0, 1.0, 0.0])
    assert not cones.member(Cone(cones.EXPDUAL, 3), [-1.0, 1000.0, 0.0])
    assert cones.member(cones.exp_cone(), [-1000.0, 1.0, 1e-300])


def test_membership_pow():
    c = cones.pow_cone(0.5)
    assert cones.member(c, [1.0, 1.0, 1.0])
    assert not cones.member(c, [1.0, 1.0, 1.0 + 1e-6])
    assert cones.member(c, [4.0, 1.0, -2.0])
    assert not cones.member(c, [-1e-6, 1.0, 0.0])
    c8 = cones.pow_cone(0.8)
    assert cones.member(c8, [2.0, 3.0, 2.0**0.8 * 3.0**0.2])
    assert not cones.member(c8, [2.0, 3.0, 2.0**0.8 * 3.0**0.2 + 1e-6])


def test_dual_pairs():
    assert cones.dual(cones.nonneg(4)) == cones.nonneg(4)
    assert cones.dual(cones.soc(3)) == cones.soc(3)
    assert cones.dual(cones.rsoc(5)) == cones.rsoc(5)
    assert cones.dual(cones.exp_cone()).kind == cones.EXPDUAL
    assert cones.dual(cones.dual(cones.exp_cone())) == cones.exp_cone()
    assert cones.dual(cones.pow_cone(0.3)) == Cone(cones.POWDUAL, 3, 0.3)
    assert cones.dual(cones.dual(cones.pow_cone(0.3))) == cones.pow_cone(0.3)


def test_cone_validation():
    with pytest.raises(DimensionMismatch):
        cones.soc(1)
    with pytest.raises(DimensionMismatch):
        cones.rsoc(2)
    with pytest.raises(DimensionMismatch):
        Cone(cones.EXP, 4)
    with pytest.raises(ValueError):
        cones.pow_cone(1.0)
    with pytest.raises(ValueError):
        Cone(cones.SOC, 3, 0.5)
    with pytest.raises(DimensionMismatch):
        Cone(cones.POWDUAL, 4, 0.5)
    with pytest.raises(ValueError):
        Cone("ball", 3)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_duality_pairing_nonnegative(cone):
    # inner products between cone members and dual cone members stay >= 0
    rng = np.random.default_rng(7)
    dual = cones.dual(cone)
    for _ in range(900):
        z = cones.sample_point(cone, rng, scale=rng.uniform(0.1, 10.0))
        b = cones.sample_point(dual, rng, scale=rng.uniform(0.1, 10.0))
        assert float(z @ b) >= -1e-9 * max(1.0, np.linalg.norm(z) * np.linalg.norm(b))


def _outside_points(cone, rng, count):
    pts = []
    while len(pts) < count:
        p = rng.standard_normal(cone.dim) * rng.uniform(0.1, 10.0)
        if not cones.member(cone, p, 1e-9):
            pts.append(p)
    return pts


@pytest.mark.parametrize("cone", ALL_FAMILIES, ids=str)
def test_separation_contract(cone):
    rng = np.random.default_rng(11)
    dual = cones.dual(cone)
    for p in _outside_points(cone, rng, 300):
        beta = cones.separate(cone, p)
        assert beta is not None
        assert_allclose(np.linalg.norm(beta), 1.0, rtol=1e-12)
        assert cones.member(dual, beta, 1e-9)
        assert float(beta @ p) < 0.0


@pytest.mark.parametrize("cone", ALL_FAMILIES, ids=str)
def test_separate_returns_none_inside(cone):
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = cones.sample_point(cone, rng)
        assert cones.separate(cone, p) is None


@pytest.mark.parametrize("cone", ALL_FAMILIES, ids=str)
def test_strict_member_is_the_open_interior(cone):
    # the interior test must match the barrier's domain on primal families:
    # the IPM judges a point's z by whether its barrier evaluates and its
    # beta by the interior test, so the two must agree, also within 1e-12
    # to 1e-6 of the boundary on either side
    rng = np.random.default_rng(41)
    inside = [cones.sample_interior(cone, rng) for _ in range(50)]
    outside = [np.zeros(cone.dim)] + _outside_points(cone, rng, 50)
    for points, expected in ((inside, True), (outside, False)):
        for p in points:
            assert cones.strict_member(cone, p) == expected
            if cone in ALL_PRIMAL:
                assert _barrier_evaluates(cone, p) is expected
    if cone not in ALL_PRIMAL:
        return
    sides = set()
    for push in range(-12, -5):
        for _ in range(30):
            p = _near_boundary(cone, rng, push)
            inside = cones.strict_member(cone, p)
            assert _barrier_evaluates(cone, p) is inside
            sides.add(inside)
    assert sides == {True, False}


def _barrier_evaluates(cone, p):
    try:
        cones.barrier_value_grad_hess(cone, p)
    except NotInterior:
        return False
    return True


@pytest.mark.parametrize("cone", ALL_FAMILIES, ids=str)
def test_membership_tests_return_python_bools(cone):
    rng = np.random.default_rng(43)
    points = [cones.sample_interior(cone, rng), cones.sample_point(cone, rng)]
    points += _outside_points(cone, rng, 2)
    for p in points:
        assert type(cones.member(cone, p)) is bool
        assert type(cones.member(cone, p, 1e-9)) is bool
        assert type(cones.strict_member(cone, p)) is bool


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_a_one_coordinate_dual_member_is_positive(cone):
    # OA folds a cut with one nonzero coordinate into a lower bound of 0 on
    # that column; this holds because no -e_i lies in the dual of a factor
    # a program can hold (the primal exp cone does hold -e_0, but it is the
    # dual only of the expdual family, which has no barrier)
    dual = cones.dual(cone)
    for row in np.eye(cone.dim):
        assert not cones.member(dual, -row, 1e-9)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_initial_tangents_lie_in_the_dual_cone(cone):
    dual = cones.dual(cone)
    tangents = cones.tangents(cone)
    assert tangents
    for beta in tangents:
        assert cones.member(dual, beta, 1e-12)


def _near_boundary(cone, rng, push):
    """A point within about 10**push of the cone's boundary."""
    inside = cones.sample_interior(cone, rng)
    # the cones are pointed, so -inside lies outside; bisect the segment
    outside = -inside
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if cones.member(cone, mid):
            inside = mid
        else:
            outside = mid
    return inside + 10.0**push * rng.standard_normal(cone.dim)


# tolerances from 1e-18 to 1, a quarter decade apart, and zero
_TOL_LADDER = [0.0] + [10.0 ** (k / 4.0) for k in range(-72, 1)]


@settings(max_examples=300, deadline=None, database=None)
@given(
    cone=st.sampled_from(ALL_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    push=st.integers(-15, -1),
)
def test_membership_is_monotone_in_the_tolerance(cone, seed, push):
    # the IPM offers a point to its tight validator only after the loose
    # one passed, which loses nothing only if a looser tolerance never
    # rejects a point that a tighter one accepts: along increasing
    # tolerances, membership may switch on once and never off again
    p = _near_boundary(cone, np.random.default_rng(seed), push)
    inside = [cones.member(cone, p, t) for t in _TOL_LADDER]
    assert inside == sorted(inside)


def test_separation_examples():
    # most-negative coordinate of the orthant
    beta = cones.separate(cones.nonneg(2), [-1.0, 3.0])
    assert_allclose(beta, [1.0, 0.0])
    # second-order cone: outer normal through the violated direction
    beta = cones.separate(cones.soc(3), [1.0, 2.0, 0.0])
    assert_allclose(beta, [1.0 / math.sqrt(2), -1.0 / math.sqrt(2), 0.0])


def test_separation_exp_edge_cases():
    c = cones.exp_cone()
    dual = cones.dual(c)
    hard = [
        np.array([2.0, 0.0, 5.0]),      # y = 0 wing, x > 0
        np.array([2.0, -1e-12, 5.0]),   # slightly negative y
        np.array([0.0, -2.0, 1.0]),     # negative y
        np.array([0.0, 1.0, -3.0]),     # negative z with positive y
        np.array([-1.0, -1e-14, -2.0]),  # both y and z negative
        np.array([1e4, 1e-2, 1.0]),     # overflow-scale ratio
        np.array([700.0, 1.0, 10.0]),   # overflow-scale exponent
    ]
    for p in hard:
        beta = cones.separate(c, p)
        assert beta is not None
        assert cones.member(dual, beta, 1e-9)
        assert float(beta @ p) < 0.0


def test_separation_pow_edge_cases():
    for alpha in (0.5, 0.25, 0.8):
        c = cones.pow_cone(alpha)
        dual = cones.dual(c)
        hard = [
            np.array([0.0, 1.0, 1.0]),
            np.array([1.0, 0.0, -1.0]),
            np.array([0.0, 0.0, 2.0]),
            np.array([1e8, 0.0, 3.0]),
            np.array([0.0, 1e8, 3.0]),
            np.array([-2.0, 5.0, 1.0]),
            np.array([1e-8, 1e-8, 1.0]),
        ]
        for p in hard:
            beta = cones.separate(c, p)
            assert beta is not None
            assert cones.member(dual, beta, 1e-9)
            assert float(beta @ p) < 0.0


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_gradient_matches_finite_differences(cone):
    rng = np.random.default_rng(17)
    for _ in range(12):
        z = cones.sample_interior(cone, rng)
        val, grad, hess = cones.barrier_value_grad_hess(cone, z)
        h = 1e-6
        fd_grad = np.zeros_like(z)
        for i in range(cone.dim):
            e = np.zeros_like(z)
            e[i] = h * max(1.0, abs(z[i]))
            vp = cones.barrier_value_grad_hess(cone, z + e)[0]
            vm = cones.barrier_value_grad_hess(cone, z - e)[0]
            fd_grad[i] = (vp - vm) / (2.0 * e[i])
        assert_allclose(grad, fd_grad, rtol=2e-4, atol=1e-6)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_hessian_matches_finite_differences(cone):
    rng = np.random.default_rng(19)
    for _ in range(6):
        z = cones.sample_interior(cone, rng)
        _, _, hess = cones.barrier_value_grad_hess(cone, z)
        h = 1e-6
        fd = np.zeros((cone.dim, cone.dim))
        for i in range(cone.dim):
            e = np.zeros_like(z)
            e[i] = h * max(1.0, abs(z[i]))
            gp = cones.barrier_value_grad_hess(cone, z + e)[1]
            gm = cones.barrier_value_grad_hess(cone, z - e)[1]
            fd[:, i] = (gp - gm) / (2.0 * e[i])
        assert_allclose(hess, fd, rtol=5e-4, atol=1e-5)
        assert_allclose(hess, hess.T, rtol=1e-10, atol=1e-12)
        eigvals = np.linalg.eigvalsh(hess)
        assert eigvals.min() > 0.0


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_third_derivative_matches_finite_differences(cone):
    # F'''(z)[d, d] of a stack against central differences of the Hessian
    # along d, point by point, to 1e-6 of the largest entry
    rng = np.random.default_rng(29)
    z = np.array([cones.sample_interior(cone, rng) for _ in range(8)])
    d = rng.standard_normal(z.shape)
    third = cones.barrier_third(cone, z, d)
    assert third.shape == z.shape
    h = 1e-6
    for p, q, t in zip(z, d, third):
        hp = cones.barrier_value_grad_hess(cone, p + h * q)[2]
        hm = cones.barrier_value_grad_hess(cone, p - h * q)[2]
        fd = (hp - hm) @ q / (2.0 * h)
        assert np.abs(t - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_log_homogeneity(cone):
    # F(tau z) = F(z) - nu log tau, grad F(z) . z = -nu, H(z) z = -grad F(z)
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = cones.sample_interior(cone, rng)
        tau = rng.uniform(0.3, 3.0)
        v0, g0, h0 = cones.barrier_value_grad_hess(cone, z)
        v1 = cones.barrier_value_grad_hess(cone, tau * z)[0]
        assert_allclose(v1, v0 - cone.nu * math.log(tau), rtol=1e-9, atol=1e-9)
        assert_allclose(float(g0 @ z), -cone.nu, rtol=1e-9)
        assert_allclose(h0 @ z, -g0, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_gradient_in_dual_interior(cone):
    rng = np.random.default_rng(29)
    dual = cones.dual(cone)
    for _ in range(20):
        z = cones.sample_interior(cone, rng)
        g = cones.barrier_value_grad_hess(cone, z)[1]
        assert cones.member(dual, -g, 0.0)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_barrier_rejects_non_interior(cone):
    rng = np.random.default_rng(31)
    boundary = np.zeros(cone.dim)
    with pytest.raises(NotInterior):
        cones.barrier_value_grad_hess(cone, boundary)
    p = _outside_points(cone, rng, 1)[0]
    with pytest.raises(NotInterior):
        cones.barrier_value_grad_hess(cone, p)


@pytest.mark.parametrize("cone", ALL_PRIMAL, ids=str)
def test_canonical_interior_point(cone):
    p = cones.interior_point(cone)
    assert cones.member(cone, p, 0.0)
    # strictly interior: the barrier must evaluate
    cones.barrier_value_grad_hess(cone, p)


def test_product_slicing_and_membership():
    prod = ConeProduct([cones.nonneg(2), cones.soc(3), cones.exp_cone()])
    assert prod.dim == 8
    assert prod.nu == 2 + 2 + 3
    sl = list(prod.slices())
    assert sl[0][1] == slice(0, 2)
    assert sl[1][1] == slice(2, 5)
    assert sl[2][1] == slice(5, 8)
    z = np.concatenate([[1.0, 2.0], [5.0, 3.0, 4.0], [-1.0, 1.0, 1.0]])
    assert cones.member_product(prod, z)
    z[0] = -1.0
    assert not cones.member_product(prod, z)
    rng = np.random.default_rng(37)
    s = cones.sample_product(prod, rng, interior=True)
    assert cones.member_product(prod, s)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        cones.member(cones.soc(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        cones.barrier_value_grad_hess(cones.nonneg(2), [1.0, 2.0, 3.0])


def _rows_of_every_kind(cone, rng):
    """Interior, boundary-reaching, on-boundary and just-outside points."""
    rows = [cones.sample_interior(cone, rng) for _ in range(6)]
    rows += [cones.sample_point(cone, rng) for _ in range(6)]
    for push in (-15, -12, -9):
        rows.append(_near_boundary(cone, rng, push))
    rows.append(np.zeros(cone.dim))
    rows += _outside_points(cone, rng, 6)
    # a boundary point moved just outside along an outer normal
    edge = _near_boundary(cone, rng, -300)
    beta = cones.separate(cone, edge - 1e-6 * cones.sample_interior(cone, rng))
    if beta is not None:
        rows.append(edge - 1e-12 * beta)
    return np.array(rows)


@pytest.mark.parametrize("cone", ALL_FAMILIES, ids=str)
def test_stacked_operations_equal_per_point_calls(cone):
    rng = np.random.default_rng(47)
    rows = _rows_of_every_kind(cone, rng)
    for tol in (0.0, 1e-9, 1e-6):
        want = [cones.member(cone, p, tol) for p in rows]
        assert cones.member(cone, rows, tol).tolist() == want
        # leading axes beyond one stack are kept
        grid = rows[:12].reshape(3, 4, cone.dim)
        assert cones.member(cone, grid, tol).tolist() == (
            np.array(want[:12]).reshape(3, 4).tolist())
    want = [cones.strict_member(cone, p) for p in rows]
    assert cones.strict_member(cone, rows).tolist() == want
    assert any(want) and not all(want)
    if cone not in ALL_PRIMAL:
        return
    inside = rows[np.array(want)]
    val, grad, hess = cones.barrier_value_grad_hess(cone, inside)
    assert val.shape == (len(inside),)
    assert grad.shape == inside.shape
    assert hess.shape == inside.shape + (cone.dim,)
    for p, v, g, h in zip(inside, val, grad, hess):
        v1, g1, h1 = cones.barrier_value_grad_hess(cone, p)
        assert_allclose(v, v1, rtol=1e-12)
        assert_allclose(g, g1, rtol=1e-12)
        assert_allclose(h, h1, rtol=1e-12)
    # one point outside the domain spoils the whole stack
    with pytest.raises(NotInterior):
        cones.barrier_value_grad_hess(cone, rows)


def _random_product(rng, size):
    pool = ALL_FAMILIES + [cones.nonneg(2), cones.nonneg(3), cones.soc(4)]
    return ConeProduct([pool[i] for i in rng.choice(len(pool), size=size)])


def _assert_groups_partition(K):
    z = np.arange(K.dim, dtype=float)
    seen = []
    owner = {}
    for f, sl in K.slices():
        for i in range(sl.start, sl.stop):
            owner[i] = (f, sl)
    for g in K.groups:
        rows = g.stack(z).astype(int)
        assert rows.shape == (g.k, g.cone.dim)
        seen.extend(rows.ravel().tolist())
        if isinstance(g.index, slice):
            assert rows.ravel().tolist() == list(range(g.index.start,
                                                       g.index.stop))
        for row in rows:
            f, sl = owner[row[0]]
            if g.cone == cones.nonneg(1):
                assert f.kind == cones.NONNEG
            else:
                # a row is one whole factor of the group's shape
                assert f == g.cone
                assert row.tolist() == list(range(sl.start, sl.stop))
        H = np.zeros((K.dim, K.dim))
        H[g.blocks] = 1.0
        assert H.sum() == g.k * g.cone.dim**2
        for row in rows:
            assert H[np.ix_(row, row)].all()
    # every coordinate in exactly one group, and one group per shape
    assert sorted(seen) == list(range(K.dim))
    assert len({g.cone for g in K.groups}) == len(K.groups)


def test_groups_partition_the_coordinates_once():
    rng = np.random.default_rng(53)
    for size in (0, 1, 2, 5, 12, 30):
        for _ in range(10):
            _assert_groups_partition(_random_product(rng, size))
    from miconic import instances
    from miconic.compile import emit_conic
    for n in range(2, 9):
        prog, _ = emit_conic(instances.empty_ball_model(n, "extended"))
        K = prog.cones
        _assert_groups_partition(K)
        # the alternating orthant and rsoc factors make two groups
        assert {g.cone for g in K.groups} == {cones.nonneg(1), cones.rsoc(3)}


def test_sampled_stacks_lie_in_the_product():
    rng = np.random.default_rng(59)
    for _ in range(20):
        K = _random_product(rng, 6)
        for interior in (False, True):
            pts = cones.sample_product(K, rng, interior=interior, size=50)
            assert pts.shape == (50, K.dim)
            test = cones.strict_member if interior else cones.member
            for f, sl in K.slices():
                assert all(test(f, pts[:, sl]))


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 8),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    data=st.data(),
)
def test_member_product_ignores_the_factor_order(seed, size, tol, data):
    rng = np.random.default_rng(seed)
    K = _random_product(rng, size)
    blocks = [
        cones.sample_point(f, rng) if rng.random() < 0.7
        else _outside_points(f, rng, 1)[0]
        for f in K.factors
    ]
    order = data.draw(st.permutations(range(size)))
    shuffled = ConeProduct([K.factors[i] for i in order])
    z = np.concatenate(blocks)
    zp = np.concatenate([blocks[i] for i in order])
    want = all(cones.member(f, p, tol) for f, p in zip(K.factors, blocks))
    assert cones.member_product(K, z, tol) == want
    assert cones.member_product(shuffled, zp, tol) == want
