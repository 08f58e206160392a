"""The set-up that depends only on cone shapes, made once: each shape's
table (cones.shape_table), each product's start and dual, and the IPM's
start record kept on the product.  Each must equal what the fresh
evaluation it replaces computes, bit for bit, stay read-only, and carry
nothing from one solve into the next."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miconic import cones, instances, ipm, oa
from miconic.cones import ConeProduct
from miconic.ipm import _no_steps
from miconic.oa import INITIAL_RELAXATION, OaState, oa_solve

SHAPES = ([cones.nonneg(d) for d in (1, 2, 3, 4)]
          + [cones.soc(d) for d in (2, 3, 4, 5)]
          + [cones.rsoc(d) for d in (3, 4, 5)]
          + [cones.exp_cone()]
          + [cones.pow_cone(a) for a in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9)])


@st.composite
def products(draw):
    """Up to six distinct shapes, each one to four times, in any order."""
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6,
                           unique=True))
    factors = [f for f in shapes for _ in range(draw(st.integers(1, 4)))]
    return ConeProduct(draw(st.permutations(factors)))


def _same(a, b):
    return (np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _same_index(a, b):
    if isinstance(a, slice) or isinstance(b, slice):
        return a == b
    return _same(a, b)


@settings(max_examples=150, deadline=None, database=None)
@given(K=products())
def test_tables_equal_a_fresh_evaluation_bit_for_bit(K):
    # the start: each factor's interior_point, and one barrier call per
    # group on that point's rows, as the start was made before the tables
    z0 = np.concatenate([cones.interior_point(f) for f in K.factors])
    start = K.start
    assert _same(start.z, z0)
    grad = np.empty_like(z0)
    for g, hess in zip(K.groups, start.hessians):
        _, g_grad, g_hess = cones.barrier_value_grad_hess(g.cone, g.stack(z0))
        grad[g.index] = g_grad.ravel()
        assert _same(np.broadcast_to(hess, g_hess.shape), g_hess)
    assert _same(start.grad, grad) and _same(start.beta, -grad)

    # the dual: the same groups as a product made from the dual factors
    Kd, fresh = K.dual(), ConeProduct(tuple(cones.dual(f) for f in K.factors))
    assert Kd.factors == fresh.factors and Kd.slices() == fresh.slices()
    assert (Kd.dim, Kd.nu) == (fresh.dim, fresh.nu)
    assert _same(Kd.factor_of, fresh.factor_of)
    assert len(Kd.groups) == len(fresh.groups)
    for g, h in zip(Kd.groups, fresh.groups):
        assert (g.cone, g.k) == (h.cone, h.k)
        assert _same_index(g.index, h.index)
        assert all(_same_index(a, b) for a, b in zip(g.blocks, h.blocks))
    assert (Kd.orthant is None) == (fresh.orthant is None)
    if Kd.orthant is not None:
        assert Kd.groups.index(Kd.orthant) == fresh.groups.index(fresh.orthant)

    # the start record: what _point made of the start, with beta's
    # interior tests and a barrier call per group, before it was kept
    metrics = _no_steps()
    point = ipm._start(K, metrics)
    want = ipm._point(K, fresh, z0, -grad, 1.0, 1.0, _no_steps())
    assert point is not None and want is not None
    assert (point.tau, point.kappa) == (want.tau, want.kappa)
    assert point.mu == want.mu and point.prox2 == want.prox2
    assert _same(point.z, want.z) and _same(point.beta, want.beta)
    for a, b in ((point.W.grad, want.W.grad), (point.W.H, want.W.H),
                 (point.W.L, want.W.L)):
        assert _same(a, b)
    assert ipm._start(K, metrics) is point

    # the initial pool: each factor's tangents scaled to max-abs 1 and
    # pooled one at a time by _pool, as _initialize pooled them
    state, ref = OaState(K, 1e-5), OaState(K, 1e-5)
    oa._seed(state)
    oa._pool(ref, [(i, t / float(np.max(np.abs(t))))
                   for i, f in enumerate(K.factors)
                   for t in cones.tangents(f)], INITIAL_RELAXATION, None)
    assert len(state.cuts) == len(ref.cuts)
    for cut, want_cut in zip(state.cuts, ref.cuts):
        assert _same(cut.beta, want_cut.beta)
        assert (cut.provenance, cut.assignment) == (
            want_cut.provenance, want_cut.assignment)
    assert list(state._units) == list(ref._units)
    for i, units in ref._units.items():
        assert len(state._units[i]) == len(units)
        assert all(_same(u, v) for u, v in zip(state._units[i], units))


def test_no_stub_of_the_module_functions_reaches_a_table(monkeypatch):
    # the tables are filled from the family methods: stubs of the module
    # functions, made before any table of these shapes exists, change
    # nothing in them
    def broken(*args):
        raise AssertionError("a table read a module function")

    for name in ("interior_point", "barrier_value_grad_hess", "tangents",
                 "strict_member"):
        monkeypatch.setattr(cones, name, broken)
    shape = cones.soc(7)
    cones.shape_table.cache_clear()
    table = cones.shape_table(shape)
    monkeypatch.undo()
    assert _same(table.z, cones.interior_point(shape))
    _, grad, hess = cones.barrier_value_grad_hess(shape, table.z)
    assert _same(table.grad, grad) and _same(table.hess, hess)


def _arrays(K):
    start = K.start
    point = ipm._start(K, _no_steps())
    yield from (start.z, start.beta, start.grad, *start.hessians)
    yield from (point.z, point.beta, point.W.grad, point.W.H, point.W.L)
    for f in K.factors:
        table = cones.shape_table(f)
        yield from (table.z, table.grad, table.hess, *table.cuts,
                    *table.units)


def test_tables_and_start_records_are_read_only():
    K = ConeProduct([cones.nonneg(2), cones.soc(3), cones.rsoc(3),
                     cones.exp_cone(), cones.pow_cone(0.3), cones.soc(3)])
    arrays = list(_arrays(K))
    assert len(arrays) > 20
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
        with pytest.raises(ValueError):
            a += 1.0
    assert not K.factor_of.flags.writeable
    assert K.dual().factor_of is K.factor_of


def _outcome(res):
    """Every field of an OA outcome, as values that compare exactly."""
    def raw(a):
        return None if a is None else np.asarray(a, float).tobytes()

    return (res.status, res.diagnostic, repr(res.obj),
            repr(res.lower_bound), repr(res.upper_bound), res.iterations,
            raw(res.x), raw(res.z),
            [(raw(c.beta), c.provenance, c.assignment) for c in res.cuts],
            [repr(sorted(r.items())) for r in res.trace])


def test_solves_share_no_state_between_programs():
    # 20 corpus programs solved first to last, then last to first over
    # the same program objects, whose products now hold their kept
    # starts: every outcome is the same, bit for bit
    rng = np.random.default_rng(7)
    progs = [instances.random_feasible_program(rng) for _ in range(14)]
    progs += [instances.random_infeasible_program(rng) for _ in range(6)]
    forward = [_outcome(oa_solve(p)) for p in progs]
    backward = [_outcome(oa_solve(p)) for p in reversed(progs)][::-1]
    assert len({o[0] for o in forward}) > 1
    assert backward == forward
