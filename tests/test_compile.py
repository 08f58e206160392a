"""Compiler checks: structure of emitted programs, template tightness,
solution recovery, and dimension idempotency."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from miconic import atoms, cones
from miconic.atoms import ATOMS
from miconic.compile import emit_conic, recover_solution
from miconic.errors import DimensionMismatch, NotDcp
from miconic.expr import CONVEX, evaluate
from miconic.ipm import ContinuousConicProblem, solve_continuous
from miconic.model import DcpModel
from miconic.oa import oa_solve
from miconic.program import LinForm, ProgramBuilder


def _kind_counts(program):
    counts = {}
    for f in program.cones.factors:
        counts[f.kind] = counts.get(f.kind, 0) + 1
    return counts


def _solve_no_integers(program):
    assert program.num_integer == 0
    return solve_continuous(
        ContinuousConicProblem(program.A_z, program.b, program.c,
                               program.cones)
    )


def test_template_tightness_all_atoms():
    # minimizing the surrogate over a template with pinned arguments must
    # land exactly on the atom value
    rng = np.random.default_rng(701)
    cases = [
        ("abs", 1, None, (-3.0, 3.0)),
        ("square", 1, None, (-3.0, 3.0)),
        ("sumsquares", 3, None, (-2.0, 2.0)),
        ("norm2", 3, None, (-2.0, 2.0)),
        ("geo_mean", 2, None, (0.1, 4.0)),
        ("exp", 1, None, (-2.0, 2.0)),
        ("log", 1, None, (0.1, 5.0)),
        ("entropy", 1, None, (0.05, 3.0)),
        ("logsumexp", 3, None, (-2.0, 2.0)),
        ("pow_rational", 1, 1.0, (-2.0, 2.0)),
        ("pow_rational", 1, 1.5, (-2.0, 2.0)),
        ("pow_rational", 1, 2.0, (-2.0, 2.0)),
        ("pow_rational", 1, 3.0, (-2.0, 2.0)),
        ("inv_pos", 1, None, (0.1, 4.0)),
        ("max", 3, None, (-3.0, 3.0)),
    ]
    for name, nargs, param, (lo, hi) in cases:
        atom = ATOMS[name]
        sign = 1.0 if atom.curvature == CONVEX else -1.0
        for _ in range(10):
            vals = [float(rng.uniform(lo, hi)) for _ in range(nargs)]
            b = ProgramBuilder()
            t = atom.graph(b, [LinForm.constant(v) for v in vals], param)
            b.set_objective(t * sign)
            prog = b.build()
            res = _solve_no_integers(prog)
            assert res.status == "optimal", (name, vals, res.status)
            got = sign * (res.obj + prog.obj_offset)
            want = atom.evaluate(vals, param)
            assert_allclose(got, want, rtol=1e-6, atol=1e-6,
                            err_msg=f"{name} at {vals}")


def test_epigraph_rows_for_max_of_exp_square_and_linear():
    m = DcpModel()
    x = m.variable("x")
    t = m.variable("t")
    m.minimize(t)
    m.add(atoms.max(atoms.exp(atoms.square(x)), -2 * x) <= t)
    prog, cmap = emit_conic(m)
    counts = _kind_counts(prog)
    assert counts.get(cones.RSOC, 0) == 1
    assert counts.get(cones.EXP, 0) == 1
    assert set(counts) <= {cones.NONNEG, cones.RSOC, cones.EXP}
    # 2 pins for the square, 2 for the exp, 1 max row, 1 constraint row
    assert prog.num_rows == 6
    assert prog.num_integer == 0


def test_separable_square_ball_structure():
    n = 3
    m = DcpModel()
    xs = [m.variable(f"x{i}", integer=True, lb=0, ub=1) for i in range(n)]
    zs = [m.variable(f"z{i}") for i in range(n)]
    m.minimize(-(xs[0] + xs[1] + xs[2]))
    for x, z in zip(xs, zs):
        m.add(atoms.square(x - 0.5) <= z)
    m.add(sum(zs[1:], zs[0]) <= (n - 1) / 4.0)
    prog, cmap = emit_conic(m)
    counts = _kind_counts(prog)
    assert prog.num_integer == n
    assert counts.get(cones.RSOC, 0) == n
    assert set(counts) <= {cones.NONNEG, cones.RSOC}


def test_disaggregation_versus_single_factor():
    def separable():
        m = DcpModel()
        xs = [m.variable(f"x{i}") for i in range(3)]
        m.minimize(xs[0])
        m.add(atoms.square(xs[0]) + atoms.square(xs[1])
              + atoms.square(xs[2]) <= 1)
        return emit_conic(m)[0]

    def aggregated():
        m = DcpModel()
        xs = [m.variable(f"x{i}") for i in range(3)]
        m.minimize(xs[0])
        m.add(atoms.sumsquares(xs[0], xs[1], xs[2]) <= 1)
        return emit_conic(m)[0]

    sep, agg = separable(), aggregated()
    assert _kind_counts(sep).get(cones.RSOC, 0) == 3
    assert _kind_counts(sep).get(cones.SOC, 0) == 0
    assert _kind_counts(agg).get(cones.SOC, 0) == 1
    assert _kind_counts(agg).get(cones.RSOC, 0) == 0


def test_trimloss_shape_is_second_order_only():
    m = DcpModel()
    x1 = m.variable("x1", lb=0.0, ub=4.0)
    x2 = m.variable("x2", lb=0.0, ub=4.0)
    y1 = m.variable("y1", lb=0.0, ub=4.0)
    y2 = m.variable("y2", lb=0.0, ub=4.0)
    k = m.variable("k", integer=True, lb=0, ub=3)
    m.minimize(k)
    m.add(-atoms.geo_mean(x1, y1) - atoms.geo_mean(x2, y2) + 2 <= k)
    prog, _ = emit_conic(m)
    counts = _kind_counts(prog)
    assert counts.get(cones.RSOC, 0) == 2
    assert set(counts) <= {cones.NONNEG, cones.SOC, cones.RSOC}


def test_variable_bound_encodings():
    m = DcpModel()
    a = m.variable("a", lb=2.0)
    b = m.variable("b", ub=-1.0)
    c = m.variable("c", lb=-1.0, ub=3.0)
    d = m.variable("d")
    m.minimize(a + b + c + d)
    prog, cmap = emit_conic(m)
    assert prog.num_integer == 0
    # every factor is nonnegative and d takes a two-column split
    assert set(_kind_counts(prog)) == {cones.NONNEG}
    assert len(cmap.var_columns["d"]) == 2
    # the double bound on c adds one range row
    assert prog.num_rows == 1
    x = np.zeros(0)
    z = np.zeros(prog.num_conic)
    vals = recover_solution(cmap, np.concatenate([x, z]))
    assert vals["a"] == pytest.approx(2.0)
    assert vals["b"] == pytest.approx(-1.0)
    assert vals["c"] == pytest.approx(-1.0)
    assert vals["d"] == pytest.approx(0.0)


def test_objective_mirrors_integer_variables():
    m = DcpModel()
    k = m.variable("k", integer=True, lb=-2, ub=5)
    m.minimize(3 * k)
    prog, cmap = emit_conic(m)
    # objective lives on a mirrored shifted column, never on x directly
    assert prog.num_integer == 1
    assert prog.num_conic == 1
    assert prog.num_rows == 1
    assert_allclose(prog.A_x, [[1.0]])
    assert_allclose(prog.A_z, [[-1.0]])
    assert_allclose(prog.b, [-2.0])
    assert_allclose(prog.c, [3.0])
    assert prog.obj_offset == pytest.approx(-6.0)


def test_recovered_objective_matches_expression_value():
    m = DcpModel()
    x = m.variable("x", lb=0.5, ub=2.0)
    y = m.variable("y", lb=0.5, ub=2.0)
    obj = -atoms.geo_mean(x, y)
    m.minimize(obj)
    prog, cmap = emit_conic(m)
    res = _solve_no_integers(prog)
    assert res.status == "optimal"
    point = np.concatenate([np.zeros(0), res.z])
    vals = recover_solution(cmap, point)
    model_val = evaluate(obj, {x: vals["x"], y: vals["y"]})
    assert_allclose(res.obj + prog.obj_offset, model_val, atol=1e-6)
    assert_allclose(model_val, -2.0, atol=1e-6)


def test_compiled_value_matches_expression_at_pinned_point():
    # pin the variables with equality rows and minimize the surrogate: the
    # conic optimum must equal the expression value at the pin
    rng = np.random.default_rng(703)
    m = DcpModel()
    x = m.variable("x", lb=-2.0, ub=2.0)
    y = m.variable("y", lb=0.2, ub=3.0)
    exprs = [
        atoms.max(atoms.exp(atoms.square(x)), -2 * x),
        atoms.square(atoms.exp(x)) + atoms.inv_pos(y),
        atoms.logsumexp(x, 2 * x - 1) - atoms.log(y),
        atoms.pow_rational(x - 0.5, 2.5) + atoms.abs(3 * x + y),
    ]
    for expr in exprs:
        for _ in range(4):
            x0 = float(rng.uniform(x.lb, x.ub))
            y0 = float(rng.uniform(y.lb, y.ub))
            model = DcpModel()
            xv = model.variable("x", lb=-2.0, ub=2.0)
            yv = model.variable("y", lb=0.2, ub=3.0)
            sub = {id(x): xv, id(y): yv}
            pinned = _substitute(expr, sub)
            model.minimize(pinned)
            model.add(xv == x0)
            model.add(yv == y0)
            prog, cmap = emit_conic(model)
            res = _solve_no_integers(prog)
            assert res.status == "optimal"
            want = evaluate(expr, {x: x0, y: y0})
            assert_allclose(res.obj + prog.obj_offset, want, rtol=2e-6,
                            atol=2e-6)


def _substitute(expr, mapping):
    from miconic.expr import AffineCombination, AtomApplication, Variable

    if isinstance(expr, Variable):
        return mapping.get(id(expr), expr)
    if isinstance(expr, AffineCombination):
        return AffineCombination(
            expr.coeffs,
            [_substitute(ch, mapping) for ch in expr.children],
            expr.offset,
        )
    if isinstance(expr, AtomApplication):
        return AtomApplication(
            expr.atom,
            [_substitute(a, mapping) for a in expr.args],
            expr.param,
        )
    return expr


def test_shared_subexpression_compiles_once():
    m = DcpModel()
    x = m.variable("x")
    sq = atoms.square(x)
    m.minimize(sq + sq)
    prog, cmap = emit_conic(m)
    assert _kind_counts(prog).get(cones.RSOC, 0) == 1
    cols, factors = cmap.atom_block(sq)
    assert len(cols) == 3 and len(factors) == 1


def test_column_ownership_is_a_partition():
    m = DcpModel()
    x = m.variable("x", integer=True, lb=0, ub=4)
    y = m.variable("y", lb=0.0)
    m.minimize(x + atoms.square(y))
    m.add(atoms.exp(y) <= 10)
    prog, cmap = emit_conic(m)
    assert len(cmap.x_owner) == prog.num_integer
    assert len(cmap.z_owner) == prog.num_conic
    atom_cols = set()
    for node in cmap.atom_nodes():
        cols, _ = cmap.atom_block(node)
        assert atom_cols.isdisjoint(cols)
        atom_cols.update(cols)
    tagged_atom = {j for j, owner in enumerate(cmap.z_owner)
                   if owner[0] == "atom"}
    assert tagged_atom == atom_cols


def test_idempotent_dimensions():
    def build():
        m = DcpModel()
        xs = [m.variable(f"x{i}", integer=True, lb=0, ub=1) for i in range(3)]
        zs = [m.variable(f"z{i}") for i in range(3)]
        m.minimize(zs[0] + zs[1] + zs[2])
        for x, z in zip(xs, zs):
            m.add(atoms.square(x - 0.5) <= z)
        return emit_conic(m)[0]

    p1, p2 = build(), build()
    assert p1.num_rows == p2.num_rows
    assert p1.num_integer == p2.num_integer
    assert p1.num_conic == p2.num_conic
    assert [f.kind for f in p1.cones.factors] == [
        f.kind for f in p2.cones.factors
    ]


def test_deep_model_compiles():
    m = DcpModel()
    e = m.variable("x0", lb=0.0)
    for i in range(1, 600):
        e = atoms.max(e, m.variable("x%d" % i, lb=0.0))
    m.minimize(e)
    program, cmap = emit_conic(m)
    # a column per variable, and per max two slack columns and one row
    assert len(cmap.atom_nodes()) == 599
    assert program.A_z.shape == (599, 600 + 2 * 599)
    # each level's row reads the new argument, two slacks and the inner
    # max's anchor and slack, however deep the nesting
    assert int(np.max(np.count_nonzero(program.A_z, axis=1))) <= 5


def test_emit_rejects_non_dcp_model():
    m = DcpModel()
    x = m.variable("x")
    m.minimize(x)
    m.add(atoms.square(x) == 1)
    with pytest.raises(NotDcp):
        emit_conic(m)


def test_recover_dimension_check():
    m = DcpModel()
    m.variable("x", lb=0.0)
    m.minimize(0.0 * m.variables[0])
    prog, cmap = emit_conic(m)
    with pytest.raises(DimensionMismatch):
        recover_solution(cmap, np.zeros(prog.num_conic + 5))


@pytest.mark.parametrize("constrain, best", [
    (lambda x: x + atoms.square(3) >= -20, -10.0),
    (lambda x: atoms.log(2) + x <= 5, -10.0),
    (lambda x: x >= atoms.square(3) - 15, -6.0),
], ids=["below", "above", "binding"])
def test_constant_atoms_compile_on_either_side(constrain, best):
    # a constant atom is evaluated, so it adds no cone and may sit on
    # either side of a constraint
    m = DcpModel()
    x = m.variable("x", lb=-10.0, ub=10.0)
    m.minimize(x)
    m.add(constrain(x))
    prog, _ = emit_conic(m)
    # the bounds of x and the constraint's slack
    assert _kind_counts(prog) == {cones.NONNEG: 3}
    res = oa_solve(prog)
    assert res.status == "optimal"
    assert res.obj + prog.obj_offset == pytest.approx(best, abs=1e-6)


def test_constant_outside_an_atom_domain_is_infeasible():
    # log(-1) lowers to its hypograph, whose exponential cone is empty
    m = DcpModel()
    x = m.variable("x", lb=-10.0, ub=10.0)
    m.minimize(x)
    m.add(x >= atoms.log(-1))
    prog, _ = emit_conic(m)
    assert _kind_counts(prog).get(cones.EXP, 0) == 1
    assert oa_solve(prog).status == "infeasible"
