"""Curvature analysis checks: worked compositions plus sampled soundness."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miconic import atoms
from miconic.atoms import make_atom
from miconic.compile import emit_conic
from miconic.errors import (
    ArityError,
    NotDcp,
    UnboundedInteger,
    UnknownAtomError,
)
from miconic.expr import (
    AFFINE,
    CONCAVE,
    CONSTANT,
    CONVEX,
    NEGATIVE,
    NONDECREASING,
    NONINCREASING,
    POSITIVE,
    UNKNOWN,
    UNKNOWN_SIGN,
    AffineCombination,
    AtomApplication,
    Constant,
    Variable,
    _add_curvature,
    _flip,
    curvature_of,
    evaluate,
    sign_of,
)
from miconic.model import DcpModel, dcp_verify
from miconic.modelio import parse_model, print_model


def test_affine_combination_is_affine():
    m = DcpModel()
    x1 = m.variable("x1")
    x2 = m.variable("x2")
    assert curvature_of(3 * x1 + 2 * x2 - 7) == AFFINE


def test_max_of_exp_square_and_linear_is_convex():
    m = DcpModel()
    x = m.variable("x")
    expr = atoms.max(atoms.exp(atoms.square(x)), -2 * x)
    assert curvature_of(expr) == CONVEX


def test_difference_of_squares_is_unknown():
    m = DcpModel()
    x1 = m.variable("x1")
    x2 = m.variable("x2")
    assert curvature_of(atoms.square(x1) - atoms.square(x2)) == UNKNOWN


def test_constant_folding():
    assert curvature_of(Constant(4.0)) == CONSTANT
    m = DcpModel()
    x = m.variable("x")
    assert curvature_of(x - x) == CONSTANT  # coefficients cancel structurally
    assert curvature_of(atoms.square(Constant(3.0))) == CONSTANT


def test_sign_refined_compositions():
    m = DcpModel()
    x = m.variable("x")
    # square of a positive convex inner function is convex
    assert curvature_of(atoms.square(atoms.exp(x))) == CONVEX
    # square of a negative concave inner function is convex
    assert curvature_of(atoms.square(-atoms.exp(x))) == CONVEX
    # square of a sign-unknown nonaffine inner function is not provable
    y = m.variable("y", lb=0.1, ub=10.0)
    assert curvature_of(atoms.square(atoms.log(y))) == UNKNOWN
    # abs over affine needs no sign information
    assert curvature_of(atoms.abs(3 * x - 1)) == CONVEX


def test_concave_compositions():
    m = DcpModel()
    x = m.variable("x", lb=0.0, ub=5.0)
    y = m.variable("y", lb=0.0, ub=5.0)
    g = atoms.geo_mean(x, y)
    assert curvature_of(g) == CONCAVE
    assert curvature_of(-g) == CONVEX
    # log of a concave positive function is concave (nondecreasing outer)
    assert curvature_of(atoms.log(g + 0.1)) == CONCAVE
    # inv_pos is nonincreasing, so inv_pos of concave is convex
    assert curvature_of(atoms.inv_pos(g + 0.1)) == CONVEX


def test_convex_plus_convex_and_mixtures():
    m = DcpModel()
    x = m.variable("x")
    y = m.variable("y")
    assert curvature_of(atoms.square(x) + atoms.abs(y)) == CONVEX
    assert curvature_of(atoms.square(x) - 3 * y + 1) == CONVEX
    assert curvature_of(-atoms.square(x) + atoms.abs(y)) == UNKNOWN
    assert curvature_of(2.0 * atoms.entropy(x) + y) == CONCAVE


def test_curvature_depends_only_on_structure():
    def build(names):
        m = DcpModel()
        a = m.variable(names[0])
        b = m.variable(names[1])
        return atoms.max(atoms.exp(a), atoms.square(b) - 1)

    assert curvature_of(build(["p", "q"])) == curvature_of(build(["u", "v"]))


def test_sign_lattice():
    m = DcpModel()
    p = m.variable("p", lb=0.0, ub=4.0)
    n = m.variable("n", lb=-4.0, ub=0.0)
    f = m.variable("f")
    assert sign_of(p) == POSITIVE
    assert sign_of(n) == NEGATIVE
    assert sign_of(f) == UNKNOWN_SIGN
    assert sign_of(2 * p + 3) == POSITIVE
    assert sign_of(-2 * p - 1) == NEGATIVE
    assert sign_of(p + n) == UNKNOWN_SIGN
    assert sign_of(p - n) == POSITIVE
    assert sign_of(atoms.max(n, n - 1)) == NEGATIVE
    assert sign_of(atoms.max(f, p)) == POSITIVE
    assert sign_of(atoms.norm2(f, f)) == POSITIVE


def test_atom_errors():
    m = DcpModel()
    x = m.variable("x")
    with pytest.raises(UnknownAtomError):
        make_atom("cosh", [x])
    with pytest.raises(ArityError):
        atoms.geo_mean(x, x) and make_atom("geo_mean", [x])
    with pytest.raises(ArityError):
        atoms.pow_rational(x, 0.5)
    with pytest.raises(ArityError):
        make_atom("abs", [x], param=2.0)


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_pow_rational_rejects_a_non_finite_exponent(p):
    x = DcpModel().variable("x")
    with pytest.raises(ArityError):
        atoms.pow_rational(x, p)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_expressions_reject_a_non_finite_number(value):
    x = DcpModel().variable("x")
    with pytest.raises(ValueError, match="constant"):
        Constant(value)
    with pytest.raises(ValueError, match="coefficient"):
        AffineCombination([value], [x], 0.0)
    with pytest.raises(ValueError, match="offset"):
        AffineCombination([1.0], [x], value)
    with pytest.raises(ValueError):
        x * value
    with pytest.raises(ValueError):
        x + value


def test_variable_declaration_errors():
    m = DcpModel()
    with pytest.raises(UnboundedInteger):
        m.variable("k", integer=True)
    with pytest.raises(ValueError):
        m.variable("w", lb=2.0, ub=1.0)


def test_expression_arithmetic_restrictions():
    m = DcpModel()
    x = m.variable("x")
    y = m.variable("y")
    with pytest.raises(TypeError):
        x * y
    with pytest.raises(TypeError):
        x / y
    with pytest.raises(TypeError):
        if x <= y:
            pass


def test_evaluate():
    m = DcpModel()
    x = m.variable("x")
    y = m.variable("y")
    expr = 2 * atoms.square(x) - atoms.abs(y) + 1
    assert evaluate(expr, {x: 3.0, y: -2.0}) == pytest.approx(17.0)
    assert evaluate(expr, [3.0, -2.0]) == pytest.approx(17.0)
    assert evaluate(atoms.entropy(x), {x: 0.0}) == 0.0
    assert evaluate(atoms.entropy(x), {x: 1.0}) == 0.0
    big = evaluate(atoms.logsumexp(x, y), {x: 1000.0, y: 1000.0})
    assert big == pytest.approx(1000.0 + np.log(2.0))
    assert evaluate(atoms.pow_rational(x, 2), {x: -2.0}) == pytest.approx(4.0)
    assert evaluate(atoms.geo_mean(x, y), {x: 4.0, y: 9.0}) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        evaluate(atoms.inv_pos(x), {x: -1.0})


def test_dcp_verify_accepts_convex_model():
    m = DcpModel()
    x = m.variable("x")
    m.minimize(x)
    m.add(atoms.exp(x) - 3 <= 0)
    report = dcp_verify(m)
    assert report.ok and not report.violations


def test_dcp_verify_rejects_concave_inequality():
    m = DcpModel()
    x = m.variable("x", lb=0.0, ub=9.0)
    y = m.variable("y", lb=0.0, ub=9.0)
    m.minimize(x)
    m.add(atoms.geo_mean(x, y) <= 0)
    report = dcp_verify(m)
    assert not report.ok
    assert any("constraint[0]" in v for v in report.violations)


def test_dcp_verify_rejects_nonaffine_equality():
    m = DcpModel()
    x = m.variable("x")
    m.minimize(x)
    m.add(atoms.square(x) == 1)
    report = dcp_verify(m)
    assert not report.ok


def test_dcp_verify_flags_undeclared_variable():
    m = DcpModel()
    other = DcpModel()
    x = m.variable("x")
    z = other.variable("z")
    m.minimize(x + z)
    report = dcp_verify(m)
    assert not report.ok
    assert any("undeclared" in v for v in report.violations)


def test_dcp_verify_separable_square_model():
    # per-term squares on 0/1 integers with a shared budget row
    m = DcpModel()
    xs = [m.variable(f"x{i}", integer=True, lb=0, ub=1) for i in range(3)]
    zs = [m.variable(f"z{i}") for i in range(3)]
    m.minimize(Constant(0.0))
    for x, z in zip(xs, zs):
        m.add(atoms.square(x - 0.5) - z <= 0)
    m.add(zs[0] + zs[1] + zs[2] <= 0.5)
    report = dcp_verify(m)
    assert report.ok


def _domain_cases():
    m = DcpModel()
    x = m.variable("x", lb=-3.0, ub=3.0)
    y = m.variable("y", lb=-3.0, ub=3.0)
    p = m.variable("p", lb=0.1, ub=4.0)
    q = m.variable("q", lb=0.1, ub=4.0)
    vars_ = [x, y, p, q]
    cases = [
        atoms.abs(2 * x - y),
        atoms.square(x + 0.5),
        atoms.sumsquares(x, y, p),
        atoms.norm2(x - 1, y + 2),
        atoms.exp(0.5 * x),
        atoms.logsumexp(x, y, x - y),
        atoms.pow_rational(x, 1.5),
        atoms.pow_rational(x, 3),
        atoms.inv_pos(p),
        atoms.max(x, y, atoms.square(x)),
        atoms.square(atoms.exp(x)),
        atoms.exp(atoms.square(x)) + atoms.abs(y),
        atoms.inv_pos(atoms.geo_mean(p, q)),
        atoms.geo_mean(p, q),
        atoms.log(p),
        atoms.entropy(p),
        atoms.log(atoms.geo_mean(p, q)),
        2.5 * atoms.entropy(p) - atoms.square(x) * 0.0 + atoms.log(q),
    ]
    return vars_, cases


def test_midpoint_soundness_of_reported_curvature():
    vars_, cases = _domain_cases()
    rng = np.random.default_rng(601)
    for expr in cases:
        curv = curvature_of(expr)
        assert curv in (CONVEX, CONCAVE), f"case skipped analysis: {expr!r}"
        for _ in range(1000):
            a = {v: rng.uniform(v.lb, v.ub) for v in vars_}
            b = {v: rng.uniform(v.lb, v.ub) for v in vars_}
            mid = {v: 0.5 * (a[v] + b[v]) for v in vars_}
            fm = evaluate(expr, mid)
            avg = 0.5 * (evaluate(expr, a) + evaluate(expr, b))
            if curv == CONVEX:
                assert fm <= avg + 1e-9
            else:
                assert fm >= avg - 1e-9


def test_atom_library_contents():
    names = {a.name for a in atoms.atom_library()}
    assert {
        "abs", "square", "sumsquares", "norm2", "geo_mean", "exp", "log",
        "entropy", "logsumexp", "pow_rational", "inv_pos", "max",
    } <= names


def test_dcp_verify_blames_the_shallowest_offending_node():
    m = DcpModel()
    x = m.variable("x", lb=0.5, ub=2.0)
    y = m.variable("y")
    m.minimize(x)
    m.add(atoms.square(x) - atoms.square(y) <= 1)
    m.add(atoms.exp(atoms.log(x)) <= 2)
    m.add(atoms.max(atoms.square(x) - atoms.square(y), 0) <= 2)
    report = dcp_verify(m)
    assert report.violations == [
        "constraint[0]: expression is unknown where convex or affine is "
        "required, at constraint[0] (mixes convex and concave terms)",
        "constraint[1]: expression is unknown where convex or affine is "
        "required, at constraint[1].term[0] (composition through atom "
        "'exp' is not covered by the rules)",
        "constraint[2]: expression is unknown where convex or affine is "
        "required, at constraint[2].term[0].arg[0] (mixes convex and "
        "concave terms)",
    ]


def test_dcp_verify_rejects_entropy_of_a_convex_argument():
    # entropy is concave with no monotonicity, so no rule covers it over a
    # convex argument
    m = DcpModel()
    x = m.variable("x", lb=0.0, ub=2.0)
    expr = atoms.entropy(atoms.square(x))
    assert curvature_of(expr) == UNKNOWN
    m.minimize(x)
    m.add(-expr <= 1)
    assert dcp_verify(m).violations == [
        "constraint[0]: expression is unknown where convex or affine is "
        "required, at constraint[0].term[0] (composition through atom "
        "'entropy' is not covered by the rules)",
    ]


def test_reflected_subtraction_and_division_are_affine():
    m = DcpModel()
    y = m.variable("y", lb=-8.0, ub=8.0)
    left, quarter = 2 - y, y / 4
    assert curvature_of(left) == AFFINE and curvature_of(quarter) == AFFINE
    m.minimize(left)
    m.add(quarter <= 1)
    assert dcp_verify(m).ok
    assert evaluate(left, {y: 3.0}) == -1.0
    assert evaluate(quarter, {y: 3.0}) == 0.75


def _running_max(m, first, n):
    """max(...max(max(first, x1), x2)..., x{n-1}) over new variables."""
    e = first
    for i in range(1, n):
        e = atoms.max(e, m.variable("x%d" % i, lb=0.0))
    return e


def test_deep_model_verifies_and_evaluates():
    m = DcpModel()
    e = _running_max(m, m.variable("x0", lb=0.0), 2000)
    m.minimize(e)
    assert dcp_verify(m).ok
    point = [(i * 7919 % 2000) / 2000.0 for i in range(2000)]
    assert evaluate(e, point) == max(point)


def test_dcp_verify_blames_a_node_two_thousand_levels_down():
    m = DcpModel()
    x = m.variable("x0", lb=0.0)
    m.add(_running_max(m, atoms.square(x) - atoms.square(x + 1), 2000) <= 1)
    assert dcp_verify(m).violations == [
        "constraint[0]: expression is unknown where convex or affine is "
        "required, at constraint[0].term[0]" + ".arg[0]" * 1999
        + " (mixes convex and concave terms)"
    ]


def test_evaluate_visits_each_shared_node_once():
    # e = abs(e) + e reaches the innermost node along 2**40 paths
    m = DcpModel()
    x = m.variable("x")
    e = x
    for _ in range(40):
        e = atoms.abs(e) + e
    start = time.perf_counter()
    value = evaluate(e, [0.5])
    assert time.perf_counter() - start < 0.01
    assert value == 0.5 * 2.0 ** 40


# The recursive rules each node's cached analysis must reproduce.


def _reference_sign(expr):
    if isinstance(expr, Constant):
        return POSITIVE if expr.value >= 0.0 else NEGATIVE
    if isinstance(expr, Variable):
        if expr.lb >= 0.0:
            return POSITIVE
        if expr.ub <= 0.0:
            return NEGATIVE
        return UNKNOWN_SIGN
    if isinstance(expr, AffineCombination):
        lo_ok = expr.offset >= 0.0
        hi_ok = expr.offset <= 0.0
        for c, child in zip(expr.coeffs, expr.children):
            s = _reference_sign(child)
            if c > 0.0:
                term = s
            elif c < 0.0:
                term = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}.get(s, s)
            else:
                continue
            lo_ok = lo_ok and term == POSITIVE
            hi_ok = hi_ok and term == NEGATIVE
        if lo_ok:
            return POSITIVE
        if hi_ok:
            return NEGATIVE
        return UNKNOWN_SIGN
    assert isinstance(expr, AtomApplication)
    return expr.atom.sign([_reference_sign(a) for a in expr.args])


def _reference_curvature(expr):
    if isinstance(expr, Constant):
        return CONSTANT
    if isinstance(expr, Variable):
        return AFFINE
    if isinstance(expr, AffineCombination):
        total = CONSTANT
        for c, child in zip(expr.coeffs, expr.children):
            if c == 0.0:
                continue
            k = _reference_curvature(child)
            if c < 0.0:
                k = _flip(k)
            total = _add_curvature(total, k)
        return total
    assert isinstance(expr, AtomApplication)
    atom = expr.atom
    arg_curvs = [_reference_curvature(a) for a in expr.args]
    if all(k == CONSTANT for k in arg_curvs):
        return CONSTANT
    arg_signs = [_reference_sign(a) for a in expr.args]
    base = atom.curvature
    for i, k in enumerate(arg_curvs):
        if k in (CONSTANT, AFFINE):
            continue
        mono = atom.monotonicity(i, arg_signs)
        if base == CONVEX:
            ok = (k == CONVEX and mono == NONDECREASING) or (
                k == CONCAVE and mono == NONINCREASING
            )
        else:
            ok = (k == CONCAVE and mono == NONDECREASING) or (
                k == CONVEX and mono == NONINCREASING
            )
        if not ok:
            return UNKNOWN
    return base


_COEFFS = st.sampled_from([1.0, -1.0, 2.5, -0.5, 3.0])
_LEAF_VALUES = st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])
_LOWER = [-float("inf"), -3.0, -1.0, 0.0, 0.5]
_UPPER = [-0.5, 0.0, 1.0, 3.0, float("inf")]


@st.composite
def _dags(draw):
    """A model's variables plus a pool of expression nodes built over them.

    Every operand is drawn from the pool, so nodes are shared.
    """
    m = DcpModel()
    pool = []
    for i in range(draw(st.integers(1, 3))):
        lb = draw(st.sampled_from(_LOWER))
        ub = draw(st.sampled_from([u for u in _UPPER if u >= lb]))
        integer = bool(np.isfinite(lb) and np.isfinite(ub)
                       and draw(st.booleans()))
        pool.append(m.variable(f"x{i}", integer=integer, lb=lb, ub=ub))
    for _ in range(draw(st.integers(0, 2))):
        pool.append(Constant(draw(_LEAF_VALUES)))
    operand = st.sampled_from(pool)
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(["add", "scale", "shift", "atom"]))
        if op == "add":
            node = draw(operand) + draw(_COEFFS) * draw(operand)
        elif op == "scale":
            node = draw(_COEFFS) * draw(operand)
        elif op == "shift":
            node = draw(operand) + draw(_LEAF_VALUES)
        else:
            atom = draw(st.sampled_from(atoms.atom_library()))
            arity = draw(st.integers(atom.min_arity,
                                     atom.max_arity or atom.min_arity + 2))
            param = (draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
                     if atom.needs_param else None)
            args = [draw(operand) for _ in range(arity)]
            node = make_atom(atom.name, args, param)
        pool.append(node)
        operand = st.sampled_from(pool)
    return m, pool


def _reference_evaluate(expr, point):
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        return float(point[expr.index])
    if isinstance(expr, AffineCombination):
        total = expr.offset
        for c, child in zip(expr.coeffs, expr.children):
            total += c * _reference_evaluate(child, point)
        return total
    assert isinstance(expr, AtomApplication)
    return expr.atom.evaluate(
        [_reference_evaluate(a, point) for a in expr.args], expr.param)


def _value_or_error(f, expr, point):
    try:
        return f(expr, point)
    except (ValueError, OverflowError) as err:
        return type(err)


# the constraint senses each curvature admits
_SENSES = {CONSTANT: "<>=", AFFINE: "<>=", CONVEX: "<", CONCAVE: ">",
           UNKNOWN: ""}


@settings(max_examples=200, deadline=None, database=None)
@given(dag=_dags(), data=st.data())
def test_cached_analysis_matches_the_rules_and_verified_models_compile(
    dag, data,
):
    m, pool = dag
    objectives = [e for e in pool
                  if curvature_of(e) in (CONSTANT, AFFINE, CONVEX)]
    if objectives:
        m.minimize(data.draw(st.sampled_from(objectives)))
    # mostly senses the rules admit, so most models verify
    any_sense = data.draw(st.booleans())
    for e in pool:
        senses = "<>=" if any_sense else _SENSES[curvature_of(e)]
        if not senses or not data.draw(st.booleans()):
            continue
        sense = data.draw(st.sampled_from(senses))
        m.add(e <= 0 if sense == "<" else e >= 0 if sense == ">" else e == 0)
    point = [float(np.clip(data.draw(_LEAF_VALUES), v.lb, v.ub))
             for v in m.variables]
    for e in pool + [con.expr for con in m.constraints]:
        assert sign_of(e) == _reference_sign(e)
        assert curvature_of(e) == _reference_curvature(e)
        got = _value_or_error(evaluate, e, point)
        want = _value_or_error(_reference_evaluate, e, point)
        assert got == want or (got != got and want != want)
    text = print_model(m)
    assert print_model(parse_model(text)) == text
    if dcp_verify(m).ok:
        emit_conic(m)
    else:
        with pytest.raises(NotDcp):
            emit_conic(m)


def test_analysis_runs_once_per_node_on_a_shared_chain(monkeypatch):
    # e = exp(e) + e reaches each exp node along 2^depth paths
    calls = []

    def counted(rule):
        def call(*args):
            calls.append(rule)
            return rule(*args)
        return call

    exp = dataclasses.replace(atoms.exp, sign=counted(atoms.exp.sign),
                              monotonicity=counted(atoms.exp.monotonicity))
    monkeypatch.setattr(atoms, "exp", exp)
    m = DcpModel()
    x = m.variable("x", lb=-1.0, ub=1.0)
    e = x
    for _ in range(16):
        e = atoms.exp(e) + e
    m.minimize(e)
    assert dcp_verify(m).ok
    prog, _ = emit_conic(m)
    assert len(prog.cones.factors) == 18
    assert 16 <= len(calls) <= 32
