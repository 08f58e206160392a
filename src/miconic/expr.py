"""Expression trees with disciplined-convexity analysis.

Expressions are immutable scalar trees built from variables, constants,
affine combinations, and atom applications; comparing two builds a
``Constraint``.  An application holds the atom record it applies (see
atoms.py), and curvature is established purely by composition rules over
that record's declared curvature and per-argument monotonicity; no
semantic convexity detection is attempted.
A small sign lattice (positive / negative / unknown), seeded from variable
bounds, refines the monotonicity of even atoms like square and abs.  Each
node computes its sign and curvature once, when it is built, from its
children's, so the analysis costs one step per distinct node.

Every node exposes its operands as ``children``, and every pass over a
model (evaluating, listing variables, lowering, printing) iterates
``postorder``, which visits each distinct node once with an explicit
stack, so a pass takes one step per distinct node at any depth.
"""

import math
import numbers

CONSTANT = "constant"
AFFINE = "affine"
CONVEX = "convex"
CONCAVE = "concave"
UNKNOWN = "unknown"

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"
NO_MONOTONICITY = "none"

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN_SIGN = "unknown"


def _flip(curv):
    if curv == CONVEX:
        return CONCAVE
    if curv == CONCAVE:
        return CONVEX
    return curv


def _sign(nonnegative, nonpositive):
    if nonnegative:
        return POSITIVE
    if nonpositive:
        return NEGATIVE
    return UNKNOWN_SIGN


def _add_curvature(a, b):
    order = {CONSTANT: 0, AFFINE: 1}
    if a in order and b in order:
        return a if order[a] >= order[b] else b
    if a in order:
        return b
    if b in order:
        return a
    if a == b:
        return a
    return UNKNOWN


class Expression:
    """Base node; all arithmetic produces affine combinations."""

    children = ()

    def __add__(self, other):
        return _affine([1.0, 1.0], [self, _wrap(other)], 0.0)

    __radd__ = __add__

    def __sub__(self, other):
        return _affine([1.0, -1.0], [self, _wrap(other)], 0.0)

    def __rsub__(self, other):
        return _affine([-1.0, 1.0], [self, _wrap(other)], 0.0)

    def __neg__(self):
        return _affine([-1.0], [self], 0.0)

    def __mul__(self, other):
        if not isinstance(other, numbers.Real):
            raise TypeError("expressions can only be scaled by constants")
        return _affine([float(other)], [self], 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, numbers.Real):
            raise TypeError("expressions can only be divided by constants")
        return _affine([1.0 / float(other)], [self], 0.0)

    def __le__(self, other):
        return Constraint("ineq", self - _wrap(other))

    def __ge__(self, other):
        return Constraint("ineq", _wrap(other) - self)

    def __eq__(self, other):
        return Constraint("eq", self - _wrap(other))

    __hash__ = object.__hash__


class Constraint:
    """Normalized constraint: expr <= 0 (kind 'ineq') or expr = 0 ('eq')."""

    def __init__(self, kind, expr):
        if kind not in ("ineq", "eq"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        self.kind = kind
        self.expr = expr

    def __bool__(self):
        raise TypeError(
            "a constraint has no truth value; use model.add() to impose it"
        )

    def __repr__(self):
        op = "<=" if self.kind == "ineq" else "=="
        return f"Constraint({self.expr!r} {op} 0)"


def _finite(value, what):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (what, value))
    return value


class Constant(Expression):
    def __init__(self, value):
        self.value = _finite(value, "a constant")
        self.sign = POSITIVE if self.value >= 0.0 else NEGATIVE
        self.curvature = CONSTANT

    def __repr__(self):
        return f"Constant({self.value})"


class Variable(Expression):
    """A declared scalar variable; create through DcpModel.variable()."""

    def __init__(self, index, name, integer=False, lb=-float("inf"),
                 ub=float("inf")):
        self.index = index
        self.name = name
        self.integer = bool(integer)
        self.lb = float(lb)
        self.ub = float(ub)
        self.sign = _sign(self.lb >= 0.0, self.ub <= 0.0)
        self.curvature = AFFINE

    def __repr__(self):
        return f"Variable({self.name!r})"


class AffineCombination(Expression):
    def __init__(self, coeffs, children, offset):
        self.coeffs = tuple(_finite(c, "a coefficient") for c in coeffs)
        self.children = tuple(children)
        self.offset = _finite(offset, "an offset")
        if len(self.coeffs) != len(self.children):
            raise ValueError("coefficient and child counts differ")
        lo_ok = self.offset >= 0.0
        hi_ok = self.offset <= 0.0
        self.curvature = CONSTANT
        for c, child in zip(self.coeffs, self.children):
            if c == 0.0:
                continue
            sign, curv = child.sign, child.curvature
            if c < 0.0:
                sign = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}.get(sign, sign)
                curv = _flip(curv)
            lo_ok = lo_ok and sign == POSITIVE
            hi_ok = hi_ok and sign == NEGATIVE
            self.curvature = _add_curvature(self.curvature, curv)
        self.sign = _sign(lo_ok, hi_ok)

    def __repr__(self):
        return f"AffineCombination({len(self.children)} terms)"


class AtomApplication(Expression):
    """An atom record applied to arguments; build by calling the atom."""

    def __init__(self, atom, args, param=None):
        self.atom = atom
        self.name = atom.name
        self.args = self.children = tuple(args)
        self.param = param
        arg_signs = [a.sign for a in self.args]
        self.sign = atom.sign(arg_signs)
        self.curvature = _compose(atom, self.args, arg_signs)

    def __repr__(self):
        return f"AtomApplication({self.name}, {len(self.args)} args)"


def _wrap(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, numbers.Real):
        return Constant(value)
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def _affine(coeffs, children, offset):
    # flatten nested affine combinations, fold constants into the offset,
    # and merge repeated children so terms like x - x cancel
    merged = {}
    order = []
    todo = list(zip(coeffs, children))[::-1]
    while todo:
        c, child = todo.pop()
        if c == 0.0:
            continue
        if isinstance(child, Constant):
            offset += c * child.value
        elif isinstance(child, AffineCombination):
            offset += c * child.offset
            todo.extend((c * cc, kk) for cc, kk in
                        zip(child.coeffs[::-1], child.children[::-1]))
        else:
            key = id(child)
            if key not in merged:
                merged[key] = [0.0, child]
                order.append(key)
            merged[key][0] += c
    out_c, out_k = [], []
    for key in order:
        c, child = merged[key]
        if c != 0.0:
            out_c.append(c)
            out_k.append(child)
    if not out_k:
        return Constant(offset)
    return AffineCombination(out_c, out_k, offset)


def _compose(atom, args, arg_signs):
    """Curvature of atom(args) provable by the composition rules."""
    arg_curvs = [a.curvature for a in args]
    if all(k == CONSTANT for k in arg_curvs):
        return CONSTANT
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


def sign_of(expr):
    """Sign of the expression over its variables' declared bounds."""
    return expr.sign


def curvature_of(expr):
    """Curvature provable by the composition rules, or unknown."""
    return expr.curvature


def postorder(root, done=()):
    """Each distinct node reachable from root once, children first.

    Nodes come in the order a recursive walk finishes them, children left
    to right.  Nodes are keyed by id, since ``==`` builds a constraint;
    ids in ``done`` are neither returned nor expanded.
    """
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        key = id(node)
        if key in seen or key in done:
            continue
        seen.add(key)
        stack.append((node, True))
        stack.extend((child, False) for child in node.children[::-1])
    return order


def evaluate(expr, values):
    """Evaluate at a point: dict keyed by Variable, or sequence by index."""
    value = {}
    for node in postorder(expr):
        if isinstance(node, Constant):
            v = node.value
        elif isinstance(node, Variable):
            v = float(values[node] if isinstance(values, dict)
                      else values[node.index])
        elif isinstance(node, AffineCombination):
            v = node.offset
            for c, child in zip(node.coeffs, node.children):
                v += c * value[id(child)]
        else:
            v = node.atom.evaluate([value[id(a)] for a in node.args],
                                   node.param)
        value[id(node)] = v
    return value[id(expr)]


def variables_in(expr):
    """All distinct Variable nodes reachable from the expression."""
    return [node for node in postorder(expr) if isinstance(node, Variable)]
