"""Model container and disciplined-convexity verification."""

from dataclasses import dataclass

from .errors import UnboundedInteger
from .expr import (
    AFFINE,
    CONSTANT,
    CONVEX,
    UNKNOWN,
    AffineCombination,
    Constant,
    Constraint,
    Variable,
    _wrap,
    curvature_of,
    variables_in,
)


class DcpModel:
    """A minimization model over declared scalar variables."""

    def __init__(self):
        self.variables = []
        self.objective = Constant(0.0)
        self.constraints = []

    def variable(self, name=None, integer=False, lb=-float("inf"),
                 ub=float("inf")):
        if name is None:
            name = f"v{len(self.variables)}"
        lb, ub = float(lb), float(ub)
        if integer and not (lb > -float("inf") and ub < float("inf")):
            raise UnboundedInteger(
                f"integer variable {name!r} needs finite lower and upper "
                "bounds"
            )
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        var = Variable(len(self.variables), name, integer=integer,
                       lb=lb, ub=ub)
        self.variables.append(var)
        return var

    def minimize(self, expr):
        self.objective = _wrap(expr)

    def add(self, *constraints):
        for con in constraints:
            if not isinstance(con, Constraint):
                raise TypeError(
                    "add() expects constraints built with <=, >= or =="
                )
            self.constraints.append(con)


@dataclass
class DcpReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def _blame(expr, path):
    """Path and reason for the shallowest node that breaks the rules.

    Descends along the first child whose curvature is unknown until every
    child of the node is known; that node's own rule is the one broken.
    """
    while True:
        label = "term" if isinstance(expr, AffineCombination) else "arg"
        for i, child in enumerate(expr.children):
            if curvature_of(child) == UNKNOWN:
                expr, path = child, f"{path}.{label}[{i}]"
                break
        else:
            break
    if isinstance(expr, AffineCombination):
        return path, "mixes convex and concave terms"
    return path, (
        f"composition through atom {expr.name!r} is not covered by the rules"
    )


def dcp_verify(model):
    """Check the model against the composition rules.

    The report is ok when the objective and every inequality left side is
    convex, affine, or constant, and every equality is affine.  Each
    violation names the offending constraint and the node path inside it.
    """
    violations = []
    declared = set(id(v) for v in model.variables)

    def check(expr, where, allowed, requirement):
        for var in variables_in(expr):
            if id(var) not in declared:
                violations.append(
                    f"{where}: references undeclared variable {var.name!r}"
                )
                return
        curv = curvature_of(expr)
        if curv not in allowed:
            path, reason = (
                _blame(expr, where) if curv == UNKNOWN else (where, "")
            )
            detail = f" ({reason})" if reason else ""
            violations.append(
                f"{where}: expression is {curv} where {requirement} is "
                f"required, at {path}{detail}"
            )

    check(model.objective, "objective", (CONSTANT, AFFINE, CONVEX),
          "convex or affine")
    for i, con in enumerate(model.constraints):
        where = f"constraint[{i}]"
        if con.kind == "ineq":
            check(con.expr, where, (CONSTANT, AFFINE, CONVEX),
                  "convex or affine")
        else:
            check(con.expr, where, (CONSTANT, AFFINE), "affine")
    return DcpReport(not violations, violations)
