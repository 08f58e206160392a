"""Lowering of verified models to mixed-integer conic standard form.

Every atom application becomes its conic graph template over fresh cone
columns, children before parents, so the emitted program is the fully
disaggregated extended formulation implied by the expression DAG.  Affine
subexpressions are inlined into rows, never given auxiliaries, and an
atom of constant arguments inside its domain becomes its value.  The
lowering relies on ``dcp_verify``: in a verified model every convex atom
is reached where its epigraph is exact and every concave one where its
hypograph is, so each node is lowered once, by its graph alone.

Continuous user variables are carried in the z block as shifted
nonnegative columns (or a difference of two when unbounded both ways);
integer user variables get x columns and reach cones only through
equality rows.
"""

import math

import numpy as np

from . import cones
from .errors import DimensionMismatch, NotDcp, UnboundedInteger
from .expr import CONSTANT, AffineCombination, Constant, postorder
from .model import dcp_verify
from .program import LinForm, ProgramBuilder, X_BLOCK, Z_BLOCK


class CompilationMap:
    """Column bookkeeping: user variables, atom blocks, row slacks."""

    def __init__(self):
        self.var_forms = {}
        self.var_columns = {}
        self.x_owner = []
        self.z_owner = []
        self._atom_blocks = {}
        self.num_integer = 0
        self.num_conic = 0

    def atom_block(self, node):
        """(z columns, cone factor indices) backing this atom node."""
        return self._atom_blocks[id(node)][1:]

    def atom_nodes(self):
        return [entry[0] for entry in self._atom_blocks.values()]


def recover_solution(cmap, solution):
    """Project a standard-form point back to user-variable values."""
    solution = np.asarray(solution, dtype=float).ravel()
    if len(solution) != cmap.num_integer + cmap.num_conic:
        raise DimensionMismatch(
            f"expected {cmap.num_integer + cmap.num_conic} components, "
            f"got {len(solution)}"
        )
    x = solution[: cmap.num_integer]
    z = solution[cmap.num_integer:]
    return {name: form.evaluate(x, z) for name, form in cmap.var_forms.items()}


class _Lowering:
    def __init__(self, model):
        self.model = model
        self.builder = ProgramBuilder()
        self.cmap = CompilationMap()
        # id(node) -> LinForm; variables are seeded by declare_variables
        self.memo = {}
        self.mirror = {}

    def declare_variables(self):
        b, cmap = self.builder, self.cmap
        for v in self.model.variables:
            if v.integer:
                if not (math.isfinite(v.lb) and math.isfinite(v.ub)):
                    raise UnboundedInteger(
                        f"integer variable {v.name!r} lacks a finite bound"
                    )
                j = b.integer_column(v.lb, v.ub)
                cmap.x_owner.append(v.name)
                form = b.xcol(j)
                cols = [(X_BLOCK, j)]
            elif math.isfinite(v.lb):
                (w,) = b.cone_cols(cones.NONNEG, 1)
                cmap.z_owner.append(("var", v.name))
                form = b.col(w) + v.lb
                cols = [(Z_BLOCK, w)]
                if math.isfinite(v.ub):
                    (s,) = b.cone_cols(cones.NONNEG, 1)
                    cmap.z_owner.append(("var", v.name))
                    b.zero_row(b.col(w) + b.col(s) - (v.ub - v.lb))
                    cols.append((Z_BLOCK, s))
            elif math.isfinite(v.ub):
                (w,) = b.cone_cols(cones.NONNEG, 1)
                cmap.z_owner.append(("var", v.name))
                form = v.ub - b.col(w)
                cols = [(Z_BLOCK, w)]
            else:
                wp, wm = b.cone_cols(cones.NONNEG, 2)
                cmap.z_owner.append(("var", v.name))
                cmap.z_owner.append(("var", v.name))
                form = b.col(wp) - b.col(wm)
                cols = [(Z_BLOCK, wp), (Z_BLOCK, wm)]
            self.memo[id(v)] = form
            cmap.var_forms[v.name] = form
            cmap.var_columns[v.name] = cols

    def lower(self, e):
        for node in postorder(e, done=self.memo):
            self.memo[id(node)] = self._lower(node)
        return self.memo[id(e)]

    def _lower(self, e):
        if isinstance(e, Constant):
            return LinForm.constant(e.value)
        if isinstance(e, AffineCombination):
            total = LinForm.constant(e.offset)
            for c, child in zip(e.coeffs, e.children):
                total = total + c * self.memo[id(child)]
            return total
        return self._lower_atom(e)

    def _lower_atom(self, e):
        atom = e.atom
        forms = [self.memo[id(arg)] for arg in e.args]
        if e.curvature == CONSTANT and not any(f.terms for f in forms):
            try:
                return LinForm.constant(
                    atom.evaluate([f.offset for f in forms], e.param))
            except (ValueError, OverflowError):
                # outside the atom's domain, where its graph is infeasible,
                # or too large for a float
                pass
        b, cmap = self.builder, self.cmap
        z_start, f_start = b.num_conic, len(b.factors)
        t = atom.graph(b, forms, e.param)
        cols = list(range(z_start, b.num_conic))
        factors = list(range(f_start, len(b.factors)))
        cmap.z_owner.extend(("atom", e.name) for _ in cols)
        cmap._atom_blocks[id(e)] = (e, cols, factors)
        return t

    def objective_form(self, form):
        # the standard form allows only conic columns in the objective, so
        # integer columns are mirrored into shifted nonnegative z columns
        b, cmap = self.builder, self.cmap
        x_terms = form.restricted(X_BLOCK)
        if not x_terms:
            return form
        out = LinForm(
            {k: c for k, c in form.terms.items() if k[0] == Z_BLOCK},
            form.offset,
        )
        for j, coeff in x_terms.items():
            if j not in self.mirror:
                (w,) = b.cone_cols(cones.NONNEG, 1)
                cmap.z_owner.append(("var", cmap.x_owner[j]))
                b.zero_row(b.xcol(j) - b.col(w) - b.x_lb[j])
                self.mirror[j] = b.col(w) + b.x_lb[j]
            out = out + coeff * self.mirror[j]
        return out

    def run(self):
        report = dcp_verify(self.model)
        if not report.ok:
            raise NotDcp("; ".join(report.violations))
        self.declare_variables()
        b, cmap = self.builder, self.cmap
        for i, con in enumerate(self.model.constraints):
            if con.kind == "eq":
                b.zero_row(self.lower(con.expr))
            else:
                u = self.lower(con.expr)
                (s,) = b.cone_cols(cones.NONNEG, 1)
                cmap.z_owner.append(("slack", i))
                b.zero_row(u + b.col(s))
        b.set_objective(self.objective_form(self.lower(self.model.objective)))
        program = b.build()
        cmap.num_integer = program.num_integer
        cmap.num_conic = program.num_conic
        return program, cmap


def emit_conic(model):
    """Compile a verified model to (ConicProgram, CompilationMap)."""
    return _Lowering(model).run()
