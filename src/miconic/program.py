"""Mixed-integer conic standard form and its incremental builder.

The standard form is

    min  c.z + obj_offset
    s.t. A_x x + A_z z = b
         L <= x <= U,  x integer
         z in K (a product of cone factors)

Integer variables live only in the x block and touch cones only through
equality rows.  The builder accumulates columns, cone factors, and rows;
affine forms (LinForm) reference columns in either block and are the
currency between the compiler and the atom graph templates.
"""

from dataclasses import dataclass

import numpy as np

from . import cones

X_BLOCK = "x"
Z_BLOCK = "z"


class LinForm:
    """Affine form over program columns: sum coeff * col + offset."""

    __slots__ = ("terms", "offset")

    def __init__(self, terms=None, offset=0.0):
        self.terms = dict(terms) if terms else {}
        self.offset = float(offset)

    @staticmethod
    def constant(value):
        return LinForm({}, value)

    @staticmethod
    def column(block, index):
        return LinForm({(block, index): 1.0}, 0.0)

    def _combine(self, other, sign):
        out = LinForm(self.terms, self.offset)
        if isinstance(other, LinForm):
            for key, c in other.terms.items():
                out.terms[key] = out.terms.get(key, 0.0) + sign * c
                if out.terms[key] == 0.0:
                    del out.terms[key]
            out.offset += sign * other.offset
        else:
            out.offset += sign * float(other)
        return out

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return (-self)._combine(other, 1.0)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, scalar):
        s = float(scalar)
        if s == 0.0:
            return LinForm()
        return LinForm({k: s * c for k, c in self.terms.items()},
                       s * self.offset)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def restricted(self, block):
        """Coefficients over one block as {index: coeff}."""
        return {j: c for (bl, j), c in self.terms.items() if bl == block}

    def evaluate(self, x, z):
        total = self.offset
        for (bl, j), c in self.terms.items():
            total += c * (x[j] if bl == X_BLOCK else z[j])
        return total


@dataclass
class ConicProgram:
    """MICONE instance; obj_offset is a constant added to c.z."""

    c: np.ndarray
    A_x: np.ndarray
    A_z: np.ndarray
    b: np.ndarray
    L: np.ndarray
    U: np.ndarray
    cones: cones.ConeProduct
    obj_offset: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.L = np.asarray(self.L, dtype=float).ravel()
        self.U = np.asarray(self.U, dtype=float).ravel()
        m = len(self.b)
        self.A_x = np.asarray(self.A_x, dtype=float).reshape(m, len(self.L))
        self.A_z = np.asarray(self.A_z, dtype=float).reshape(m, len(self.c))
        if self.cones.dim != len(self.c):
            raise ValueError("cone product does not cover the z block")
        for f in self.cones.factors:
            if f.kind not in cones.PRIMAL_KINDS:
                # dual families have no barrier and no tangent cuts
                raise ValueError("cone kind %r is not a primal kind" % f.kind)
        if len(self.U) != len(self.L):
            raise ValueError("integer bound vectors differ in length")

    @property
    def num_rows(self):
        return len(self.b)

    @property
    def num_integer(self):
        return len(self.L)

    @property
    def num_conic(self):
        return len(self.c)


class ProgramBuilder:
    """Accumulates integer columns, cone factors, and equality rows."""

    def __init__(self):
        self.x_lb = []
        self.x_ub = []
        self.factors = []
        self._z_dim = 0
        self._rows = []
        self._objective = LinForm()

    @property
    def num_conic(self):
        return self._z_dim

    def integer_column(self, lb, ub):
        self.x_lb.append(float(lb))
        self.x_ub.append(float(ub))
        return len(self.x_lb) - 1

    def cone_cols(self, kind, dim, alpha=None):
        """Append a fresh cone factor; returns its new z column indices."""
        self.factors.append(cones.Cone(kind, dim, alpha=alpha))
        cols = list(range(self._z_dim, self._z_dim + dim))
        self._z_dim += dim
        return cols

    def col(self, j):
        return LinForm.column(Z_BLOCK, j)

    def xcol(self, j):
        return LinForm.column(X_BLOCK, j)

    def zero_row(self, form):
        """Impose form == 0 as an equality row."""
        self._rows.append(LinForm(form.terms, form.offset))
        return len(self._rows) - 1

    def set_objective(self, form):
        if form.restricted(X_BLOCK):
            raise ValueError("objective must be over conic columns only")
        self._objective = LinForm(form.terms, form.offset)

    def build(self):
        m = len(self._rows)
        n_x, n_z = len(self.x_lb), self._z_dim
        A_x = np.zeros((m, n_x))
        A_z = np.zeros((m, n_z))
        b = np.zeros(m)
        for i, row in enumerate(self._rows):
            b[i] = -row.offset
            for (bl, j), coeff in row.terms.items():
                if bl == X_BLOCK:
                    A_x[i, j] += coeff
                else:
                    A_z[i, j] += coeff
        c = np.zeros(n_z)
        for j, coeff in self._objective.restricted(Z_BLOCK).items():
            c[j] = coeff
        return ConicProgram(
            c=c, A_x=A_x, A_z=A_z, b=b,
            L=np.array(self.x_lb, dtype=float),
            U=np.array(self.x_ub, dtype=float),
            cones=cones.ConeProduct(tuple(self.factors)),
            obj_offset=self._objective.offset,
        )
