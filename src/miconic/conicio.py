"""Textual standard-form instance format (sectioned, triplet matrices).

A file is a sequence of sections, each a header line followed by counted
entry lines; ``#`` starts a comment and blank lines separate sections::

    VER            format version, must be 1
    OBJ            objective offset, then sparse entries of c as "j value"
    VARX           integer columns as "j lower upper"
    VARZ           cone factors as "kind dim [parameter]"
    AX             triplets "row col value"
    AZ             triplets "row col value"
    B              row count and sparse entries "i value"

Floats are written with 17 significant digits so read(write(p)) is exact.
"""

import numpy as np

from . import cones
from .errors import DimensionMismatch, FormatError
from .program import ConicProgram

_SECTIONS = ("VER", "OBJ", "VARX", "VARZ", "AX", "AZ", "B")


def _fmt(value):
    return "%.17g" % float(value)


def _triplet_lines(matrix):
    rows, cols = np.nonzero(matrix)
    out = ["%d" % len(rows)]
    for i, j in zip(rows, cols):
        out.append("%d %d %s" % (i, j, _fmt(matrix[i, j])))
    return out


def write_conic(program):
    """Render a program in the sectioned text format."""
    lines = ["VER", "1", ""]
    lines += ["OBJ", _fmt(program.obj_offset)]
    nz_c = np.nonzero(program.c)[0]
    lines.append("%d" % len(nz_c))
    lines += ["%d %s" % (j, _fmt(program.c[j])) for j in nz_c]
    lines.append("")
    lines += ["VARX", "%d" % program.num_integer]
    lines += ["%d %s %s" % (j, _fmt(program.L[j]), _fmt(program.U[j]))
              for j in range(program.num_integer)]
    lines.append("")
    lines += ["VARZ", "%d" % len(program.cones.factors)]
    for f in program.cones.factors:
        if f.alpha is not None:
            lines.append("%s %d %s" % (f.kind, f.dim, _fmt(f.alpha)))
        else:
            lines.append("%s %d" % (f.kind, f.dim))
    lines.append("")
    lines += ["AX"] + _triplet_lines(program.A_x) + [""]
    lines += ["AZ"] + _triplet_lines(program.A_z) + [""]
    nz_b = np.nonzero(program.b)[0]
    lines += ["B", "%d %d" % (program.num_rows, len(nz_b))]
    lines += ["%d %s" % (i, _fmt(program.b[i])) for i in nz_b]
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.at = 0
        self.section = None

    def fail(self, message, line=None):
        raise FormatError(message, section=self.section,
                          line=self.at if line is None else line)

    def next_line(self):
        while self.at < len(self.lines):
            raw = self.lines[self.at]
            self.at += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                return body
        return None

    def fields(self, count, kinds, what):
        line = self.next_line()
        if line is None:
            self.fail("unexpected end of file while reading %s" % what)
        parts = line.split()
        if len(parts) != count:
            self.fail("expected %d field(s) for %s, found %d"
                      % (count, what, len(parts)))
        out = []
        for part, kind in zip(parts, kinds):
            try:
                out.append(kind(part))
            except ValueError:
                self.fail("bad %s entry %r" % (what, part))
        return out


def _read_count(r, what, minimum=0):
    (n,) = r.fields(1, (int,), what)
    if n < minimum:
        r.fail("negative count for %s" % what)
    return n


def read_conic(text):
    """Parse the sectioned text format into a program."""
    r = _Reader(text)
    seen = set()
    data = {}
    while True:
        header = r.next_line()
        if header is None:
            break
        r.section = header
        if header not in _SECTIONS:
            r.fail("unknown section %r" % header)
        if header in seen:
            r.fail("duplicate section %r" % header)
        seen.add(header)
        if header == "VER":
            (version,) = r.fields(1, (int,), "version")
            if version != 1:
                r.fail("unsupported version %d" % version)
        elif header == "OBJ":
            (offset,) = r.fields(1, (float,), "objective offset")
            entries = [r.fields(2, (int, float), "objective entry")
                       for _ in range(_read_count(r, "objective entries"))]
            data["OBJ"] = (offset, entries)
        elif header == "VARX":
            data["VARX"] = [
                r.fields(3, (int, float, float), "integer column")
                for _ in range(_read_count(r, "integer columns"))
            ]
        elif header == "VARZ":
            factors = []
            for _ in range(_read_count(r, "cone factors")):
                line = r.next_line()
                if line is None:
                    r.fail("unexpected end of file in cone list")
                parts = line.split()
                if len(parts) not in (2, 3):
                    r.fail("cone lines are 'kind dim [parameter]'")
                if parts[0] not in cones.PRIMAL_KINDS:
                    r.fail("unknown cone kind %r" % parts[0])
                try:
                    param = float(parts[2]) if len(parts) == 3 else None
                    factors.append(cones.Cone(parts[0], int(parts[1]), param))
                except (DimensionMismatch, ValueError) as err:
                    r.fail("bad cone line %r: %s" % (line, err))
            data["VARZ"] = factors
        elif header in ("AX", "AZ"):
            data[header] = [
                r.fields(3, (int, int, float), "matrix triplet")
                for _ in range(_read_count(r, "matrix triplets"))
            ]
        elif header == "B":
            m, k = r.fields(2, (int, int), "row counts")
            if m < 0 or k < 0:
                r.fail("negative count in B header")
            data["B"] = (m, [r.fields(2, (int, float), "rhs entry")
                             for _ in range(k)])
    for name in _SECTIONS:
        if name not in seen:
            raise FormatError("missing section", section=name,
                              line=len(r.lines))
    return _assemble(r, data)


def _assemble(r, data):
    K = cones.ConeProduct(tuple(data["VARZ"]))
    nz = K.dim

    r.section = "VARX"
    nx = len(data["VARX"])
    L = np.empty(nx)
    U = np.empty(nx)
    seen_cols = set()
    for j, lo, hi in data["VARX"]:
        if not 0 <= j < nx:
            r.fail("integer column %d out of range" % j)
        if j in seen_cols:
            r.fail("integer column %d listed twice" % j)
        seen_cols.add(j)
        if lo > hi:
            r.fail("integer column %d has lower > upper" % j)
        L[j], U[j] = lo, hi

    r.section = "OBJ"
    offset, entries = data["OBJ"]
    c = np.zeros(nz)
    seen_cols = set()
    for j, value in entries:
        if not 0 <= j < nz:
            r.fail("objective entry %d out of range (z has %d columns)"
                   % (j, nz))
        if j in seen_cols:
            r.fail("objective entry %d listed twice" % j)
        seen_cols.add(j)
        c[j] = value

    r.section = "B"
    m, b_entries = data["B"]
    b = np.zeros(m)
    seen_rows = set()
    for i, value in b_entries:
        if not 0 <= i < m:
            r.fail("rhs entry %d out of range (%d rows)" % (i, m))
        if i in seen_rows:
            r.fail("rhs entry %d listed twice" % i)
        seen_rows.add(i)
        b[i] = value

    def matrix(name, ncols):
        r.section = name
        out = np.zeros((m, ncols))
        seen_cells = set()
        for i, j, value in data[name]:
            if not 0 <= i < m or not 0 <= j < ncols:
                r.fail("triplet (%d, %d) out of range for a %d-by-%d matrix"
                       % (i, j, m, ncols))
            if (i, j) in seen_cells:
                r.fail("triplet (%d, %d) listed twice" % (i, j))
            seen_cells.add((i, j))
            out[i, j] = value
        return out

    A_x = matrix("AX", nx)
    A_z = matrix("AZ", nz)
    return ConicProgram(c=c, A_x=A_x, A_z=A_z, b=b, L=L, U=U, cones=K,
                        obj_offset=offset)
