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

Floats are written with 17 significant digits so read(write(p)) is exact;
the reader rejects a number that is not finite.
"""

import math

import numpy as np

from . import cones
from .errors import DimensionMismatch, FormatError
from .program import ConicProgram

_SECTIONS = ("VER", "OBJ", "VARX", "VARZ", "AX", "AZ", "B")


def _fmt(value):
    return "%.17g" % float(value)


def _sparse_lines(array):
    """The array's nonzero count, then "index... value" for each nonzero."""
    nonzero = np.argwhere(array)
    return ["%d" % len(nonzero)] + [
        " ".join(["%d" % i for i in index] + [_fmt(array[tuple(index)])])
        for index in nonzero]


def write_conic(program):
    """Render a program in the sectioned text format."""
    lines = ["VER", "1", ""]
    lines += ["OBJ", _fmt(program.obj_offset)] + _sparse_lines(program.c)
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
    lines += ["AX"] + _sparse_lines(program.A_x) + [""]
    lines += ["AZ"] + _sparse_lines(program.A_z) + [""]
    count, *entries = _sparse_lines(program.b)
    lines += ["B", "%d %s" % (program.num_rows, count)] + entries
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.at = 0
        self.section = None

    def fail(self, message):
        raise FormatError(message, section=self.section, line=self.at)

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
                value = kind(part)
            except ValueError:
                self.fail("bad %s entry %r" % (what, part))
            if not math.isfinite(value):
                self.fail("non-finite %s entry %r" % (what, part))
            out.append(value)
        return out


def _read_count(r, what):
    (n,) = r.fields(1, (int,), what)
    if n < 0:
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


def _scatter(r, section, entries, shape):
    """A zero array of the given shape holding each (index..., value) entry;
    an index outside the shape, or listed twice, fails the section."""
    r.section = section
    out = np.zeros(shape)
    seen = set()
    for *index, value in entries:
        index = tuple(index)
        if not all(0 <= i < n for i, n in zip(index, shape)):
            r.fail("index %s outside shape %s" % (index, shape))
        if index in seen:
            r.fail("index %s listed twice" % (index,))
        seen.add(index)
        out[index] = value
    return out


def _assemble(r, data):
    K = cones.ConeProduct(tuple(data["VARZ"]))
    # nx distinct in-range indices cover every integer column
    nx = len(data["VARX"])
    L = _scatter(r, "VARX", [(j, lo) for j, lo, _ in data["VARX"]], (nx,))
    U = _scatter(r, "VARX", [(j, hi) for j, _, hi in data["VARX"]], (nx,))
    if np.any(L > U):
        r.fail("integer column %d has lower > upper"
               % np.flatnonzero(L > U)[0])
    offset, entries = data["OBJ"]
    c = _scatter(r, "OBJ", entries, (K.dim,))
    m, b_entries = data["B"]
    b = _scatter(r, "B", b_entries, (m,))
    A_x = _scatter(r, "AX", data["AX"], (m, nx))
    A_z = _scatter(r, "AZ", data["AZ"], (m, K.dim))
    return ConicProgram(c=c, A_x=A_x, A_z=A_z, b=b, L=L, U=U, cones=K,
                        obj_offset=offset)
