"""The atom library: each atom is one record, and calling it applies it.

An ``Atom`` record holds everything the analysis and the compiler ask of
an atom: its curvature, its arity, its per-argument monotonicity
``monotonicity(i, arg_signs)``, its sign ``sign(arg_signs)``, its value
``evaluate(values, param)``, and its conic graph ``graph(builder, forms,
param)``.  ``square(x)`` checks arity and parameter and returns an
application that holds the record itself.  ``make_atom`` applies the atom
that text names; nothing else resolves an atom by its name.

Every atom carries an epigraph template over {NonNeg, SOC, RSOC, EXP, POW}
factors only.  A convex atom's template emits constraints equivalent to
f(args) <= t and returns the affine form t; a concave atom's template is
the hypograph t <= f(args).  Templates introduce fresh cone columns and
pin them to the argument forms with equality rows, so the projection onto
(t, args) is exactly the atom's graph set.
"""

import builtins
import math
from dataclasses import dataclass
from typing import Callable

from . import cones
from .errors import ArityError, UnknownAtomError
from .expr import (
    CONCAVE,
    CONVEX,
    NEGATIVE,
    NO_MONOTONICITY,
    NONDECREASING,
    NONINCREASING,
    POSITIVE,
    UNKNOWN_SIGN,
    AtomApplication,
    _wrap,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Atom:
    """One atom of the library; calling it applies it to arguments."""

    name: str
    curvature: str
    min_arity: int
    max_arity: int  # None for any number of arguments
    monotonicity: Callable
    sign: Callable
    evaluate: Callable
    graph: Callable
    needs_param: bool = False

    def __call__(self, *args, param=None):
        """Apply the atom, checking arity and parameter."""
        args = [_wrap(a) for a in args]
        n = len(args)
        if n < self.min_arity or (self.max_arity is not None
                                  and n > self.max_arity):
            raise ArityError(
                f"atom {self.name!r} does not accept {n} argument(s)"
            )
        if not self.needs_param:
            if param is not None:
                raise ArityError(f"atom {self.name!r} takes no parameter")
        elif param is None or not 1.0 <= float(param) < math.inf:
            raise ArityError(
                f"atom {self.name!r} needs a numeric parameter >= 1"
            )
        return AtomApplication(self, args, param)


def _mono_even(i, arg_signs):
    # |.|-like atoms: direction known only when the argument sign is
    if arg_signs[i] == POSITIVE:
        return NONDECREASING
    if arg_signs[i] == NEGATIVE:
        return NONINCREASING
    return NO_MONOTONICITY


def _mono_nondecreasing(i, arg_signs):
    return NONDECREASING


def _mono_nonincreasing(i, arg_signs):
    return NONINCREASING


def _mono_none(i, arg_signs):
    return NO_MONOTONICITY


def _sign_positive(arg_signs):
    return POSITIVE


def _sign_unknown(arg_signs):
    return UNKNOWN_SIGN


def _sign_max(arg_signs):
    if any(s == POSITIVE for s in arg_signs):
        return POSITIVE
    if all(s == NEGATIVE for s in arg_signs):
        return NEGATIVE
    return UNKNOWN_SIGN


def _eval_entropy(values, param):
    x = values[0]
    if x < 0.0:
        raise ValueError("entropy argument must be nonnegative")
    if x == 0.0:
        return 0.0
    return -x * math.log(x)


def _eval_geo_mean(values, param):
    x, y = values
    if x < 0.0 or y < 0.0:
        raise ValueError("geo_mean arguments must be nonnegative")
    return math.sqrt(x * y)


def _eval_logsumexp(values, param):
    m = builtins.max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _eval_inv_pos(values, param):
    if values[0] <= 0.0:
        raise ValueError("inv_pos argument must be positive")
    return 1.0 / values[0]


def _graph_abs(b, forms, param):
    t, s1, s2 = b.cone_cols(cones.NONNEG, 3)
    b.zero_row(b.col(t) - forms[0] - b.col(s1))
    b.zero_row(b.col(t) + forms[0] - b.col(s2))
    return b.col(t)


def _graph_square(b, forms, param):
    u, v, w = b.cone_cols(cones.RSOC, 3)
    b.zero_row(b.col(u) - 0.5)
    b.zero_row(b.col(w) - forms[0])
    return b.col(v)


def _graph_sumsquares(b, forms, param):
    cols = b.cone_cols(cones.SOC, len(forms) + 2)
    h, tail, g = cols[0], cols[1:-1], cols[-1]
    b.zero_row(b.col(h) - b.col(g) - 1.0)
    for col, f in zip(tail, forms):
        b.zero_row(b.col(col) - f)
    return b.col(h) + b.col(g)


def _graph_norm2(b, forms, param):
    cols = b.cone_cols(cones.SOC, len(forms) + 1)
    for col, f in zip(cols[1:], forms):
        b.zero_row(b.col(col) - f)
    return b.col(cols[0])


def _graph_geo_mean(b, forms, param):
    p, q, w = b.cone_cols(cones.RSOC, 3)
    (s,) = b.cone_cols(cones.NONNEG, 1)
    b.zero_row(b.col(p) - forms[0] / _SQRT2)
    b.zero_row(b.col(q) - forms[1] / _SQRT2)
    return b.col(w) - b.col(s)


def _graph_exp(b, forms, param):
    x, y, z = b.cone_cols(cones.EXP, 3)
    b.zero_row(b.col(x) - forms[0])
    b.zero_row(b.col(y) - 1.0)
    return b.col(z)


def _graph_log(b, forms, param):
    x, y, z = b.cone_cols(cones.EXP, 3)
    b.zero_row(b.col(y) - 1.0)
    b.zero_row(b.col(z) - forms[0])
    return b.col(x)


def _graph_entropy(b, forms, param):
    x, y, z = b.cone_cols(cones.EXP, 3)
    b.zero_row(b.col(y) - forms[0])
    b.zero_row(b.col(z) - 1.0)
    return b.col(x)


def _graph_logsumexp(b, forms, param):
    blocks = [b.cone_cols(cones.EXP, 3) for _ in forms]
    (s,) = b.cone_cols(cones.NONNEG, 1)
    t = forms[0] - b.col(blocks[0][0])
    total = b.col(s) - 1.0
    for i, ((x, y, z), f) in enumerate(zip(blocks, forms)):
        b.zero_row(b.col(y) - 1.0)
        total = total + b.col(z)
        if i > 0:
            b.zero_row(b.col(x) - f + t)
    b.zero_row(total)
    return t


def _graph_pow_rational(b, forms, param):
    if float(param) == 1.0:
        # |x|^1 is abs, and a power cone needs its exponent 1/p below 1
        return _graph_abs(b, forms, param)
    u, v, w = b.cone_cols(cones.POW, 3, alpha=1.0 / float(param))
    b.zero_row(b.col(v) - 1.0)
    b.zero_row(b.col(w) - forms[0])
    return b.col(u)


def _graph_inv_pos(b, forms, param):
    p, q, w = b.cone_cols(cones.RSOC, 3)
    b.zero_row(b.col(p) - forms[0] / _SQRT2)
    b.zero_row(b.col(w) - 1.0)
    return b.col(q) * _SQRT2


def _graph_max(b, forms, param):
    slacks = b.cone_cols(cones.NONNEG, len(forms))
    # anchor t at the first shortest argument, so nested maxes stay sparse
    k = min(range(len(forms)), key=lambda i: len(forms[i].terms))
    t = forms[k] + b.col(slacks[k])
    for i, (s, f) in enumerate(zip(slacks, forms)):
        if i != k:
            b.zero_row(t - f - b.col(s))
    return t


abs = Atom("abs", CONVEX, 1, 1, _mono_even, _sign_positive,
           lambda v, p: builtins.abs(v[0]), _graph_abs)
square = Atom("square", CONVEX, 1, 1, _mono_even, _sign_positive,
              lambda v, p: v[0] * v[0], _graph_square)
sumsquares = Atom("sumsquares", CONVEX, 1, None, _mono_even, _sign_positive,
                  lambda v, p: sum(x * x for x in v), _graph_sumsquares)
norm2 = Atom("norm2", CONVEX, 1, None, _mono_even, _sign_positive,
             lambda v, p: math.sqrt(sum(x * x for x in v)), _graph_norm2)
geo_mean = Atom("geo_mean", CONCAVE, 2, 2, _mono_nondecreasing,
                _sign_positive, _eval_geo_mean, _graph_geo_mean)
exp = Atom("exp", CONVEX, 1, 1, _mono_nondecreasing, _sign_positive,
           lambda v, p: math.exp(v[0]), _graph_exp)
log = Atom("log", CONCAVE, 1, 1, _mono_nondecreasing, _sign_unknown,
           lambda v, p: math.log(v[0]), _graph_log)
entropy = Atom("entropy", CONCAVE, 1, 1, _mono_none, _sign_unknown,
               _eval_entropy, _graph_entropy)
logsumexp = Atom("logsumexp", CONVEX, 1, None, _mono_nondecreasing,
                 _sign_unknown, _eval_logsumexp, _graph_logsumexp)
_pow_rational = Atom("pow_rational", CONVEX, 1, 1, _mono_even,
                     _sign_positive,
                     lambda v, p: builtins.abs(v[0]) ** float(p),
                     _graph_pow_rational, needs_param=True)
inv_pos = Atom("inv_pos", CONVEX, 1, 1, _mono_nonincreasing, _sign_positive,
               _eval_inv_pos, _graph_inv_pos)
max = Atom("max", CONVEX, 1, None, _mono_nondecreasing, _sign_max,
           lambda v, p: builtins.max(v), _graph_max)

ATOMS = {atom.name: atom for atom in (
    abs, square, sumsquares, norm2, geo_mean, exp, log, entropy, logsumexp,
    _pow_rational, inv_pos, max)}


def pow_rational(x, p):
    return _pow_rational(x, param=float(p))


def atom_library():
    """All atoms of the library."""
    return list(ATOMS.values())


def make_atom(name, args, param=None):
    """Apply the atom that text names."""
    atom = ATOMS.get(name)
    if atom is None:
        raise UnknownAtomError(f"unknown atom {name!r}")
    return atom(*args, param=param)
