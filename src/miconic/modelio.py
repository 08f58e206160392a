"""Textual model format: prefix-notation parser and printer.

A document is a sequence of items::

    (var NAME [int] [LB UB])
    (min EXPR)
    (le EXPR EXPR)
    (eq EXPR EXPR)

where EXPR is a name, a number, an arithmetic form ``(add e...)``,
``(sub a b)``, ``(mul K e)``, a parametrized power ``(pow P e)``, or an
atom application ``(ATOM e...)`` resolved against the atom library.
A variable bound may be ``inf``/``-inf``, so one-sided bounds survive a
round trip; every number inside an expression must be finite.  ``;``
starts a comment that runs to the end of the line.

The reader keeps an explicit stack of open forms and the printer builds
each distinct node's text once, children first, so documents of any
nesting depth are read and written without recursion.
"""

import math
import re

from . import expr as ex
from .atoms import ATOMS, make_atom, pow_rational
from .errors import ArityError, ModelSyntaxError, UnknownAtomError
from .model import DcpModel

# argument counts (least, most) of the arithmetic forms
_ARITY = {"add": (1, None), "sub": (2, 2), "mul": (1, 1), "pow": (1, 1)}
_LEAD = {"mul": "coefficient", "pow": "exponent"}

# a newline, a comment, blanks, or a token: a parenthesis or a word
_LEXEME = re.compile(
    r"(?P<newline>\n)|;[^\n]*|[ \t\r]+|(?P<token>[()]|[^()\n; \t\r]+)"
)


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        if m.lastgroup == "newline":
            line += 1
            line_start = m.end()
        elif m.lastgroup == "token":
            tokens.append(_Token(m.group(), line, m.start() - line_start + 1))
    return tokens


def _as_number(token):
    try:
        value = float(token.text)
    except ValueError:
        return None
    if value != value:  # reject nan
        return None
    return value


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _fail(self, message, token=None):
        if token is None:
            if self.tokens:
                last = self.tokens[-1]
                raise ModelSyntaxError(message, last.line,
                                       last.col + len(last.text))
            raise ModelSyntaxError(message, 1, 1)
        raise ModelSyntaxError(message, token.line, token.col)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect=None):
        tok = self._peek()
        if tok is None:
            self._fail("unexpected end of input"
                       + (" (expected %r)" % expect if expect else ""))
        self.pos += 1
        if expect is not None and tok.text != expect:
            self._fail("expected %r, found %r" % (expect, tok.text), tok)
        return tok

    def parse(self):
        model = DcpModel()
        names = {}
        have_objective = False
        while self._peek() is not None:
            opener = self._next("(")
            head = self._next()
            if head.text == "(" or head.text == ")":
                self._fail("expected an item keyword", head)
            if head.text == "var":
                self._parse_var(model, names)
            elif head.text == "min":
                if have_objective:
                    self._fail("duplicate objective", head)
                model.minimize(self._parse_expr(names))
                self._next(")")
                have_objective = True
            elif head.text in ("le", "eq"):
                lhs = self._parse_expr(names)
                rhs = self._parse_expr(names)
                self._next(")")
                model.add(lhs <= rhs if head.text == "le" else lhs == rhs)
            else:
                self._fail("unknown item %r (expected var, min, le or eq)"
                           % head.text, head)
        return model

    def _parse_var(self, model, names):
        name_tok = self._next()
        if name_tok.text in "()" or _as_number(name_tok) is not None:
            self._fail("expected a variable name", name_tok)
        if name_tok.text in names:
            self._fail("duplicate variable %r" % name_tok.text, name_tok)
        integer = False
        tok = self._peek()
        if tok is not None and tok.text == "int":
            integer = True
            self._next()
            tok = self._peek()
        lb, ub = -float("inf"), float("inf")
        if tok is not None and tok.text != ")":
            lb = self._parse_number("lower bound")
            ub = self._parse_number("upper bound")
        closer = self._next(")")
        try:
            var = model.variable(name_tok.text, integer=integer, lb=lb,
                                 ub=ub)
        except Exception as err:
            self._fail(str(err), closer)
        names[name_tok.text] = var

    def _parse_number(self, what):
        tok = self._next()
        value = _as_number(tok)
        if value is None:
            self._fail("expected a number for the %s, found %r"
                       % (what, tok.text), tok)
        return value

    def _finite(self, value, tok):
        # inf is a number only as a variable bound; pow_rational rejects
        # a non-finite exponent itself
        if not math.isfinite(value):
            self._fail("expected a finite number, found %r" % tok.text, tok)
        return value

    def _parse_expr(self, names):
        # open forms, innermost last: (head token, leading number, args)
        stack = []
        while True:
            if stack and self._peek() is None:
                self._fail("unclosed '(' for %r" % stack[-1][0].text)
            tok = self._next()
            if tok.text == "(":
                head = self._next()
                if head.text in "()":
                    self._fail("expected an operator or atom name", head)
                lead = None
                if head.text in _LEAD:
                    lead_tok = self._next()
                    lead = _as_number(lead_tok)
                    if lead is None:
                        self._fail("%s needs a leading numeric %s"
                                   % (head.text, _LEAD[head.text]), lead_tok)
                    if head.text == "mul":
                        self._finite(lead, lead_tok)
                elif head.text not in _ARITY and head.text not in ATOMS:
                    raise UnknownAtomError("unknown atom %r" % head.text,
                                           head.line, head.col)
                stack.append((head, lead, []))
                continue
            if tok.text == ")":
                if not stack:
                    self._fail("unexpected ')'", tok)
                node = self._build(*stack.pop())
            else:
                value = _as_number(tok)
                if value is not None:
                    node = ex.Constant(self._finite(value, tok))
                elif tok.text in names:
                    node = names[tok.text]
                else:
                    self._fail("undeclared variable %r" % tok.text, tok)
            if not stack:
                return node
            stack[-1][2].append(node)

    def _build(self, head, lead, args):
        if head.text not in _ARITY:
            try:
                return make_atom(head.text, args)
            except ArityError as err:
                raise ArityError(str(err), head.line, head.col)
        minimum, maximum = _ARITY[head.text]
        if len(args) < minimum or (maximum is not None
                                   and len(args) > maximum):
            raise ArityError(
                "%r takes %s argument(s), got %d"
                % (head.text,
                   ("exactly %d" % minimum) if minimum == maximum
                   else ("at least %d" % minimum),
                   len(args)),
                head.line, head.col,
            )
        try:
            if head.text == "add":
                out = args[0]
                for term in args[1:]:
                    out = out + term
                return out
            if head.text == "sub":
                return args[0] - args[1]
            if head.text == "mul":
                return args[0] * lead
            return pow_rational(args[0], lead)
        except (ArityError, ValueError) as err:
            # ValueError: finite numbers whose sum or product overflows
            self._fail(str(err), head)


def parse_model(text):
    """Parse document text into a model; diagnostics carry line and column."""
    return _Parser(text).parse()


def _format_number(value):
    return "%.17g" % float(value)


def _print_expr(root):
    text = {}
    for node in ex.postorder(root):
        if isinstance(node, ex.Constant):
            out = _format_number(node.value)
        elif isinstance(node, ex.Variable):
            out = node.name
        elif isinstance(node, ex.AffineCombination):
            parts = []
            for coeff, child in zip(node.coeffs, node.children):
                piece = text[id(child)]
                if coeff != 1.0:
                    piece = "(mul %s %s)" % (_format_number(coeff), piece)
                parts.append(piece)
            if node.offset != 0.0:
                parts.append(_format_number(node.offset))
            out = parts[0] if len(parts) == 1 else "(add %s)" % " ".join(parts)
        else:
            args = " ".join(text[id(a)] for a in node.args)
            if node.name == "pow_rational":
                out = "(pow %s %s)" % (_format_number(node.param), args)
            else:
                out = "(%s %s)" % (node.name, args)
        text[id(node)] = out
    return text[id(root)]


def print_model(model):
    """Render a model as document text that parses back to the same model."""
    lines = []
    for var in model.variables:
        bits = ["var", var.name]
        if var.integer:
            bits.append("int")
        if var.lb != -float("inf") or var.ub != float("inf"):
            bits.append(_format_number(var.lb))
            bits.append(_format_number(var.ub))
        lines.append("(%s)" % " ".join(bits))
    lines.append("(min %s)" % _print_expr(model.objective))
    for con in model.constraints:
        op = "le" if con.kind == "ineq" else "eq"
        lines.append("(%s %s 0)" % (op, _print_expr(con.expr)))
    return "\n".join(lines) + "\n"
