"""Text form of polynomials: sums of coef * t^a * x^b factors.

The grammar admits + - * ^ and parentheses.  Variable names come from the
caller; t is reserved for the coefficient ring and only allowed when the
coefficients live in F_p[t].  Printing produces a string that
parses back to the same polynomial.
"""

from __future__ import annotations

import re

from .multipoly import MultiPoly
from .rings import PolyRing, UniPoly


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", text, pos + (len(text[pos:]) - len(stripped)))
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names, ring):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.nvars = len(names)
        self.index = {n: i for i, n in enumerate(names)}
        if isinstance(ring, PolyRing):
            self.t_poly = MultiPoly.const(ring, self.nvars, UniPoly.gen(ring.base))
        else:
            self.t_poly = None

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)

    def parse(self):
        f = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return f

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        f = self.term()
        if negate:
            f = -f
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                g = self.term()
                f = f - g if val == "-" else f + g
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        f = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, e, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.text, pos)
            f = f ** e
        return f

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return MultiPoly.const(self.ring, self.nvars, val)
        if kind == "name":
            if val == "t":
                if self.t_poly is None:
                    raise ParseError("t is not allowed over a constant field", self.text, pos)
                return self.t_poly
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", self.text, pos)
            return MultiPoly.var(self.ring, self.nvars, self.index[val])
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError("expected a coefficient, variable, or parenthesis", self.text, pos)


def parse_poly(text: str, names, ring) -> MultiPoly:
    """Parse a polynomial in the given variable names over the given ring."""
    if "t" in names:
        raise ValueError("t is reserved for the coefficient ring")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(text, names, ring).parse()


def poly_to_str(f: MultiPoly, names=None) -> str:
    """Canonical text form; round-trips through parse_poly."""
    return f.to_str(names)


def parse_unipoly(text: str, field) -> UniPoly:
    """Parse a polynomial in t alone, e.g. "t^2 - 1", over a prime field."""
    f = _Parser(text, (), PolyRing(field)).parse()
    c = f.constant_coeff()
    return c if isinstance(c, UniPoly) else UniPoly.const(field, c)
