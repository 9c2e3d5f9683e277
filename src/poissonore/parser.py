"""Recursive-descent parser for polynomial expressions over QQ(i).

Grammar, loosest binding first:

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" INT)?
    atom   := INT ("/" INT)? | "i" | NAME | "(" expr ")"

No implicit multiplication; rationals only as integer/integer at the
atom level; exponents are non-negative integer literals.  The renderer
in polycore emits exactly this grammar, so parse and render round-trip.
"""

from __future__ import annotations

from fractions import Fraction

from .polycore import GaussRat, Poly


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*^()/")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    k = 0
    n = len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and src[j].isdigit():
                j += 1
            out.append(("int", src[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("name", src[k:j], k))
            k = j
            continue
        if ch in _OPS:
            out.append(("op", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    out.append(("end", "", n))
    return out


def _is_name(text: str) -> bool:
    """Whether text is exactly one NAME token and not the imaginary unit."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("name", text) and text != "i"


class _Parser:
    def __init__(self, src: str, ring: tuple[str, ...]):
        self.tokens = _tokenize(src)
        self.ring = ring
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", at)

    def expr(self) -> Poly:
        negate = False
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            negate = True
        node = self.term()
        if negate:
            node = -node
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if text == "+" else node - rhs
            else:
                return node

    def term(self) -> Poly:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.take()
                node = node * self.factor()
            else:
                return node

    def factor(self) -> Poly:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            kind, text, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", at)
            node = node ** int(text)
        return node

    def atom(self) -> Poly:
        kind, text, at = self.take()
        if kind == "int":
            num = int(text)
            kind2, _, _ = self.peek()
            if kind2 == "op" and self.peek()[1] == "/":
                self.take()
                kind3, text3, at3 = self.take()
                if kind3 != "int":
                    raise ParseError("denominator must be an integer literal", at3)
                den = int(text3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return Poly.constant(self.ring, Fraction(num, den))
            return Poly.constant(self.ring, num)
        if kind == "name":
            if text == "i":
                return Poly.constant(self.ring, GaussRat(0, 1))
            if text in self.ring:
                return Poly.var(self.ring, text)
            raise ParseError(f"unknown variable {text!r}", at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", at)


def parse_poly(src: str, ring: tuple[str, ...]) -> Poly:
    """Parse src as a polynomial over the given ring."""
    p = _Parser(src, ring)
    node = p.expr()
    kind, text, at = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", at)
    return node
