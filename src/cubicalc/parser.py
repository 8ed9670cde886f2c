"""Recursive-descent parser for polynomial map definitions.

Grammar (whitespace insignificant, UTF-8):

    def      := ident "(" ident ("," ident)* ")" "=" vec
    vec      := expr | "(" expr ("," expr)* ")"
    expr     := ("+"|"-")? term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" nat)?
    base     := rational | ident | "(" expr ")"
    rational := int ("/" nat)?

Division is only allowed inside rational literals; anything else is rejected
as non-polynomial.  Exponents above MAX_EXPONENT are rejected before any power
is built.
"""
from __future__ import annotations

from dataclasses import dataclass

from .polymap import Poly, PolyMap
from .rings import QQ, Ring


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass
class _Tok:
    kind: str  # ident | num | op | end
    text: str
    line: int
    col: int


_OPS = set("()+-*/^=,")
MAX_EXPONENT = 64


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(_Tok("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.toks = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.params: list[str] = []

    # -- token helpers -------------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- grammar -------------------------------------------------------------

    def parse_def(self) -> PolyMap:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a function name")
        self.next()
        self.expect_op("(")
        self.params = [self._param()]
        while self.peek().text == ",":
            self.next()
            self.params.append(self._param())
        self.expect_op(")")
        self.expect_op("=")
        comps = self.parse_vec()
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.text!r}", end.line, end.col)
        return PolyMap(self.ring, tuple(self.params), tuple(comps))

    def _param(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a parameter name")
        if t.text in self.params:
            raise ParseError(f"duplicate parameter {t.text!r}", t.line, t.col)
        return self.next().text

    def parse_vec(self) -> list[Poly]:
        # "(" could open a tuple or a parenthesised expression: try the tuple
        # reading and fall back when it does not cover the whole input.
        if self.peek().text == "(":
            mark = self.pos
            try:
                self.next()
                comps = [self.parse_expr()]
                while self.peek().text == ",":
                    self.next()
                    comps.append(self.parse_expr())
                self.expect_op(")")
                if self.peek().kind == "end":
                    return comps
            except ParseError:
                pass
            self.pos = mark
        return [self.parse_expr()]

    def parse_expr(self) -> Poly:
        sign = 1
        if self.peek().text in ("+", "-"):
            sign = -1 if self.next().text == "-" else 1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            t = self.peek()
            if t.text == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif t.text == "/":
                raise ParseError(
                    "non-polynomial construct: division is only allowed in "
                    "rational literals like 3/2", t.line, t.col)
            else:
                return acc

    def parse_factor(self) -> Poly:
        base = self.parse_base()
        if self.peek().text == "^":
            self.next()
            t = self.peek()
            if t.kind != "num":
                self.fail("expected a natural number exponent")
            # compare digits first: int() refuses literals over 4300 digits
            digits = t.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent {t.text} exceeds the maximum "
                                 f"{MAX_EXPONENT}", t.line, t.col)
            self.next()
            base = base ** int(digits)
        return base

    def parse_base(self) -> Poly:
        n = len(self.params)
        t = self.peek()
        if t.text == "-":
            self.next()
            return -self.parse_base()
        if t.kind == "num":
            self.next()
            num = int(t.text)
            if self.peek().text == "/":
                self.next()
                d = self.peek()
                if d.kind != "num":
                    raise ParseError(
                        "non-polynomial construct: division by a non-literal",
                        d.line, d.col)
                self.next()
                if int(d.text) == 0:
                    raise ParseError("division by zero", d.line, d.col)
                c = self.ring.parse(f"{num}/{d.text}") if self.ring is QQ else \
                    self.ring.mul(self.ring.from_int(num),
                                  self.ring.inv(self.ring.from_int(int(d.text))))
                return Poly.const(self.ring, n, c)
            return Poly.const(self.ring, n, self.ring.from_int(num))
        if t.kind == "ident":
            self.next()
            if t.text not in self.params:
                raise ParseError(f"unknown identifier {t.text!r}", t.line, t.col)
            return Poly.var(self.ring, n, self.params.index(t.text))
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect_op(")")
            return e
        self.fail(f"expected a value, found {t.text or 'end of input'!r}")


def parse(text: str, ring: Ring = QQ) -> PolyMap:
    """Parse a definition like "f(x,y) = (x*y, x^2 + 3/2*y)" into a PolyMap."""
    return _Parser(text, ring).parse_def()
