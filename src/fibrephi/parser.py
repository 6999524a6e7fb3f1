"""Recursive-descent parser for the polynomial grammar used in setup files.

Grammar (whitespace insensitive)::

    expr    := term (('+' | '-') term)*
    term    := ('-' | '+')* factor ('*' factor)*
    factor  := atom ('^' natural)?
    atom    := rational | name | '(' expr ')'
    rational:= integer ('/' positive-integer)?

Printing a polynomial and parsing it back is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .poly import Polynomial, PolynomialRing

# Resource cap, read per parse: the term products (len(p) * len(q) summed
# over every product, each step of a power included) one parse may form.
# Past it the parse fails with ParseError instead of expanding without bound.
PARSE_MAX_TERM_PRODUCTS = 100_000


class _Token(NamedTuple):
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also accepts '²' and '٣'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolynomialRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.budget = PARSE_MAX_TERM_PRODUCTS

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # beyond Python's limit on int-string conversion
            self.error(f"integer literal of {len(tok.text)} digits is too long", tok)
            raise AssertionError("unreachable")

    def product(self, p: Polynomial, q: Polynomial, op: _Token) -> Polynomial:
        self.budget -= len(p) * len(q)
        if self.budget < 0:
            self.error(f"expansion exceeds {PARSE_MAX_TERM_PRODUCTS} term products", op)
        return p * q

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected trailing {tok.text!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                q = self.term()
                p = p + q if tok.text == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        p = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            op = self.advance()
            p = self.product(p, self.factor(), op)
        return p if sign > 0 else -p

    def factor(self) -> Polynomial:
        p = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.advance()
            tok = self.peek()
            if tok.kind != "num":
                self.error("exponent must be a natural number")
            self.advance()
            # square and multiply, each product charged to the budget
            n, power = self.integer(tok), self.ring.one()
            while n:
                if n & 1:
                    power = self.product(power, p, op)
                n >>= 1
                if n:
                    p = self.product(p, p, op)
            p = power
        return p

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            numerator = self.integer(tok)
            if self.peek().kind == "op" and self.peek().text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "num":
                    self.error("expected integer denominator")
                self.advance()
                den = self.integer(den_tok)
                if den == 0:
                    self.error("zero denominator in rational literal", den_tok)
                return self.ring.constant(Fraction(numerator, den))
            return self.ring.constant(numerator)
        if tok.kind == "name":
            self.advance()
            if tok.text not in self.ring.variables:
                self.error(f"unknown variable {tok.text!r}", tok)
            return self.ring.variable(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            p = self.expr()
            close = self.peek()
            if close.kind != "op" or close.text != ")":
                self.error("expected ')'")
            self.advance()
            return p
        self.error(f"expected a term, found {tok.text or 'end of input'!r}")
        raise AssertionError("unreachable")


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse ``text`` into a canonical polynomial of ``ring``."""
    return _Parser(_tokenize(text), ring).parse()


def parse_polynomial_list(text: str, ring: PolynomialRing) -> list[Polynomial]:
    """Parse a comma-separated list of polynomials."""
    parts = [chunk for chunk in text.split(",")]
    return [parse_polynomial(chunk, ring) for chunk in parts]
