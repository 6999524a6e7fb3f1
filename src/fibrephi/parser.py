"""Recursive-descent parser for the polynomial grammar used in setup files.

Grammar (whitespace insensitive)::

    list    := expr (',' expr)*
    expr    := term (('+' | '-') term)*
    term    := ('-' | '+')* factor ('*' factor)*
    factor  := atom ('^' natural)?
    atom    := rational | name | '(' expr ')'
    rational:= integer ('/' positive-integer)?

Printing a polynomial and parsing it back is the identity.  The arithmetic
runs on term dicts, ``{exponent tuple: Fraction}``, through ``poly``'s sum,
negation and product loops; each finished polynomial is wrapped once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .poly import PolyDict, Polynomial, PolynomialRing, _negated_terms, _product_terms, _sum_terms

# Resource cap, read per polynomial: the term products parsing one polynomial
# may form, summed over every product, each step of a power included.  A term
# counts once per 64-bit word of its coefficient's numerator and denominator,
# so a product of p and q costs _weight(p) * _weight(q): len(p) * len(q) for
# word-sized coefficients, and about the word multiplications for huge ones.
# Past it the parse fails with ParseError instead of expanding without bound.
PARSE_MAX_TERM_PRODUCTS = 100_000


def _weight(p: PolyDict) -> int:
    return sum(
        1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64 for c in p.values()
    )


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
        if ch in "+-*^()/,":
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
        self.constant = (0,) * ring.arity

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

    def product(self, p: PolyDict, q: PolyDict, op: _Token) -> PolyDict:
        self.budget -= _weight(p) * _weight(q)
        if self.budget < 0:
            self.error(f"expansion exceeds {PARSE_MAX_TERM_PRODUCTS} weighted term products", op)
        return _product_terms(p, q)

    def parse(self, many: bool) -> list[Polynomial]:
        """One polynomial, or with ``many`` a comma-separated list, each on its own budget."""
        polys = []
        while True:
            self.budget = PARSE_MAX_TERM_PRODUCTS
            try:
                polys.append(Polynomial._trusted(self.ring, self.expr()))
            except RecursionError:  # reported at the '(' the stack ran out on
                self.error("parentheses nested too deeply")
            tok = self.advance()
            if tok.kind == "end":
                return polys
            if not many or tok.text != ",":
                self.error(f"unexpected trailing {tok.text!r}", tok)

    def expr(self) -> PolyDict:
        p = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                q = self.term()
                p = _sum_terms(p, q if tok.text == "+" else _negated_terms(q))
            else:
                return p

    def term(self) -> PolyDict:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        p = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            op = self.advance()
            p = self.product(p, self.factor(), op)
        return p if sign > 0 else _negated_terms(p)

    def factor(self) -> PolyDict:
        p = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.advance()
            tok = self.peek()
            if tok.kind != "num":
                self.error("exponent must be a natural number")
            self.advance()
            # square and multiply, each product charged to the budget
            n, power = self.integer(tok), {self.constant: Fraction(1)}
            while n:
                if n & 1:
                    power = self.product(power, p, op)
                n >>= 1
                if n:
                    p = self.product(p, p, op)
            p = power
        return p

    def atom(self) -> PolyDict:
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
                value = Fraction(numerator, den)
            else:
                value = Fraction(numerator)
            return {self.constant: value} if value else {}
        if tok.kind == "name":
            self.advance()
            index = self.ring._index.get(tok.text)
            if index is None:
                self.error(f"unknown variable {tok.text!r}", tok)
            exponents = [0] * self.ring.arity
            exponents[index] = 1
            return {tuple(exponents): Fraction(1)}
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
    return _Parser(_tokenize(text), ring).parse(many=False)[0]


def parse_polynomial_list(text: str, ring: PolynomialRing) -> list[Polynomial]:
    """Parse a comma-separated list of polynomials; a ``ParseError`` gives its
    line and column within ``text``."""
    return _Parser(_tokenize(text), ring).parse(many=True)
