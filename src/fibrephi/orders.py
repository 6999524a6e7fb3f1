"""Monomial orders: lexicographic, graded reverse lexicographic, and block orders.

A monomial is an exponent tuple, one natural number per ring variable.  Every
order exposes a ``key`` function mapping a monomial to a tuple that compares
the same way under Python's ordering, so ``max``/``sorted`` work directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, neg, sub

Monomial = tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial ``a`` divides ``b``."""
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient ``a / b``; caller must ensure ``b`` divides ``a``."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def monomial_gcd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(min, a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """Base class; subclasses implement ``key``."""

    def key(self, m: Monomial):
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    """Pure lexicographic order; earlier variables dominate."""

    def key(self, m: Monomial):
        return m


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order.

    Higher total degree wins; ties go to the monomial with the smaller
    exponent in the last variable where they differ.
    """

    def key(self, m: Monomial):
        return (sum(m), tuple(map(neg, reversed(m))))


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Elimination order with boundary at ``split``.

    Variables at positions ``split`` and above form the dominant block and
    get eliminated; a Groebner basis element whose leading monomial avoids
    them avoids them everywhere.  Both blocks are compared with grevlex.
    Saturation and intersection are eliminations of an ideal extended by one
    auxiliary variable, so this is the only elimination order needed.
    """

    split: int

    def key(self, m: Monomial):
        return (GREVLEX.key(m[self.split:]), GREVLEX.key(m[: self.split]))


LEX = Lex()
GREVLEX = GrevLex()
