"""Exact sparse multivariate polynomials over the rationals.

A ring splits its variables into a target block (the ``y`` variables of the
projection target) followed by a source block (the ``x`` variables of the
fibre directions).  Polynomials are immutable maps from exponent tuples to
nonzero ``Fraction`` coefficients; equality is structural and all arithmetic
is exact.  Floating point never enters: every downstream verdict is an exact
claim about a variety.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import FibrephiError, RingMismatchError, ZeroPolynomialError
from .orders import GREVLEX, Monomial, monomial_mul

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

Scalar = Fraction | int
PolyDict = dict[Monomial, Fraction]


def _exact(c: Scalar) -> Fraction:
    """``c`` as a Fraction; a float, a string or any other type is refused."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise FibrephiError(f"{c!r} is not an int or Fraction")


def _integral(c: Scalar) -> Scalar:
    """``c`` as an int when it is integral, so its powers and products with
    other integers are integer operations.  An int comes back as it is, and
    any other value goes through ``_exact``, which refuses a float or a string."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    return c if type(c) is int else _integral(_exact(c))


def _sum_terms(a: PolyDict, b: PolyDict) -> PolyDict:
    """The terms of a + b in a new dict, zero sums dropped: the package's one
    sum loop, run by ``Polynomial.__add__``, the parser and S-polynomials."""
    out = dict(a)
    for mono, coeff in b.items():
        c = out.get(mono)
        if c is None:
            out[mono] = coeff
        else:
            c += coeff
            if c:
                out[mono] = c
            else:
                del out[mono]
    return out


def _product_terms(a: PolyDict, b: PolyDict) -> PolyDict:
    """The terms of a * b in a new dict, zero sums dropped: the package's one
    product loop, run by ``Polynomial.__mul__``, the parser and the
    saturation certificate."""
    out: PolyDict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = monomial_mul(ma, mb)
            c = out.get(m)
            out[m] = ca * cb if c is None else c + ca * cb
    return {m: c for m, c in out.items() if c}


def _negated_terms(a: PolyDict) -> PolyDict:
    """The terms of -a in a new dict, run by ``Polynomial.__neg__`` and by the parser."""
    return {m: -c for m, c in a.items()}


def _monic_terms(terms: PolyDict, key) -> tuple[Monomial, PolyDict]:
    """The leading monomial of nonzero ``terms`` under ``key``, and the terms
    scaled so its coefficient is 1 (``terms`` itself when it already is): the
    package's one normalizing loop, run by ``Polynomial.monic`` and by the
    Groebner kernel."""
    lm = max(terms, key=key)
    lc = terms[lm]
    if lc != 1:
        terms = {m: c / lc for m, c in terms.items()}
    return lm, terms


class PolynomialRing:
    """An ordered tuple of variable names split into target and source blocks.

    Rings are immutable; two rings are equal iff they carry the same names in
    the same blocks.
    """

    __slots__ = ("target_vars", "source_vars", "variables", "_index")

    def __init__(self, target_vars: Sequence[str], source_vars: Sequence[str]):
        target = tuple(target_vars)
        source = tuple(source_vars)
        names = target + source
        if not names:
            raise FibrephiError("a ring needs at least one variable")
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise FibrephiError(f"invalid variable name {name!r}")
            if name in seen:
                raise FibrephiError(f"duplicate variable name {name!r}")
            seen.add(name)
        object.__setattr__(self, "target_vars", target)
        object.__setattr__(self, "source_vars", source)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialRing is immutable")

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def split(self) -> int:
        """Index of the first source variable."""
        return len(self.target_vars)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise FibrephiError(f"unknown variable {name!r}") from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, PolynomialRing)
            and self.target_vars == other.target_vars
            and self.source_vars == other.source_vars
        )

    def __hash__(self) -> int:
        return hash((self.target_vars, self.source_vars))

    def __repr__(self) -> str:
        return f"PolynomialRing({list(self.target_vars)} | {list(self.source_vars)})"

    # -- derived rings -------------------------------------------------

    def extend(self, names: Sequence[str]) -> "PolynomialRing":
        """Append auxiliary variables to the source block."""
        return PolynomialRing(self.target_vars, self.source_vars + tuple(names))

    def target_ring(self) -> "PolynomialRing":
        if not self.target_vars:
            raise FibrephiError("ring has no target block")
        return PolynomialRing(self.target_vars, ())

    def source_ring(self) -> "PolynomialRing":
        if not self.source_vars:
            raise FibrephiError("ring has no source block")
        return PolynomialRing((), self.source_vars)

    def fresh_name(self, base: str) -> str:
        name = base
        while name in self._index:
            name += "_"
        return name

    # -- element constructors ------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Scalar) -> "Polynomial":
        c = _exact(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.arity: c})

    def variable(self, name: str) -> "Polynomial":
        exp = [0] * self.arity
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        arity = ring.arity
        for mono, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            if len(mono) != arity:
                raise FibrephiError(f"exponent tuple {mono} has wrong arity for {ring!r}")
            if set(map(type, mono)) != {int}:
                raise FibrephiError(f"non-integer exponent in {mono}")
            if min(mono) < 0:
                raise FibrephiError(f"negative exponent in {mono}")
            clean[tuple(mono)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, ring: PolynomialRing, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap ``terms`` without checking or copying it.

        For terms built from already validated polynomials: Groebner-engine
        output and the results of arithmetic, substitution and transport,
        and the parser's results, whose literals and variables it builds to
        this contract.
        ``terms`` must hold tuple exponents of the ring's arity, none
        negative, nonzero ``Fraction`` coefficients, and must never be mutated
        afterwards, so the element may share it.  Values from outside (a
        scalar factor, a substituted value, a constant) still pass through
        ``_exact`` first.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted descending under grevlex."""
        return sorted(self._terms.items(), key=lambda t: GREVLEX.key(t[0]), reverse=True)

    def monomials(self) -> Iterable[Monomial]:
        return self._terms.keys()

    def as_dict(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def variables_used(self) -> set[str]:
        used: set[int] = set()
        for mono in self._terms:
            used.update(i for i, e in enumerate(mono) if e)
        return {self.ring.variables[i] for i in used}

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        # over the monomials only: equal polynomials have equal monomial sets,
        # and no coefficient is hashed
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms)))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        return Polynomial._trusted(self.ring, _sum_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ring, _negated_terms(self._terms))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self.ring.constant(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        return Polynomial._trusted(self.ring, _product_terms(self._terms, other._terms))

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _exact(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial._trusted(self.ring, {m: c * co for m, co in self._terms.items()})

    def monic(self) -> "Polynomial":
        """This polynomial scaled so its grevlex-leading coefficient is 1."""
        if not self._terms:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        _, terms = _monic_terms(self._terms, GREVLEX.key)
        return self if terms is self._terms else Polynomial._trusted(self.ring, terms)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def _format_coefficient(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(ring: PolynomialRing, mono: Monomial) -> str:
    factors = []
    for name, e in zip(ring.variables, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms sorted descending under grevlex."""
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for mono, coeff in p.terms():
        mono_s = _format_monomial(p.ring, mono)
        mag = abs(coeff)
        if not mono_s:
            body = _format_coefficient(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{_format_coefficient(mag)}*{mono_s}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def transport(p: Polynomial, ring: PolynomialRing) -> Polynomial:
    """Re-express ``p`` in another ring, each variable under its own name.

    Every variable actually used must be a variable of the new ring;
    dropping a used variable is an error.  ``p`` in its own ring is returned
    as it is.
    """
    if ring == p.ring:
        return p
    column = [ring._index.get(name) for name in p.ring.variables]
    return _ring_map([p], ring, column, {})[0]


def _ring_map(
    polys: Iterable[Polynomial],
    ring: PolynomialRing,
    column: Sequence[int | None],
    values: Mapping[int, Scalar],
) -> list[Polynomial]:
    """Each of ``polys`` under one ring map into ``ring``, in one pass over its terms.

    The polynomials share a ring.  Its variable i goes to the value
    ``values[i]`` when there is one, else to the variable ``column[i]`` of
    ``ring``; a term that uses a variable with neither is an error.  Exponents
    that meet in one variable add, and terms that meet in one monomial are
    summed, zero sums dropped.  Every value passes through ``_integral``, so an
    integral one is an int, a term's factor from the values is an integer
    product that meets its coefficient once, and every stored
    coefficient is a ``Fraction``.  Each value's table of powers serves all
    of ``polys``; with no values there is none.  A term that sends no
    variable to ``ring`` builds no exponent list: it lands on the constant
    monomial.  A point check sends every variable to a value; each image is
    then a constant, zero exactly where its polynomial vanishes.
    """
    tables = {i: (_integral(v), {}) for i, v in values.items()} if values else {}
    arity = ring.arity
    constant = (0,) * arity
    result = []
    for p in polys:
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in p._terms.items():
            factor = 1
            new = None
            for i, e in enumerate(mono):
                if not e:
                    continue
                sub = tables.get(i)
                if sub is not None:
                    v, table = sub
                    ve = table.get(e)
                    if ve is None:
                        ve = table[e] = v**e
                    factor *= ve
                    continue
                j = column[i]
                if j is None:
                    raise FibrephiError(
                        f"variable {p.ring.variables[i]!r} cannot be transported to {ring!r}"
                    )
                if new is None:
                    new = [0] * arity
                new[j] += e
            if not factor:
                continue
            key = constant if new is None else tuple(new)
            c = coeff if factor == 1 else coeff * factor
            total = out.get(key)
            if total is None:
                out[key] = c
            else:
                total += c
                if total:
                    out[key] = total
                else:
                    del out[key]
        result.append(Polynomial._trusted(ring, out))
    return result
