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


def _exact(c: Scalar) -> Fraction:
    """``c`` as a Fraction; a float, a string or any other type is refused."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise FibrephiError(f"{c!r} is not an int or Fraction")


def _integral(c: Fraction) -> Scalar:
    """``c`` as an int when it is integral, so its powers and products with
    other integers are integer operations."""
    return c.numerator if c.denominator == 1 else c


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
        output and the results of arithmetic, substitution and transport.
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

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self._terms:
            return -1
        return max(m[i] for m in self._terms)

    def variables_used(self) -> set[str]:
        used: set[int] = set()
        for mono in self._terms:
            used.update(i for i, e in enumerate(mono) if e)
        return {self.ring.variables[i] for i in used}

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise FibrephiError("polynomial is not constant")
        return next(iter(self._terms.values()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
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
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono)
            if c is None:
                out[mono] = coeff
            else:
                c += coeff
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return Polynomial._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ring, {m: -c for m, c in self._terms.items()})

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
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = monomial_mul(ma, mb)
                c = out.get(m)
                out[m] = ca * cb if c is None else c + ca * cb
        return Polynomial._trusted(self.ring, {m: c for m, c in out.items() if c})

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _exact(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial._trusted(self.ring, {m: c * co for m, co in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if isinstance(n, bool) or not isinstance(n, int):
            raise FibrephiError(f"exponent of a polynomial must be an int, got {n!r}")
        if n < 0:
            raise FibrephiError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def monic(self) -> "Polynomial":
        """This polynomial scaled so its grevlex-leading coefficient is 1."""
        if not self._terms:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        lc = self._terms[max(self._terms, key=GREVLEX.key)]
        if lc == 1:
            return self
        return self.scale(Fraction(1) / lc)

    # -- substitution --------------------------------------------------------

    def specialize(self, assignment: Mapping[str, Scalar]) -> "Polynomial":
        """Substitute values for some variables; stays in the same ring.

        Integral values stay ints, so each term's factor from them is an
        integer product; it meets the term's coefficient once, and every
        stored coefficient is a ``Fraction``.
        """
        if not assignment:
            return self
        idx = {self.ring.index(name): _integral(_exact(v)) for name, v in assignment.items()}
        powers: dict[tuple[int, int], Scalar] = {}
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            factor = 1
            new = None
            for i, v in idx.items():
                e = mono[i]
                if e:
                    ve = powers.get((i, e))
                    if ve is None:
                        ve = powers[i, e] = v**e
                    factor *= ve
                    if new is None:
                        new = list(mono)
                    new[i] = 0
            if new is None:
                key, c = mono, coeff
            elif factor:
                key, c = tuple(new), coeff * factor
            else:
                continue
            total = out.get(key)
            if total is None:
                out[key] = c
            else:
                total += c
                if total:
                    out[key] = total
                else:
                    del out[key]
        return Polynomial._trusted(self.ring, out)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation to a rational number, in one pass over the terms.

        Every assigned name must be a ring variable and every value an int or
        Fraction; every variable the polynomial uses must be assigned.
        Integral values and coefficients are summed as ints, and the
        ``Fraction`` is built once, from the total.
        """
        values: list[Scalar | None] = [None] * self.ring.arity
        for name, v in assignment.items():
            values[self.ring.index(name)] = _integral(_exact(v))
        total: Scalar = 0
        for mono, coeff in self._terms.items():
            c = _integral(coeff)
            for v, e in zip(values, mono):
                if e:
                    if v is None:
                        missing = self.variables_used() - set(assignment)
                        raise FibrephiError(f"evaluation misses variables {sorted(missing)}")
                    c *= v**e
            total += c
        return Fraction(total)

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


def transport(p: Polynomial, ring: PolynomialRing, rename: Mapping[str, str] | None = None) -> Polynomial:
    """Re-express ``p`` in another ring, optionally renaming variables.

    Every variable actually used must map to a variable of the new ring;
    dropping a used variable is an error.  Without a renaming, ``p`` in its
    own ring is returned as it is.
    """
    old = p.ring
    if not rename:
        if ring == old:
            return p
        rename = {}
    out: dict[Monomial, Fraction] = {}
    column = [ring._index.get(rename.get(name, name)) for name in old.variables]
    arity = ring.arity
    for mono, coeff in p._terms.items():
        new = [0] * arity
        for i, e in enumerate(mono):
            if not e:
                continue
            j = column[i]
            if j is None:
                raise FibrephiError(
                    f"variable {old.variables[i]!r} cannot be transported to {ring!r}"
                )
            new[j] += e
        key = tuple(new)
        c = out.get(key)
        if c is None:
            out[key] = coeff
        else:
            c += coeff
            if c:
                out[key] = c
            else:
                del out[key]
    return Polynomial._trusted(ring, out)


def _specialize_target(
    polys: Sequence[Polynomial], point: Sequence[Scalar], xring: PolynomialRing
) -> list[Polynomial]:
    """Each of ``polys``, with its target block set to ``point``, in ``xring``.

    ``xring`` is the source ring of the polynomials' ring, and ``point`` has
    one value per target variable; every value passes through ``_exact``.
    This is ``transport(p.specialize(...), xring)`` for each ``p`` in one pass
    over its terms: a term's source exponents are its monomial in ``xring``.
    One table of coordinate powers serves all of ``polys``, and integral
    coordinates stay ints, as in ``Polynomial.specialize``.  A polynomial
    that vanishes at ``point`` comes back as zero.
    """
    values = [_integral(_exact(v)) for v in point]
    split = len(values)
    powers: list[dict[int, Scalar]] = [{} for _ in values]
    result = []
    for p in polys:
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in p._terms.items():
            factor = 1
            for table, v, e in zip(powers, values, mono):
                if e:
                    ve = table.get(e)
                    if ve is None:
                        ve = table[e] = v**e
                    factor *= ve
            if not factor:
                continue
            key = mono[split:]
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
        result.append(Polynomial._trusted(xring, out))
    return result
