"""Ideal-theoretic primitives: reduced Groebner bases, membership, radical
membership, elimination, saturation, intersection and Krull dimension.

The engine is a Buchberger completion with the Gebauer-Moeller pair criteria
and monic reducers, working on plain ``{exponent-tuple: Fraction}`` dicts for
speed.  Exactness first: no modular tricks, no floats.  The reduced basis for
a given (ideal, order) pair is unique, so it doubles as a canonical form.

Each piece of bookkeeping is done once.  A pending pair's lcm is computed when
the pair is made and the pair enters a heap keyed by the lcm's order key; the
selection loop pops the smallest and skips pairs the criteria have dropped
since.  One Buchberger run keeps one dict of order keys, filled as monomials
first appear, which the generator sort, every reduction, every leading-term
choice and every pair's lcm read.  A basis keeps its leading monomials, so
membership tests divide by it directly.

Ideals generated by terms, which the stratification's coordinate loci mostly
are, skip the completion: their bases, saturations by a term and radical
tests have closed forms (``_term_basis``), and a variable generator is
peeled off before a run on what is left (``_reduced_basis``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    FibrephiError,
    ResourceLimitError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orders import (
    GREVLEX,
    Block,
    Monomial,
    MonomialOrder,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .poly import PolyDict, Polynomial, PolynomialRing, transport
from .poly import _monic_terms, _product_terms, _sum_terms

# Resource caps.  Each aborts with ResourceLimitError instead of truncating a
# result.  Each is read when it is enforced, never bound as a default
# argument, so that lowering it on the module takes effect.
GROEBNER_MAX_BASIS = 4096
GROEBNER_MAX_REDUCTIONS = 500_000


# ---------------------------------------------------------------------------
# dict-level engine
# ---------------------------------------------------------------------------


def _spoly_dict(lmf: Monomial, f: PolyDict, lmg: Monomial, g: PolyDict) -> PolyDict:
    """S-polynomial of two monic polynomials given with their leading monomials."""
    lcm = monomial_lcm(lmf, lmg)
    qf = monomial_div(lcm, lmf)
    qg = monomial_div(lcm, lmg)
    return _sum_terms(
        {monomial_mul(m, qf): c for m, c in f.items()},
        {monomial_mul(m, qg): -c for m, c in g.items()},
    )


class _ReductionBudget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError("Groebner reduction budget exhausted")


def _normal_form_dict(
    f: PolyDict,
    divisors: Sequence[tuple[Monomial, PolyDict]],
    key,
    keys: dict,
    budget: _ReductionBudget,
) -> PolyDict:
    """Full normal form of ``f`` against monic ``divisors``.

    ``keys`` maps monomials to their order keys under ``key``; a monomial
    missing from it gets its key when it first enters the working set, so
    picking the leading term does no key work.  A Buchberger run passes one
    dict to all its reductions.  Every reduction step is charged to
    ``budget``.
    """
    rem: PolyDict = {}
    work = dict(f)
    for m in work:
        if m not in keys:
            keys[m] = key(m)
    while work:
        m = max(work, key=keys.__getitem__)
        c = work.pop(m)
        for lm, g in divisors:
            if monomial_divides(lm, m):
                budget.spend()
                q = monomial_div(m, lm)
                for mg, cg in g.items():
                    if mg == lm:
                        continue
                    mm = monomial_mul(mg, q)
                    nc = work.get(mm)
                    if nc is None:
                        work[mm] = -c * cg
                        if mm not in keys:
                            keys[mm] = key(mm)
                    else:
                        nc -= c * cg
                        if nc:
                            work[mm] = nc
                        else:
                            del work[mm]
                break
        else:
            rem[m] = c
    return rem


def _buchberger(seq: list[PolyDict], key) -> list[tuple[Monomial, PolyDict]]:
    """Reduced Groebner basis of the ideal generated by ``seq``.

    Pair handling follows the Gebauer-Moeller update criteria; the result is
    monic, self-reduced and sorted descending by leading monomial, hence
    canonical for the (ideal, order) pair.  Each element comes with its
    leading monomial.
    """
    budget = _ReductionBudget(GROEBNER_MAX_REDUCTIONS)
    keys: dict = {}
    key_of = keys.__getitem__
    f: list[PolyDict] = []
    lms: list[Monomial] = []
    lm_keys: list = []

    # No two installed polynomials share a leading monomial: every one, a
    # generator or an S-polynomial, is first reduced by the current basis,
    # which also gave each of its monomials its key.
    def install(p: PolyDict) -> int:
        lm, p = _monic_terms(p, key_of)
        f.append(p)
        lms.append(lm)
        lm_keys.append(keys[lm])
        if len(f) > GROEBNER_MAX_BASIS:
            raise ResourceLimitError("Groebner basis size cap exceeded")
        return len(f) - 1

    # CP maps each pending pair to the lcm of its leading monomials.  Every
    # pair enters ``heap`` once, keyed by that lcm; a pair that update() has
    # since dropped from CP is skipped when it is popped.
    CP: dict[tuple[int, int], Monomial] = {}
    heap: list[tuple] = []

    def update(G: set[int], ih: int) -> set[int]:
        # Gebauer-Moeller pair filtering, after Becker-Weispfenning p.230
        nonlocal CP
        mh = lms[ih]
        lcm_h = {ig: monomial_lcm(mh, lms[ig]) for ig in G}
        C = set(G)
        D: list[int] = []
        while C:
            ig = C.pop()
            lcm_hg = lcm_h[ig]
            if monomial_mul(mh, lms[ig]) == lcm_hg or (
                not any(monomial_divides(lcm_h[ip], lcm_hg) for ip in C)
                and not any(monomial_divides(lcm_h[ip], lcm_hg) for ip in D)
            ):
                D.append(ig)
        kept: dict[tuple[int, int], Monomial] = {}
        for (ig1, ig2), lcm_12 in CP.items():
            if (
                not monomial_divides(mh, lcm_12)
                or monomial_lcm(lms[ig1], mh) == lcm_12
                or monomial_lcm(lms[ig2], mh) == lcm_12
            ):
                kept[ig1, ig2] = lcm_12
        for ig in D:
            lcm_hg = lcm_h[ig]
            if monomial_mul(mh, lms[ig]) != lcm_hg:
                kept[ih, ig] = lcm_hg
                k = keys.get(lcm_hg)
                if k is None:
                    k = keys[lcm_hg] = key(lcm_hg)
                heapq.heappush(heap, (k, ih, ig))
        CP = kept
        G_new = {ig for ig in G if not monomial_divides(mh, lms[ig])}
        G_new.add(ih)
        return G_new

    G: set[int] = set()
    reducers: list[tuple[Monomial, PolyDict]] = []

    def add(p: PolyDict):
        nonlocal G, reducers
        h = _normal_form_dict(p, reducers, key, keys, budget)
        if h:
            G = update(G, install(h))
            reducers = [(lms[g], f[g]) for g in sorted(G, key=lm_keys.__getitem__)]

    # generators enter the way S-polynomials do, smallest leading monomial
    # first (a stable sort, so ties keep generator order)
    gens = [p for p in seq if p]
    for p in gens:
        for m in p:
            if m not in keys:
                keys[m] = key(m)
    for p in sorted(gens, key=lambda p: max(map(key_of, p))):
        add(p)
    while CP:
        _, i, j = heapq.heappop(heap)
        if CP.pop((i, j), None) is None:
            continue
        add(_spoly_dict(lms[i], f[i], lms[j], f[j]))

    # No leading monomial in G divides another (update() drops the elements
    # the new one's divides, and the new one is reduced by all of G), so each
    # element keeps its monic leading term and the result stays sorted.
    ids = sorted(G, key=lm_keys.__getitem__, reverse=True)
    reduced: list[tuple[Monomial, PolyDict]] = []
    for g in ids:
        r = _normal_form_dict(f[g], [(lms[o], f[o]) for o in ids if o != g], key, keys, budget)
        reduced.append((lms[g], r))
    return reduced


def _term_basis(seq: list[PolyDict], key) -> list[tuple[Monomial, PolyDict]]:
    """Reduced Groebner basis of the ideal the terms ``seq`` generate, in the
    form and order ``_buchberger`` gives.

    A monomial ideal is its own leading-term ideal under every order, so its
    reduced basis is its minimal monomials, made monic (Cox, Little and
    O'Shea, Ch. 2 §4 and §7; Herzog and Hibi, *Monomial Ideals*, Ch. 1).  A
    proper divisor has a smaller degree, so each monomial is tested against
    the minimal ones of lower degree only.
    """
    minimal: list[Monomial] = []
    for m in sorted({m for p in seq for m in p}, key=sum):
        if not any(monomial_divides(d, m) for d in minimal):
            minimal.append(m)
    if len(minimal) > GROEBNER_MAX_BASIS:
        raise ResourceLimitError("Groebner basis size cap exceeded")
    minimal.sort(key=key, reverse=True)
    return [(m, {m: Fraction(1)}) for m in minimal]


def _reduced_basis(seq: list[PolyDict], key) -> list[tuple[Monomial, PolyDict]]:
    """Reduced Groebner basis of the ideal ``seq`` generates, as ``_buchberger``
    gives it, in closed form where the generators allow.

    Terms alone get ``_term_basis``.  A generator c*v, v a variable, peels v
    off: (v, g1, ..., gk) = (v, g1|v=0, ..., gk|v=0), and the reduced basis
    of the rest avoids v, so each of its S-pairs with v has coprime leading
    monomials (Buchberger's first criterion) and none of its terms is
    divisible by v.  The basis is v with the rest's, or [1] when the rest's
    is [1].  Any other ideal gets a Buchberger run.
    """
    if all(len(p) == 1 for p in seq):
        return _term_basis(seq, key)
    peeled = {m for p in seq if len(p) == 1 for m in p if sum(m) == 1}
    if not peeled:
        return _buchberger(seq, key)
    gone = [v.index(1) for v in peeled]
    rest = [{m: c for m, c in p.items() if not any(m[i] for i in gone)} for p in seq]
    basis = _reduced_basis([p for p in rest if p], key)
    if basis and not any(basis[-1][0]):
        return basis  # [1]
    basis += [(v, {v: Fraction(1)}) for v in peeled]
    if len(basis) > GROEBNER_MAX_BASIS:
        raise ResourceLimitError("Groebner basis size cap exceeded")
    basis.sort(key=lambda element: key(element[0]), reverse=True)
    return basis


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic Groebner basis; unique for its (ideal, order) pair.

    ``divisors`` holds each element as (leading monomial, term dict), the
    form the reduction loop divides by, so membership tests neither copy nor
    re-normalise the elements.  Each element shares its term dict with its
    divisor entry, so the basis holds its terms once.
    """

    elements: tuple[Polynomial, ...]
    divisors: tuple[tuple[Monomial, PolyDict], ...] = field(repr=False, compare=False)

    def __len__(self):
        return len(self.elements)


class Ideal:
    """A polynomial ideal: generator list plus cached reduced bases per order.

    Ideals are immutable values; the basis cache is populated lazily, and a
    recomputation installs the identical (canonical) result.
    """

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial] = ()):
        gens: list[Polynomial] = []
        seen: set[Polynomial] = set()
        for g in generators:
            if not isinstance(g, Polynomial):
                raise FibrephiError("ideal generators must be polynomials")
            if g.ring != ring:
                raise RingMismatchError("generator ring differs from ideal ring")
            if g.is_zero or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.generators))

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    def added(self, extra: Iterable[Polynomial]) -> "Ideal":
        """The ideal with ``extra`` appended; ``self`` when none of it is new."""
        grown = Ideal(self.ring, self.generators + tuple(extra))
        return self if len(grown.generators) == len(self.generators) else grown

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        divisors = tuple(_reduced_basis([g._terms for g in self.generators], order.key))
        elements = tuple(Polynomial._trusted(self.ring, d) for _, d in divisors)
        basis = GroebnerBasis(elements, divisors)
        self._cache[order] = basis
        return basis

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("membership operands must share a ring")
        if f.is_zero:
            return True
        basis = self.groebner_basis(GREVLEX)
        budget = _ReductionBudget(GROEBNER_MAX_REDUCTIONS)
        return not _normal_form_dict(f._terms, basis.divisors, GREVLEX.key, {}, budget)

    def is_unit(self) -> bool:
        if any(g.is_constant() for g in self.generators):
            return True
        return any(not any(m) for m in _leading_monomials(self))


def _by_terms(ideal: Ideal) -> bool:
    """True when every generator of ``ideal`` is a single term."""
    return all(len(g) == 1 for g in ideal.generators)


def _support(m: Monomial) -> int:
    """The variables ``m`` uses, as a bitmask: bit i is set when variable i occurs."""
    return sum(1 << i for i, e in enumerate(m) if e)


def _leading_monomials(ideal: Ideal) -> list[Monomial]:
    """Grevlex leading monomials that generate LT(``ideal``).

    They come from the cached grevlex basis when there is one.  Otherwise an
    ideal generated by terms is its own leading-term ideal, so its
    generators' monomials are returned; and when the generators' leading
    monomials have pairwise disjoint supports,
    the generators already form a Groebner basis and their leading monomials
    are returned with no Buchberger run: the S-polynomial of two polynomials
    with coprime leading monomials reduces to zero (Buchberger's first
    criterion; Cox, Little and O'Shea, Ch. 2 §9 Prop. 4), and a generating
    set whose S-pairs all reduce to zero is a Groebner basis (ibid., §6
    Thm 6).  Any other ideal gets its basis built, and cached.
    """
    cached = ideal._cache.get(GREVLEX)
    if cached is None:
        if _by_terms(ideal):
            return [m for g in ideal.generators for m in g.monomials()]
        lms = [max(g.monomials(), key=GREVLEX.key) for g in ideal.generators]
        used = 0  # the variables of the earlier lms
        for m in lms:
            support = _support(m)
            if support & used:
                break
            used |= support
        else:
            return lms
        cached = ideal.groebner_basis(GREVLEX)
    return [lm for lm, _ in cached.divisors]


def _inverted(ideal: Ideal, h: Polynomial) -> Ideal:
    """``ideal + (1 - t*h)`` in the ring extended by a fresh last variable t.

    ``h`` lives in the ideal's ring.  t comes last, so each exponent tuple
    gains a trailing 0, or a trailing 1 in ``t*h``; ``1 - t*h`` lists its
    constant term first.
    """
    ext = ideal.ring.extend([ideal.ring.fresh_name("t")])
    gens = [
        Polynomial._trusted(ext, {m + (0,): c for m, c in g._terms.items()})
        for g in ideal.generators
    ]
    inverse = {(0,) * ext.arity: Fraction(1)}
    inverse.update((m + (1,), -c) for m, c in h._terms.items())
    gens.append(Polynomial._trusted(ext, inverse))
    return Ideal(ext, gens)


def radical_member(f: Polynomial, ideal: Ideal) -> bool:
    """True iff some power of ``f`` lies in ``ideal``.

    The radical of an ideal generated by terms is generated by the products
    of each term's variables (Herzog and Hibi, *Monomial Ideals*, Ch. 1), so
    f lies in it iff the support of each term of f contains the support of
    some generator.  Any other ideal takes the auxiliary-variable trick: f is in
    the radical iff 1 belongs to ideal + (1 - t*f) in the ring extended by t.
    """
    if f.ring != ideal.ring:
        raise RingMismatchError("radical membership operands must share a ring")
    if f.is_zero:
        return True
    if _by_terms(ideal):
        supports = [_support(m) for g in ideal.generators for m in g.monomials()]
        return all(any(s & t == s for s in supports) for t in map(_support, f.monomials()))
    if ideal.contains(f):
        return True
    return _inverted(ideal, f).is_unit()


def elimination_ideal(ideal: Ideal, count: int) -> Ideal:
    """Intersection of ``ideal`` with the subring of the first ``count`` variables.

    The kept variables are a prefix block: the target variables, or the
    target variables plus an initial segment of the source block.  The result
    lives in the correspondingly restricted ring.
    """
    ring = ideal.ring
    if count <= 0 or count > ring.arity:
        raise FibrephiError(f"cannot keep {count} of {ring.arity} variables")
    if count == ring.arity:
        return ideal
    small = PolynomialRing(ring.target_vars[:count], ring.source_vars[: max(0, count - ring.split)])
    basis = ideal.groebner_basis(Block(count))
    kept = [
        transport(g, small)
        for g in basis.elements
        if all(not any(m[count:]) for m in g.monomials())
    ]
    return Ideal(small, kept)


def saturation(ideal: Ideal, h: Polynomial) -> Ideal:
    """Saturation ``ideal : h^infinity``, certified.

    The saturation is ``(ideal + (1 - t*h))`` with t eliminated (Cox, Little,
    O'Shea, Ch. 4 §4, Thm 14); it cuts out the closure of ``V(ideal)`` minus
    ``V(h)``.  When ``ideal`` is generated by terms and h is a term, it is
    generated by the terms with h's variables set to 1 (Herzog and Hibi,
    *Monomial Ideals*, Ch. 1: (u) : v = (u / gcd(u, v))), and is returned
    as its reduced grevlex basis, the generators elimination gives.  Each
    generator g of the result is certified to have some
    ``h^s * g`` in ``ideal``: as NF(h * NF(h^(s-1) * g)) = NF(h^s * g), the
    remainder is multiplied by h and reduced again until it vanishes, each
    round and reduction charged to one ``GROEBNER_MAX_REDUCTIONS`` budget.
    """
    if h.ring != ideal.ring:
        raise RingMismatchError("saturation operands must share a ring")
    if h.is_zero:
        raise ZeroPolynomialError("cannot saturate by the zero polynomial")
    if h.is_constant() or ideal.is_zero_ideal:
        return ideal  # 0 : h^inf = 0, as the ring is a domain
    if len(h) == 1 and _by_terms(ideal):
        (gone,) = h.monomials()
        terms = [
            {tuple(0 if d else e for e, d in zip(m, gone)): Fraction(1)}
            for g in ideal.generators
            for m in g.monomials()
        ]
        basis = _term_basis(terms, GREVLEX.key)
        sat = Ideal(ideal.ring, [Polynomial._trusted(ideal.ring, d) for _, d in basis])
    else:
        sat = elimination_ideal(_inverted(ideal, h), ideal.ring.arity)
    divisors = ideal.groebner_basis(GREVLEX).divisors
    budget = _ReductionBudget(GROEBNER_MAX_REDUCTIONS)
    keys: dict = {}
    for g in sat.generators:
        rem = _normal_form_dict(g._terms, divisors, GREVLEX.key, keys, budget)
        while rem:
            budget.spend()
            rem = _product_terms(h._terms, rem)
            rem = _normal_form_dict(rem, divisors, GREVLEX.key, keys, budget)
    return sat


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via the auxiliary-variable trick: eliminate t from t*a + (1-t)*b."""
    if a.ring != b.ring:
        raise RingMismatchError("intersection operands must share a ring")
    if a.is_zero_ideal or b.is_zero_ideal:
        return Ideal(a.ring, ())
    ring = a.ring
    ext = ring.extend([ring.fresh_name("t")])
    t = ext.variable(ext.variables[-1])
    one_minus_t = ext.one() - t
    gens = [t * transport(g, ext) for g in a.generators]
    gens += [one_minus_t * transport(g, ext) for g in b.generators]
    return elimination_ideal(Ideal(ext, gens), ring.arity)


def independent_set_dimension(monomials: Iterable[Monomial], nvars: int) -> int:
    """Largest size of a variable set touched by no monomial's support.

    This is the combinatorial (Krull) dimension of the monomial ideal the
    inputs generate; the unit ideal (a constant monomial present) gives -1
    and an empty input gives ``nvars``.

    A set is independent iff its complement meets every support, so this is
    ``nvars`` less the size of a minimum transversal (fewest variables that
    meet every support).  Branch and bound finds it: branch on the variables
    of a smallest unmet support; drop a branch that cannot beat the best so
    far.  The search grows with the codimension, not with the independent sets.
    """
    supports = set(map(_support, monomials))
    if 0 in supports:
        return -1
    best = nvars  # all variables meet every support

    # ``unmet``: the supports ``size`` chosen variables miss, less the
    # variables that earlier sibling branches left out
    def cover(unmet: list[int], size: int):
        nonlocal best
        if not unmet:
            best = size  # the parent's bound let only a smaller size through
            return
        # pairwise disjoint supports each need a variable of their own
        need = taken = 0
        for s in unmet:
            if not s & taken:
                taken |= s
                need += 1
        if size + need >= best:
            return
        pivot = min(unmet, key=int.bit_count)
        left_out = 0
        while pivot:
            v = pivot & -pivot
            pivot ^= v
            rest = [s & ~left_out for s in unmet if not s & v]
            if all(rest):  # else some support only left-out variables meet
                cover(rest, size + 1)
            left_out |= v

    cover(sorted(supports, key=int.bit_count), 0)
    return nvars - best


def krull_dimension(ideal: Ideal) -> int:
    """Dimension of the vanishing set, read off the grevlex leading-term ideal.

    LT(I) is read through ``_leading_monomials``, so generators with pairwise
    coprime leading monomials build no basis.  Under a graded order such as
    grevlex, dim V(I) = dim V(LT(I)) (Cox, Little and O'Shea, Ch. 9 §3), and
    the dimension of a monomial ideal is the largest set of variables that
    no generator's support lies inside.

    The unit ideal reports -1 (empty variety sentinel); the zero ideal
    reports the full ambient dimension.
    """
    return independent_set_dimension(_leading_monomials(ideal), ideal.ring.arity)
