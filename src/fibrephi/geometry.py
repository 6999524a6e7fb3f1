"""Geometry of a polynomial projection f: X -> Y with X inside Y x Omega.

Everything here is set-theoretic geometry over the rationals, decided exactly
by Groebner methods: image closures, fibre dimensions, the stratification of
the target by fibre dimension, vertical-component detection, pseudo-component
splitting, purity checks and fibred powers.

Central technique: a Groebner basis of the defining ideal under a block order
with the source variables dominant.  Viewing each basis element as a
polynomial in x with y-coefficients, the specialized basis keeps its x-leading
monomials at every target point where no leading coefficient vanishes, so the
fibre dimension is constant on such cells and can be read off combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt, prod
from random import Random
from typing import Iterable, Sequence

from .errors import (
    EmptySpaceError,
    FibrephiError,
    InternalInconsistencyError,
    OffTargetError,
    PreconditionError,
    ResourceLimitError,
    SetupError,
)
from .orders import GREVLEX, LEX, Block, Monomial, monomial_div, monomial_gcd
from .poly import Polynomial, PolynomialRing, _ring_map, transport
from .groebner import (
    Ideal,
    _inverted,
    elimination_ideal,
    ideal_intersection,
    independent_set_dimension,
    krull_dimension,
    radical_member,
    saturation,
)

# Resource caps, read when they are enforced (as in groebner).  Too many
# stratification nodes or splitting levels raise ResourceLimitError (the
# purity test reports a splitting overrun as inconclusive); a cell that
# yields no point within the sampling attempts comes back empty.
STRATIFY_MAX_NODES = 512  # popped constraints; growing a locus takes no node
SPLIT_DEPTH = 8
SAMPLE_ATTEMPTS = 400


# ---------------------------------------------------------------------------
# projection setup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionSetup:
    """The data of a projection f: X -> Y together with its derived dimensions.

    X sits inside Y x Omega where Omega is affine space on the source
    variables; Y is cut out by ``target_ideal`` in ``ring.target_ring()``
    and lies in an ambient target that only ``N`` records.  The dimensions
    carry the paper's letters: ``N`` of the ambient target, ``n`` of Y, ``m``
    of X, ``k`` of Omega and ``r`` the number of source generators.  Only
    ``N`` is stored.  ``n``, ``m``, X's ideal ``total_ideal``, its
    ``stratification`` by fibre dimension, ``purity`` and ``vertical``
    verdict are worked out from the ideals once per setup, on first access;
    the bounds, the exactness rules, every fibred power and the multiplicity
    bound read them.
    """

    ring: PolynomialRing
    target_ideal: Ideal
    source_generators: tuple[Polynomial, ...]
    assert_target_locally_irreducible: bool
    assert_target_pure_dimensional: bool
    N: int

    @cached_property
    def total_ideal(self) -> Ideal:
        """X's ideal: the target equations and the source generators, in ``ring``."""
        lifted = [transport(g, self.ring) for g in self.target_ideal.generators]
        return Ideal(self.ring, lifted + list(self.source_generators))

    @cached_property
    def _fibre_map(self) -> tuple[PolynomialRing, list[int | None]]:
        """The source ring and the column of each variable of ``ring`` in it
        (None for a target variable), which every fibre is built with."""
        return self.ring.source_ring(), [None] * self.ring.split + list(range(self.k))

    @cached_property
    def n(self) -> int:
        return krull_dimension(self.target_ideal)

    @cached_property
    def m(self) -> int:
        return krull_dimension(self.total_ideal)

    @property
    def k(self) -> int:
        return len(self.ring.source_vars)

    @property
    def r(self) -> int:
        return len(self.source_generators)

    def dims(self) -> dict[str, int]:
        return {"N": self.N, "n": self.n, "k": self.k, "r": self.r, "m": self.m}

    @cached_property
    def stratification(self) -> Stratification:
        """``stratify_by_fibre_dimension(self)``, computed on first access and
        kept in the instance.  A ``ResourceLimitError`` is not cached; a cap
        lowered after a stratification is cached has no effect on it."""
        return stratify_by_fibre_dimension(self)

    @cached_property
    def purity(self) -> PurityResult:
        """``pure_dimension_check(self.total_ideal)``, computed once."""
        return pure_dimension_check(self.total_ideal)

    @cached_property
    def vertical(self) -> VerticalResult:
        """``has_vertical_component(self, 1)``, once; undecided without the attestation."""
        if not self.assert_target_locally_irreducible:
            return VerticalResult(None, None, "target irreducibility not attested")
        return has_vertical_component(self, 1)


def make_setup(
    ring: PolynomialRing,
    ambient_target_generators: Sequence[Polynomial],
    source_generators: Sequence[Polynomial],
    target_generators: Sequence[Polynomial] | None = None,
    assert_target_locally_irreducible: bool = False,
    assert_target_pure_dimensional: bool = False,
) -> ProjectionSetup:
    """Validate the input data, compute N and check n <= N and that X is
    not empty.

    Every generator lives in ``ring``; the ambient target and target
    generators use target variables only.  With no ``target_generators`` the
    target is the ambient target itself.  X is empty exactly when the
    reduced basis of its ideal is [1], under any order; the block order with
    the source variables dominant is asked, as the stratification reads
    that basis anyway.  m is left for its first reader, unless that basis
    hits a Groebner cap: then m < 0 decides.
    """
    if not ring.target_vars:
        raise SetupError("the ring needs at least one target variable")
    if not ring.source_vars:
        raise SetupError("the ring needs at least one source variable")
    yring = ring.target_ring()
    target_names = set(ring.target_vars)

    def to_target(polys: Sequence[Polynomial], label: str) -> list[Polynomial]:
        out = []
        for p in polys:
            if p.ring != ring:
                raise SetupError(f"{label} generator lives in a foreign ring")
            extra = p.variables_used() - target_names
            if extra:
                raise SetupError(f"{label} generator uses source variables {sorted(extra)}")
            if not p.is_zero:
                out.append(transport(p, yring))
        return out

    ambient = Ideal(yring, to_target(ambient_target_generators, "ambient target"))
    if target_generators is None:
        target = ambient
    else:
        target = Ideal(yring, to_target(target_generators, "target"))
        if not _variety_contained(target, ambient):
            raise SetupError("target variety is not contained in the ambient target variety")

    sources = tuple(source_generators)
    if not sources:
        raise SetupError("at least one source generator is required")
    for g in sources:
        if g.ring != ring:
            raise SetupError("source generator lives in a foreign ring")
        if g.is_zero:
            raise SetupError("zero generator in the source ideal")

    setup = ProjectionSetup(
        ring=ring,
        target_ideal=target,
        source_generators=sources,
        assert_target_locally_irreducible=assert_target_locally_irreducible,
        assert_target_pure_dimensional=assert_target_pure_dimensional,
        N=krull_dimension(ambient),
    )
    if setup.N < setup.n:
        raise InternalInconsistencyError("ambient dimension below target dimension")
    try:
        empty = setup.total_ideal.groebner_basis(Block(ring.split)).elements == (ring.one(),)
    except ResourceLimitError:
        # the stratification meets the same cap and leaves the vertical
        # test to the saturation path
        empty = setup.m < 0
    if empty:
        raise EmptySpaceError("the source space X is empty (unit ideal)")
    return setup


# ---------------------------------------------------------------------------
# fibres
# ---------------------------------------------------------------------------


def fibre_at_point(
    setup: ProjectionSetup,
    point: Sequence[Fraction | int],
) -> tuple[Ideal, int]:
    """Ideal and dimension of the fibre over an exact rational target point.

    The point must satisfy the target ideal exactly; the empty fibre reports
    dimension -1.
    """
    gens, yring = setup.target_ideal.generators, setup.target_ideal.ring
    if len(point) != yring.arity:
        raise OffTargetError(f"expected {yring.arity} coordinates, got {len(point)}")
    values = dict(enumerate(point))
    for g, image in zip(gens, _ring_map(gens, yring, range(yring.arity), values)):
        if image:
            raise OffTargetError(f"point does not satisfy target equation {g}")
    # The target equations vanish at the point, so X's ideal specializes to
    # the source generators' values, each source variable keeping its place
    # in the source ring; the Ideal drops the zero ones.
    xring, column = setup._fibre_map
    fibre = Ideal(xring, _ring_map(setup.source_generators, xring, column, values))
    return fibre, krull_dimension(fibre)


# ---------------------------------------------------------------------------
# the relative (parametric) view of a block-order basis
# ---------------------------------------------------------------------------


def relative_terms(J: Ideal) -> list[tuple[Monomial, Polynomial]]:
    """Relative leading data of the mixed elements of the block-order basis.

    Each basis element of ``J`` that involves a source variable, seen as a
    polynomial in x over y, gives the pair of its x-leading monomial (the
    exponent tuple over the source block only, never trivial) and that
    monomial's coefficient in the target ring.  The purely target-side
    elements of the same basis generate the image closure, which
    ``elimination_ideal(J, J.ring.split)`` reads off the same cached basis.
    """
    ring = J.ring
    yring = ring.target_ring()
    split = ring.split
    out = []
    for g in J.groebner_basis(Block(split)).elements:
        groups: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in g.as_dict().items():
            groups.setdefault(mono[split:], {})[mono[:split]] = coeff
        x_lead = max(groups, key=GREVLEX.key)
        if any(x_lead):
            out.append((x_lead, Polynomial._trusted(yring, groups[x_lead])))
    return out


def _stabilize(J: Ideal, locus: Ideal) -> tuple[Ideal, Ideal, list[tuple[Monomial, Polynomial]], Ideal | None]:
    """Grow ``locus``, a target ideal whose zero set holds the image of V(J),
    until J's leading data specialize faithfully off the cells.

    If some equation of J's image closure does not vanish on V(locus), all
    join it, as fibres are empty off their zero set; once suffices, since
    absorbed coefficients keep J's radical.  Each round then adds the relative
    leading coefficients vanishing on V(locus), in basis order, to ``locus``
    and, checked to vanish on V(J), to J, whose basis must re-express the
    elements they led (Kalkbrener, JSC 1997; Weispfenning, JSC 1992).  The
    rounds need no cap: a flagged c never lies in J, or an x-free element of
    J's reduced block basis would have a leading monomial dividing lm(c) * x^a,
    that of the element c leads.  So J grows strictly each round, and the
    chain ends (Noether).  Returns J, locus (unit for a unit J),
    ``relative_terms(J)`` and the image closure, generated by its reduced
    grevlex basis, if its equations joined ``locus``.
    """
    image = elimination_ideal(J, J.ring.split)
    grown = image != locus and not _variety_contained(locus, image)
    if grown:
        locus = locus.added(image.generators)
    while True:
        rel = relative_terms(J)
        flagged = [c for _, c in rel if not c.is_constant() and radical_member(c, locus)]
        if not flagged:
            return J, locus, rel, image if grown else None
        # c is in rad(J) iff it is in rad(image), as J keeps its radical; a
        # locus equal to image was asked that question by the flag test
        if image != locus and not all(radical_member(c, image) for c in flagged):
            raise InternalInconsistencyError(
                "a coefficient vanishing on the image fails to vanish on the source"
            )
        larger = J.added(transport(c, J.ring) for c in flagged)
        if larger is J:
            raise InternalInconsistencyError("a flagged leading coefficient already lies in J")
        J = larger
        locus = locus.added(flagged)


# ---------------------------------------------------------------------------
# stratification by fibre dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """A constructible piece of the target with constant fibre dimension.

    The cell is V(closure-of-cell ideal) minus the zero sets of the
    inequations; on it every fibre is nonempty of dimension ``fibre_dim``.
    """

    closure: Ideal
    inequations: tuple[Polynomial, ...]
    fibre_dim: int


@dataclass(frozen=True)
class Stratum:
    """All cells sharing one fibre dimension, with the closed image they fill."""

    fibre_dim: int
    image_ideal: Ideal
    image_dim: int
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class Stratification:
    """The target-side partition of the image by fibre dimension, one stratum
    per fibre dimension in increasing order.

    ``generic`` is the root node's cell when that node, constrained by the
    target ideal alone, was neither refined (the image of X is dense in every
    component of the target) nor absorbed (no relative leading coefficient of
    X's block basis vanishes on the target).  Its ``fibre_dim`` is then the
    generic fibre dimension lambda of X, and its ``inequations`` are the
    non-constant leading coefficients h_a of that basis, sorted by text
    (Kalkbrener, JSC 1997).  Otherwise ``generic`` is None.
    """

    strata: tuple[Stratum, ...]
    generic: Cell | None

    @property
    def fibre_dimensions(self) -> tuple[int, ...]:
        return tuple(s.fibre_dim for s in self.strata)

    @property
    def min_fibre_dim(self) -> int:
        return self.strata[0].fibre_dim

    @cached_property
    def generic_meets(self) -> list[tuple[Polynomial, list[tuple[int, int]]]]:
        """For each inequation h_a of the generic cell, the pairs
        (dim(C meet V(h_a)), C.fibre_dim) over every cell C; computed once per
        setup, for the vertical test's dimension counts at every fibred power.
        Empty when there is no generic cell, as there are then no h_a."""
        if self.generic is None:
            return []
        cells = [cell for stratum in self.strata for cell in stratum.cells]
        return [
            (h, [(_meet_dimension(cell, h), cell.fibre_dim) for cell in cells])
            for h in self.generic.inequations
        ]


def stratify_by_fibre_dimension(setup: ProjectionSetup) -> Stratification:
    """Partition the image of f by fibre dimension via recursive case splitting.

    Each node carries a constraint ideal C of the target ring.  ``_stabilize``
    grows C by the new equations of the image of J + C, off which fibres are
    empty, and by the leading coefficients vanishing on it; off the zero sets
    of the others lies a cell of constant fibre dimension, its closure one
    saturation of the grown C.  Recursion descends into each coefficient's
    zero locus; constraint ideals grow strictly, so the tree is finite.
    """
    ring = setup.ring
    k = setup.k
    J = setup.total_ideal
    cells: list[Cell] = []
    generic = None
    seen: set[tuple] = set()
    pending: list[Ideal] = [setup.target_ideal]
    nodes = 0

    while pending:
        constraint = pending.pop()
        key = tuple(constraint.groebner_basis(GREVLEX).elements)
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        if nodes > STRATIFY_MAX_NODES:
            raise ResourceLimitError("stratification node budget exhausted")
        if constraint.is_unit():
            continue
        # at the root Jc is J, its block basis cached for purity and the counts
        Jc = J.added(transport(g, ring) for g in constraint.generators)
        _, current, stable, image = _stabilize(Jc, constraint)
        if image is not None:  # grown to image's ideal, keyed by its generators
            if tuple(image.generators) in seen:
                continue  # a locus met before
            seen.add(tuple(image.generators))

        fibre_dim = independent_set_dimension([x for x, _ in stable], k)
        lead_coeffs = sorted({c for _, c in stable if not c.is_constant()}, key=str)
        # (C : h1^inf) : h2^inf = C : (h1*h2)^inf, so one saturation serves
        closure = saturation(current, prod(lead_coeffs)) if lead_coeffs else current
        if not closure.is_unit():
            cells.append(Cell(closure, tuple(lead_coeffs), fibre_dim))
            if current is setup.target_ideal:
                generic = cells[-1]  # the root node, neither refined nor absorbed
        for h in lead_coeffs:
            pending.append(current.added([h]))

    if not cells:
        raise InternalInconsistencyError("stratification produced no cells")

    groups: dict[int, list[Cell]] = {}
    for cell in cells:
        groups.setdefault(cell.fibre_dim, []).append(cell)
    strata = []
    for j in sorted(groups):
        group = sorted(
            groups[j],
            key=lambda c: tuple(map(str, c.closure.generators)),
        )
        image = group[0].closure
        for cell in group[1:]:
            image = ideal_intersection(image, cell.closure)
        strata.append(
            Stratum(
                fibre_dim=j,
                image_ideal=image,
                image_dim=krull_dimension(image),
                cells=tuple(group),
            )
        )
    return Stratification(tuple(strata), generic)


# ---------------------------------------------------------------------------
# pseudo-component splitting and purity
# ---------------------------------------------------------------------------


def _splitter_candidates(J: Ideal) -> list[Polynomial]:
    """Polynomials worth trying as zero divisors: variables, monomial
    contents and cofactors of basis elements, and relative leading
    coefficients when the ring has a source block."""
    ring = J.ring
    cands: dict[Polynomial, None] = {}

    def push(p: Polynomial):
        if p.is_zero or p.is_constant():
            return
        cands.setdefault(p.monic())

    basis = J.groebner_basis(GREVLEX)
    used: set[str] = set()
    for g in list(basis.elements) + list(J.generators):
        used |= g.variables_used()
        monos = list(g.monomials())
        content = monos[0]
        for m in monos[1:]:
            content = monomial_gcd(content, m)
        if any(content):
            cofactor = {monomial_div(m, content): c for m, c in g._terms.items()}
            push(Polynomial._trusted(g.ring, cofactor))
    for name in sorted(used):
        push(ring.variable(name))
    if ring.target_vars and ring.source_vars:
        for _, c in relative_terms(J):
            push(transport(c, ring))
    return sorted(cands, key=str)


def _variety_contained(inner: Ideal, outer: Ideal) -> bool:
    """True iff V(inner) is contained in V(outer)."""
    return all(radical_member(g, inner) for g in outer.generators)


def split_components(J: Ideal) -> list[Ideal]:
    """Split V(J) into pseudo-components by repeated zero-divisor saturation.

    Each returned ideal cuts out a union of irreducible components of V(J);
    together they cover V(J) and none contains another.  Pieces that resist
    every splitting candidate are returned as they are.  Splitting deeper
    than ``SPLIT_DEPTH`` raises ResourceLimitError.

    J certifies itself: when it is generated by as many polynomials as its
    codimension, Macaulay's unmixedness theorem (Matsumura, *Commutative Ring
    Theory*, Thm 17.6) makes V(J) pure, and a candidate that lowers its
    dimension is skipped without a saturation.  A variable candidate x is
    first tried on a bound read off J's grevlex basis alone (Cox, Little and
    O'Shea, Ch. 9 §3; see ``_variable_cut_bound``), so only the candidates
    that bound does not settle cost a basis of J + (h).  The pieces are the
    same either way.

    Only varieties are read off the pieces, so the split works on J with
    each monomial generator replaced by the product of its variables, which
    cuts out V(J) too (``_monomial_radicals``); the unmixedness certificate
    is read off J's own generators.
    """
    if J.is_unit():
        raise PreconditionError("split_components needs a proper ideal")
    dim = krull_dimension(J)
    pure_dim = dim if _complete_intersection(J, dim) else None
    return _prune(_split(_monomial_radicals(J), SPLIT_DEPTH, pure_dim))


def _monomial_radicals(J: Ideal) -> Ideal:
    """J with each monomial generator replaced by the product of its
    variables, so a high power such as y1^65 is split as y1; J itself when
    no generator changes."""
    gens = []
    for g in J.generators:
        if len(g) == 1:
            (m,) = g.monomials()
            g = Polynomial._trusted(J.ring, {tuple(min(e, 1) for e in m): Fraction(1)})
        gens.append(g)
    radical = Ideal(J.ring, gens)
    return J if radical == J else radical


def _complete_intersection(I: Ideal, dim: int) -> bool:
    """True when I, with dim V(I) = ``dim``, is a complete intersection.

    An ideal of a polynomial ring generated by as many elements as its
    codimension is unmixed (Macaulay; Matsumura, *Commutative Ring Theory*,
    Thm 17.6), so every component of V(I) then has dimension ``dim``.
    """
    return len(I.generators) == I.ring.arity - dim


def _split(J: Ideal, depth: int, pure_dim: int | None = None) -> list[Ideal]:
    """Pseudo-components of V(J), trying each splitting candidate h in turn.

    ``pure_dim`` is None, or the dimension that an unmixedness certificate
    (Matsumura Thm 17.6) gives every component of V(J).  Then
    ``dim V(J + (h)) < pure_dim`` proves that h vanishes on no component, so
    ``J : h^inf`` has the radical of J and its saturation could only report
    "did not shrink"; such an h is skipped.  That dimension is first bounded
    from J's basis (``_variable_cut_bound``; Cox, Little and O'Shea, Ch. 9
    §3).  Any other h has ``dim V(J + (h)) >= pure_dim``, so a component of
    the pure V(J) lies in V(h) and V(J : h^inf) omits it: a proper
    saturation shrinks V(J), and no containment test is asked.  The pieces
    of a successful split carry no certificate.
    """
    divisors = J.groebner_basis(GREVLEX).divisors
    for h in _splitter_candidates(J):
        inside = J.added([h])
        if pure_dim is not None and (
            _variable_cut_bound(divisors, h) < pure_dim or krull_dimension(inside) < pure_dim
        ):
            continue  # h vanishes on no component of the pure V(J)
        off = saturation(J, h)
        if off.is_unit():
            continue  # everything lies inside V(h): no off-part to split away
        if pure_dim is None and _variety_contained(J, off):
            continue  # saturation did not shrink the variety
        if depth <= 0:
            raise ResourceLimitError("component splitting depth cap exceeded")
        pieces = [off]
        # keep only genuine components inside V(h): saturating by the
        # off-part's generators removes the slices of other components
        for g in off.generators:
            part = saturation(inside, g)
            if not part.is_unit():
                pieces.append(part)
        out: list[Ideal] = []
        for piece in pieces:
            out.extend(_split(piece, depth - 1))
        return out
    return [J]


def _variable_cut_bound(divisors: Sequence[tuple[Monomial, dict]], h: Polynomial) -> int:
    """An upper bound on dim V(J + (h)), J having the grevlex basis ``divisors``.

    For a variable h = x, J + (x) = (x) + (g|x=0 : g in the basis), so x and
    each lt(g|x=0) lie in LT(J + (x)), whose dimension is dim V(J + (x))
    under a graded order (Cox, Little and O'Shea, Ch. 9 §3).  Any other h
    gets the arity.
    """
    x, *more = h.monomials()
    if more or sum(x) != 1:
        return h.ring.arity
    j = x.index(1)
    lead = [x]
    for _, terms in divisors:
        rest = [m for m in terms if not m[j]]
        if rest:
            lead.append(max(rest, key=GREVLEX.key))
    return independent_set_dimension(lead, h.ring.arity)


def _prune(pieces: Iterable[Ideal]) -> list[Ideal]:
    ordered = sorted(pieces, key=lambda I: tuple(map(str, I.generators)))
    kept: list[Ideal] = []
    for piece in ordered:
        if any(_variety_contained(piece, other) for other in kept):
            continue
        kept = [o for o in kept if not _variety_contained(o, piece)]
        kept.append(piece)
    return kept


@dataclass(frozen=True)
class PurityResult:
    """Outcome of the equidimensionality check.

    ``pure`` is True/False when decided, None when the splitting depth cap
    prevented a verdict (``piece_dims`` is then empty) or when a piece of the
    top dimension carries no purity certificate.
    """

    pure: bool | None
    dim: int
    piece_dims: tuple[int, ...]


def pure_dimension_check(J: Ideal) -> PurityResult:
    """Split into pseudo-components and compare their dimensions.

    Pieces of two dimensions make V(J) impure.  Pieces of one dimension make
    it pure only with a certificate, since a piece that no candidate splits
    may still hide a lower-dimensional component: J itself is a complete
    intersection, or every piece is one once ``_certified_pure`` drops its
    redundant generators (Macaulay; Matsumura, Thm 17.6).  Otherwise the
    verdict is None.
    """
    dim = krull_dimension(J)
    if dim < 0:
        raise PreconditionError("pure_dimension_check needs a proper ideal")
    try:
        pieces = split_components(J)
    except ResourceLimitError:
        return PurityResult(None, dim, ())
    piece_dims = tuple(sorted((krull_dimension(p) for p in pieces), reverse=True))
    if len(set(piece_dims)) > 1:
        return PurityResult(False, dim, piece_dims)
    certified = _complete_intersection(J, dim) or all(map(_certified_pure, pieces))
    return PurityResult(True if certified else None, dim, piece_dims)


def _certified_pure(I: Ideal) -> bool:
    """True when V(I) is pure by Macaulay's theorem once the generators that
    lie in the radical of the others, dropped greedily, are gone: dropping
    one leaves V(I) as it is."""
    kept = list(I.generators)
    for g in I.generators:
        rest = [h for h in kept if h != g]
        if radical_member(g, Ideal(I.ring, rest)):
            kept = rest
    K = Ideal(I.ring, kept)
    return _complete_intersection(K, krull_dimension(K))


# ---------------------------------------------------------------------------
# vertical components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalResult:
    """Three-valued verdict on the existence of a vertical component.

    ``verdict`` True means some irreducible component of the source maps into
    a proper closed subset of the target.  What the witness shows depends on
    the route that decided.  A saturation witness vanishes on such a
    component but not on the whole source.  A dimension witness is a relative
    leading coefficient h of X, pulled back to the source: V(h o f) has a
    larger dimension than any component that dominates the target can have
    inside it, so h proves that a vertical component exists but need not
    vanish on it.  None means only that the target's irreducibility is not
    attested; it is never coerced to False.
    """

    verdict: bool | None
    witness: Polynomial | None = None
    detail: str = ""


def has_vertical_component(setup: ProjectionSetup, i: int) -> VerticalResult:
    """Decide whether the fibred power X^(i) has a component with lower-dimensional image.

    Requires the target to be attested locally irreducible: the test reads
    "image inside a proper closed subset" as "empty interior", which needs an
    irreducible target.  Two dimension counts decide first
    (``_vertical_by_dimension``: the generic fibre dimension, by Kalkbrener,
    JSC 1997, and Weispfenning, JSC 1992, against Krull's height theorem,
    Matsumura Thm 13.5).  They take lambda and the leading coefficients h_a
    from the root cell of ``setup.stratification`` and read each
    dim V(J_i + (h_a)) off its cells C as the largest
    dim(C meet V(h_a)) + i*C.fibre_dim (the fibre-dimension theorem,
    Hartshorne, *Algebraic Geometry*, Ex. II.3.22), so no power needs a basis
    in its own ring.  When the stratification hits a cap, when it has no
    generic cell, or when neither count fires, saturations decide
    (``_vertical``).
    """
    if not setup.assert_target_locally_irreducible:
        raise PreconditionError(
            "vertical-component detection requires the locally-irreducible attestation"
        )
    J = fibred_power(setup, i)
    try:
        setup.stratification
    except ResourceLimitError:
        pass  # nothing to read the counts off: the saturation path decides
    else:
        certified = _vertical_by_dimension(setup, J, i)
        if certified is not None:
            return certified
    return _vertical(J, setup.n)


def _meet_dimension(cell: Cell, h: Polynomial) -> int:
    """dim(C meet V(h)) for the cell C, -1 when they do not meet.

    C is V(closure) minus V(q), q the product of its inequations, and
    V(closure + (h), 1 - t*q) maps isomorphically onto (V(closure) meet V(h))
    minus V(q) (Rabinowitsch), so its dimension is the one sought.  An
    inequation h of C does not vanish on C, so no basis is needed for it.
    """
    if h in cell.inequations:
        return -1
    inside = cell.closure.added([h])
    if cell.inequations:
        inside = _inverted(inside, prod(cell.inequations))
    return krull_dimension(inside)


def _vertical_by_dimension(setup: ProjectionSetup, J: Ideal, i: int) -> VerticalResult | None:
    """The vertical test on J, the ideal of X^(i), by two dimension counts.

    Off the zero sets of the non-constant relative leading coefficients h_a
    of X's block basis, every fibre of X is empty or has the dimension lambda
    of its x-leading monomials (Kalkbrener, JSC 1997; Weispfenning, JSC
    1992), so every fibre F_y^i of X^(i) has dimension at most i*lambda.
    lambda and the h_a are the ``fibre_dim`` and ``inequations`` of the root
    cell ``setup.stratification.generic``.  Returns None, for the saturation
    path to decide, when there is no such cell or when neither count fires.
    There is no such cell when the root node was refined, because the image
    of X misses part of the target Y, or absorbed, because some h_a vanishes
    on Y.  On an irreducible Y the first is exactly a non-dense image; on a
    reducible Y it also covers an image of full dimension that misses a
    component.

    Each ``d = dim V(J + (h_a))`` is read off X's stratification:
    over a cell C every fibre of X is nonempty of dimension C.fibre_dim, so
    every fibre of X^(i) there has dimension i*C.fibre_dim, and the preimage
    of the constructible set C meet V(h_a) has dimension
    dim(C meet V(h_a)) + i*C.fibre_dim (the fibre-dimension theorem;
    Hartshorne, *Algebraic Geometry*, Ex. II.3.22).  The cells cover every
    point of Y with a nonempty fibre, so d is the largest of these over the
    cells that meet V(h_a), and -1 when none does.  Everything but i comes
    from its ``generic_meets``, computed once per setup, so a power costs
    integer arithmetic only.

    - A component of X^(i) that dominates Y has dimension at most
      n + i*lambda, and no h_a o f vanishes on it, so it meets V(h_a o f) in
      lower dimension.  ``d >= n + i*lambda`` proves a vertical component;
      h_a is the witness.
    - Every component of V(J) has dimension at least c, the arity of J's ring
      minus its number of generators (Krull's height theorem; Matsumura,
      *Commutative Ring Theory*, Thm 13.5).  A vertical component inside no
      V(h_a o f) has an open dense part off them, with an image of dimension
      below n and fibres of dimension at most i*lambda, so its dimension is
      below n + i*lambda; one inside V(h_a o f) has dimension at most d.
      ``n + i*lambda <= c`` with every d below c proves there is none.
    """
    strat = setup.stratification
    if strat.generic is None:
        return None
    bound = setup.n + i * strat.generic.fibre_dim
    for h, pairs in strat.generic_meets:
        d = max((e + i * j for e, j in pairs if e >= 0), default=-1)
        if d >= bound:
            return VerticalResult(
                True,
                transport(h, J.ring),
                f"zero set of {h} has dimension {d} >= n + i*lambda = {bound}",
            )
    c = J.ring.arity - len(J.generators)
    if bound > c:
        return None
    # each dim V(J + (h_a)) is below bound, so below c
    return VerticalResult(
        False,
        None,
        f"every component has dimension >= {c} >= n + i*lambda = {bound}, "
        "more than each leading-coefficient zero set",
    )


def _vertical(J: Ideal, n: int) -> VerticalResult:
    """The vertical test on J by saturation, for an irreducible target of
    dimension n.

    A non-dense image is vertical.  Otherwise ``_stabilize`` against the
    image leaves leading coefficients h none of which vanishes on the
    target Y.  At every target point where no h vanishes, the specialized
    block basis is a Groebner basis of the fibre (Kalkbrener, JSC 1997), so
    the standard monomials are a free basis of X over U = Y minus the union
    of the V(h), and X is flat over U.  Flat maps of finite type are open
    (Hartshorne, *Algebraic Geometry*, Ex. III.9.1), so every component that
    meets the preimage of U dominates the irreducible Y.  Hence a vertical
    component lies inside some V(h o f), and one saturation per h decides.
    """
    ring = J.ring
    image = elimination_ideal(J, ring.split)
    image_dim = krull_dimension(image)
    if image_dim < n:
        return VerticalResult(True, image.generators[0], f"image closure has dimension {image_dim} < {n}")

    # image + flagged has the radical of image, so every flag comes out the same
    current, _, rel, _ = _stabilize(J, image)

    for h in sorted({c for _, c in rel if not c.is_constant()}, key=str):
        off = saturation(current, transport(h, ring))
        for g in off.generators:
            if not radical_member(g, current):
                # some component lies inside {h o f = 0}; its image sits in the
                # proper closed set {h = 0} of the irreducible target
                return VerticalResult(True, g, f"component inside the zero set of {h}")
    return VerticalResult(False, None, "no component inside a leading-coefficient zero set, off which X is flat")


def single_rational_point(I: Ideal) -> tuple[Fraction, ...] | None:
    """The unique point of V(I) when it is one rational point, else None.

    For each variable v the univariate elimination ideal must be generated
    by a power (v - a)^d of a linear factor with a rational root a.  Then
    V(I) is the one point of these roots, over the complex numbers, not just
    among the rational points, and no generator needs checking there: I is
    proper and zero-dimensional, so V(I) has a complex point (the weak
    Nullstellensatz; Cox, Little and O'Shea, Ch. 4 Sec. 1), and each
    coordinate of any such point is a root of its variable's (v - a)^d,
    which lies in I.
    """
    ring = I.ring
    if krull_dimension(I) != 0:
        return None
    coords: list[Fraction] = []
    for name in ring.variables:
        flat = PolynomialRing((name, *[v for v in ring.variables if v != name]), ())
        lifted = Ideal(flat, [transport(g, flat) for g in I.generators])
        # I is proper of dimension 0, so every I meet Q[v] is nonzero (the
        # Finiteness Theorem; Cox, Little and O'Shea, *Ideals, Varieties, and
        # Algorithms*, Ch. 5 Sec. 3) and its monic generator has degree >= 1
        g = elimination_ideal(lifted, 1).groebner_basis().elements[0]
        coeffs = _univariate_coefficients(g, 0)
        degree = len(coeffs) - 1
        # a monic univariate with a single root a is g = (v - a)^degree, whose
        # coefficient of v^j is comb(degree, j) * (-a)^(degree - j)
        root = -coeffs[degree - 1] / degree
        if any(c != comb(degree, j) * (-root) ** (degree - j) for j, c in enumerate(coeffs)):
            return None
        coords.append(root)
    return tuple(coords)


# ---------------------------------------------------------------------------
# fibred powers
# ---------------------------------------------------------------------------


def fibred_power(setup: ProjectionSetup, i: int) -> Ideal:
    """The ideal of the i-fold fibre product of X with itself over Y.

    Its ring repeats the source block i times with renamed variables: copy t
    is the t-th k-wide slice of ``ring.source_vars``.  The ideal joins the
    target equations with i copies of the source equations, copy t mapping
    the target block to itself and the source block to slice t.  The power 1
    is X itself, ``setup.total_ideal``, whose cached bases then serve.
    """
    if i < 1:
        raise FibrephiError("fibred power index must be at least 1")
    if i == 1:
        return setup.total_ideal
    taken = set(setup.ring.target_vars)
    copies: list[tuple[str, ...]] = []
    for t in range(1, i + 1):
        block = []
        for name in setup.ring.source_vars:
            fresh = f"{name}__{t}"
            while fresh in taken:
                fresh += "_"
            taken.add(fresh)
            block.append(fresh)
        copies.append(tuple(block))
    ring = PolynomialRing(setup.ring.target_vars, [n for block in copies for n in block])
    gens: list[Polynomial] = [transport(g, ring) for g in setup.target_ideal.generators]
    split, k = setup.ring.split, setup.k
    for t in range(i):
        column = [*range(split), *range(split + t * k, split + (t + 1) * k)]
        gens.extend(_ring_map(setup.source_generators, ring, column, {}))
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# rational sampling of cells (the oracle's point supply)
# ---------------------------------------------------------------------------


def _univariate_coefficients(p: Polynomial, index: int) -> list[Fraction]:
    """Coefficient list (low to high) of a polynomial using one variable only."""
    degree = max((m[index] for m in p.monomials()), default=0)
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, c in p._terms.items():
        if any(e for i, e in enumerate(mono) if i != index and e):
            raise FibrephiError("polynomial is not univariate in the requested variable")
        coeffs[mono[index]] = c
    return coeffs


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num = isqrt(value.numerator)
    den = isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _rational_roots(u: Polynomial, index: int) -> list[Fraction]:
    """Distinct rational roots, ascending, of a linear or quadratic polynomial
    in the variable at ``index``; ``[]`` for any other degree."""
    coeffs = _univariate_coefficients(u, index)
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    if len(coeffs) == 3:
        c, b, a = coeffs
        root = _rational_sqrt(b * b - 4 * a * c)
        if root is not None:
            return sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)})
    return []


def sample_cell_points(cell: Cell, rng: Random, want: int) -> list[tuple[Fraction, ...]]:
    """Exact rational points on a cell: on its closure, off its inequations.

    Free coordinates get random integers of height at most 100.  A
    constrained coordinate takes a rational root of the first lexicographic
    basis element that pins it (``_rational_roots``: linear or quadratic
    only), with a random choice between two distinct roots and no draw for a
    double root; the other elements pinning it must vanish there, or the
    attempt fails.  Membership is verified by mapping every closure generator
    and inequation to its value at the point (``_ring_map``), so a returned
    point is guaranteed to lie on the cell.  Cells where no point is found
    within the attempt budget come back empty; callers should report the skip.

    ``SAMPLE_ATTEMPTS`` is an upper bound: sampling stops after the first
    attempt that drew no random number, whatever that attempt's outcome.  An
    attempt depends only on the lex basis, the closure generators, the
    inequations and its draws, so with no draw it is a pure function of the
    cell, and every later attempt would take the same path, reach the same
    outcome and again draw nothing.  Stopping therefore returns the list the
    full budget would return and leaves ``rng`` where it would leave it.
    """
    closure = cell.closure
    ring = closure.ring
    n = ring.arity
    if closure.is_unit():
        return []
    by_leading_var: dict[int, list[Polynomial]] = {}
    for g in closure.groebner_basis(LEX).elements:
        lead = min(
            i for mono in g.monomials() for i, e in enumerate(mono) if e
        )
        by_leading_var.setdefault(lead, []).append(g)

    points: list[tuple[Fraction, ...]] = []
    drew = True
    for _ in range(SAMPLE_ATTEMPTS):
        if len(points) >= want or not drew:
            break
        drew = False
        at: dict[int, Fraction] = {}
        for v in reversed(range(n)):
            # every element that pins v uses only v and later variables, all
            # drawn already, so each image is univariate in v
            group = by_leading_var.get(v)
            constraints = [u for u in _ring_map(group, ring, range(n), at) if u] if group else []
            if not constraints:
                at[v] = Fraction(rng.randint(-100, 100))
                drew = True
                continue
            roots = _rational_roots(constraints[0], v)
            if len(roots) == 2:
                roots = [rng.choice(roots)]
                drew = True
            if not roots or any(_ring_map(constraints[1:], ring, range(n), {v: roots[0]})):
                break
            at[v] = roots[0]
        else:
            point = tuple(at[v] for v in range(n))
            if any(_ring_map(closure.generators, ring, range(n), at)):
                continue
            if not all(_ring_map(cell.inequations, ring, range(n), at)):
                continue
            if point not in points:  # at most ``want`` points: a list scan is enough
                points.append(point)
    return points
