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
from .orders import GREVLEX, LEX, Monomial, monomial_gcd
from .poly import Polynomial, PolynomialRing, transport
from .groebner import (
    Ideal,
    elimination_ideal,
    ideal_intersection,
    independent_set_dimension,
    krull_dimension,
    radical_member,
    saturation,
)

# Resource caps, read when they are enforced (as in groebner).  Too many
# stratification nodes or splitting levels raise ResourceLimitError (the
# purity and vertical tests report a splitting overrun as inconclusive); an
# exhausted vertical depth is inconclusive; a cell that yields no point within
# the sampling attempts comes back empty.
STRATIFY_MAX_NODES = 512
SPLIT_DEPTH = 8
VERTICAL_DEPTH = 4
SAMPLE_ATTEMPTS = 400


# ---------------------------------------------------------------------------
# projection setup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionSetup:
    """The data of a projection f: X -> Y together with its derived dimensions.

    X sits inside Y x Omega where Omega is affine space on the source
    variables; Y is cut out by ``target_ideal`` in ``ring.target_ring()``
    and lies in an ambient target that only ``N`` records.  Every derived
    number is recomputed from the ideals, never trusted from input.  The
    dimensions carry the paper's letters: ``N`` of the ambient target, ``n``
    of Y, ``m`` of X, ``k`` of Omega and ``r`` the number of source generators.
    """

    ring: PolynomialRing
    target_ideal: Ideal
    source_generators: tuple[Polynomial, ...]
    assert_target_locally_irreducible: bool
    assert_target_pure_dimensional: bool
    N: int
    n: int
    total_ideal: Ideal
    m: int

    @property
    def k(self) -> int:
        return len(self.ring.source_vars)

    @property
    def r(self) -> int:
        return len(self.source_generators)

    def dims(self) -> dict[str, int]:
        return {"N": self.N, "n": self.n, "k": self.k, "r": self.r, "m": self.m}


def make_setup(
    ring: PolynomialRing,
    ambient_target_generators: Sequence[Polynomial],
    source_generators: Sequence[Polynomial],
    target_generators: Sequence[Polynomial] | None = None,
    assert_target_locally_irreducible: bool = False,
    assert_target_pure_dimensional: bool = False,
) -> ProjectionSetup:
    """Validate the input data and compute the derived dimensions N, n, k, r, m.

    With no ``target_generators`` the target is the ambient target itself.
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
            if p.ring == yring:
                out.append(p)
                continue
            if p.ring != ring:
                raise SetupError(f"{label} generator lives in a foreign ring")
            extra = p.variables_used() - target_names
            if extra:
                raise SetupError(f"{label} generator uses source variables {sorted(extra)}")
            out.append(transport(p, yring))
        return [p for p in out if not p.is_zero]

    ambient = Ideal(yring, to_target(ambient_target_generators, "ambient target"))
    if target_generators is None:
        target = ambient
    else:
        target = Ideal(yring, to_target(target_generators, "target"))
        for g in ambient.generators:
            if not radical_member(g, target):
                raise SetupError(
                    "target variety is not contained in the ambient target variety"
                )

    sources = tuple(source_generators)
    if not sources:
        raise SetupError("at least one source generator is required")
    for g in sources:
        if g.ring != ring:
            raise SetupError("source generator lives in a foreign ring")
        if g.is_zero:
            raise SetupError("zero generator in the source ideal")

    ambient_dim = krull_dimension(ambient)
    target_dim = krull_dimension(target)
    if ambient_dim < target_dim:
        raise InternalInconsistencyError("ambient dimension below target dimension")

    total = Ideal(ring, [transport(g, ring) for g in target.generators] + list(sources))
    if total.is_unit():
        raise EmptySpaceError("the source space X is empty (unit ideal)")
    total_dim = krull_dimension(total)

    return ProjectionSetup(
        ring=ring,
        target_ideal=target,
        source_generators=sources,
        assert_target_locally_irreducible=assert_target_locally_irreducible,
        assert_target_pure_dimensional=assert_target_pure_dimensional,
        N=ambient_dim,
        n=target_dim,
        total_ideal=total,
        m=total_dim,
    )


# ---------------------------------------------------------------------------
# image closures and fibres
# ---------------------------------------------------------------------------


def image_closure(J: Ideal) -> tuple[Ideal, int]:
    """Closure of the projection image: eliminate all source variables."""
    E = elimination_ideal(J, J.ring.split)
    return E, krull_dimension(E)


def fibre_at_point(
    setup: ProjectionSetup,
    point: Sequence[Fraction | int],
) -> tuple[Ideal, int]:
    """Ideal and dimension of the fibre over an exact rational target point.

    The point must satisfy the target ideal exactly; the empty fibre reports
    dimension -1.
    """
    names = setup.ring.target_vars
    if len(point) != len(names):
        raise OffTargetError(f"expected {len(names)} coordinates, got {len(point)}")
    assignment = dict(zip(names, point))
    for g in setup.target_ideal.generators:
        if g.evaluate(assignment) != 0:
            raise OffTargetError(f"point does not satisfy target equation {g}")
    xring = setup.ring.source_ring()
    specialized = []
    for g in setup.total_ideal.generators:
        s = g.specialize(assignment)
        if not s.is_zero:
            specialized.append(transport(s, xring))
    fibre = Ideal(xring, specialized)
    return fibre, krull_dimension(fibre)


# ---------------------------------------------------------------------------
# the relative (parametric) view of a block-order basis
# ---------------------------------------------------------------------------


def relative_terms(J: Ideal) -> list[tuple[Monomial, Polynomial]]:
    """Relative leading data of the block-order basis of ``J``.

    Each basis element, seen as a polynomial in x over y, gives the pair of
    its x-leading monomial (the exponent tuple over the source block only)
    and that monomial's coefficient in the target ring.  A purely
    target-side element carries the trivial x-monomial and is its own
    coefficient; a mixed one has ``any(x_monomial)``.
    """
    ring = J.ring
    yring = ring.target_ring()
    split = ring.split
    out = []
    for g in J.groebner_basis(ring.source_block_order()).elements:
        groups: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in g.as_dict().items():
            groups.setdefault(mono[split:], {})[mono[:split]] = coeff
        x_lead = max(groups, key=GREVLEX.key)
        out.append((x_lead, Polynomial(yring, groups[x_lead])))
    return out


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
    per fibre dimension in increasing order."""

    strata: tuple[Stratum, ...]

    @property
    def fibre_dimensions(self) -> tuple[int, ...]:
        return tuple(s.fibre_dim for s in self.strata)

    @property
    def min_fibre_dim(self) -> int:
        return self.strata[0].fibre_dim

    def stratum(self, j: int) -> Stratum | None:
        for s in self.strata:
            if s.fibre_dim == j:
                return s
        return None


def stratify_by_fibre_dimension(setup: ProjectionSetup) -> Stratification:
    """Partition the image of f by fibre dimension via recursive case splitting.

    Each node carries a constraint ideal C of the target ring.  The
    block-order basis of J + C either adds target equations (cutting away a
    locus of empty fibres), or exposes leading coefficients whose complement
    is a cell of constant fibre dimension; recursion descends into each
    coefficient's zero locus.  Constraint ideals grow strictly, so the tree
    is finite.
    """
    ring = setup.ring
    k = setup.k
    J = setup.total_ideal
    cells: list[Cell] = []
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

        # stabilize the node: absorb new target equations and vanishing
        # leading coefficients into the constraint ideal
        current = constraint
        stable: list[tuple[Monomial, Polynomial]] | None = None
        for _ in range(64):
            Jc = J.added(transport(g, ring) for g in current.generators)
            if Jc.is_unit():
                break
            rel = relative_terms(Jc)
            pure = [c for x, c in rel if not any(x)]
            new_equations = [g for g in pure if not radical_member(g, current)]
            if new_equations:
                # off V(new equations) the specialized ideal contains a unit,
                # so fibres there are empty; only the refined locus survives
                pending.append(current.added(pure))
                break
            flagged = [
                c for x, c in rel if any(x) and not c.is_constant() and radical_member(c, current)
            ]
            if not flagged:
                stable = rel
                break
            # flagged coefficients vanish on V(current); adding them keeps the
            # variety and forces the basis to re-express those elements
            current = current.added(flagged)
        else:
            raise InternalInconsistencyError("stratification node failed to stabilize")
        if stable is None:
            continue  # an empty locus, or one refined into a pending node

        mixed = [(x, c) for x, c in stable if any(x)]
        fibre_dim = independent_set_dimension([x for x, _ in mixed], k)
        lead_coeffs = sorted({c for _, c in mixed if not c.is_constant()}, key=str)
        closure = current
        for h in lead_coeffs:
            closure = saturation(closure, h)[0]
            if closure.is_unit():
                break
        if not closure.is_unit():
            cells.append(Cell(closure, tuple(lead_coeffs), fibre_dim))
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
    return Stratification(tuple(strata))


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
        cands.setdefault(p.monic(GREVLEX))

    basis = J.groebner_basis(GREVLEX)
    used: set[str] = set()
    for g in list(basis.elements) + list(J.generators):
        used |= g.variables_used()
        monos = list(g.monomials())
        content = monos[0]
        for m in monos[1:]:
            content = monomial_gcd(content, m)
        if any(content):
            for i, e in enumerate(content):
                if e:
                    push(ring.variable(ring.variables[i]))
            cofactor = Polynomial(
                g.ring,
                {tuple(a - b for a, b in zip(m, content)): c for m, c in g.as_dict().items()},
            )
            push(cofactor)
    for name in sorted(used):
        push(ring.variable(name))
    if ring.target_vars and ring.source_vars:
        for x, c in relative_terms(J):
            if any(x):
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
    dimension is skipped without a saturation.  The pieces are the same
    either way.
    """
    if J.is_unit():
        raise PreconditionError("split_components needs a proper ideal")
    return _prune(_split(J, SPLIT_DEPTH, _unmixed_dimension(J)))


def _unmixed_dimension(I: Ideal) -> int | None:
    """dim V(I) when I is a complete intersection, else None.

    An ideal of a polynomial ring generated by as many elements as its
    codimension is unmixed (Macaulay; Matsumura, *Commutative Ring Theory*,
    Thm 17.6), so every component of V(I) then has the returned dimension.
    """
    dim = krull_dimension(I)
    return dim if len(I.generators) == I.ring.arity - dim else None


def _split(J: Ideal, depth: int, pure_dim: int | None = None) -> list[Ideal]:
    """Pseudo-components of V(J), trying each splitting candidate h in turn.

    ``pure_dim`` is None, or the dimension that an unmixedness certificate
    (Matsumura Thm 17.6) gives every component of V(J).  Then
    ``dim V(J + (h)) < pure_dim`` proves that h vanishes on no component, so
    ``J : h^inf`` has the radical of J and its saturation could only report
    "did not shrink"; such an h is skipped.  The pieces of a successful split
    carry no certificate.
    """
    for h in _splitter_candidates(J):
        if pure_dim is not None and krull_dimension(J.added([h])) < pure_dim:
            continue  # h vanishes on no component of the pure V(J)
        off, _ = saturation(J, h)
        if off.is_unit():
            continue  # everything lies inside V(h): no off-part to split away
        if all(radical_member(g, J) for g in off.generators):
            continue  # saturation did not shrink the variety
        if depth <= 0:
            raise ResourceLimitError("component splitting depth cap exceeded")
        pieces = [off]
        inside = J.added([h])
        # keep only genuine components inside V(h): saturating by the
        # off-part's generators removes the slices of other components
        for g in off.generators:
            part, _ = saturation(inside, g)
            if not part.is_unit():
                pieces.append(part)
        out: list[Ideal] = []
        for piece in pieces:
            out.extend(_split(piece, depth - 1))
        return out
    return [J]


def _prune(pieces: Iterable[Ideal]) -> list[Ideal]:
    ordered = sorted(pieces, key=lambda I: tuple(map(str, I.generators)))
    kept: list[Ideal] = []
    for piece in ordered:
        redundant = False
        for other in kept:
            if _variety_contained(piece, other):
                redundant = True
                break
        if redundant:
            continue
        kept = [o for o in kept if not _variety_contained(o, piece)]
        kept.append(piece)
    return kept


@dataclass(frozen=True)
class PurityResult:
    """Outcome of the equidimensionality check.

    ``pure`` is True/False when decided, None when the splitting depth cap
    prevented a verdict.
    """

    pure: bool | None
    dim: int
    piece_dims: tuple[int, ...]


def pure_dimension_check(J: Ideal) -> PurityResult:
    """Split into pseudo-components and compare their dimensions."""
    if J.is_unit():
        raise PreconditionError("pure_dimension_check needs a proper ideal")
    dim = krull_dimension(J)
    try:
        pieces = split_components(J)
    except ResourceLimitError:
        return PurityResult(None, dim, ())
    piece_dims = tuple(sorted((krull_dimension(p) for p in pieces), reverse=True))
    return PurityResult(len(set(piece_dims)) == 1, dim, piece_dims)


# ---------------------------------------------------------------------------
# vertical components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalResult:
    """Three-valued verdict on the existence of a vertical component.

    ``verdict`` True means some irreducible component of the source maps into
    a proper closed subset of the target; the witness polynomial vanishes on
    that component but not on the whole source.  None means the recursion
    depth was exhausted before a decision; it is never coerced to False.
    """

    verdict: bool | None
    witness: Polynomial | None = None
    detail: str = ""


def has_vertical_component(J: Ideal, setup: ProjectionSetup) -> VerticalResult:
    """Decide whether V(J) has a component with lower-dimensional image.

    Requires the target to be attested locally irreducible: the test reads
    "image inside a proper closed subset" as "empty interior", which needs an
    irreducible target.  ``J`` may live in the setup's own ring or in a
    fibred-power ring sharing the target block.  The recursion into
    pseudo-components stops, inconclusive, after ``VERTICAL_DEPTH`` levels.
    """
    if not setup.assert_target_locally_irreducible:
        raise PreconditionError(
            "vertical-component detection requires the locally-irreducible attestation"
        )
    if J.ring.target_vars != setup.ring.target_vars:
        raise FibrephiError("ideal does not share the setup's target block")
    if J.is_unit():
        return VerticalResult(False, None, "empty space has no components")
    return _vertical(J, setup.n, VERTICAL_DEPTH)


def _vertical(J: Ideal, n: int, depth: int) -> VerticalResult:
    ring = J.ring
    yring = ring.target_ring()

    image, image_dim = image_closure(J)
    if image_dim < n:
        witness = image.generators[0] if image.generators else None
        return VerticalResult(True, witness, f"image closure has dimension {image_dim} < {n}")

    # stabilize: leading coefficients vanishing on the image closure are added
    # to the ideal (variety unchanged) until none remain flagged
    current = J
    rel: list[tuple[Monomial, Polynomial]] = []
    for _ in range(64):
        rel = relative_terms(current)
        closure_y = Ideal(yring, [c for x, c in rel if not any(x)])
        flagged = [
            c for x, c in rel if any(x) and not c.is_constant() and radical_member(c, closure_y)
        ]
        if not flagged:
            break
        lifted = [transport(c, ring) for c in flagged]
        for c in lifted:
            if not radical_member(c, current):
                raise InternalInconsistencyError(
                    "a coefficient vanishing on the image fails to vanish on the source"
                )
        current = current.added(lifted)
    else:
        raise InternalInconsistencyError("leading-coefficient stabilization did not settle")

    lead_coeffs = sorted({c for x, c in rel if any(x) and not c.is_constant()}, key=str)
    for h in lead_coeffs:
        off, _ = saturation(current, transport(h, ring))
        for g in off.generators:
            if not radical_member(g, current):
                # some component lies inside {h o f = 0}; its image sits in the
                # proper closed set {h = 0} of the irreducible target
                return VerticalResult(True, g, f"component inside the zero set of {h}")

    if depth <= 0:
        return VerticalResult(None, None, "recursion depth exhausted")
    try:
        pieces = split_components(current)
    except ResourceLimitError:
        return VerticalResult(None, None, "component splitting hit its depth cap")
    if len(pieces) == 1:
        return VerticalResult(False, None, "")
    undecided = False
    for piece in pieces:
        result = _vertical(piece, n, depth - 1)
        if result.verdict:
            return result
        if result.verdict is None:
            undecided = True
    if undecided:
        return VerticalResult(None, None, "a pseudo-component stayed undecided")
    return VerticalResult(False, None, "")


def single_rational_point(I: Ideal) -> tuple[Fraction, ...] | None:
    """The unique point of V(I) when it is one rational point, else None.

    For each variable the univariate elimination ideal must be generated by a
    power of a linear factor with a rational root; the combined candidate is
    then verified against every generator.  This certifies the variety over
    the complex numbers, not just its rational points.
    """
    ring = I.ring
    if krull_dimension(I) != 0:
        return None
    coords: dict[str, Fraction] = {}
    for name in ring.variables:
        flat = PolynomialRing((name, *[v for v in ring.variables if v != name]), ())
        lifted = Ideal(flat, [transport(g, flat) for g in I.generators])
        univariate = elimination_ideal(lifted, 1)
        if not univariate.generators:
            return None
        g = univariate.groebner_basis().elements[0]
        degree = g.degree_in(name)
        if degree < 1:
            return None
        uring = g.ring
        # a monic univariate with a single root a satisfies g = (v - a)^degree
        second = g.coefficient((degree - 1,))
        root = -second / degree
        model = (uring.variable(name) - uring.constant(root)) ** degree
        if model != g:
            return None
        coords[name] = root
    if any(g.evaluate(coords) != 0 for g in I.generators):
        return None
    return tuple(coords[name] for name in ring.variables)


# ---------------------------------------------------------------------------
# fibred powers
# ---------------------------------------------------------------------------


def fibred_power(setup: ProjectionSetup, i: int) -> Ideal:
    """The ideal of the i-fold fibre product of X with itself over Y.

    Its ring repeats the source block i times with renamed variables: copy t
    is the t-th k-wide slice of ``ring.source_vars``.  The ideal joins the
    target equations with i renamed copies of the source equations.
    """
    if i < 1:
        raise FibrephiError("fibred power index must be at least 1")
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
    for block in copies:
        rename = dict(zip(setup.ring.source_vars, block))
        gens.extend(transport(g, ring, rename) for g in setup.source_generators)
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# rational sampling of cells (the oracle's point supply)
# ---------------------------------------------------------------------------


def _univariate_coefficients(p: Polynomial, index: int) -> list[Fraction]:
    """Coefficient list (low to high) of a polynomial using one variable only."""
    degree = max((m[index] for m in p.monomials()), default=0)
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, c in p.as_dict().items():
        if any(e for i, e in enumerate(mono) if i != index and e):
            raise FibrephiError("polynomial is not univariate in the requested variable")
        coeffs[mono[index]] += c
    return coeffs


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    import math

    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def sample_cell_points(
    cell: Cell,
    rng: Random,
    want: int = 20,
) -> list[tuple[Fraction, ...]]:
    """Exact rational points on a cell: on its closure, off its inequations.

    Free coordinates get random integers of height at most 100; constrained
    coordinates are solved from the lexicographic basis (linear exactly,
    quadratic via rational square roots).  Membership is verified by
    evaluating every closure generator, so a returned point is guaranteed to
    lie on the cell.  Cells where no point is found within the attempt budget
    come back empty; callers should report the skip.
    """
    closure = cell.closure
    ring = closure.ring
    n = ring.arity
    basis = closure.groebner_basis(LEX)
    if basis.is_unit():
        return []
    by_leading_var: dict[int, list[Polynomial]] = {}
    for g in basis.elements:
        lead = min(
            i for mono in g.monomials() for i, e in enumerate(mono) if e
        )
        by_leading_var.setdefault(lead, []).append(g)

    points: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for _ in range(SAMPLE_ATTEMPTS):
        if len(points) >= want:
            break
        values: dict[str, Fraction] = {}
        ok = True
        for v in reversed(range(n)):
            name = ring.variables[v]
            constraints = []
            for g in by_leading_var.get(v, []):
                u = g.specialize(values)
                if not u.is_zero:
                    constraints.append(u)
            if not constraints:
                values[name] = Fraction(rng.randint(-100, 100))
                continue
            candidate: Fraction | None = None
            u = constraints[0]
            coeffs = _univariate_coefficients(u, v)
            degree = len(coeffs) - 1
            if degree == 0:
                ok = False
            elif degree == 1:
                candidate = -coeffs[0] / coeffs[1]
            elif degree == 2:
                a, b, c = coeffs[2], coeffs[1], coeffs[0]
                root = _rational_sqrt(b * b - 4 * a * c)
                if root is None:
                    ok = False
                else:
                    options = sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)})
                    candidate = rng.choice(options)
            else:
                ok = False
            if not ok:
                break
            assert candidate is not None
            for u2 in constraints[1:]:
                if u2.specialize({name: candidate}).constant_value() != 0:
                    ok = False
                    break
            if not ok:
                break
            values[name] = candidate
        if not ok:
            continue
        point = tuple(values[name] for name in ring.variables)
        if any(g.evaluate(values) != 0 for g in closure.generators):
            continue
        if any(h.evaluate(values) == 0 for h in cell.inequations):
            continue
        if point in seen:
            continue
        seen.add(point)
        points.append(point)
    return points
