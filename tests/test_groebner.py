"""Groebner engine: bases, normal forms, membership, elimination, saturation,
dimension.  sympy serves as an independent oracle for basis computations."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

from fibrephi import (
    GREVLEX,
    LEX,
    Ideal,
    PolynomialRing,
    elimination_ideal,
    fibred_power,
    ideal_intersection,
    krull_dimension,
    parse_polynomial,
    radical_member,
    saturation,
)
from fibrephi.cli import load_setup, required_max_power
from fibrephi.errors import FibrephiError, ResourceLimitError
from fibrephi import geometry, groebner
from fibrephi.groebner import independent_set_dimension
from fibrephi.invariant import analyze
from fibrephi.orders import Block, monomial_div, monomial_lcm, monomial_mul
from fibrephi.poly import (
    Polynomial,
    _monic_terms,
    _negated_terms,
    _product_terms,
    _ring_map,
    _sum_terms,
    transport,
)

from conftest import FIXTURES, cyclic_family_setup, power, ring_xy, ring_y_x


def P(text, ring):
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# S-polynomials
# ---------------------------------------------------------------------------


def test_spoly_cancels_leading_terms():
    ring = ring_xy()
    f, g = P("x^2 - y", ring), P("x", ring)
    s = groebner._spoly_dict((2, 0), f.as_dict(), (1, 0), g.as_dict())
    assert Polynomial(ring, s) == P("-y", ring)


def test_spoly_self_pair_is_zero():
    ring = ring_xy()
    f = P("x^2*y - 3*x", ring).as_dict()
    assert groebner._spoly_dict((2, 1), f, (2, 1), f) == {}


def test_spoly_coprime_leading_terms():
    ring = ring_xy()
    x, y = P("x", ring).as_dict(), P("y", ring).as_dict()
    assert groebner._spoly_dict((1, 0), x, (0, 1), y) == {}


_ring3 = PolynomialRing((), ("x", "y", "z"))
_terms3 = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    min_size=1,
    max_size=5,
)


@given(_terms3, _terms3)
@settings(max_examples=150, deadline=None)
def test_spoly_matches_polynomial_arithmetic(a, b):
    # S(f, g) = (lcm/lm f)*f - (lcm/lm g)*g on monic f and g; g a monomial
    # multiple of f cancels to nothing
    (lmf, f), (lmg, g) = _monic_terms(a, GREVLEX.key), _monic_terms(b, GREVLEX.key)
    lcm = monomial_lcm(lmf, lmg)
    qf = Polynomial(_ring3, {monomial_div(lcm, lmf): 1})
    qg = Polynomial(_ring3, {monomial_div(lcm, lmg): 1})
    expected = qf * Polynomial(_ring3, f) - qg * Polynomial(_ring3, g)
    s = groebner._spoly_dict(lmf, f, lmg, g)
    assert s == expected._terms and all(type(c) is Fraction and c for c in s.values())
    shifted = {monomial_mul(m, lmg): c for m, c in f.items()}
    assert groebner._spoly_dict(lmf, f, monomial_mul(lmf, lmg), shifted) == {}


@given(_terms3, _terms3)
@settings(max_examples=150, deadline=None)
def test_term_loops_leave_their_inputs_alone(a, b):
    # a basis element shares its term dict with its divisor entry, and the
    # kernel is handed each generator's own term dict, so no loop may write
    # to a dict it is given
    snapshot = (list(a.items()), list(b.items()))
    assert _sum_terms(a, b) is not a
    _product_terms(a, b)
    _negated_terms(a)
    lm, monic = _monic_terms(a, GREVLEX.key)
    assert monic[lm] == 1 and (monic is a) == (a[lm] == 1)
    (lmf, f), (lmg, g) = _monic_terms(a, LEX.key), _monic_terms(b, LEX.key)
    groebner._spoly_dict(lmf, f, lmg, g)
    basis = groebner._buchberger([a, b], GREVLEX.key)
    assert all(d is not a and d is not b for _, d in basis)
    groebner._normal_form_dict(a, groebner._buchberger([b], LEX.key), LEX.key, {}, _budget())
    assert (list(a.items()), list(b.items())) == snapshot


def test_monic_terms_returns_a_monic_input_itself():
    ring = ring_xy()
    f = P("x^2 - 3*y", ring)
    lm, terms = _monic_terms(f._terms, GREVLEX.key)
    assert lm == (2, 0) and terms is f._terms
    assert f.monic() is f
    g = P("-2*x^2 + 3*y", ring)
    lm, terms = _monic_terms(g._terms, GREVLEX.key)
    assert lm == (2, 0) and terms == {(2, 0): 1, (0, 1): Fraction(-3, 2)}
    assert g.monic() == Polynomial(ring, terms) == P("x^2 - 3/2*y", ring)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def _budget():
    return groebner._ReductionBudget(groebner.GROEBNER_MAX_REDUCTIONS)


def test_normal_form_against_self():
    ring = ring_xy()
    f = P("x^2*y - y + 1", ring).as_dict()
    assert groebner._normal_form_dict(f, [((2, 1), f)], GREVLEX.key, {}, _budget()) == {}


def test_normal_form_unit_survives_proper_ideal():
    ring = ring_xy()
    basis = Ideal(ring, [P("x^2", ring), P("y^3", ring)]).groebner_basis()
    one = ring.one().as_dict()
    assert groebner._normal_form_dict(one, basis.divisors, GREVLEX.key, {}, _budget()) == one


def _lex_divisors(basis):
    # every element given here is monic under lex already
    return [(max(b.monomials(), key=LEX.key), b.as_dict()) for b in basis]


def test_normal_form_textbook_division():
    ring = ring_xy()
    divisors = _lex_divisors([P("x*y - 1", ring), P("y^2 - 1", ring)])
    r = groebner._normal_form_dict(P("x^2*y", ring).as_dict(), divisors, LEX.key, {}, _budget())
    assert Polynomial(ring, r) == P("x", ring)


def test_division_certificate():
    ring = ring_xy()
    f = P("x^3*y^2 - x + 2*y", ring)
    divisors = _lex_divisors([P("x*y - 1", ring), P("y^2 - 1", ring)])
    remainder = groebner._normal_form_dict(f.as_dict(), divisors, LEX.key, {}, _budget())
    assert remainder
    for mono in remainder:
        assert all(any(m > e for m, e in zip(lm, mono)) for lm, _ in divisors)


# ---------------------------------------------------------------------------
# reduced bases
# ---------------------------------------------------------------------------


def test_char_zero_combination():
    ring = ring_xy()
    basis = Ideal(ring, [P("x^2 + y^2", ring), P("x^2 - y^2", ring)]).groebner_basis(LEX)
    assert [str(g) for g in basis.elements] == ["x^2", "y^2"]


def test_unit_ideal_basis():
    ring = ring_xy()
    basis = Ideal(ring, [P("x", ring), P("x - 1", ring)]).groebner_basis()
    assert basis.elements == (ring.one(),)


def test_principal_ideal_made_monic():
    ring = ring_xy()
    basis = Ideal(ring, [P("3*x^2 - 6*y", ring)]).groebner_basis()
    assert [str(g) for g in basis.elements] == ["x^2 - 2*y"]


def test_zero_generators_dropped():
    ring = ring_xy()
    ideal = Ideal(ring, [ring.zero(), P("x", ring), ring.zero()])
    assert ideal.generators == (P("x", ring),)


def test_basis_self_reduction_and_spolys():
    ring = PolynomialRing((), ("x", "y", "z"))
    ideal = Ideal(ring, [P("x*y - z", ring), P("y*z - 1", ring), P("x - z^2", ring)])
    basis = ideal.groebner_basis(GREVLEX)
    divisors = basis.divisors
    for i, (_, g) in enumerate(divisors):
        others = divisors[:i] + divisors[i + 1 :]
        # no term of any element is divisible by another leading monomial
        assert groebner._normal_form_dict(g, others, GREVLEX.key, {}, _budget()) == g
    # Buchberger's criterion: every S-polynomial reduces to zero
    for (lmf, f), (lmg, g) in itertools.combinations(divisors, 2):
        s = groebner._spoly_dict(lmf, f, lmg, g)
        assert not groebner._normal_form_dict(s, divisors, GREVLEX.key, {}, _budget())
    lead = [lm for lm, _ in divisors]
    assert len(set(lead)) == len(lead)
    _assert_basis_matches_sympy(ideal, GREVLEX, "grevlex")


def _random_poly(ring, rng, max_terms=3, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(ring.arity))
        terms[mono] = Fraction(rng.randint(-4, 4))
    return Polynomial(ring, terms)


def test_canonicity_under_generator_permutation():
    # redundant generators (a scalar multiple of a, a*m + b and a + 3*b) in
    # any order leave the reduced basis unchanged
    ring = PolynomialRing((), ("x", "y", "z"))
    rng = random.Random(20240)
    for order in (GREVLEX, LEX, Block(1)):
        for _ in range(25):
            gens = [_random_poly(ring, rng) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            reference = Ideal(ring, gens).groebner_basis(order).elements
            a, b = gens[0], gens[-1]
            m = _random_poly(ring, rng)
            shuffled = gens + [a.scale(Fraction(-2, 3)), a * m + b, a + 3 * b]
            rng.shuffle(shuffled)
            assert Ideal(ring, shuffled).groebner_basis(order).elements == reference


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for mono, coeff in p.as_dict().items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, mono):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def _assert_basis_matches_sympy(ideal, order, sympy_order):
    symbols = sympy.symbols(ideal.ring.variables)
    mine = ideal.groebner_basis(order).elements
    reference = sympy.groebner(
        [_to_sympy(g, symbols) for g in ideal.generators], *symbols, order=sympy_order
    )
    ref_exprs = {
        sympy.expand(poly.as_expr() / poly.LC(order=sympy_order)) for poly in reference.polys
    }
    assert {_to_sympy(g, symbols) for g in mine} == ref_exprs


@pytest.mark.parametrize("order_name,order", [("grevlex", GREVLEX), ("lex", LEX)])
def test_against_sympy_oracle(order_name, order):
    ring = PolynomialRing((), ("x", "y", "z"))
    rng = random.Random(99)
    for _ in range(12):
        gens = [g for g in (_random_poly(ring, rng) for _ in range(2)) if not g.is_zero]
        if gens:
            _assert_basis_matches_sympy(Ideal(ring, gens), order, order_name)


def _assert_block_basis_matches_sympy(ideal, split):
    # Block(split): grevlex on the back block decides, grevlex on the front breaks ties
    sympy_order = ProductOrder((grevlex, lambda m: m[split:]), (grevlex, lambda m: m[:split]))
    _assert_basis_matches_sympy(ideal, Block(split), sympy_order)


@pytest.mark.parametrize("split", [1, 2])
@pytest.mark.parametrize("nvars", [3, 4])
def test_block_order_against_sympy_oracle(split, nvars):
    ring = PolynomialRing((), ("x", "y", "z", "w")[:nvars])
    rng = random.Random(1000 * nvars + split)
    for _ in range(6):
        gens = [g for g in (_random_poly(ring, rng) for _ in range(3)) if not g.is_zero]
        if gens:
            _assert_block_basis_matches_sympy(Ideal(ring, gens), split)


@pytest.mark.parametrize("fixture,h", [("quadric_cone", "y1"), ("cyclic_forms_n2_l2", "y1 + x3")])
def test_block_order_saturation_ideal_against_sympy_oracle(fixture_dir, fixture, h):
    # the extended ideal J + (1 - t*h) that saturation() eliminates t from
    setup = load_setup(fixture_dir / f"{fixture}.setup").setup
    J = setup.total_ideal
    ring = J.ring
    ext = ring.extend([ring.fresh_name("t")])
    t = ext.variable(ext.variables[-1])
    h = transport(P(h, ring), ext)
    gens = [transport(g, ext) for g in J.generators] + [ext.one() - t * h]
    _assert_block_basis_matches_sympy(Ideal(ext, gens), ring.arity)


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.setup")))
def test_fibred_power_block_basis_against_sympy_oracle(fixture_dir, fixture):
    # the source-dominant basis of fibred power 2 that elimination_ideal and
    # relative_terms read
    setup = load_setup(fixture_dir / f"{fixture}.setup").setup
    power = fibred_power(setup, 2)
    _assert_block_basis_matches_sympy(power, power.ring.split)


def test_basis_cache_is_stable():
    ring = ring_xy()
    ideal = Ideal(ring, [P("x*y - 1", ring)])
    assert ideal.groebner_basis(GREVLEX) is ideal.groebner_basis(GREVLEX)


def test_added_keeps_the_ideal_when_nothing_is_new():
    # the same object keeps its cached bases; a new generator makes a new ideal
    ring = ring_xy()
    ideal = Ideal(ring, [P("x*y - 1", ring), P("x", ring)])
    assert ideal.added([]) is ideal
    assert ideal.added([P("x", ring), ring.zero(), P("x*y - 1", ring)]) is ideal
    grown = ideal.added([P("x", ring), P("y", ring)])
    assert grown is not ideal
    assert [str(g) for g in grown.generators] == ["x*y - 1", "x", "y"]


def test_concurrent_basis_requests_agree():
    import threading

    ring = PolynomialRing((), ("x", "y", "z"))
    ideal = Ideal(ring, [P("x*y - z", ring), P("y*z - 1", ring), P("x - z^2", ring)])
    results = []

    def worker():
        results.append(ideal.groebner_basis(GREVLEX))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r.elements == results[0].elements for r in results)


def test_reduction_budget_enforced(monkeypatch):
    monkeypatch.setattr(groebner, "GROEBNER_MAX_REDUCTIONS", 0)
    ring = PolynomialRing((), ("x", "y", "z"))
    ideal = Ideal(ring, [P("x*y - z", ring), P("y*z - 1", ring), P("x - z^2", ring)])
    with pytest.raises(ResourceLimitError):
        ideal.groebner_basis(GREVLEX)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_of_generator():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    q = P("y1*y4 - y2*y3", ring)
    assert Ideal(ring, [q]).contains(q)


def test_x_not_in_x_squared():
    ring = ring_xy()
    assert not Ideal(ring, [P("x^2", ring)]).contains(P("x", ring))


def test_membership_by_combination():
    ring = PolynomialRing(("y1",), ("x",))
    ideal = Ideal(ring, [P("x*y1", ring), P("x^2 - x", ring)])
    assert ideal.contains(P("x*(x - 1)", ring))


def test_membership_sound_on_random_combinations():
    ring = PolynomialRing((), ("x", "y", "z"))
    rng = random.Random(7)
    gens = [P("x*y - z", ring), P("y^2 - 1", ring)]
    ideal = Ideal(ring, gens)
    for _ in range(10):
        combo = ring.zero()
        for g in gens:
            combo = combo + _random_poly(ring, rng) * g
        assert ideal.contains(combo)


# ---------------------------------------------------------------------------
# radical membership
# ---------------------------------------------------------------------------


def test_radical_nilpotent_direction():
    ring = ring_xy()
    assert radical_member(P("x", ring), Ideal(ring, [P("x^2", ring)]))


def test_radical_independent_variable():
    ring = ring_xy()
    assert not radical_member(P("x", ring), Ideal(ring, [P("y", ring)]))


def test_radical_negative_witness_point():
    # the point (y1, x) = (0, 1) lies on the variety while x = 1 there
    ring = PolynomialRing(("y1",), ("x",))
    ideal = Ideal(ring, [P("x*y1", ring), P("x^2 - x", ring)])
    assert not radical_member(P("x", ring), ideal)


def test_radical_agrees_with_power_search():
    ring = ring_xy()
    rng = random.Random(11)
    for _ in range(8):
        gens = [g for g in (_random_poly(ring, rng) for _ in range(2)) if not g.is_zero]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        f = _random_poly(ring, rng, max_terms=2, max_degree=1)
        if f.is_zero:
            continue
        brute = any(ideal.contains(power(f, n)) for n in range(1, 7))
        if brute:
            assert radical_member(f, ideal)
        elif radical_member(f, ideal):
            # the trick may certify a power above the brute-force range
            assert not any(ideal.contains(power(f, n)) for n in range(1, 7))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def test_eliminate_parabola_parameter():
    ring = ring_y_x()
    ideal = Ideal(ring, [P("y - x^2", ring)])
    image = elimination_ideal(ideal, 1)
    assert image.is_zero_ideal
    assert krull_dimension(image) == 1


def test_keep_all_returns_same_ideal():
    ring = ring_xy()
    ideal = Ideal(ring, [P("x*y - 1", ring)])
    assert elimination_ideal(ideal, 2) is ideal


def test_elimination_of_quadric_family():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    ideal = Ideal(ring, [P("y1*y4 - y2*y3", ring), P("y1*x^2 + y4*x + y2 - y3", ring)])
    image = elimination_ideal(ideal, 4)
    assert image.ring == PolynomialRing(("y1", "y2", "y3", "y4"), ())
    assert [str(g) for g in image.groebner_basis().elements] == ["y2*y3 - y1*y4"]


def test_elimination_generators_stay_in_ideal():
    ring = PolynomialRing(("y1", "y2"), ("x1", "x2"))
    ideal = Ideal(ring, [P("x1*y1 - y2", ring), P("x1*x2 - y1", ring)])
    image = elimination_ideal(ideal, 2)
    from fibrephi import transport

    for g in image.generators:
        assert ideal.contains(transport(g, ring))


@pytest.mark.parametrize("count", [0, 4])
def test_elimination_count_out_of_range(count):
    ring = PolynomialRing(("y1", "y2"), ("x",))
    ideal = Ideal(ring, [P("x - y1", ring)])
    with pytest.raises(FibrephiError, match=f"cannot keep {count} of 3 variables"):
        elimination_ideal(ideal, count)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_removes_a_component():
    ring = ring_y_x()
    ideal = Ideal(ring, [P("y*x", ring)])
    sat = saturation(ideal, P("y", ring))
    assert [str(g) for g in sat.generators] == ["x"]


def test_saturation_by_unit_is_identity():
    ring = ring_xy()
    ideal = Ideal(ring, [P("x*y - 1", ring)])
    assert saturation(ideal, ring.one()) is ideal


def test_saturation_of_the_zero_ideal_is_zero():
    ring = ring_xy()
    assert saturation(Ideal(ring, []), P("x", ring)).is_zero_ideal


def test_saturation_inside_zero_set_gives_unit():
    ring = ring_xy()
    assert saturation(Ideal(ring, [P("x^2", ring)]), P("x", ring)).is_unit()


def test_saturation_beyond_any_small_exponent_gives_unit():
    # the certificate needs h^70 * 1 in (x^70): seventy rounds, no exponent cap
    ring = ring_xy()
    assert saturation(Ideal(ring, [P("x^70", ring)]), P("x", ring)).is_unit()


def test_saturation_contract():
    ring = PolynomialRing(("y",), ("x1", "x2"))
    ideal = Ideal(ring, [P("y*x1", ring), P("y^2*x2 - y", ring)])
    h = P("y", ring)
    sat = saturation(ideal, h)
    for g in ideal.generators:
        assert sat.contains(g)
    # the least s with h^s * g in the ideal, for each generator g
    exponents = [
        next(s for s in range(8) if ideal.contains(power(h, s) * g)) for g in sat.generators
    ]
    assert exponents == [1, 1]
    assert saturation(sat, h).groebner_basis().elements == sat.groebner_basis().elements


@pytest.mark.parametrize("limit, refused", [(3, True), (4, False)])
def test_saturation_certificate_is_charged_to_the_reduction_budget(monkeypatch, limit, refused):
    # (x^3) : x^inf = (1), read off the generator with no basis; certifying
    # 1 takes three rounds and one reduction of x^3
    ring = ring_xy()
    ideal = Ideal(ring, [P("x^3", ring)])
    ideal.groebner_basis(GREVLEX)  # built under the full budget
    monkeypatch.setattr(groebner, "GROEBNER_MAX_REDUCTIONS", limit)
    if refused:
        with pytest.raises(ResourceLimitError, match="reduction budget"):
            saturation(ideal, P("x", ring))
    else:
        assert saturation(ideal, P("x", ring)).is_unit()


@pytest.mark.parametrize("limit, refused", [(1, True), (2, False)])
def test_membership_is_charged_to_the_reduction_budget(monkeypatch, limit, refused):
    # x^2*y + x^2 against the basis (y^3, x^2): one reduction by x^2 per term
    ring = ring_xy()
    ideal = Ideal(ring, [P("x^2", ring), P("y^3", ring)])
    ideal.groebner_basis(GREVLEX)  # built under the full budget
    monkeypatch.setattr(groebner, "GROEBNER_MAX_REDUCTIONS", limit)
    f = P("x^2*y + x^2", ring)
    if refused:
        with pytest.raises(ResourceLimitError, match="reduction budget"):
            ideal.contains(f)
    else:
        assert ideal.contains(f)


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def test_intersection_of_coordinate_lines():
    ring = ring_xy()
    meet = ideal_intersection(Ideal(ring, [P("x", ring)]), Ideal(ring, [P("y", ring)]))
    assert [str(g) for g in meet.groebner_basis().elements] == ["x*y"]


def test_intersection_with_zero_ideal():
    ring = ring_xy()
    meet = ideal_intersection(Ideal(ring, []), Ideal(ring, [P("x", ring)]))
    assert meet.is_zero_ideal


@pytest.mark.parametrize(
    "ring",
    [
        PolynomialRing(("y1", "y2"), ()),
        PolynomialRing((), ("x1", "x2")),
        PolynomialRing(("y1",), ("x1",)),
    ],
    ids=["target-only", "source-only", "mixed"],
)
def test_saturation_and_intersection_stay_in_the_input_ring(ring):
    # both eliminate an auxiliary variable appended to the source block
    u, v = (ring.variable(name) for name in ring.variables)
    sat = saturation(Ideal(ring, [u * v]), u)
    assert sat.ring == ring
    assert sat.groebner_basis().elements == (v,)
    meet = ideal_intersection(Ideal(ring, [u]), Ideal(ring, [v]))
    assert meet.ring == ring
    assert meet.groebner_basis().elements == (u * v,)


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def test_dimension_of_determinantal_cone():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ())
    assert krull_dimension(Ideal(ring, [P("y1*y4 - y2*y3", ring)])) == 3


def test_dimension_zero_ideal():
    ring = PolynomialRing((), ("a", "b", "c"))
    assert krull_dimension(Ideal(ring, [])) == 3


def test_dimension_point():
    ring = ring_xy()
    assert krull_dimension(Ideal(ring, [P("x", ring), P("y", ring)])) == 0


def test_dimension_unit_ideal_sentinel():
    ring = ring_xy()
    assert krull_dimension(Ideal(ring, [ring.one()])) == -1


def test_dimension_of_quadric_family_total_space():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    ideal = Ideal(ring, [P("y1*y4 - y2*y3", ring), P("y1*x^2 + y4*x + y2 - y3", ring)])
    assert krull_dimension(ideal) == 3


def test_dimension_monotone_under_inclusion():
    ring = PolynomialRing((), ("x", "y", "z"))
    chain = [
        Ideal(ring, []),
        Ideal(ring, [P("x*y", ring)]),
        Ideal(ring, [P("x*y", ring), P("z - x", ring)]),
        Ideal(ring, [P("x", ring), P("y", ring), P("z", ring)]),
    ]
    dims = [krull_dimension(I) for I in chain]
    assert dims == sorted(dims, reverse=True)


def test_independent_set_dimension_edge_cases():
    assert independent_set_dimension([], 4) == 4
    assert independent_set_dimension([(0, 0)], 2) == -1
    assert independent_set_dimension([(1, 0), (0, 2)], 2) == 0


def _largest_independent_set(monomials, nvars):
    """Size of the largest variable subset containing no monomial's support,
    by trying every subset; -1 when there is none (a constant monomial)."""
    supports = [{i for i, e in enumerate(m) if e} for m in monomials]
    for size in range(nvars, -1, -1):
        for chosen in itertools.combinations(range(nvars), size):
            if not any(s <= set(chosen) for s in supports):
                return size
    return -1


_monomial_sets = st.integers(1, 12).flatmap(
    lambda nvars: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 2)] * nvars), max_size=12),
        st.just(nvars),
    )
)


@given(_monomial_sets)
@settings(max_examples=200)
def test_independent_set_dimension_matches_brute_force(case):
    monomials, nvars = case
    assert independent_set_dimension(monomials, nvars) == _largest_independent_set(
        monomials, nvars
    )
    # a constant monomial makes the unit ideal; no monomial leaves every variable free
    constant = (0,) * nvars
    assert independent_set_dimension(monomials + [constant], nvars) == -1
    assert _largest_independent_set(monomials + [constant], nvars) == -1
    assert independent_set_dimension([], nvars) == _largest_independent_set([], nvars) == nvars


def _analyze_pipeline_inputs():
    """Analyze each fixture at its expect power, and cyclic (3, 3) and (4, 3)
    to power 3 and (4, 4) to power 2 (the benchmark's powers inputs)."""
    for path in sorted(FIXTURES.glob("*.setup")):
        loaded = load_setup(path)
        analyze(loaded.setup, max_power=required_max_power(loaded.expect))
    for n, l, power in ((3, 3, 3), (4, 3, 3), (4, 4, 2)):
        analyze(cyclic_family_setup(n, l), max_power=power)


def test_independent_set_dimension_matches_brute_force_on_pipeline_inputs(monkeypatch):
    # Every monomial set the pipeline hands the dimension kernel on its
    # pipeline inputs is replayed against the subset search.
    seen = set()
    kernel = groebner.independent_set_dimension

    def recording(monomials, nvars):
        monomials = tuple(monomials)
        seen.add((monomials, nvars))
        return kernel(monomials, nvars)

    monkeypatch.setattr(groebner, "independent_set_dimension", recording)
    monkeypatch.setattr(geometry, "independent_set_dimension", recording)
    _analyze_pipeline_inputs()
    monkeypatch.undo()
    assert len(seen) > 100
    for monomials, nvars in seen:
        assert kernel(monomials, nvars) == _largest_independent_set(monomials, nvars)


# ---------------------------------------------------------------------------
# Buchberger's first criterion: dimension and unit tests with no basis
# ---------------------------------------------------------------------------


def _answers_from_a_basis(ring, generators):
    """dim V(I) and whether I is the unit ideal, read off a reduced grevlex
    basis built on a separate Ideal."""
    basis = Ideal(ring, generators).groebner_basis()
    leading = [lm for lm, _ in basis.divisors]
    return independent_set_dimension(leading, ring.arity), basis.elements == (ring.one(),)


def _coprime_leads(generators):
    supports = [
        {i for i, e in enumerate(max(g.monomials(), key=GREVLEX.key)) if e} for g in generators
    ]
    return all(not a & b for a, b in itertools.combinations(supports, 2))


_ring4 = PolynomialRing(("y1", "y2"), ("x1", "x2"))
_exponents4 = st.tuples(*[st.integers(0, 2)] * 4)
_coefficients = st.integers(-3, 3).filter(bool)


@st.composite
def _coprime_generators(draw):
    """Generators whose grevlex leading monomials have disjoint supports: each
    takes its leading monomial in its own block of variables, possibly none
    (a constant), and only terms of lower degree besides."""
    block_of = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    generators = []
    for block in sorted(set(block_of)):
        lead = tuple(draw(st.integers(0, 2)) if b == block else 0 for b in block_of)
        terms = {lead: draw(_coefficients)}
        for m in draw(st.lists(_exponents4, max_size=3)):
            if sum(m) < sum(lead):
                terms[m] = draw(_coefficients)
        generators.append(Polynomial(_ring4, terms))
    return generators


_any_generators = st.lists(
    st.dictionaries(_exponents4, _coefficients, min_size=1, max_size=3).map(
        lambda terms: Polynomial(_ring4, terms)
    ),
    max_size=3,
)


@given(st.one_of(_coprime_generators(), _any_generators))
@settings(max_examples=150, deadline=None)
def test_dimension_and_unit_test_match_the_basis_path(generators):
    expected = _answers_from_a_basis(_ring4, generators)
    fresh = [Ideal(_ring4, generators) for _ in range(2)]
    assert (krull_dimension(fresh[0]), fresh[1].is_unit()) == expected
    if _coprime_leads(generators):  # the criterion decided both
        assert all(GREVLEX not in ideal._cache for ideal in fresh)


def test_dimension_and_unit_test_match_the_basis_path_on_pipeline_inputs(monkeypatch):
    # Every ideal the pipeline hands krull_dimension or Ideal.is_unit on its
    # pipeline inputs is asked again on a fresh Ideal and compared with the
    # answer read off a basis of a separate one.  A call the criterion
    # decided found no basis cached and left none.
    calls = []  # (question, ring, generators, decided by the criterion)
    dimension, unit = groebner.krull_dimension, Ideal.is_unit

    def recorded(question, answer):
        def recording(ideal):
            had_basis = GREVLEX in ideal._cache
            result = answer(ideal)
            decided = not had_basis and GREVLEX not in ideal._cache
            if question == "unit" and any(g.is_constant() for g in ideal.generators):
                decided = False  # settled before the criterion is asked
            calls.append((question, ideal.ring, ideal.generators, decided))
            return result

        return recording

    monkeypatch.setattr(geometry, "krull_dimension", recorded("dim", dimension))
    monkeypatch.setattr(Ideal, "is_unit", recorded("unit", unit))
    _analyze_pipeline_inputs()
    monkeypatch.undo()
    assert sum(decided for *_, decided in calls) > 100
    for question, ring, generators in {call[:3] for call in calls}:
        expected_dim, expected_unit = _answers_from_a_basis(ring, generators)
        if question == "dim":
            assert krull_dimension(Ideal(ring, generators)) == expected_dim
        else:
            assert Ideal(ring, generators).is_unit() == expected_unit


# ---------------------------------------------------------------------------
# ideals generated by terms, and variable generators: closed forms
# ---------------------------------------------------------------------------


_terms4 = st.dictionaries(_exponents4, _coefficients, min_size=1, max_size=1)
_term_generators = st.lists(_terms4.map(lambda terms: Polynomial(_ring4, terms)), max_size=5)


@st.composite
def _peeled_generators(draw):
    """One or two generators c*v, v a variable, among any others."""
    variables = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    peeled = [
        Polynomial(_ring4, {tuple(int(i == v) for i in range(4)): draw(_coefficients)})
        for v in variables
    ]
    return peeled + draw(_any_generators)


_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "block 1": Block(1), "block 2": Block(2)}


def _generators(*texts):
    return [P(text, _ring4) for text in texts]


@given(st.one_of(_term_generators, _peeled_generators()), st.sampled_from(sorted(_ORDERS)))
@example(_generators("y1", "y1 + 1"), "grevlex")  # the rest is the unit ideal
@example(_generators("3*x2", "y1*x2 + x1", "x1^2 - x2"), "block 2")  # peeled twice
@example(_generators("y1^2*x1", "y1*x1", "x1^2", "2*y2*x1^2"), "lex")  # non-minimal terms
@settings(max_examples=200, deadline=None)
def test_closed_form_bases_match_buchberger_and_sympy(generators, order_name):
    # A term ideal's basis and a variable generator's peeled basis are the
    # reduced basis Buchberger builds on the same generators, element for
    # element and in its order, and the one sympy builds
    order = _ORDERS[order_name]
    ideal = Ideal(_ring4, generators)
    seq = [g._terms for g in ideal.generators]
    basis = ideal.groebner_basis(order)
    assert list(basis.divisors) == groebner._buchberger(seq, order.key)
    assert basis.elements == tuple(Polynomial(_ring4, d) for _, d in basis.divisors)
    if not generators:
        return
    if isinstance(order, Block):
        _assert_block_basis_matches_sympy(ideal, order.split)
    else:
        _assert_basis_matches_sympy(ideal, order, order_name)


@given(_term_generators, _terms4)
@example(_generators("y1^3"), {(1, 0, 0, 0): 2})  # the unit ideal
@example(_generators("y1^2*x1", "y2*x2^2", "y1*y2"), {(2, 1, 0, 0): 1})
@settings(max_examples=200, deadline=None)
def test_term_saturation_matches_elimination(generators, h_terms):
    # I : h^inf of a term ideal by a term: the generators are those
    # elimination keeps from I + (1 - t*h), in the same order
    ideal, h = Ideal(_ring4, generators), Polynomial(_ring4, h_terms)
    sat = saturation(ideal, h)
    if h.is_constant() or ideal.is_zero_ideal:
        assert sat is ideal
    else:
        assert sat == elimination_ideal(groebner._inverted(ideal, h), _ring4.arity)


@given(_term_generators, st.dictionaries(_exponents4, _coefficients, min_size=1, max_size=3))
@example(_generators("y1^2*x1", "x2^3"), {(1, 0, 1, 0): 1, (0, 1, 0, 2): -1})  # in it
@example(_generators("y1^2*x1", "x2^3"), {(1, 0, 1, 0): 1, (0, 1, 0, 0): -1})  # not in it
@settings(max_examples=200, deadline=None)
def test_term_radical_membership_matches_rabinowitsch(generators, f_terms):
    # f lies in the radical of a term ideal I iff I + (1 - t*f) is the unit ideal
    ideal, f = Ideal(_ring4, generators), Polynomial(_ring4, f_terms)
    expected = ideal.contains(f) or groebner._inverted(ideal, f).is_unit()
    assert radical_member(f, ideal) is expected


def test_term_ideals_skip_buchberger(buchberger_runs):
    # bases, leading terms, saturations and radical tests of term ideals,
    # and a peeled variable whose rest is a term ideal, run no completion
    ring = _ring4
    ideal = Ideal(ring, _generators("y1^2*x1", "x2^3", "y1*y2"))
    assert krull_dimension(ideal) == 2 and not ideal.is_unit()
    assert [str(g) for g in saturation(ideal, P("y1", ring)).generators] == ["x2^3", "y2", "x1"]
    assert radical_member(P("y1*x1*x2 + y2*x2", ring), ideal)
    assert not radical_member(P("y1*x2^2 + x1", ring), ideal)
    peeled = Ideal(ring, _generators("x2", "y1*x2 + x1^2", "y2*x1*x2 - y1"))
    assert [str(g) for g in peeled.groebner_basis().elements] == ["x1^2", "y1", "x2"]
    assert [(order, len(seq)) for order, seq in buchberger_runs] == [
        (GREVLEX, 3),
        (GREVLEX, 3),
        (GREVLEX, 2),
    ]


def test_unit_detection_on_specialized_fibre():
    # V(y*x - 1) specialized at y = 0 leaves the unit ideal: the empty fibre
    ring = ring_y_x()
    xring = PolynomialRing((), ("x",))
    fibre = Ideal(xring, _ring_map([P("y*x - 1", ring)], xring, [None, 0], {0: 0}))
    assert fibre.is_unit()
    assert not Ideal(xring, []).is_unit()
