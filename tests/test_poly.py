"""Polynomial kernel: parsing, printing, arithmetic, orders, substitution."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibrephi import (
    GREVLEX,
    LEX,
    Block,
    ParseError,
    Polynomial,
    PolynomialRing,
    parse_polynomial,
    parse_polynomial_list,
    parser,
    transport,
)
from fibrephi.errors import (
    FibrephiError,
    RingMismatchError,
    ZeroPolynomialError,
)
from fibrephi.poly import _ring_map, format_polynomial

from conftest import power, reference_map, ring_xy, ring_y_x


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def test_ring_rejects_duplicate_names():
    with pytest.raises(FibrephiError):
        PolynomialRing(("y",), ("y",))


def test_ring_rejects_bad_identifier():
    with pytest.raises(FibrephiError):
        PolynomialRing(("2y",), ("x",))


def test_ring_blocks_and_split():
    ring = PolynomialRing(("y1", "y2"), ("x1", "x2"))
    assert ring.variables == ("y1", "y2", "x1", "x2")
    assert ring.split == 2
    assert ring.target_ring().variables == ("y1", "y2")
    assert ring.source_ring().variables == ("x1", "x2")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_determinantal_polynomial():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    p = parse_polynomial("y1*y4 - y2*y3", ring)
    assert p.as_dict() == {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1}


def test_parse_zero():
    ring = ring_xy()
    assert parse_polynomial("0", ring).is_zero


def test_parse_quadratic_family_generator():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    p = parse_polynomial("y1*x^2 + y4*x + y2 - y3", ring)
    assert len(p) == 4
    assert max(mono[4] for mono in p.monomials()) == 2


def test_parse_rationals_and_parentheses():
    ring = ring_xy()
    p = parse_polynomial("1/2*(x + y)^2 - x*y", ring)
    q = parse_polynomial("1/2*x^2 + 1/2*y^2", ring)
    assert p == q


def test_parse_unknown_variable_reports_position():
    ring = ring_xy()
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ring)
    assert err.value.column == 5


def test_parse_zero_denominator():
    ring = ring_xy()
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ring)


def test_parse_syntax_error_position():
    ring = ring_xy()
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y", ring)
    assert err.value.line == 1


# Python's limit on the digits of an int-string conversion: 0 when there is
# none (it was added in 3.10.7 and can be switched off)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVERLONG = "7" * (INT_DIGITS + 1)
limited = pytest.mark.skipif(not INT_DIGITS, reason="no int-string conversion limit")


@pytest.mark.parametrize(
    "text,column",
    [
        pytest.param("x^\u00b2", 3, id="superscript-two"),
        pytest.param("\u0663*x", 1, id="arabic-indic-three"),
        pytest.param(OVERLONG + "*x", 1, id="long-numerator", marks=limited),
        pytest.param("1/" + OVERLONG, 3, id="long-denominator", marks=limited),
        pytest.param("x^" + OVERLONG, 3, id="long-exponent", marks=limited),
    ],
)
def test_parse_rejects_non_ascii_digits_and_overlong_literals(text, column):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ring_xy())
    assert (err.value.line, err.value.column) == (1, column)


def test_parse_reports_deep_nesting_at_its_position():
    # the recursive descent runs out of stack before the closing parentheses
    text = "(" * 400 + "x - y" + ")" * 400
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse_polynomial("\n" + text, ring_xy())
    assert err.value.line == 2 and 1 < err.value.column <= 400
    assert text[err.value.column - 1] == "("
    assert parse_polynomial("(" * 50 + "x - y" + ")" * 50, ring_xy()) == parse_polynomial(
        "x - y", ring_xy()
    )


def test_parse_caps_its_term_products():
    ring = ring_xy()
    start = time.perf_counter()
    with pytest.raises(ParseError, match="term products") as err:
        parse_polynomial("(x+y+1)^200", ring)
    assert time.perf_counter() - start < 1
    assert (err.value.line, err.value.column) == (1, 8)
    # the budget spans the whole parse: three affordable powers, then a
    # product that would run it out, reported at that product's operator
    with pytest.raises(ParseError, match="term products") as err:
        parse_polynomial("(x+y+1)^20 * (x+y+1)^20 * (x+y+1)^20", ring)
    assert (err.value.line, err.value.column) == (1, 25)
    assert len(parse_polynomial("(x+y+1)^20 * (x+y+1)^20", ring)) == 861


def test_parse_budget_weighs_coefficient_size():
    # one term each, but squaring huge numbers is what costs: the budget
    # counts the 64-bit words of every coefficient, not just the terms
    ring = ring_xy()
    for text in ["2^300000000", "(3/7)^300000"]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term products"):
            parse_polynomial(text, ring)
        assert time.perf_counter() - start < 1
    assert parse_polynomial("2^20000", ring) == ring.constant(2**20000)


def test_parse_list_reports_positions_within_its_text():
    ring = ring_xy()
    assert parse_polynomial_list("x + y, y", ring) == [
        parse_polynomial("x + y", ring),
        parse_polynomial("y", ring),
    ]
    for text, line, column in [
        ("x + y, y + z", 1, 12),
        ("x,\n  y + z", 2, 7),
        ("x,, y", 1, 3),
        ("x, y,", 1, 6),
    ]:
        with pytest.raises(ParseError) as err:
            parse_polynomial_list(text, ring)
        assert (err.value.line, err.value.column) == (line, column), text
    with pytest.raises(ParseError, match="unexpected trailing ','") as err:
        parse_polynomial("x, y", ring)
    assert err.value.column == 2


def test_parse_list_budgets_each_polynomial():
    # two products of (x+y+1)^20 fit one budget, four do not
    ring = ring_xy()
    text = "(x+y+1)^20 * (x+y+1)^20"
    assert [len(p) for p in parse_polynomial_list(f"{text}, {text}", ring)] == [861, 861]
    with pytest.raises(ParseError, match="term products"):
        parse_polynomial_list(f"{text} * {text}", ring)


@pytest.mark.parametrize(
    "text, expanded, charged, column",
    [
        # 2*2 for (x+1)*(y+1), then 4*2 at the second '*'
        ("(x+1)*(y+1)*(x+y)", lambda x, y: (x + 1) * (y + 1) * (x + y), 12, 12),
        # square and multiply at the '^': 1*3, then 3*3 squaring, then 3*6
        ("(x+y+1)^3", lambda x, y: power(x + y + 1, 3), 30, 8),
    ],
)
def test_parse_budget_charges_at_each_operator(monkeypatch, text, expanded, charged, column):
    ring = ring_xy()
    monkeypatch.setattr(parser, "PARSE_MAX_TERM_PRODUCTS", charged)
    assert parse_polynomial(text, ring) == expanded(ring.variable("x"), ring.variable("y"))
    monkeypatch.setattr(parser, "PARSE_MAX_TERM_PRODUCTS", charged - 1)
    with pytest.raises(ParseError, match=f"exceeds {charged - 1} weighted") as err:
        parse_polynomial(text, ring)
    assert (err.value.line, err.value.column) == (1, column)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_additive_inverse():
    ring = ring_xy()
    p = parse_polynomial("3*x^2*y - 7/3*y + 1", ring)
    assert (p + (-p)).is_zero


def test_difference_of_squares():
    ring = ring_xy()
    x_plus = parse_polynomial("x + y", ring)
    x_minus = parse_polynomial("x - y", ring)
    assert x_plus * x_minus == parse_polynomial("x^2 - y^2", ring)


def test_family_generator_product():
    # (y1*x1 + x2^2) * (y1*x1) expanded by hand
    ring = PolynomialRing(("y1",), ("x1", "x2"))
    g1 = parse_polynomial("y1*x1 + x2^2", ring)
    g2 = parse_polynomial("y1*x1", ring)
    assert g1 * g2 == parse_polynomial("y1^2*x1^2 + y1*x1*x2^2", ring)


def test_arithmetic_and_ring_mismatch():
    ring = ring_xy()
    p = parse_polynomial("x", ring)
    assert p + p == parse_polynomial("2*x", ring)
    assert p.scale(Fraction(1, 2)) == parse_polynomial("1/2*x", ring)
    other = parse_polynomial("y", ring_y_x())
    with pytest.raises(RingMismatchError):
        p * other


def test_polynomial_rejects_non_integer_exponents():
    ring = ring_xy()
    for exponents in [(0.5, 1), (1.0, 0), (Fraction(1), 0)]:
        with pytest.raises(FibrephiError, match="non-integer exponent"):
            Polynomial(ring, {exponents: 1})
    with pytest.raises(FibrephiError, match="negative exponent"):
        Polynomial(ring, {(-1, 0): 1})
    assert Polynomial(ring, {(1, 0): 1}) == parse_polynomial("x", ring)


@pytest.mark.parametrize(
    "make",
    [
        lambda ring, x: Polynomial(ring, {(0, 1): 0.1}),
        lambda ring, x: Polynomial(ring, {(0, 1): "1/3"}),
        lambda ring, x: ring.constant(0.5),
        lambda ring, x: x.scale(0.1),
        lambda ring, x: x * 0.5,
        lambda ring, x: _ring_map([x], ring, range(2), {0: 0.1}),
        # a point check maps every variable to a value
        lambda ring, x: _ring_map([x], ring, range(2), {0: 0, 1: 0.5}),
        # y is unused, still refused
        lambda ring, x: _ring_map([x], ring, range(2), {0: 0.5, 1: 0}),
        lambda ring, x: _ring_map([x], ring, range(2), {0: 0, 1: "1/2"}),
        lambda ring, x: _ring_map([], ring, range(2), {0: 0, 1: 0.5}),  # no polynomial to map
    ],
    ids=[
        "float-term",
        "string-term",
        "constant",
        "scale",
        "scalar-product",
        "ring-map",
        "point",
        "point-unused",
        "point-string",
        "point-no-polynomials",
    ],
)
def test_coefficients_and_values_must_be_int_or_fraction(make):
    ring = ring_y_x()
    with pytest.raises(FibrephiError, match="not an int or Fraction"):
        make(ring, ring.variable("x"))


def test_power_and_scale():
    # polynomials have no power operator: the parser expands powers
    ring = ring_xy()
    p = parse_polynomial("x + 1", ring)
    assert parse_polynomial("(x + 1)^0", ring) == power(p, 0) == ring.one()
    assert parse_polynomial("(x + 1)^3", ring) == power(p, 3)
    assert power(p, 3) == parse_polynomial("x^3 + 3*x^2 + 3*x + 1", ring)
    for text in ("x^-1", "x^y"):
        with pytest.raises(ParseError, match="exponent must be a natural number"):
            parse_polynomial(text, ring)
    assert p.scale(0).is_zero


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


def test_lex_example():
    # x^2 vs x*y with x ranked above y
    assert LEX.key((2, 0)) > LEX.key((1, 1))


def test_grevlex_example():
    # x^2*y vs x*y^2: equal degree, less of the last variable wins
    assert GREVLEX.key((2, 1)) > GREVLEX.key((1, 2))


def test_order_reflexivity():
    for order in (LEX, GREVLEX, Block(1)):
        assert order.key((1, 2)) == order.key((1, 2))


def test_block_order_eliminates_back_block():
    # any monomial touching the back block beats every front-only monomial
    order = Block(1)
    assert order.key((0, 1)) > order.key((5, 0))
    # the back block is compared by grevlex, so total degree counts there
    assert order.key((0, 1, 0)) < order.key((9, 0, 2))


@given(
    st.tuples(*[st.integers(0, 6)] * 3),
    st.tuples(*[st.integers(0, 6)] * 3),
    st.tuples(*[st.integers(0, 6)] * 3),
)
def test_order_totality_and_multiplicativity(a, b, w):
    for order in (LEX, GREVLEX, Block(1), Block(2)):
        ka, kb = order.key(a), order.key(b)
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        aw = tuple(x + y for x, y in zip(a, w))
        bw = tuple(x + y for x, y in zip(b, w))
        kaw, kbw = order.key(aw), order.key(bw)
        assert (kaw < kbw, kaw == kbw) == (ka < kb, ka == kb)


def test_well_foundedness_on_bounded_degree():
    # every monomial strictly dominates the unit except the unit itself
    unit = (0, 0)
    monos = [(i, j) for i in range(4) for j in range(4) if (i, j) != unit]
    for order in (LEX, GREVLEX, Block(1)):
        assert all(order.key(m) > order.key(unit) for m in monos)


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------


def test_leading_term_lex():
    p = parse_polynomial("x^2 + x", ring_xy())
    assert max(p.monomials(), key=LEX.key) == (2, 0)


def test_leading_term_block_order():
    # y1*x + y2 with the source variable dominant
    ring = PolynomialRing(("y1", "y2"), ("x",))
    p = parse_polynomial("y1*x + y2", ring)
    assert max(p.monomials(), key=Block(ring.split).key) == (1, 0, 1)  # the monomial y1*x


def test_leading_term_constant():
    ring = ring_xy()
    c = ring.constant(5)
    assert max(c.monomials(), key=GREVLEX.key) == (0, 0)
    assert c.monic() == ring.one()


def test_leading_term_zero_errors():
    ring = ring_xy()
    with pytest.raises(ZeroPolynomialError):
        ring.zero().monic()


def test_monic_divides_by_the_grevlex_leading_coefficient():
    # under lex the leading term would be 3*x
    ring = ring_xy()
    p = parse_polynomial("3*x + 2*y^2", ring)
    assert p.monic() == parse_polynomial("y^2 + 3/2*x", ring)
    assert str(p) == "2*y^2 + 3*x"
    q = parse_polynomial("x^2 - 5*y", ring)
    assert q.monic() is q


# ---------------------------------------------------------------------------
# specialization and evaluation
# ---------------------------------------------------------------------------


def _specialize(p, assignment):
    """``p`` with the named variables set to values, in its own ring."""
    values = {p.ring.index(name): v for name, v in assignment.items()}
    return _ring_map([p], p.ring, range(p.ring.arity), values)[0]


def test_specialize_family_member():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    p = parse_polynomial("y1*x^2 + y4*x + y2 - y3", ring)
    s = _specialize(p, {"y1": 1, "y2": 0, "y3": 0, "y4": 1})
    assert s == parse_polynomial("x^2 + x", ring)


def test_specialize_empty_assignment_is_identity():
    ring = ring_xy()
    p = parse_polynomial("x^2*y - 2", ring)
    assert _specialize(p, {}) == p


def test_specialize_on_the_cone_vertex():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    p = parse_polynomial("y1*y4 - y2*y3", ring)
    assert _specialize(p, {"y1": 0, "y2": 0, "y3": 0, "y4": 0}).is_zero


# ---------------------------------------------------------------------------
# internally built results are canonical
# ---------------------------------------------------------------------------


def _assert_canonical(p):
    # what arithmetic, substitution and transport build without validation is
    # what the validating constructor would build from the same terms
    terms = p.as_dict()
    assert all(type(c) is Fraction and c != 0 for c in terms.values())
    assert all(type(m) is tuple and len(m) == p.ring.arity for m in terms)
    rebuilt = Polynomial(p.ring, terms)
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


def test_cancelling_arithmetic_is_canonical():
    ring = ring_xy()
    x, y = ring.variable("x"), ring.variable("y")
    total = (x + y) + (-x - y)
    _assert_canonical(total)
    assert total.is_zero
    product = (x - y) * (x + y)
    _assert_canonical(product)
    assert (1, 1) not in product.as_dict()
    assert product == parse_polynomial("x^2 - y^2", ring)
    for p in [x - y, -(x - y), x - x, product - product, x.scale(Fraction(2, 3)), x.scale(3), 2 * x]:
        _assert_canonical(p)


def test_cancelling_substitution_is_canonical():
    ring = ring_xy()
    p = parse_polynomial("x^2*y - 4*y + x - 2", ring)
    at_two = _specialize(p, {"x": 2})
    _assert_canonical(at_two)
    assert at_two.is_zero
    at_minus_one = _specialize(parse_polynomial("x*y + y - 3", ring), {"x": -1})
    _assert_canonical(at_minus_one)
    assert at_minus_one == ring.constant(-3)
    at_zero = _specialize(p, {"y": 0})
    _assert_canonical(at_zero)
    assert at_zero == parse_polynomial("x - 2", ring)


def test_merging_ring_map_is_canonical():
    ring = ring_xy()
    merged = PolynomialRing((), ("z",))
    p = parse_polynomial("x - y", ring)
    gone, summed = _ring_map([p, parse_polynomial("x + 2*y - x*y", ring)], merged, [0, 0], {})
    _assert_canonical(gone)
    assert gone.is_zero
    _assert_canonical(summed)
    assert summed == parse_polynomial("3*z - z^2", merged)
    assert transport(p, ring) is p


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_ring3 = PolynomialRing(("y",), ("x1", "x2"))

_polys = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    values=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
).map(lambda d: Polynomial(_ring3, d))


@given(_polys)
@settings(max_examples=80)
def test_print_parse_fixpoint(p):
    assert parse_polynomial(format_polynomial(p), _ring3) == p


# Expression trees over _ring3, each with the grammar level its text parses
# at: 0 expr, 1 term, 2 factor, 3 atom.  A child wanted at a higher level
# than its own is put in parentheses.
_leaves = st.one_of(
    st.integers(0, 12).map(lambda n: ("num", Fraction(n), str(n))),
    st.tuples(st.integers(0, 12), st.integers(1, 9)).map(
        lambda t: ("num", Fraction(*t), f"{t[0]}/{t[1]}")
    ),
    st.sampled_from(_ring3.variables).map(lambda name: ("var", name)),
)


def _nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 3)),
        st.tuples(st.just("sign"), st.text("+-", min_size=1, max_size=3), children),
        st.tuples(st.just("()"), children),
    )


_trees = st.recursive(_leaves, _nodes, max_leaves=8)


def _render(tree, level: int = 0) -> str:
    kind = tree[0]
    if kind == "num":
        text, own = tree[2], 3
    elif kind == "var":
        text, own = tree[1], 3
    elif kind in "+-":
        text, own = f"{_render(tree[1], 0)} {kind} {_render(tree[2], 1)}", 0
    elif kind == "*":
        text, own = f"{_render(tree[1], 1)}*{_render(tree[2], 2)}", 1
    elif kind == "^":
        text, own = f"{_render(tree[1], 3)}^{tree[2]}", 2
    elif kind == "sign":
        text, own = tree[1] + _render(tree[2], 2), 1
    else:
        text, own = f"({_render(tree[1], 0)})", 3
    return text if own >= level else f"({text})"


def _evaluate(tree) -> Polynomial:
    kind = tree[0]
    if kind == "num":
        return _ring3.constant(tree[1])
    if kind == "var":
        return _ring3.variable(tree[1])
    if kind == "^":
        return power(_evaluate(tree[1]), tree[2])
    if kind == "sign":
        value = _evaluate(tree[2])
        return -value if tree[1].count("-") % 2 else value
    if kind == "()":
        return _evaluate(tree[1])
    left, right = _evaluate(tree[1]), _evaluate(tree[2])
    return {"+": left + right, "-": left - right, "*": left * right}[kind]


@given(_trees)
@settings(max_examples=150)
@example(("^", ("num", Fraction(0), "0/7"), 0))
@example(("sign", "-+-", ("^", ("+", ("var", "y"), ("num", Fraction(1), "1")), 3)))
def test_parser_agrees_with_polynomial_arithmetic(tree):
    # the parser runs its own atoms, signs and powers over term dicts; what
    # it builds equals the tree's value and meets _trusted's contract
    parsed = parse_polynomial(_render(tree), _ring3)
    assert parsed == _evaluate(tree)
    for mono, coeff in parsed.as_dict().items():
        assert type(mono) is tuple and len(mono) == _ring3.arity
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(coeff) is Fraction and coeff != 0
    _assert_canonical(parsed)


@given(_polys, _polys, _polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(_polys, _polys)
@settings(max_examples=60)
def test_internal_results_are_canonical(p, q):
    point = {"y": Fraction(-1), "x2": Fraction(0)}
    flat = PolynomialRing(("y",), ("x",))
    results = [p + q, p - q, p * q, -p, p.scale(Fraction(-3, 4)), _specialize(p, point)]
    results.extend(_ring_map([p, q], flat, [0, 1, 1], {}))
    for r in results:
        _assert_canonical(r)


@given(_polys, _polys)
@settings(max_examples=60)
def test_specialize_is_a_homomorphism(p, q):
    point = {"y": Fraction(2), "x1": Fraction(-1, 2)}
    assert _specialize(p * q, point) == _specialize(p, point) * _specialize(q, point)
    assert _specialize(p + q, point) == _specialize(p, point) + _specialize(q, point)


_values = st.one_of(
    st.integers(-6, 6),
    st.booleans(),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@given(
    _polys,
    st.fixed_dictionaries({v: _values for v in _ring3.variables}),
    st.sets(st.sampled_from(_ring3.variables)),
)
@settings(max_examples=120)
def test_integer_paths_match_the_fraction_reference(p, point, names):
    # Assignments mix ints, bools, integral and non-integral Fractions, zero
    # and negatives.  The kernel computes with integral values as ints; no
    # denominator may get lost on the way.
    # every variable sent to a value: the image is a constant
    value = _specialize(p, point)
    assert value == reference_map(p, _ring3, values=point)
    assert value.is_constant() and all(type(c) is Fraction for _, c in value.terms())
    part = {name: point[name] for name in names}
    s = _specialize(p, part)
    assert s == reference_map(p, _ring3, values=part)
    assert all(type(c) is Fraction for _, c in s.terms())
    # the fibre's map: the target block set to the point, the source block
    # moved into the source ring
    xring = _ring3.source_ring()
    (fibre,) = _ring_map([p], xring, [None, 0, 1], {0: point["y"]})
    assert fibre == reference_map(p, xring, values={"y": point["y"]})
    assert all(type(c) is Fraction for _, c in fibre.terms())


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_transport_keeps_names_and_rejects_lost_variables():
    small = PolynomialRing(("y",), ("x",))
    big = PolynomialRing(("y",), ("x__1", "x"))
    p = parse_polynomial("y*x - 1", small)
    moved = transport(p, big)
    assert moved == parse_polynomial("y*x - 1", big)
    assert transport(moved, small) == p
    with pytest.raises(FibrephiError, match="variable 'x__1' cannot be transported"):
        transport(parse_polynomial("y*x__1 - 1", big), small)  # x__1 has nowhere to go


_targets = [
    _ring3,  # its own ring: returned as it is
    PolynomialRing(("y",), ("x2", "x1", "x1__2")),  # larger, with the columns swapped
    PolynomialRing((), ("z", "x2")),  # y and x1 have nowhere to go
    PolynomialRing(("z",), ()),
]


@given(_polys, st.sampled_from(_targets))
@settings(max_examples=150)
def test_transport_matches_the_fraction_reference(p, ring):
    try:
        expected = reference_map(p, ring)
    except FibrephiError as refused:
        with pytest.raises(FibrephiError) as raised:
            transport(p, ring)
        assert str(raised.value) == str(refused)
        return
    moved = transport(p, ring)
    assert moved == expected
    _assert_canonical(moved)
    assert (moved is p) == (ring == _ring3)


# ---------------------------------------------------------------------------
# the ring-map kernel
# ---------------------------------------------------------------------------

# "w" is in none of these rings: the reference sends a variable with no
# column there, so both refuse it with the same text
_map_targets = [
    PolynomialRing(("y",), ("x1", "x2", "x1__2")),
    PolynomialRing((), ("z",)),
    PolynomialRing(("z",), ("w1", "w2")),
]


@st.composite
def _ring_maps(draw):
    """A target ring, a column for each variable of ``_ring3`` (None or any
    variable of the target, repeats allowed) and int or Fraction values for
    some variables."""
    ring = draw(st.sampled_from(_map_targets))
    columns = st.one_of(st.none(), st.integers(0, ring.arity - 1))
    column = draw(st.lists(columns, min_size=3, max_size=3))
    return ring, column, draw(st.dictionaries(st.integers(0, 2), _values))


def _p3(terms):
    return Polynomial(_ring3, terms)


@given(st.lists(_polys, min_size=1, max_size=3), _ring_maps())
@settings(max_examples=200)
# x1 and x2 both go to z: x1 - x2 cancels, x1*x2 + x1^2 sums to 2*z^2
@example(
    [_p3({(0, 1, 0): 1, (0, 0, 1): -1}), _p3({(0, 1, 1): 1, (0, 2, 0): 1})],
    (_map_targets[1], [None, 0, 0], {}),
)
# y is used, has no value and no column
@example([_p3({(0, 1, 0): 1}), _p3({(1, 1, 0): 1})], (_map_targets[0], [None, 1, 2], {}))
# an int and a Fraction value in one call
@example(
    [_p3({(1, 2, 0): 3, (0, 0, 1): 1})],
    (_map_targets[0], [0, 1, 2], {0: 2, 1: Fraction(1, 3)}),
)
def test_ring_map_matches_the_fraction_reference(polys, target):
    ring, column, values = target
    rename = {v: "w" if j is None else ring.variables[j] for v, j in zip(_ring3.variables, column)}
    named = {_ring3.variables[i]: v for i, v in values.items()}
    try:
        expected = [reference_map(p, ring, rename, named) for p in polys]
    except FibrephiError as refused:
        with pytest.raises(FibrephiError) as raised:
            _ring_map(polys, ring, column, values)
        assert str(raised.value) == str(refused)
        return
    mapped = _ring_map(polys, ring, column, values)
    assert mapped == expected
    for m in mapped:
        _assert_canonical(m)


@given(
    st.lists(_polys, min_size=1, max_size=3),
    st.fixed_dictionaries({i: _values for i in range(3)}),
    st.sampled_from(_map_targets),
)
@settings(max_examples=150)
# y - x1 at y = x1 = 2 cancels to zero; x2 takes a Fraction
@example(
    [_p3({(1, 0, 0): 1, (0, 1, 0): -1}), _p3({(0, 0, 2): Fraction(3, 2), (0, 0, 0): 1})],
    {0: 2, 1: Fraction(2), 2: Fraction(-1, 3)},
    _map_targets[0],
)
def test_full_ring_map_matches_the_fraction_reference(polys, values, ring):
    # every variable has a value, so no column is read and each image is a
    # constant of ``ring``, zero where its polynomial vanishes
    named = {_ring3.variables[i]: v for i, v in values.items()}
    mapped = _ring_map(polys, ring, [None] * 3, values)
    assert mapped == [reference_map(p, ring, values=named) for p in polys]
    for m in mapped:
        assert m.is_constant()
        _assert_canonical(m)


def test_full_ring_map_refuses_a_float_value():
    p = _p3({(1, 1, 1): 2})
    with pytest.raises(FibrephiError, match="not an int or Fraction"):
        _ring_map([p], _ring3, range(3), {0: 1, 1: Fraction(1, 2), 2: 0.5})


@given(_polys, st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_hash_ignores_term_order_and_sets_keep_coefficients_apart(p, rng):
    terms = list(p.as_dict().items())
    rng.shuffle(terms)
    shuffled = Polynomial(_ring3, dict(terms))
    assert shuffled == p and hash(shuffled) == hash(p)
    # the same monomials under other coefficients: an equal hash, a distinct element
    doubled = p.scale(2)
    assert len({p, shuffled, doubled}) == (1 if p.is_zero else 2)
