"""Projection geometry: setups, images, fibres, stratification, verticality,
component splitting, purity, fibred powers and rational sampling."""

from dataclasses import fields
from fractions import Fraction
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibrephi import (
    GREVLEX,
    Ideal,
    Polynomial,
    PolynomialRing,
    elimination_ideal,
    fibre_at_point,
    fibred_power,
    geometry,
    has_vertical_component,
    invariant,
    krull_dimension,
    make_setup,
    parse_polynomial,
    pure_dimension_check,
    radical_member,
    sample_cell_points,
    saturation,
    split_components,
    stratify_by_fibre_dimension,
    transport,
)
from fibrephi.cli import load_setup, required_max_power
from fibrephi.errors import (
    EmptySpaceError,
    FibrephiError,
    InternalInconsistencyError,
    OffTargetError,
    PreconditionError,
    ResourceLimitError,
    SetupError,
)
from fibrephi.geometry import (
    Cell,
    LEX,
    ProjectionSetup,
    _certified_pure,
    _complete_intersection,
    _rational_sqrt,
    _splitter_candidates,
    _univariate_coefficients,
    _variable_cut_bound,
    relative_terms,
    single_rational_point,
)
from fibrephi.groebner import _inverted, independent_set_dimension

from conftest import (
    FIXTURES,
    cap_block_bases,
    cyclic_family_setup,
    power,
    quadric_cone_setup,
    reference_map,
    simple_setup,
)
from test_groebner import _assert_basis_matches_sympy


def P(text, ring):
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# setups and derived dimensions
# ---------------------------------------------------------------------------


def test_quadric_cone_derived_dimensions():
    setup = quadric_cone_setup()
    assert setup.dims() == {"N": 3, "n": 3, "k": 1, "r": 1, "m": 3}


def test_family_derived_dimensions():
    setup = cyclic_family_setup(2, 2)
    assert setup.dims() == {"N": 2, "n": 2, "k": 3, "r": 2, "m": 3}


def test_setup_rejects_zero_source_generator():
    ring = PolynomialRing(("y",), ("x",))
    with pytest.raises(SetupError):
        make_setup(ring, [], [ring.zero()])


def test_setup_rejects_source_variables_in_target_ideal():
    ring = PolynomialRing(("y",), ("x",))
    with pytest.raises(SetupError):
        make_setup(ring, [P("x - y", ring)], [P("x", ring)])


def test_setup_detects_empty_source():
    ring = PolynomialRing(("y",), ("x",))
    with pytest.raises(EmptySpaceError):
        make_setup(ring, [], [P("x", ring), P("x - 1", ring)])


@pytest.mark.parametrize(
    "ambient, sources",
    [([], ["3"]), (["y"], ["y*x - 1"])],
    ids=["constant", "hyperbola-over-its-asymptote"],
)
def test_setup_detects_an_empty_source_by_its_block_basis(ambient, sources):
    # X is empty exactly when its reduced basis is [1], under any order
    ring = PolynomialRing(("y",), ("x",))
    with pytest.raises(EmptySpaceError, match=r"X is empty \(unit ideal\)"):
        make_setup(ring, [P(g, ring) for g in ambient], [P(g, ring) for g in sources])


def test_setup_falls_back_on_m_when_the_block_basis_hits_a_cap(monkeypatch):
    # the cap leaves emptiness to the dimension of X, which builds no block
    # basis: an empty X is still refused and a nonempty one still set up
    ring = PolynomialRing(("y",), ("x",))
    cap_block_bases(monkeypatch, ring)
    with pytest.raises(EmptySpaceError, match=r"X is empty \(unit ideal\)"):
        make_setup(ring, [], [P("x", ring), P("x - 1", ring)])
    setup = make_setup(ring, [], [P("y*x - 1", ring)])
    assert setup.m == 1
    with pytest.raises(ResourceLimitError):
        setup.stratification


def test_setup_checks_target_inside_ambient():
    ring = PolynomialRing(("y1", "y2"), ("x",))
    with pytest.raises(SetupError):
        make_setup(
            ring,
            [P("y1 - 1", ring)],
            [P("x", ring)],
            target_generators=[P("y1", ring)],
        )


def test_setup_with_smaller_target_inside_ambient():
    # target {y1 = 0} inside the ambient plane
    ring = PolynomialRing(("y1", "y2"), ("x",))
    setup = make_setup(
        ring,
        [],
        [P("x - y2", ring)],
        target_generators=[P("y1", ring)],
    )
    assert (setup.N, setup.n) == (2, 1)


def test_setup_stores_its_inputs_and_works_out_the_rest():
    setup = quadric_cone_setup()
    assert [f.name for f in fields(ProjectionSetup)] == [
        "ring",
        "target_ideal",
        "source_generators",
        "assert_target_locally_irreducible",
        "assert_target_pure_dimensional",
        "N",
    ]
    assert [str(g) for g in setup.total_ideal.generators] == [
        "-y2*y3 + y1*y4",
        "y1*x^2 + y4*x + y2 - y3",
    ]
    assert setup.total_ideal is setup.total_ideal
    assert (setup.n, setup.m) == (3, 3)


@pytest.mark.parametrize("label", ["ambient target", "target", "source"])
def test_setup_rejects_a_generator_from_another_ring(label):
    # every generator is given in the full ring, the target-side ones too
    ring = PolynomialRing(("y",), ("x",))
    other = ring.target_ring() if label != "source" else PolynomialRing(("y",), ("z",))
    gens = {"ambient target": [], "target": None, "source": [P("x", ring)]}
    gens[label] = [P("y", other)]
    with pytest.raises(SetupError, match=f"^{label} generator lives in a foreign ring$"):
        make_setup(ring, gens["ambient target"], gens["source"], target_generators=gens["target"])


# ---------------------------------------------------------------------------
# image closures
# ---------------------------------------------------------------------------


def test_image_closure_of_quadric_family():
    setup = quadric_cone_setup()
    image = elimination_ideal(setup.total_ideal, setup.ring.split)
    assert krull_dimension(image) == 3
    assert image.ring == setup.ring.target_ring()
    assert [str(g) for g in image.groebner_basis().elements] == ["y2*y3 - y1*y4"]


def test_image_closure_with_no_source_constraints():
    # X = Y x Omega projects onto Y
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    lifted = Ideal(ring, [P("y1*y4 - y2*y3", ring)])
    image = elimination_ideal(lifted, ring.split)
    assert krull_dimension(image) == 3
    assert image.ring == PolynomialRing(("y1", "y2", "y3", "y4"), ())
    assert [str(g) for g in image.groebner_basis().elements] == ["y2*y3 - y1*y4"]


def test_image_closure_of_graph_is_everything():
    ring = PolynomialRing(("y1", "y2"), ("x1",))
    image = elimination_ideal(Ideal(ring, [P("x1 - y1", ring)]), ring.split)
    assert image.is_zero_ideal and krull_dimension(image) == 2


# ---------------------------------------------------------------------------
# fibres
# ---------------------------------------------------------------------------


def test_fibre_over_the_cone_vertex_is_a_line():
    setup = quadric_cone_setup()
    fibre, dim = fibre_at_point(setup, (0, 0, 0, 0))
    assert fibre.is_zero_ideal and dim == 1


def test_fibre_over_a_smooth_cone_point():
    setup = quadric_cone_setup()
    fibre, dim = fibre_at_point(setup, (1, 1, 1, 1))
    assert fibre.ring == setup.ring.source_ring()
    assert [str(g) for g in fibre.groebner_basis().elements] == ["x^2 + x"]
    assert dim == 0


def test_fibre_off_target_is_rejected():
    setup = quadric_cone_setup()
    with pytest.raises(OffTargetError, match=r"target equation -y2\*y3 \+ y1\*y4\Z"):
        fibre_at_point(setup, (1, 0, 0, 1))  # y1*y4 - y2*y3 = 1 there


@pytest.mark.parametrize(
    "make, point",
    [(quadric_cone_setup, (0.5, 0, 0, 0)), (lambda: simple_setup("y*x - 1"), (0.5,))],
    ids=["target-equation", "affine-target"],
)
def test_fibre_at_a_float_point_is_refused(make, point):
    with pytest.raises(FibrephiError, match="not an int or Fraction"):
        fibre_at_point(make(), point)


def test_empty_fibre_reports_minus_one():
    setup = simple_setup("y*x - 1")
    fibre, dim = fibre_at_point(setup, (0,))
    assert dim == -1
    assert fibre.is_unit()


def test_fibre_with_the_wrong_number_of_coordinates_is_refused():
    with pytest.raises(OffTargetError, match="expected 4 coordinates, got 3"):
        fibre_at_point(quadric_cone_setup(), (0, 0, 0))


def _reference_fibre(setup, point):
    """The fibre built polynomial by polynomial, apart from the library's ring
    maps: every target equation and source generator with the point
    substituted in ``Fraction`` arithmetic and moved to the source ring by
    name, zeros dropped."""
    assignment = dict(zip(setup.ring.target_vars, point))
    xring = setup.ring.source_ring()
    gens = setup.target_ideal.generators + tuple(setup.source_generators)
    specialized = (reference_map(g, xring, values=assignment) for g in gens)
    fibre = Ideal(xring, [s for s in specialized if not s.is_zero])
    return fibre, krull_dimension(fibre)


def _oracle_points(setup, monkeypatch):
    """Every point the sampling oracle hands ``fibre_at_point`` at seed 0."""
    points = []

    def record(at, point):
        points.append(point)
        return fibre_at_point(at, point)

    with monkeypatch.context() as patch:
        patch.setattr(invariant, "fibre_at_point", record)
        invariant._run_oracle(setup, 0)
    return points


def _seeded_points(setup, rng, count):
    """Target points with negative and non-integral coordinates: random
    fractions over an affine-space target, else points of the target where the
    last coordinate is 9/4."""
    yring = setup.target_ideal.ring
    if setup.target_ideal.is_zero_ideal:
        return [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in yring.variables)
            for _ in range(count)
        ]
    cut = setup.target_ideal.added([4 * yring.variable(yring.variables[-1]) - 9])
    return sample_cell_points(Cell(cut, (), 0), rng, want=count)


@pytest.mark.parametrize(
    "make",
    [lambda path=path: load_setup(path).setup for path in sorted(FIXTURES.glob("*.setup"))]
    + [lambda: cyclic_family_setup(4, 3), lambda: cyclic_family_setup(4, 4)],
    ids=[path.stem for path in sorted(FIXTURES.glob("*.setup"))] + ["cyclic_4_3", "cyclic_4_4"],
)
def test_fibre_matches_the_specialize_and_transport_reference(make, monkeypatch):
    setup = make()
    oracle = _oracle_points(setup, monkeypatch)
    seeded = _seeded_points(setup, Random(27), 12)
    assert oracle and seeded
    assert any(c < 0 for pt in seeded for c in pt)
    assert any(Fraction(c).denominator > 1 for pt in seeded for c in pt)
    for point in oracle + seeded:
        fibre, dim = fibre_at_point(setup, point)
        assert (fibre, dim) == _reference_fibre(setup, point), point
        assert all(type(c) is Fraction for g in fibre.generators for _, c in g.terms())


# ---------------------------------------------------------------------------
# relative leading coefficients
# ---------------------------------------------------------------------------


def _relative_coefficients(setup) -> list[str]:
    return [str(c) for _, c in relative_terms(setup.total_ideal)]


def test_relative_coefficients_two_elements():
    setup = simple_setup("x*y1, x^2 - x", target_vars=("y1", "y2"), source_vars=("x",))
    assert set(_relative_coefficients(setup)) == {"y1", "1"}


def test_relative_coefficients_monic_in_x():
    setup = simple_setup("x - y1", target_vars=("y1",), source_vars=("x",))
    assert _relative_coefficients(setup) == ["1"]


def test_relative_coefficients_single_product():
    setup = simple_setup("y1*x", target_vars=("y1",), source_vars=("x",))
    assert _relative_coefficients(setup) == ["y1"]


def test_stratification_absorbs_coefficients_vanishing_on_the_constraint(monkeypatch):
    # On the target V(y1^2) the leading coefficient y1 of y1*x vanishes, so
    # the node absorbs it: the whole target is one cell with fibre dimension
    # 1 and no inequation to saturate by.  Without the absorption the cell
    # would read fibre dimension 0 off y1*x and saturate by y1.
    ring = PolynomialRing(("y1", "y2"), ("x",))
    setup = make_setup(
        ring,
        ambient_target_generators=[P("y1^2", ring)],
        source_generators=[P("y1*x", ring)],
    )
    calls = []
    saturate = geometry.saturation

    def counted(ideal, h):
        calls.append(h)
        return saturate(ideal, h)

    monkeypatch.setattr(geometry, "saturation", counted)
    strat = stratify_by_fibre_dimension(setup)
    assert calls == []
    assert strat.fibre_dimensions == (1,)
    (stratum,) = strat.strata
    assert [str(g) for g in stratum.image_ideal.generators] == ["y1^2", "y1"]


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def test_quadric_cone_strata():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    assert strat.fibre_dimensions == (0, 1)
    assert strat.min_fibre_dim == 0
    assert {(s.fibre_dim, s.image_dim) for s in strat.strata} == {(0, 3), (1, 0)}
    _, special = strat.strata
    assert special.fibre_dim == 1
    assert single_rational_point(special.image_ideal) == (0, 0, 0, 0)


def test_family_strata_with_special_image():
    setup = cyclic_family_setup(2, 2)
    strat = stratify_by_fibre_dimension(setup)
    assert {(s.fibre_dim, s.image_dim) for s in strat.strata} == {(1, 2), (2, 0)}
    (image,) = [s.image_ideal for s in strat.strata if s.fibre_dim == 2]
    yring = setup.ring.target_ring()
    # the special image is the coordinate point y1 = y2 = 0, up to radical
    for v in ("y1", "y2"):
        assert radical_member(P(v, yring), image)
    for g in image.generators:
        assert radical_member(g, Ideal(yring, [P("y1", yring), P("y2", yring)]))


def test_hyperbola_has_single_stratum():
    setup = simple_setup("y*x - 1")
    strat = stratify_by_fibre_dimension(setup)
    assert [(s.fibre_dim, s.image_dim) for s in strat.strata] == [(0, 1)]


def test_stratification_cells_cover_image_closure():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    image = elimination_ideal(setup.total_ideal, setup.ring.split)
    # every cell closure lies inside the image closure ...
    for stratum in strat.strata:
        for cell in stratum.cells:
            for g in image.generators:
                assert radical_member(g, cell.closure)
    # ... and the generic cell closure equals it, so the union covers
    (generic,) = [s for s in strat.strata if s.fibre_dim == 0]
    image_basis = image.groebner_basis().elements
    assert any(cell.closure.groebner_basis().elements == image_basis for cell in generic.cells)


def test_stratification_matches_fibre_oracle():
    rng = Random(1234)
    for setup in (quadric_cone_setup(), cyclic_family_setup(2, 2), simple_setup("y*x")):
        strat = stratify_by_fibre_dimension(setup)
        checked = 0
        for stratum in strat.strata:
            for cell in stratum.cells:
                for pt in sample_cell_points(cell, rng, want=8):
                    _, dim = fibre_at_point(setup, pt)
                    assert dim == cell.fibre_dim
                    checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# vertical components
# ---------------------------------------------------------------------------


def slow_vertical(setup, i):
    """The saturation path alone, on the ideal of X^(i)."""
    return geometry._vertical(fibred_power(setup, i), setup.n)


def test_vertical_line_over_origin():
    setup = simple_setup("y*x")
    slow = slow_vertical(setup, 1)
    assert slow.verdict is True
    assert str(slow.witness) == "x"
    assert not radical_member(slow.witness, setup.total_ideal)
    # V(y*x + (y)) is the whole line {y = 0}: dimension 1 = n + lambda
    result = has_vertical_component(setup, 1)
    assert result.verdict is True
    assert str(result.witness) == "y"
    assert result.detail == "zero set of y has dimension 1 >= n + i*lambda = 1"


def test_vertical_point_component():
    setup = simple_setup("x*y1, x^2 - x", target_vars=("y1", "y2"), source_vars=("x",))
    result = has_vertical_component(setup, 1)
    assert result.verdict is True
    assert not radical_member(result.witness, setup.total_ideal)


@pytest.fixture
def no_split(monkeypatch):
    """``split_components`` raises, so a verdict cannot come from splitting."""

    def refuse(J):
        raise AssertionError("the vertical test split components")

    monkeypatch.setattr(geometry, "split_components", refuse)


def test_vertical_decides_without_splitting(no_split):
    # V(x*(x - 1)) is two lines over the y-line: no leading coefficient to
    # saturate by, so X is flat over the whole line and nothing is vertical
    ring = PolynomialRing(("y",), ("x",))
    J = Ideal(ring, [P("x*(x - 1)", ring)])
    result = geometry._vertical(J, 1)
    assert result.verdict is False
    assert result.detail == "no component inside a leading-coefficient zero set, off which X is flat"


@pytest.mark.parametrize(
    "text, target_vars, source_vars",
    [
        # the plane a + b + c = y and the point a = 1, b = 2, c = 3 over y = 0
        (
            "(a + b + c - y)*(a - 1), (a + b + c - y)*(b - 2), "
            "(a + b + c - y)*(c - 3), (a + b + c - y)*y",
            ("y",),
            ("a", "b", "c"),
        ),
        # the surface a*b = y and the line a = z, b = 1 over y = 0
        ("(a*b - y)*(a - z), (a*b - y)*(b - 1), (a*b - y)*y", ("y", "z"), ("a", "b")),
    ],
    ids=["plane-and-point", "surface-and-line"],
)
def test_vertical_finds_a_hidden_component_by_saturation(no_split, text, target_vars, source_vars):
    setup = simple_setup(text, target_vars, source_vars)
    result = slow_vertical(setup, 1)
    assert (result.verdict, result.detail) == (True, "component inside the zero set of y")
    assert not radical_member(result.witness, setup.total_ideal)


# irreducible targets for the random unions below: affine line and plane,
# the cusp and the quadric cone
UNION_TARGETS = [
    (("y1",), []),
    (("y1", "y2"), []),
    (("y1", "y2"), ["y1^2 - y2^3"]),
    (("y1", "y2", "y3"), ["y1*y2 - y3^2"]),
]


def random_union_setup(rng):
    """V(D) union V(Z) over a random irreducible target: D one equation that
    dominates it, Z a vertical point or line, a second dominant piece, or
    nothing; the union's ideal is the product of the two."""
    target_vars, target_gens = rng.choice(UNION_TARGETS)
    ring = PolynomialRing(target_vars, ("a", "b"))

    def y():
        return rng.choice(target_vars)

    def k():
        return rng.randint(-2, 2)

    D = rng.choice(
        [
            f"a*b - {y()}",
            f"{y()}*a - {k()}",
            f"a^2 - {y()}*b",
            f"a + b - {y()}",
            f"{y()}*a^2 + b - {k()}",
            f"{y()}*a*b - 1",
        ]
    )
    kind = rng.choice(["vertical", "vertical", "dominant", "none"])
    if kind == "vertical":
        Z = [f"{y()} - ({k()})", f"a - ({k()})"] + [f"b - ({k()})"] * (rng.random() < 0.5)
    elif kind == "dominant":
        Z = [f"a - {y()}", f"b - ({k()})"]
    else:
        Z = []
    gens = [f"({D})*({z})" for z in Z] or [D]
    return make_setup(
        ring,
        [P(g, ring) for g in target_gens],
        [P(g, ring) for g in gens],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def test_saturation_verdicts_on_random_unions():
    # With the attestation no verdict is undecided; a pseudo-component with
    # a lower-dimensional image is found; and the dimension counts, where
    # they decide, agree with the saturations.  The split reference runs at
    # power 1 only, to keep the test fast.
    rng = Random(24)
    verdicts = []
    counted = 0
    for _ in range(50):
        setup = random_union_setup(rng)
        for i in (1, 2):
            J = fibred_power(setup, i)
            assert has_vertical_component(setup, i).verdict is not None
            result = geometry._vertical(J, setup.n)
            verdicts.append(result.verdict)
            pieces = split_components(J) if i == 1 else []
            if any(krull_dimension(elimination_ideal(p, p.ring.split)) < setup.n for p in pieces):
                assert result.verdict is True
            certified = geometry._vertical_by_dimension(setup, J, i)
            if certified is not None:
                counted += 1
                assert certified.verdict is result.verdict
    assert True in verdicts and False in verdicts and counted > 0


def test_quadric_cone_has_no_vertical_component():
    setup = quadric_cone_setup()
    assert has_vertical_component(setup, 1).verdict is False


def record_slow_path(monkeypatch) -> list[Ideal]:
    """Record each ideal that reaches the saturation path ``_vertical``."""
    reached = []
    vertical = geometry._vertical

    def recording(J, n):
        reached.append(J)
        return vertical(J, n)

    monkeypatch.setattr(geometry, "_vertical", recording)
    return reached


def absorbing_setup():
    """V(y1*x) over the target V(y1^2): the source is V(y1) x C, with image
    V(y1), on which the leading coefficient y1 of y1*x vanishes."""
    ring = PolynomialRing(("y1", "y2"), ("x",))
    return make_setup(
        ring,
        ambient_target_generators=[P("y1^2", ring)],
        source_generators=[P("y1*x", ring)],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def test_vertical_absorbs_coefficients_vanishing_on_the_image(monkeypatch):
    # The stabilization absorbs y1 and no component is vertical.  Saturating
    # by y1 without the absorption would empty the ideal and report witness 1.
    setup = absorbing_setup()
    # y1 lies in the radical of the target ideal, so the dimension counts
    # decline and the saturation path decides
    reached = record_slow_path(monkeypatch)
    assert has_vertical_component(setup, 1).verdict is False
    assert reached[0] is setup.total_ideal


def test_stabilize_asks_each_radical_question_once(monkeypatch):
    # In the first absorbing round J's target part equals the image closure,
    # so the flag test has already shown that y1 vanishes on V(J).
    setup = absorbing_setup()
    image = elimination_ideal(setup.total_ideal, setup.ring.split)
    asked = []
    member = geometry.radical_member

    def counted(f, ideal):
        asked.append((f, ideal))
        return member(f, ideal)

    monkeypatch.setattr(geometry, "radical_member", counted)
    _, locus, rel, grown = geometry._stabilize(setup.total_ideal, image)
    assert [str(f) for f, _ in asked] == ["y1"]
    assert [str(g) for g in locus.generators] == ["y1^2", "y1"]
    assert rel == [] and grown is None


def test_stabilize_adds_the_image_equations_first():
    # Against the zero ideal the image's equations join the locus first (off
    # their zero set every fibre is empty), then the coefficients that vanish
    # there are absorbed; the others come back as relative terms.  The image
    # closure comes back too, generated by its reduced grevlex basis.
    setup = simple_setup("y")
    J, locus, rel, image = geometry._stabilize(setup.total_ideal, Ideal(setup.ring.target_ring()))
    assert J is setup.total_ideal
    assert [str(g) for g in locus.generators] == ["y"]
    assert rel == []
    assert image.generators == image.groebner_basis(GREVLEX).elements == locus.generators
    ring = PolynomialRing(("y1", "y2"), ("x",))
    yring = ring.target_ring()
    J = Ideal(ring, [P("y2", ring), P("y1*x", ring)])
    _, locus, rel, _ = geometry._stabilize(J, Ideal(yring))
    assert [str(g) for g in locus.generators] == ["y2"]
    assert rel == [((1,), P("y1", yring))]
    J = Ideal(ring, [P("y1^2", ring), P("y1*x", ring)])
    _, locus, rel, image = geometry._stabilize(J, Ideal(yring))
    assert [str(g) for g in locus.generators] == ["y1^2", "y1"]
    assert rel == []
    assert [str(g) for g in image.generators] == ["y1^2"]


def test_stabilize_makes_a_unit_ideal_a_unit_locus():
    ring = PolynomialRing(("y",), ("x",))
    J = Ideal(ring, [P("y*x - 1", ring), P("y", ring)])
    _, locus, rel, image = geometry._stabilize(J, Ideal(ring.target_ring()))
    assert locus.is_unit() and image.is_unit()
    assert rel == []


def test_stabilize_refuses_a_flagged_coefficient_that_j_holds(monkeypatch):
    # A flagged leading coefficient never lies in J, as J's basis is reduced,
    # so every round grows J and the rounds end.  One that J already held
    # would leave J as it is: that is an internal fault, not another round.
    ring = PolynomialRing(("y",), ("x",))
    J = Ideal(ring, [P("y", ring), P("x - 1", ring)])
    y = P("y", ring.target_ring())
    monkeypatch.setattr(geometry, "relative_terms", lambda _: [((1,), y)])
    with pytest.raises(InternalInconsistencyError, match="already lies in J"):
        geometry._stabilize(J, Ideal(ring.target_ring()))


@pytest.mark.parametrize(
    "text, target_vars",
    [("y*x - 1", ("y",)), ("y", ("y",)), ("x*y1, x^2 - x", ("y1", "y2"))],
    ids=["hyperbola", "not_dense", "two_elements"],
)
def test_stratification_builds_no_basis_twice(buchberger_runs, text, target_vars):
    # The root node works on X's ideal itself, whose block basis the setup's
    # emptiness check built, and a grown locus stays in its node, so no basis
    # is built twice and X's block basis stays cached for the purity check
    # and the dimension counts.
    setup = simple_setup(text, target_vars)
    setup.stratification
    # the order and generator set of every Buchberger run
    runs = [(order, frozenset(frozenset(d.items()) for d in seq)) for order, seq in buchberger_runs]
    assert runs and len(set(runs)) == len(runs)
    buchberger_runs.clear()
    relative_terms(setup.total_ideal)
    assert buchberger_runs == []


def test_vertical_falls_back_when_the_image_is_not_dense(monkeypatch):
    # X = {0} x C over the y-line: its image, the origin, is not dense
    setup = simple_setup("y")
    reached = record_slow_path(monkeypatch)
    result = has_vertical_component(setup, 1)
    assert reached == [setup.total_ideal]
    assert (result.verdict, result.detail) == (True, "image closure has dimension 0 < 1")


def test_generic_meets_is_empty_without_a_generic_cell(monkeypatch):
    # the image of X = {0} x C is not dense, so there is no generic cell and
    # no h_a; the vertical test still decides through the saturation path
    setup = simple_setup("y")
    assert setup.stratification.generic is None
    assert setup.stratification.generic_meets == []
    reached = record_slow_path(monkeypatch)
    assert has_vertical_component(setup, 1).verdict is True
    assert reached == [setup.total_ideal]


def two_round_setup():
    """Over the target V(y1^2*y2) the leading coefficients of this source
    vanish on the constraint one after another."""
    ring = PolynomialRing(("y1", "y2"), ("x1", "x2"))
    return make_setup(
        ring,
        ambient_target_generators=[P("y1^2*y2", ring)],
        source_generators=[P("y2^2*x1*x2 + y1*x1^2 + x1", ring)],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def test_stabilization_takes_two_absorption_rounds(monkeypatch):
    # Both the stratification and the vertical test absorb over two rounds
    # before the data settle.
    setup = two_round_setup()
    calls = []
    read = geometry.relative_terms

    def counted(J):
        calls.append(J)
        return read(J)

    monkeypatch.setattr(geometry, "relative_terms", counted)
    strat = setup.stratification
    assert len(calls) == 8
    assert strat.fibre_dimensions == (1,)
    (stratum,) = strat.strata
    assert [str(g) for g in stratum.image_ideal.generators] == ["y1*y2"]
    assert len(stratum.cells) == 4

    calls.clear()
    result = slow_vertical(setup, 1)
    assert len(calls) == 3
    assert result.verdict is True
    assert str(result.witness) == "y1*x1^2 + x1"
    assert result.detail == "component inside the zero set of y1"
    # the leading coefficient y1*y2^3 vanishes on the target V(y1^2*y2), so
    # the dimension counts decline and the saturation path decides
    assert geometry._vertical_by_dimension(setup, setup.total_ideal, 1) is None
    assert has_vertical_component(setup, 1) == result


def test_vertical_requires_attestation():
    ring = PolynomialRing(("y",), ("x",))
    setup = make_setup(ring, [], [P("y*x", ring)])
    with pytest.raises(PreconditionError):
        has_vertical_component(setup, 1)


def test_vertical_monotone_across_powers():
    setup = simple_setup("y*x")
    first = has_vertical_component(setup, 1)
    second = has_vertical_component(setup, 2)
    assert first.verdict is True
    assert second.verdict is True


REPLAYED = [
    path.stem
    for path in sorted(FIXTURES.glob("*.setup"))
    if load_setup(path).setup.assert_target_locally_irreducible
] + ["cyclic_4_3", "cyclic_4_4"]


def replayed_setup(name):
    path = FIXTURES / f"{name}.setup"
    if path.exists():
        return load_setup(path).setup
    _, n, l = name.split("_")  # cyclic_<n>_<l>
    return cyclic_family_setup(int(n), int(l))


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("name", REPLAYED)
def test_dimension_certificates_agree_with_the_saturation_path(name, i):
    # The dimension counts decide every attested fixture and cyclic (4, 3)
    # and (4, 4) at powers 1-3; each verdict is replayed on the slow path.
    setup = replayed_setup(name)
    certified = geometry._vertical_by_dimension(setup, fibred_power(setup, i), i)
    assert certified is not None
    assert slow_vertical(setup, i).verdict is certified.verdict


def direct_generic_reading(setup):
    """lambda and the sorted non-constant h_a read off X's block basis, or
    None when the image of X is not dense or some h_a vanishes on the target:
    the reading the root cell of the stratification replaces."""
    total = setup.total_ideal
    if krull_dimension(elimination_ideal(total, total.ring.split)) < setup.n:
        return None
    rel = relative_terms(total)
    lead_coeffs = sorted({c for _, c in rel if not c.is_constant()}, key=str)
    if any(radical_member(h, setup.target_ideal) for h in lead_coeffs):
        return None
    return independent_set_dimension([x for x, _ in rel], setup.k), lead_coeffs


def generic_reference_setups(name):
    if name == "absorbing":
        return [absorbing_setup()]
    if name == "two_rounds":
        return [two_round_setup()]
    if name == "not_dense":
        return [simple_setup("y")]
    if name == "random":
        return list(_random_projection_setups(2718, 40))
    return [replayed_setup(name)]


@pytest.mark.parametrize("name", REPLAYED + ["absorbing", "two_rounds", "not_dense", "random"])
def test_generic_cell_matches_the_direct_reading(name):
    # On an irreducible target the root cell is recorded exactly when the
    # image is dense and no h_a vanishes on the target, and then carries
    # lambda and the h_a of X's block basis.
    for setup in generic_reference_setups(name):
        strat = stratify_by_fibre_dimension(setup)
        expected = direct_generic_reading(setup)
        if expected is None:
            assert strat.generic is None, setup.source_generators
        else:
            generic = strat.generic
            assert generic is not None, setup.source_generators
            assert (generic.fibre_dim, list(generic.inequations)) == expected


def test_dimension_counts_decline_when_the_image_misses_a_target_component():
    # The image of X is V(y2), one of the two components of V(y1*y2): its
    # dimension is n, but the root node refines, so there is no generic cell
    # and the counts leave the decision to the saturation path.
    ring = PolynomialRing(("y1", "y2"), ("x1", "x2"))
    setup = make_setup(
        ring,
        ambient_target_generators=[P("y1*y2", ring)],
        source_generators=[P("2*x2^2", ring), P("y2 + 3*y1*x2", ring)],
    )
    assert krull_dimension(elimination_ideal(setup.total_ideal, ring.split)) == setup.n
    assert setup.stratification.generic is None
    assert geometry._vertical_by_dimension(setup, setup.total_ideal, 1) is None


def requeueing_stratification(setup):
    """The cells and root cell of the node loop that grew a locus by
    requeueing it: a node whose image closure adds equations goes back on
    the stack as a new constraint, and ``seen`` drops a refined locus met
    before.  Also returns how many refined loci it dropped so."""
    ring, J = setup.ring, setup.total_ideal
    cells, generic, seen, dropped = [], None, set(), 0
    pending = [(setup.target_ideal, False)]
    while pending:
        constraint, refined = pending.pop()
        key = tuple(constraint.groebner_basis(GREVLEX).elements)
        if key in seen:
            dropped += refined
            continue
        seen.add(key)
        if constraint.is_unit():
            continue
        Jc = J.added(transport(g, ring) for g in constraint.generators)
        pure = elimination_ideal(Jc, ring.split).generators
        if any(not radical_member(g, constraint) for g in pure):
            pending.append((constraint.added(pure), True))
            continue
        _, current, stable, _ = geometry._stabilize(Jc, constraint)
        fibre_dim = independent_set_dimension([x for x, _ in stable], setup.k)
        lead_coeffs = sorted({c for _, c in stable if not c.is_constant()}, key=str)
        closure = saturation(current, prod(lead_coeffs)) if lead_coeffs else current
        if not closure.is_unit():
            cells.append(Cell(closure, tuple(lead_coeffs), fibre_dim))
            if current is setup.target_ideal:
                generic = cells[-1]
        for h in lead_coeffs:
            pending.append((current.added([h]), False))
    return cells, generic, dropped


def replay_setups(name):
    if name == "fixtures":
        return [load_setup(path).setup for path in sorted(FIXTURES.glob("*.setup"))]
    if name == "cyclic":
        return [cyclic_family_setup(4, 3), cyclic_family_setup(4, 4)]
    if name == "random":
        return list(_random_projection_setups(2718, 40))
    rng = Random(24)
    return [random_union_setup(rng) for _ in range(50)]


@pytest.mark.parametrize("name", ["fixtures", "cyclic", "random", "unions"])
def test_stratification_replays_the_requeueing_loop(name):
    # Growing a locus inside its node gives the cells, in the same order,
    # and the root cell of the loop that requeued it; on the unions two
    # constraints grow to one locus, whose cell counts once.
    dropped = 0
    for setup in replay_setups(name):
        strat = stratify_by_fibre_dimension(setup)
        cells, generic, skipped = requeueing_stratification(setup)
        dropped += skipped
        # the strata list the cells by fibre dimension and closure, stably
        cells.sort(key=lambda c: (c.fibre_dim, tuple(map(str, c.closure.generators))))
        assert [c for s in strat.strata for c in s.cells] == cells, setup.source_generators
        assert strat.generic == generic, setup.source_generators
    assert (dropped > 0) is (name == "unions")


def transported_inversion(ideal, h):
    """``ideal + (1 - t*h)`` built by transporting each generator into the
    extended ring by name and h through polynomial arithmetic."""
    ext = ideal.ring.extend([ideal.ring.fresh_name("t")])
    t = ext.variable(ext.variables[-1])
    gens = [transport(g, ext) for g in ideal.generators]
    gens.append(ext.one() - t * transport(h, ext))
    return Ideal(ext, gens)


def with_and_without_constant(g):
    """``g`` less its constant term, and that plus 3."""
    terms = {m: c for m, c in g.as_dict().items() if any(m)}
    bare = Polynomial(g.ring, terms) if terms else g.ring.variable(g.ring.variables[-1])
    return [bare, bare + 3]


@pytest.mark.parametrize("name", ["random", "unions"])
def test_inverted_matches_the_transported_construction(name):
    # same ring, generators in the same order, and each generator's terms
    # inserted in the same order; an input ring holding "t" gets "t_"
    rings = [PolynomialRing(("t",), ("x",))]
    ideals = [Ideal(rings[0], [P("t*x - 1", rings[0]), P("x^2 + t", rings[0])])]
    ideals += [setup.total_ideal for setup in replay_setups(name)]
    for ideal in ideals:
        for g in ideal.generators:
            for h in with_and_without_constant(g):
                built, reference = _inverted(ideal, h), transported_inversion(ideal, h)
                assert built.ring.variables == reference.ring.variables
                assert built == reference
                assert [list(g.as_dict().items()) for g in built.generators] == [
                    list(g.as_dict().items()) for g in reference.generators
                ]
                assert all(type(c) is Fraction for g in built.generators for _, c in g.terms())
    assert _inverted(ideals[0], ideals[0].generators[0]).ring.variables[-1] == "t_"


def probe_polynomials(setup):
    """The relative leading coefficients of X, each target variable,
    1 + 2*y1 + 3*y2 + ... and y1*yn - y1, in the target ring."""
    yring = setup.ring.target_ring()
    ys = [yring.variable(name) for name in yring.variables]
    probes = {c for _, c in relative_terms(setup.total_ideal) if not c.is_constant()}
    probes.update(ys)
    probes.add(sum((yring.constant(a) * y for a, y in enumerate(ys, start=2)), yring.one()))
    probes.add(ys[0] * ys[-1] - ys[0])
    return sorted(probes, key=str)


@pytest.mark.parametrize("name", REPLAYED)
def test_cell_formula_gives_the_fibred_power_zero_set_dimension(name):
    # dim V(J_i + (h)) is the largest dim(C meet V(h)) + i*C.fibre_dim over
    # the cells C of X's stratification, -1 when no cell meets V(h): checked
    # against a basis of J_i + (h) in the power's own ring
    setup = replayed_setup(name)
    powers = (1, 2) if name == "cyclic_4_4" else (1, 2, 3)
    strat = stratify_by_fibre_dimension(setup)
    cells = [cell for stratum in strat.strata for cell in stratum.cells]
    for h in probe_polynomials(setup):
        meets = [(geometry._meet_dimension(cell, h), cell.fibre_dim) for cell in cells]
        for i in powers:
            J = fibred_power(setup, i)
            formula = max((e + i * j for e, j in meets if e >= 0), default=-1)
            assert formula == krull_dimension(J.added([transport(h, J.ring)])), (h, i)


def cell_meet_ideals(setup):
    """The ideals whose dimensions are the generic meets: for each generic
    inequation h and each cell C without h among its inequations, C's
    closure plus h, with the product of C's inequations inverted."""
    strat = setup.stratification
    if strat.generic is None:
        return []
    cells = [cell for stratum in strat.strata for cell in stratum.cells]
    ideals = []
    for h in strat.generic.inequations:
        for cell in cells:
            if h in cell.inequations:
                continue
            inside = cell.closure.added([h])
            if cell.inequations:
                inside = _inverted(inside, prod(cell.inequations))
            ideals.append(inside)
    return ideals


@pytest.mark.parametrize("name", REPLAYED)
def test_cell_meet_bases_against_sympy_oracle(name):
    # the grevlex bases behind the fibred-power dimension counts
    for ideal in cell_meet_ideals(replayed_setup(name)):
        _assert_basis_matches_sympy(ideal, GREVLEX, "grevlex")


def test_meet_dimension_with_a_cell_inequation_builds_no_basis(buchberger_runs):
    # An inequation h of a cell C does not vanish on C, so C meet V(h) is
    # empty: the answer -1 needs no Groebner basis.
    cells = [
        cell
        for name in REPLAYED
        for stratum in replayed_setup(name).stratification.strata
        for cell in stratum.cells
    ]
    buchberger_runs.clear()
    asked = [geometry._meet_dimension(cell, h) for cell in cells for h in cell.inequations]
    assert asked and set(asked) == {-1}
    assert buchberger_runs == []


def test_stratification_is_kept_and_a_cap_hit_is_not(monkeypatch):
    setup = quadric_cone_setup()
    monkeypatch.setattr(geometry, "STRATIFY_MAX_NODES", 0)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            setup.stratification
    monkeypatch.undo()
    strat = setup.stratification
    assert strat.fibre_dimensions == (0, 1)
    # once kept, a cap lowered afterwards has no effect on this setup
    monkeypatch.setattr(geometry, "STRATIFY_MAX_NODES", 0)
    assert setup.stratification is strat


def test_dimension_counts_build_no_basis_in_the_power_ring(
    monkeypatch, buchberger_runs, fixture_dir
):
    # Given X's stratification, each power's counts come from dimensions in
    # the target ring and in that ring plus one Rabinowitsch variable; none is
    # in the ring of J_i (7, 11 and 15 variables here).  Where the generators'
    # leading monomials are coprime the dimension builds no basis, so the
    # bound is checked on every ideal whose dimension is asked and on every
    # basis built, which may be none.
    setup = load_setup(fixture_dir / "cyclic_forms_n3_l3.setup").setup
    setup.stratification  # X's own bases, built before recording
    buchberger_runs.clear()
    asked = []
    dimension = geometry.krull_dimension

    def recording_dimension(ideal):
        asked.append(ideal.ring.arity)
        return dimension(ideal)

    monkeypatch.setattr(geometry, "krull_dimension", recording_dimension)
    verdicts = [has_vertical_component(setup, i).verdict for i in (1, 2, 3)]
    assert verdicts == [False, False, True]
    assert asked and max(asked) <= setup.n + 1
    built = [len(m) for _, seq in buchberger_runs for p in seq for m in p]
    assert max(built, default=0) <= setup.n + 1


# ---------------------------------------------------------------------------
# fibred powers
# ---------------------------------------------------------------------------


def test_fibred_power_one_matches_original():
    setup = quadric_cone_setup()
    assert fibred_power(setup, 1) is setup.total_ideal


def test_fibred_power_generators_by_construction():
    setup = quadric_cone_setup()
    power = fibred_power(setup, 2)
    texts = {str(g) for g in power.generators}
    ring = power.ring
    expected = {
        str(P("y1*y4 - y2*y3", ring)),
        str(P("y1*x__1^2 + y4*x__1 + y2 - y3", ring)),
        str(P("y1*x__2^2 + y4*x__2 + y2 - y3", ring)),
    }
    assert texts == expected


def test_fibred_power_generator_count():
    setup = cyclic_family_setup(2, 2)
    for i in (1, 2, 3):
        power = fibred_power(setup, i)
        assert len(power.generators) == i * setup.r + len(setup.target_ideal.generators)


def test_fibred_power_symmetry():
    setup = quadric_cone_setup()
    power = fibred_power(setup, 2)
    k = setup.k
    swap = {}
    for a, b in zip(power.ring.source_vars[:k], power.ring.source_vars[k : 2 * k]):
        swap[a] = b
        swap[b] = a
    swapped = {reference_map(g, power.ring, swap) for g in power.generators}
    assert swapped == set(power.generators)


def _reference_fibred_power(setup, ring, i):
    """The generators of the i-th fibred power in ``ring`` built by name with
    ``reference_map``: the target equations, then for each copy t the source
    generators with the source block renamed to the t-th k-wide slice."""
    k = setup.k
    gens = [reference_map(g, ring) for g in setup.target_ideal.generators]
    for t in range(i):
        rename = dict(zip(setup.ring.source_vars, ring.source_vars[t * k : (t + 1) * k]))
        gens.extend(reference_map(g, ring, rename) for g in setup.source_generators)
    return Ideal(ring, gens).generators


@pytest.mark.parametrize(
    "make, i",
    [
        (lambda path=path: load_setup(path).setup, i)
        for path in sorted(FIXTURES.glob("*.setup"))
        for i in (2, 3)
    ]
    + [(lambda: cyclic_family_setup(4, 4), 2)],
    ids=[f"{path.stem}-{i}" for path in sorted(FIXTURES.glob("*.setup")) for i in (2, 3)]
    + ["cyclic_4_4-2"],
)
def test_fibred_power_matches_the_rename_by_name_reference(make, i):
    setup = make()
    power = fibred_power(setup, i)
    assert power.ring.target_vars == setup.ring.target_vars
    assert len(power.ring.source_vars) == i * setup.k
    assert power.generators == _reference_fibred_power(setup, power.ring, i)


# ---------------------------------------------------------------------------
# component splitting and purity
# ---------------------------------------------------------------------------


def test_split_coordinate_cross():
    # a certified complete intersection whose candidates x and y each vanish
    # on a component, so the unmixedness shortcut must not skip them
    ring = PolynomialRing(("y",), ("x",))
    J = Ideal(ring, [P("y*x", ring)])
    assert krull_dimension(J) == 1 and _complete_intersection(J, 1)
    pieces = split_components(J)
    varieties = {tuple(str(g) for g in p.groebner_basis().elements) for p in pieces}
    assert varieties == {("x",), ("y",)}


def test_split_leaves_irreducible_alone():
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ())
    ideal = Ideal(ring, [P("y1*y4 - y2*y3", ring)])
    assert split_components(ideal) == [ideal]


def test_split_coprime_factors():
    ring = PolynomialRing((), ("x",))
    pieces = split_components(Ideal(ring, [P("x^2 - x", ring)]))
    varieties = {tuple(str(g) for g in p.groebner_basis().elements) for p in pieces}
    assert varieties == {("x",), ("x - 1",)}


def test_split_covering_contract():
    ring = PolynomialRing((), ("x", "y", "z"))
    J = Ideal(ring, [P("x*y", ring), P("x*z", ring)])
    pieces = split_components(J)
    assert len(pieces) == 2
    # every piece contains J as an ideal
    for piece in pieces:
        for g in J.generators:
            assert piece.contains(g)
    # and the pieces cover V(J): the intersection is inside the radical
    from fibrephi import ideal_intersection

    meet = pieces[0]
    for piece in pieces[1:]:
        meet = ideal_intersection(meet, piece)
    for g in meet.generators:
        assert radical_member(g, J)


def test_purity_of_quadric_family():
    setup = quadric_cone_setup()
    result = pure_dimension_check(setup.total_ideal)
    assert (result.pure, result.dim, result.piece_dims) == (True, 3, (3,))


def test_impurity_of_plane_plus_line():
    # two generators, codimension 1: no unmixedness certificate
    ring = PolynomialRing((), ("x", "y", "z"))
    J = Ideal(ring, [P("x*y", ring), P("x*z", ring)])
    assert not _complete_intersection(J, krull_dimension(J))
    result = pure_dimension_check(J)
    assert (result.pure, result.dim, result.piece_dims) == (False, 2, (2, 1))


def test_purity_of_hypersurface():
    ring = PolynomialRing((), ("x", "y", "z"))
    result = pure_dimension_check(Ideal(ring, [P("x^2 + y^2 + z^2 - 1", ring)]))
    assert (result.pure, result.dim) == (True, 2)


def test_an_unsplit_piece_hiding_a_line_is_not_pure():
    # X is the plane a + b + c = y (dimension 3) and the line a = 1, b = 2,
    # c = y (dimension 1), which is off the plane since a + b + c - y = 3 on
    # it.  No candidate separates them, so the one piece has dimension 3, and
    # neither X nor that piece is certified pure.
    setup = simple_setup(
        "(a + b + c - y)*(a - 1), (a + b + c - y)*(b - 2), (a + b + c - y)*(c - y)",
        source_vars=("a", "b", "c"),
    )
    J = setup.total_ideal
    assert split_components(J) == [J]
    assert not _complete_intersection(J, krull_dimension(J)) and not _certified_pure(J)
    result = pure_dimension_check(J)
    assert (result.pure, result.dim, result.piece_dims) == (None, 3, (3,))


def test_a_redundant_generator_keeps_a_piece_certified():
    # the quadric cone with x times its generator added: dropping that
    # generator, which lies in the radical of the others, leaves a complete
    # intersection
    setup = quadric_cone_setup()
    g = setup.source_generators[0]
    J = setup.total_ideal.added([setup.ring.variable("x") * g])
    assert not _complete_intersection(J, krull_dimension(J)) and _certified_pure(J)
    result = pure_dimension_check(J)
    assert (result.pure, result.dim, result.piece_dims) == (True, 3, (3,))


def test_unmixed_skips_agree_with_saturation(monkeypatch, fixture_dir):
    # Every candidate the unmixedness certificate made _split skip, on the
    # total ideal of each corpus fixture and on the fibred powers its expect
    # block lists, must fail to split on the slow path too: the saturation is
    # a proper ideal whose generators all vanish on V(J).
    certified = []
    saturated = set()
    split, saturate = geometry._split, geometry.saturation

    def recording_split(J, depth, pure_dim=None):
        if pure_dim is not None:
            certified.append(J)
        return split(J, depth, pure_dim)

    def recording_saturation(ideal, h):
        saturated.add((ideal, h))
        return saturate(ideal, h)

    monkeypatch.setattr(geometry, "_split", recording_split)
    monkeypatch.setattr(geometry, "saturation", recording_saturation)
    for path in sorted(fixture_dir.glob("*.setup")):
        loaded = load_setup(path)
        setup = loaded.setup
        pure_dimension_check(setup.total_ideal)
        if setup.assert_target_locally_irreducible:
            for i in range(1, required_max_power(loaded.expect) + 1):
                has_vertical_component(setup, i)
    # the benchmark's wider sources, where _variable_cut_bound settles most skips
    for name in ("cyclic_4_3", "cyclic_4_4", "cyclic_5_5"):
        pure_dimension_check(replayed_setup(name).total_ideal)
    monkeypatch.undo()

    skipped = 0
    for J in certified:
        # replay the candidate loop: the candidates _split did not saturate,
        # up to the first one that split J, are the skipped ones
        for h in _splitter_candidates(J):
            off = saturation(J, h)
            shrinks = not off.is_unit() and not all(radical_member(g, J) for g in off.generators)
            if (J, h) not in saturated:
                assert not off.is_unit() and not shrinks, (J, h)
                skipped += 1
            elif shrinks:
                break
    assert skipped > 0


def _split_as_given(J):
    """The pieces of V(J), split from J's own generators."""
    dim = krull_dimension(J)
    pure_dim = dim if _complete_intersection(J, dim) else None
    return geometry._prune(geometry._split(J, geometry.SPLIT_DEPTH, pure_dim))


def _piece_dims(split, J):
    try:
        return sorted((krull_dimension(p) for p in split(J)), reverse=True)
    except ResourceLimitError:
        return None


def test_monomial_radicals_keep_the_piece_dimensions():
    # split_components splits J with each monomial generator replaced by the
    # product of its variables; the piece dimensions, which every document
    # carries, must be those of the split of J as given.  Each J of the
    # fixtures and the random families is also tried with a random monomial
    # generator added whose exponents are 2 or 3.
    rng = Random(7)
    union_rng = Random(24)
    setups = (
        [load_setup(path).setup for path in sorted(FIXTURES.glob("*.setup"))]
        + list(_random_projection_setups(2718, 40))
        + [random_union_setup(union_rng) for _ in range(25)]
    )
    replaced = 0
    for setup in setups:
        J = setup.total_ideal
        m = [rng.choice((0, 0, 2, 3)) for _ in range(J.ring.arity)]
        m[rng.randrange(len(m))] = 2
        for ideal in (J, J.added([Polynomial(J.ring, {tuple(m): 1})])):
            if ideal.is_unit():
                continue
            replaced += geometry._monomial_radicals(ideal) is not ideal
            expected = _piece_dims(_split_as_given, ideal)
            assert _piece_dims(split_components, ideal) == expected, ideal
    assert replaced > 50


def test_certified_candidates_that_are_tried_shrink_the_variety(monkeypatch):
    # Under an unmixedness certificate _split asks no containment test: a
    # candidate h it does not skip has dim V(J + (h)) >= the certified
    # dimension, so a component of the pure V(J) lies in V(h) and J : h^inf
    # omits it.  Each proper saturation of a certified J is replayed on the
    # slow path, which must find that it shrinks V(J), and the pieces must be
    # those of the uncertified path, which asks the test of every candidate.
    rng = Random(24)
    setups = (
        [load_setup(path).setup for path in sorted(FIXTURES.glob("*.setup"))]
        + [cyclic_family_setup(4, 3), cyclic_family_setup(4, 4)]
        + list(_random_projection_setups(2718, 200))
        + [random_union_setup(rng) for _ in range(120)]
    )
    certified, tried = [], []
    split, saturate = geometry._split, geometry.saturation

    def recording_split(J, depth, pure_dim=None):
        if pure_dim is not None:
            certified.append(J)
        return split(J, depth, pure_dim)

    def recording_saturation(ideal, h):
        off = saturate(ideal, h)
        if any(ideal is J for J in certified):
            tried.append((ideal, off))
        return off

    monkeypatch.setattr(geometry, "_split", recording_split)
    monkeypatch.setattr(geometry, "saturation", recording_saturation)
    pieces = [(setup.total_ideal, split_components(setup.total_ideal)) for setup in setups]
    monkeypatch.undo()

    proper = [(J, off) for J, off in tried if not off.is_unit()]
    assert len(proper) > 100
    for J, off in proper:
        assert not all(radical_member(g, J) for g in off.generators), J
    assert len(certified) > 200
    for J, found in pieces:
        if any(J is c for c in certified):
            assert found == geometry._prune(split(J, geometry.SPLIT_DEPTH)), J


BOUNDED = [path.stem for path in sorted(FIXTURES.glob("*.setup"))] + [
    "cyclic_4_3",
    "cyclic_4_4",
    "cyclic_5_5",
]


@pytest.mark.parametrize("name", BOUNDED)
def test_every_piece_carries_a_purity_certificate(name):
    # A pure verdict needs X or every piece certified; here both are, so no
    # document can drift to pure: null.
    J = replayed_setup(name).total_ideal
    assert _complete_intersection(J, krull_dimension(J))
    assert all(map(_certified_pure, split_components(J)))
    assert pure_dimension_check(J).pure is True


@pytest.mark.parametrize("name", BOUNDED)
def test_variable_cut_bound_is_never_below_the_dimension(name):
    # For X of each source and every variable x, the bound _split reads off
    # X's grevlex basis is at least dim V(J + (x)) from a basis of J + (x).
    J = replayed_setup(name).total_ideal
    divisors = J.groebner_basis(GREVLEX).divisors
    for x in map(J.ring.variable, J.ring.variables):
        assert _variable_cut_bound(divisors, x) >= krull_dimension(J.added([x])), x
    # anything but a variable gets the trivial bound
    first, second = map(J.ring.variable, J.ring.variables[:2])
    assert _variable_cut_bound(divisors, first * second) == J.ring.arity
    assert _variable_cut_bound(divisors, first + second) == J.ring.arity


def test_variable_cut_bound_leaves_only_its_misses_to_the_dimension_count(monkeypatch):
    # X of cyclic (4, 4) is a complete intersection that none of its
    # candidates splits.  The bound settles every candidate but x1 and y1, so
    # only those two cost a basis of J + (h); the pieces are unchanged.
    J = replayed_setup("cyclic_4_4").total_ideal
    counted = []
    krull = geometry.krull_dimension

    def recording(ideal):
        counted.append(ideal)
        return krull(ideal)

    monkeypatch.setattr(geometry, "krull_dimension", recording)
    assert split_components(J) == [J]
    assert len(_splitter_candidates(J)) == 9
    added = [I.generators[len(J.generators) :] for I in counted if I is not J]
    assert [tuple(map(str, h)) for h in added] == [("x1",), ("y1",)]


def test_unmixed_certificate_saturation_counts(monkeypatch, fixture_dir):
    # The fibred power 2 of cyclic (3, 3) is a complete intersection (11
    # variables, 4 generators, dimension 7) with 11 splitting candidates,
    # none of which splits it.  Uncertified, each costs a saturation; the
    # certificate skips all of them.
    setup = load_setup(fixture_dir / "cyclic_forms_n3_l3.setup").setup
    J = fibred_power(setup, 2)
    assert krull_dimension(J) == 7 and _complete_intersection(J, 7)
    calls = []
    saturate = geometry.saturation

    def counted(ideal, h):
        calls.append(h)
        return saturate(ideal, h)

    monkeypatch.setattr(geometry, "saturation", counted)
    assert geometry._split(J, geometry.SPLIT_DEPTH) == [J]
    assert len(calls) == 11
    calls.clear()
    assert split_components(J) == [J]
    assert calls == []


# ---------------------------------------------------------------------------
# single rational points and sampling
# ---------------------------------------------------------------------------


def test_single_point_certification():
    ring = PolynomialRing(("y1", "y2"), ())
    point = Ideal(ring, [P("y1 - 2", ring), P("y2^2 - 2*y2 + 1", ring)])
    assert single_rational_point(point) == (2, 1)
    curve = Ideal(ring, [P("y1*y2 - 1", ring)])
    assert single_rational_point(curve) is None
    two_points = Ideal(ring, [P("y1^2 - 1", ring), P("y2", ring)])
    assert single_rational_point(two_points) is None


def _model_single_point(I):
    """``single_rational_point`` with the model check it used to make: each
    variable's monic generator g of the elimination ideal must equal
    (v - a)^d, built as a polynomial, for a = minus its next coefficient / d."""
    ring = I.ring
    if krull_dimension(I) != 0:
        return None
    coords = {}
    for name in ring.variables:
        flat = PolynomialRing((name, *[v for v in ring.variables if v != name]), ())
        lifted = Ideal(flat, [transport(g, flat) for g in I.generators])
        g = elimination_ideal(lifted, 1).groebner_basis().elements[0]
        terms = g.as_dict()
        degree = max(mono[0] for mono in terms)
        root = -terms.get((degree - 1,), Fraction(0)) / degree
        if power(g.ring.variable(name) - root, degree) != g:
            return None
        coords[name] = root
    if any(reference_map(g, ring, values=coords) for g in I.generators):
        return None
    return tuple(coords[name] for name in ring.variables)


def _linear_product_ideal(roots, mix):
    """The ideal in y1, ..., yn (n = len(roots)) with one generator per
    variable: the product of (b*y - a) over its roots a/b.  With ``mix`` the
    first generator also gets the last one times the last variable, which
    leaves the ideal as it is."""
    ring = PolynomialRing(tuple(f"y{j}" for j in range(1, len(roots) + 1)), ())
    gens = []
    for name, rs in zip(ring.variables, roots):
        y = ring.variable(name)
        gens.append(prod((r.denominator * y - r.numerator for r in rs), start=ring.one()))
    if mix and len(gens) > 1:
        gens[0] = gens[0] + ring.variable(ring.variables[-1]) * gens[-1]
    return Ideal(ring, gens)


_roots = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(
    st.lists(st.lists(_roots, min_size=1, max_size=3), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example([[Fraction(1), Fraction(1)]], False)  # one repeated root: (y - 1)^2
@example([[Fraction(1), Fraction(-1)], [Fraction(2)]], True)  # two distinct roots
@example([[Fraction(1, 2)] * 3, [Fraction(-2, 3)]], True)  # (2y - 1)^3
def test_single_point_matches_the_model_check(roots, mix):
    I = _linear_product_ideal(roots, mix)
    point = single_rational_point(I)
    assert point == _model_single_point(I)
    if all(len(set(rs)) == 1 for rs in roots):
        assert point == tuple(rs[0] for rs in roots)
    else:
        assert point is None


def _assert_vanishes_at(I, point):
    values = dict(zip(I.ring.variables, point))
    assert not any(reference_map(g, I.ring, values=values) for g in I.generators), (I, point)


def test_single_point_of_each_special_image_satisfies_every_generator():
    # the point is certified by the elimination ideals alone; every generator
    # of the image ideal vanishes there all the same
    found = 0
    for name in REPLAYED:
        for stratum in replayed_setup(name).stratification.strata:
            point = single_rational_point(stratum.image_ideal)
            if point is not None:
                _assert_vanishes_at(stratum.image_ideal, point)
                found += 1
    assert found > 0


def _one_point_ideal(rng):
    """A random ideal whose zero set is one rational point a, and a: the
    generator for y_j is L_j^d plus multiples of the later L_k, L_k the
    linear form with root a_k, so the zero set is found back to front."""
    count = rng.randint(1, 3)
    ring = PolynomialRing(tuple(f"y{j}" for j in range(1, count + 1)), ())
    point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(count))
    linear = [
        a.denominator * ring.variable(name) - a.numerator for name, a in zip(ring.variables, point)
    ]
    gens = []
    for j, L in enumerate(linear):
        g = power(L, rng.randint(1, 3))
        for later in linear[j + 1 :]:
            mono = tuple(rng.randint(0, 1) for _ in ring.variables)
            g = g + Polynomial(ring, {mono: rng.randint(-3, 3)}) * later
        gens.append(g)
    return Ideal(ring, gens), point


def test_single_point_of_a_random_one_point_ideal_satisfies_every_generator():
    rng = Random(32)
    for _ in range(40):
        I, expected = _one_point_ideal(rng)
        point = single_rational_point(I)
        assert point == expected, I
        _assert_vanishes_at(I, point)


def test_single_point_refuses_an_irreducible_quadratic():
    ring = PolynomialRing(("y",), ())
    I = Ideal(ring, [P("y^2 + 1", ring)])
    assert single_rational_point(I) is None
    assert _model_single_point(I) is None


def test_sampling_respects_closure_and_inequations():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    rng = Random(5)
    for stratum in strat.strata:
        for cell in stratum.cells:
            ring = cell.closure.ring
            for pt in sample_cell_points(cell, rng, want=6):
                values = dict(zip(setup.ring.target_vars, pt))
                assert not any(reference_map(g, ring, values=values) for g in cell.closure.generators)
                assert all(reference_map(h, ring, values=values) for h in cell.inequations)
                assert all(abs(c.numerator) <= 10**6 for c in pt)


def _random_projection_setups(seed, trials):
    """Small random setups; generators always touch the source block."""
    from fibrephi.errors import EmptySpaceError, ResourceLimitError, SetupError
    from fibrephi.poly import Polynomial
    from fractions import Fraction
    import random

    rng = random.Random(seed)
    produced = 0
    while produced < trials:
        n_y, n_x = rng.randint(1, 2), rng.randint(1, 2)
        ring = PolynomialRing(
            tuple(f"y{i}" for i in range(1, n_y + 1)),
            tuple(f"x{i}" for i in range(1, n_x + 1)),
        )
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(ring.arity))
                terms[mono] = Fraction(rng.randint(-3, 3))
            p = Polynomial(ring, terms)
            if not p.is_zero and set(p.variables_used()) & set(ring.source_vars):
                gens.append(p)
        if not gens:
            continue
        try:
            setup = make_setup(
                ring,
                [],
                gens,
                assert_target_locally_irreducible=True,
                assert_target_pure_dimensional=True,
            )
        except (EmptySpaceError, SetupError, ResourceLimitError):
            continue
        produced += 1
        yield setup


def test_stratification_oracle_on_random_setups():
    checked = 0
    for index, setup in enumerate(_random_projection_setups(31337, 60)):
        strat = stratify_by_fibre_dimension(setup)
        prng = Random(index)
        for stratum in strat.strata:
            for cell in stratum.cells:
                for pt in sample_cell_points(cell, prng, want=4):
                    _, dim = fibre_at_point(setup, pt)
                    assert dim == cell.fibre_dim, (setup.source_generators, pt)
                    checked += 1
    assert checked > 100


def test_vertical_detector_consistency_on_random_setups():
    from fibrephi import INFINITY, phi_upper

    decided = 0
    for setup in _random_projection_setups(424242, 60):
        strat, vert = setup.stratification, setup.vertical
        if vert.verdict is None:
            continue
        decided += 1
        if vert.verdict:
            imdim = krull_dimension(elimination_ideal(setup.total_ideal, setup.ring.split))
            if imdim == setup.n and vert.witness is not None:
                assert not radical_member(vert.witness, setup.total_ideal)
        elif setup.purity.pure is True:
            assert strat.min_fibre_dim == setup.m - setup.n
            upper = phi_upper(setup)
            assert upper == INFINITY or upper.value >= 1
    assert decided > 40


def test_sampling_is_seed_deterministic():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    cell = next(s for s in strat.strata if s.fibre_dim == 0).cells[0]
    first = sample_cell_points(cell, Random(42), want=5)
    second = sample_cell_points(cell, Random(42), want=5)
    assert first == second


def _reference_sample_cell_points(cell, rng, want):
    """The sampler run to the full attempt budget, with no early stop, every
    substitution made by name in ``Fraction`` arithmetic (``reference_map``).

    Returns the points and whether any attempt met a double root (where this
    loop still calls ``rng.choice`` on a single option).
    """
    closure = cell.closure
    ring = closure.ring
    basis = closure.groebner_basis(LEX)
    if basis.elements == (ring.one(),):
        return [], False
    by_leading_var = {}
    for g in basis.elements:
        lead = min(i for mono in g.monomials() for i, e in enumerate(mono) if e)
        by_leading_var.setdefault(lead, []).append(g)
    points, seen, double_root = [], set(), False
    for _ in range(geometry.SAMPLE_ATTEMPTS):
        if len(points) >= want:
            break
        values = {}
        ok = True
        for v in reversed(range(ring.arity)):
            name = ring.variables[v]
            specialized = (reference_map(g, ring, values=values) for g in by_leading_var.get(v, []))
            constraints = [u for u in specialized if not u.is_zero]
            if not constraints:
                values[name] = Fraction(rng.randint(-100, 100))
                continue
            candidate = None
            coeffs = _univariate_coefficients(constraints[0], v)
            degree = len(coeffs) - 1
            if degree == 1:
                candidate = -coeffs[0] / coeffs[1]
            elif degree == 2:
                a, b, c = coeffs[2], coeffs[1], coeffs[0]
                root = _rational_sqrt(b * b - 4 * a * c)
                if root is not None:
                    options = sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)})
                    double_root = double_root or len(options) == 1
                    candidate = rng.choice(options)
            if candidate is None or any(
                not reference_map(u2, ring, values={name: candidate}).is_zero
                for u2 in constraints[1:]
            ):
                ok = False
                break
            values[name] = candidate
        if not ok:
            continue
        point = tuple(values[name] for name in ring.variables)
        if any(reference_map(g, ring, values=values) for g in closure.generators):
            continue
        if not all(reference_map(h, ring, values=values) for h in cell.inequations):
            continue
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points, double_root


def test_sampling_stop_agrees_with_full_budget(fixture_dir):
    # Stopping after an attempt that drew nothing must return what the full
    # budget returns; with no double root the rng must also end in the same
    # state, so later cells of one oracle run see the same stream.
    compared = double_roots = 0
    for path in sorted(fixture_dir.glob("*.setup")):
        strat = stratify_by_fibre_dimension(load_setup(path).setup)
        for stratum in strat.strata:
            for cell in stratum.cells:
                for seed in range(5):
                    for want in (5, 20):
                        fast_rng, slow_rng = Random(seed), Random(seed)
                        fast = sample_cell_points(cell, fast_rng, want=want)
                        slow, double_root = _reference_sample_cell_points(cell, slow_rng, want)
                        assert fast == slow, (path.name, cell.closure.generators, seed, want)
                        if double_root:
                            double_roots += 1
                        else:
                            assert fast_rng.getstate() == slow_rng.getstate(), path.name
                        compared += 1
    assert compared > 100 and 0 < double_roots < compared


@pytest.mark.parametrize(
    "fixture, fibre_dim, calls",
    [
        # cyclic (3, 3) over y1 = y2 = y3 = 0: one constrained coordinate per
        # variable and no draw.
        ("cyclic_forms_n3_l3.setup", 3, 3),
        # the vertex of the quadric cone: the basis element y3^2 gives a
        # double root, which is taken without a draw.
        ("quadric_cone.setup", 1, 4),
    ],
)
def test_single_point_cell_is_sampled_once(monkeypatch, fixture_dir, fixture, fibre_dim, calls):
    # One attempt solves each coordinate once; running the whole budget would
    # make SAMPLE_ATTEMPTS times as many calls.
    strat = stratify_by_fibre_dimension(load_setup(fixture_dir / fixture).setup)
    (cell,) = next(s for s in strat.strata if s.fibre_dim == fibre_dim).cells
    counted = []
    solve = geometry._univariate_coefficients

    def counting(p, index):
        counted.append(index)
        return solve(p, index)

    monkeypatch.setattr(geometry, "_univariate_coefficients", counting)
    rng = Random(0)
    state = rng.getstate()
    assert len(sample_cell_points(cell, rng, want=5)) == 1
    assert len(counted) == calls
    assert rng.getstate() == state
