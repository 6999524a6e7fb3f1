"""Projection geometry: setups, images, fibres, stratification, verticality,
component splitting, purity, fibred powers and rational sampling."""

from random import Random

import pytest

from fibrephi import (
    Ideal,
    PolynomialRing,
    fibre_at_point,
    fibred_power,
    geometry,
    has_vertical_component,
    image_closure,
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
    OffTargetError,
    PreconditionError,
    SetupError,
)
from fibrephi.geometry import (
    _splitter_candidates,
    _unmixed_dimension,
    relative_terms,
    single_rational_point,
)

from conftest import cyclic_family_setup, quadric_cone_setup, simple_setup


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


# ---------------------------------------------------------------------------
# image closures
# ---------------------------------------------------------------------------


def test_image_closure_of_quadric_family():
    setup = quadric_cone_setup()
    image, dim = image_closure(setup.total_ideal)
    assert dim == 3
    yring = setup.ring.target_ring()
    assert image.equals(Ideal(yring, [P("y1*y4 - y2*y3", yring)]))


def test_image_closure_with_no_source_constraints():
    # X = Y x Omega projects onto Y
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    lifted = Ideal(ring, [P("y1*y4 - y2*y3", ring)])
    image, dim = image_closure(lifted)
    assert dim == 3
    yring = PolynomialRing(("y1", "y2", "y3", "y4"), ())
    assert image.equals(Ideal(yring, [P("y1*y4 - y2*y3", yring)]))


def test_image_closure_of_graph_is_everything():
    ring = PolynomialRing(("y1", "y2"), ("x1",))
    image, dim = image_closure(Ideal(ring, [P("x1 - y1", ring)]))
    assert image.is_zero_ideal and dim == 2


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
    xring = setup.ring.source_ring()
    assert fibre.equals(Ideal(xring, [P("x^2 + x", xring)]))
    assert dim == 0


def test_fibre_off_target_is_rejected():
    setup = quadric_cone_setup()
    with pytest.raises(OffTargetError):
        fibre_at_point(setup, (1, 0, 0, 1))  # y1*y4 - y2*y3 = 1 there


def test_empty_fibre_reports_minus_one():
    setup = simple_setup("y*x - 1")
    fibre, dim = fibre_at_point(setup, (0,))
    assert dim == -1
    assert fibre.is_unit()


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
    assert [str(g) for g in strat.stratum(1).image_ideal.generators] == ["y1^2", "y1"]


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def test_quadric_cone_strata():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    assert strat.fibre_dimensions == (0, 1)
    assert strat.min_fibre_dim == 0
    assert {(s.fibre_dim, s.image_dim) for s in strat.strata} == {(0, 3), (1, 0)}
    special = strat.stratum(1)
    assert single_rational_point(special.image_ideal) == (0, 0, 0, 0)


def test_family_strata_with_special_image():
    setup = cyclic_family_setup(2, 2)
    strat = stratify_by_fibre_dimension(setup)
    assert {(s.fibre_dim, s.image_dim) for s in strat.strata} == {(1, 2), (2, 0)}
    image = strat.stratum(2).image_ideal
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
    image, _ = image_closure(setup.total_ideal)
    # every cell closure lies inside the image closure ...
    for stratum in strat.strata:
        for cell in stratum.cells:
            for g in image.generators:
                assert radical_member(g, cell.closure)
    # ... and the generic cell closure equals it, so the union covers
    generic = strat.stratum(0)
    assert any(cell.closure.equals(image) for cell in generic.cells)


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


def test_vertical_line_over_origin():
    setup = simple_setup("y*x")
    result = has_vertical_component(setup.total_ideal, setup)
    assert result.verdict is True
    assert str(result.witness) == "x"
    assert not radical_member(result.witness, setup.total_ideal)


def test_vertical_point_component():
    setup = simple_setup("x*y1, x^2 - x", target_vars=("y1", "y2"), source_vars=("x",))
    result = has_vertical_component(setup.total_ideal, setup)
    assert result.verdict is True
    assert not radical_member(result.witness, setup.total_ideal)


def test_quadric_cone_has_no_vertical_component():
    setup = quadric_cone_setup()
    assert has_vertical_component(setup.total_ideal, setup).verdict is False


def test_vertical_requires_attestation():
    ring = PolynomialRing(("y",), ("x",))
    setup = make_setup(ring, [], [P("y*x", ring)])
    with pytest.raises(PreconditionError):
        has_vertical_component(setup.total_ideal, setup)


def test_vertical_monotone_across_powers():
    setup = simple_setup("y*x")
    first = has_vertical_component(fibred_power(setup, 1), setup)
    second = has_vertical_component(fibred_power(setup, 2), setup)
    assert first.verdict is True
    assert second.verdict is True


# ---------------------------------------------------------------------------
# fibred powers
# ---------------------------------------------------------------------------


def test_fibred_power_one_matches_original():
    setup = quadric_cone_setup()
    power = fibred_power(setup, 1)
    rename = dict(zip(power.ring.source_vars, setup.ring.source_vars))
    back = Ideal(setup.ring, [transport(g, setup.ring, rename) for g in power.generators])
    assert back.equals(setup.total_ideal)


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
    swapped = {transport(g, power.ring, swap) for g in power.generators}
    assert swapped == set(power.generators)


# ---------------------------------------------------------------------------
# component splitting and purity
# ---------------------------------------------------------------------------


def test_split_coordinate_cross():
    # a certified complete intersection whose candidates x and y each vanish
    # on a component, so the unmixedness shortcut must not skip them
    ring = PolynomialRing(("y",), ("x",))
    J = Ideal(ring, [P("y*x", ring)])
    assert _unmixed_dimension(J) == 1
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
    assert _unmixed_dimension(J) is None
    result = pure_dimension_check(J)
    assert (result.pure, result.dim, result.piece_dims) == (False, 2, (2, 1))


def test_purity_of_hypersurface():
    ring = PolynomialRing((), ("x", "y", "z"))
    result = pure_dimension_check(Ideal(ring, [P("x^2 + y^2 + z^2 - 1", ring)]))
    assert (result.pure, result.dim) == (True, 2)


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
            has_vertical_component(setup.total_ideal, setup)
            for i in range(1, required_max_power(loaded.expect) + 1):
                has_vertical_component(fibred_power(setup, i), setup)
    monkeypatch.undo()

    skipped = 0
    for J in certified:
        # replay the candidate loop: the candidates _split did not saturate,
        # up to the first one that split J, are the skipped ones
        for h in _splitter_candidates(J):
            off, _ = saturation(J, h)
            shrinks = not off.is_unit() and not all(radical_member(g, J) for g in off.generators)
            if (J, h) not in saturated:
                assert not off.is_unit() and not shrinks, (J, h)
                skipped += 1
            elif shrinks:
                break
    assert skipped > 0


def test_unmixed_certificate_saturation_counts(monkeypatch, fixture_dir):
    # The fibred power 2 of cyclic (3, 3) is a complete intersection (11
    # variables, 4 generators, dimension 7) with 11 splitting candidates,
    # none of which splits it.  Uncertified, each costs a saturation; the
    # certificate skips all of them.
    setup = load_setup(fixture_dir / "cyclic_forms_n3_l3.setup").setup
    J = fibred_power(setup, 2)
    assert _unmixed_dimension(J) == 7
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


def test_sampling_respects_closure_and_inequations():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    rng = Random(5)
    for stratum in strat.strata:
        for cell in stratum.cells:
            for pt in sample_cell_points(cell, rng, want=6):
                values = dict(zip(setup.ring.target_vars, pt))
                assert all(g.evaluate(values) == 0 for g in cell.closure.generators)
                assert all(h.evaluate(values) != 0 for h in cell.inequations)
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
    from fibrephi import phi_upper

    decided = 0
    for setup in _random_projection_setups(424242, 60):
        strat = stratify_by_fibre_dimension(setup)
        purity = pure_dimension_check(setup.total_ideal)
        vert = has_vertical_component(setup.total_ideal, setup)
        if vert.verdict is None:
            continue
        decided += 1
        if vert.verdict:
            _, imdim = image_closure(setup.total_ideal)
            if imdim == setup.n and vert.witness is not None:
                assert not radical_member(vert.witness, setup.total_ideal)
        elif purity.pure is True:
            assert strat.min_fibre_dim == setup.m - setup.n
            upper = phi_upper(strat, setup.m, setup.n, purity)
            assert upper.is_infinite or upper.value >= 1
    assert decided > 40


def test_sampling_is_seed_deterministic():
    setup = quadric_cone_setup()
    strat = stratify_by_fibre_dimension(setup)
    cell = strat.stratum(0).cells[0]
    first = sample_cell_points(cell, Random(42), want=5)
    second = sample_cell_points(cell, Random(42), want=5)
    assert first == second
