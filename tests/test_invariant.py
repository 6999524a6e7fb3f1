"""Bound formulas, exactness rules, fibred-power verdicts, multiplicity bound."""

from dataclasses import replace

import pytest

from fibrephi import (
    INFINITY,
    ExtendedNat,
    PolynomialRing,
    analyze,
    certify_multiplicity_query,
    exactness_rules,
    geometry,
    has_vertical_component,
    invariant,
    make_setup,
    multiplicity_bound,
    parse_polynomial,
    phi_by_fibred_powers,
    phi_lower,
    phi_upper,
    summarize_power_verdicts,
)
from fibrephi.errors import FibrephiError, InternalInconsistencyError
from fibrephi.geometry import VerticalResult, single_rational_point
from fibrephi.invariant import PhiReport

from conftest import cyclic_family_setup, quadric_cone_setup, simple_setup


def plane_plus_line_setup():
    # V(y*x1, y*x2) is the plane y = 0 with the y-line x = 0: not pure, and
    # the plane is a vertical component
    ring = PolynomialRing(("y",), ("x1", "x2"))
    return make_setup(
        ring,
        ambient_target_generators=[],
        source_generators=[parse_polynomial(text, ring) for text in ("y*x1", "y*x2")],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


# ---------------------------------------------------------------------------
# ExtendedNat
# ---------------------------------------------------------------------------


def test_extended_nat_ordering():
    assert ExtendedNat(0) < ExtendedNat(3) < INFINITY
    assert INFINITY == ExtendedNat(None)
    assert max(ExtendedNat(2), INFINITY) == INFINITY


def test_extended_nat_rejects_negatives():
    with pytest.raises(FibrephiError):
        ExtendedNat(-1)


def test_extended_nat_serialization():
    assert str(INFINITY) == "infinity"
    assert INFINITY.json_value() == "infinity"
    assert ExtendedNat(2).json_value() == 2


# ---------------------------------------------------------------------------
# upper bound
# ---------------------------------------------------------------------------


def test_upper_bound_quadric_cone():
    assert phi_upper(quadric_cone_setup()) == ExtendedNat(2)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_upper_bound_family(n, l):
    assert phi_upper(cyclic_family_setup(n, l)) == ExtendedNat(l - 1)


def test_upper_bound_equidimensional_map_is_infinite():
    assert phi_upper(simple_setup("x - y")) == INFINITY


def test_upper_bound_requires_purity(monkeypatch):
    # both bounds need X confirmed pure: the plane plus line is not, and with
    # no splitting allowed the purity of V(y*x) stays undecided
    setup = plane_plus_line_setup()
    assert setup.purity.pure is False and setup.vertical.verdict is True
    assert phi_upper(setup) is None and phi_lower(setup) is None
    monkeypatch.setattr(geometry, "SPLIT_DEPTH", 0)
    setup = simple_setup("y*x")
    assert setup.purity.pure is None and setup.vertical.verdict is True
    assert phi_upper(setup) is None and phi_lower(setup) is None


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_quadric_cone():
    setup = quadric_cone_setup()
    assert setup.vertical.verdict is False
    assert phi_lower(setup) == ExtendedNat(2)


def test_lower_bound_singleton_fibre_dimension_set():
    setup = simple_setup("x - y")
    assert setup.vertical.verdict is False
    value = phi_lower(setup)
    assert value == INFINITY


@pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
def test_lower_bound_family_no_vertical(n, l):
    setup = cyclic_family_setup(n, l)
    assert setup.vertical.verdict is False
    assert phi_lower(setup) == ExtendedNat(l - 1)


def test_lower_bound_with_vertical_component_is_zero():
    setup = simple_setup("y*x")
    assert setup.vertical.verdict is True
    assert phi_lower(setup) == ExtendedNat(0)


def test_lower_bound_not_applicable_when_uncertified():
    # without the attestation the vertical test does not run
    setup = replace(quadric_cone_setup(), assert_target_locally_irreducible=False)
    assert setup.vertical == VerticalResult(None, None, "target irreducibility not attested")
    assert phi_upper(setup) == ExtendedNat(2)
    assert phi_lower(setup) is None


@pytest.mark.parametrize("bound, top", [(phi_upper, "n"), (phi_lower, "N")])
def test_an_image_dimension_at_the_top_is_inconsistent(bound, top):
    # Both bounds read (top - image_dim - 1) / (j - base) off the strata that
    # count; a stratum whose image has dimension top would give a negative
    # numerator, which no stratification can produce.
    setup = quadric_cone_setup()
    assert (setup.purity.pure, setup.vertical.verdict) == (True, False)
    strat = setup.stratification
    special = replace(strat.strata[-1], image_dim=getattr(setup, top))
    assert special.fibre_dim > max(setup.m - setup.n, strat.min_fibre_dim)
    setup.__dict__["stratification"] = replace(strat, strata=strat.strata[:-1] + (special,))
    with pytest.raises(InternalInconsistencyError, match="has image dimension"):
        bound(setup)


# ---------------------------------------------------------------------------
# exactness rules
# ---------------------------------------------------------------------------


def test_bounds_meet_beats_complete_intersection():
    exact, tag = exactness_rules(quadric_cone_setup())
    assert exact == ExtendedNat(2) and tag == "bounds-meet"


@pytest.fixture
def undecided_vertical(monkeypatch):
    """Both routes of the vertical test stay undecided, so there is no lower
    bound for bounds-meet."""
    monkeypatch.setattr(geometry, "_vertical_by_dimension", lambda setup, J, i: None)
    monkeypatch.setattr(geometry, "_vertical", lambda J, n: VerticalResult(None))


def test_complete_intersection_fires_without_lower_bound(undecided_vertical):
    setup = quadric_cone_setup()
    assert setup.vertical.verdict is None and phi_lower(setup) is None
    exact, tag = exactness_rules(setup)
    assert exact == ExtendedNat(2) and tag == "complete-intersection"


def test_smooth_target_has_priority():
    exact, tag = exactness_rules(cyclic_family_setup(2, 2))
    assert exact == ExtendedNat(1) and tag == "smooth-target"


def test_zero_upper_bound_forces_zero():
    setup = simple_setup("y*x")
    assert phi_upper(setup) == ExtendedNat(0)
    exact, tag = exactness_rules(setup)
    assert exact == ExtendedNat(0) and tag == "smooth-target"


def test_curve_target_rule(undecided_vertical):
    # singular curve target: the cusp y1^2 = y2^3 inside the plane; a decided
    # vertical test would make the bounds meet
    ring = PolynomialRing(("y1", "y2"), ("x",))
    setup = make_setup(
        ring,
        [],
        # r = 2 generators, so the complete-intersection route cannot fire
        [parse_polynomial("x - y1", ring), parse_polynomial("x - y1", ring)],
        target_generators=[parse_polynomial("y1^2 - y2^3", ring)],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )
    assert (setup.N, setup.n, setup.r) == (2, 1, 2)
    assert setup.vertical.verdict is None
    exact, tag = exactness_rules(setup)
    assert exact == phi_upper(setup) and tag == "curve-target"


def test_conflicting_rules_abort():
    # a vertical verdict that contradicts the smooth-target route
    setup = cyclic_family_setup(2, 2)
    setup.__dict__["vertical"] = VerticalResult(True, None, "forged")
    with pytest.raises(InternalInconsistencyError, match="exactness rules disagree"):
        exactness_rules(setup)


# ---------------------------------------------------------------------------
# fibred-power verdicts
# ---------------------------------------------------------------------------


def test_power_scan_on_quadric_cone():
    setup = quadric_cone_setup()
    verdicts = phi_by_fibred_powers(setup, 3)
    assert verdicts == [(1, False), (2, False), (3, True)]
    exact, summary = summarize_power_verdicts(verdicts)
    assert exact == ExtendedNat(2)
    assert "phi = 2" in summary


def test_power_scan_stops_at_first_vertical():
    setup = simple_setup("y*x")
    verdicts = phi_by_fibred_powers(setup, 3)
    assert verdicts == [(1, True)]
    exact, _ = summarize_power_verdicts(verdicts)
    assert exact == ExtendedNat(0)


def test_power_scan_open_map_reports_lower_bound_only():
    setup = simple_setup("x - y")
    verdicts = phi_by_fibred_powers(setup, 2)
    assert verdicts == [(1, False), (2, False)]
    exact, summary = summarize_power_verdicts(verdicts)
    assert exact is None
    assert "phi >= 2" in summary


def test_power_summary_handles_inconclusive():
    exact, summary = summarize_power_verdicts([(1, False), (2, None)])
    assert exact is None
    assert "inconclusive" in summary


def redundant_cone_setup():
    # the quadric cone with a redundant second source generator: the same
    # geometry, but r = 2 is no longer the codimension 1
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    g = "y1*x^2 + y4*x + y2 - y3"
    return make_setup(
        ring,
        ambient_target_generators=[parse_polynomial("y1*y4 - y2*y3", ring)],
        source_generators=[parse_polynomial(text, ring) for text in (g, f"x*({g})")],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def test_analyze_takes_the_exact_value_from_fibred_powers():
    # The redundant generator weakens the lower bound to 1, so no exactness
    # rule fires and the fibred powers alone pin phi = 2.
    report = analyze(redundant_cone_setup(), max_power=3)
    assert (report.phi_upper, report.phi_lower) == (ExtendedNat(2), ExtendedNat(1))
    assert report.phi_exact == ExtendedNat(2)
    assert report.exactness_tag == "fibred-power-determined"
    assert report.fibred_power_verdicts == ((1, False), (2, False), (3, True))


def recorded(monkeypatch, module, name, *owners):
    """Replace ``module.name`` in ``module`` and ``owners`` by a wrapper that
    records the arguments of every call; returns the list of them."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    for owner in (module, *owners):
        monkeypatch.setattr(owner, name, recording)
    return calls


def test_analyze_asks_each_power_once_and_reads_x_once(monkeypatch):
    # The scan takes power 1 from the setup's vertical verdict, and the X-side
    # data of the dimension counts serve every power.  They come from the
    # stratification's root cell, so no image closure is computed for them.
    asked = recorded(monkeypatch, geometry, "has_vertical_component", invariant)
    closures = recorded(monkeypatch, geometry, "image_closure")
    setup = cyclic_family_setup(3, 3)
    report = analyze(setup, max_power=3)
    assert report.fibred_power_verdicts == ((1, False), (2, False), (3, True))
    assert asked == [(setup, 1), (setup, 2), (setup, 3)]
    assert closures == []


def test_a_setup_is_stratified_once(monkeypatch):
    # analyze, a later vertical test and a later power scan on the same
    # setup all read the one stratification the setup keeps
    calls = recorded(monkeypatch, geometry, "stratify_by_fibre_dimension")
    setup = cyclic_family_setup(3, 3)
    report = analyze(setup, max_power=3)
    assert report.setup is setup
    assert has_vertical_component(setup, 2).verdict is False
    verdicts = phi_by_fibred_powers(setup, 3)
    assert verdicts == [(1, False), (2, False), (3, True)]
    assert calls == [(setup,)]


def test_a_setup_checks_purity_and_verticality_once(monkeypatch):
    # two analyses of one setup share its purity and vertical verdict; only
    # the powers above 1 are asked again
    checked = recorded(monkeypatch, geometry, "pure_dimension_check")
    asked = recorded(monkeypatch, geometry, "has_vertical_component", invariant)
    setup = cyclic_family_setup(3, 3)
    first, second = analyze(setup, max_power=3), analyze(setup, max_power=3)
    assert first.fibred_power_verdicts == second.fibred_power_verdicts
    assert checked == [(setup.total_ideal,)]
    assert [i for _, i in asked] == [1, 2, 3, 2, 3]


def test_analyze_rejects_fibred_powers_that_contradict_the_rules(monkeypatch):
    monkeypatch.setattr(invariant, "phi_by_fibred_powers", lambda setup, i: [(1, True)])
    with pytest.raises(InternalInconsistencyError, match="fibred powers give phi = 0"):
        analyze(quadric_cone_setup(), max_power=1)


@pytest.mark.parametrize("max_power", [0, 1])
def test_vertical_component_pins_phi_without_an_upper_bound(max_power):
    # a non-pure source has no upper bound, but the vertical plane pins
    # phi = 0 whether or not the fibred powers are scanned
    report = analyze(plane_plus_line_setup(), max_power=max_power)
    assert report.setup.purity.pure is False and report.phi_upper is None
    assert report.setup.vertical.verdict is True
    assert (report.phi_exact, report.exactness_tag) == (ExtendedNat(0), "fibred-power-determined")


def test_oracle_skips_a_cell_without_rational_points():
    # Y = V(y^2 - 2) has no rational point, so its one cell yields no sample
    ring = PolynomialRing(("y",), ("x",))
    setup = make_setup(
        ring,
        ambient_target_generators=[parse_polynomial("y^2 - 2", ring)],
        source_generators=[parse_polynomial("x - y", ring)],
    )
    report = analyze(setup)
    assert report.oracle == {"cells": 1, "points": 0, "skipped": 1, "mismatches": 0}


def test_fibred_powers_are_skipped_without_the_attestation():
    setup = replace(quadric_cone_setup(), assert_target_locally_irreducible=False)
    report = analyze(setup, max_power=2)
    assert report.fibred_power_verdicts == ()
    assert report.fibred_power_summary is None
    assert report.warnings == (
        "vertical-component test skipped: assert_target_locally_irreducible is false",
        "fibred-power verification skipped: requires the locally-irreducible attestation",
    )


# ---------------------------------------------------------------------------
# multiplicity bound
# ---------------------------------------------------------------------------


def test_multiplicity_on_quadric_cone():
    setup = quadric_cone_setup()
    stratum = certify_multiplicity_query(setup)
    assert stratum is not None
    assert (setup.m, stratum.fibre_dim, stratum.image_dim) == (3, 1, 0)
    assert multiplicity_bound(setup) == 2


def test_multiplicity_on_blowup_chart():
    setup = simple_setup("y1*x - y2", target_vars=("y1", "y2"), source_vars=("x",))
    assert certify_multiplicity_query(setup) is not None
    assert multiplicity_bound(setup) == 1


def test_multiplicity_premises_fail_on_unequal_dimensions():
    setup = cyclic_family_setup(2, 2)  # m = 3 but n = 2
    assert certify_multiplicity_query(setup) is None


def test_multiplicity_needs_a_pure_source():
    # the blowup chart with an extra point (1, 0, 5): m = n = 2 over a smooth
    # target, one positive stratum over the rational origin, but not pure
    setup = simple_setup(
        "(y1*x - y2)*(y1 - 1), (y1*x - y2)*y2, (y1*x - y2)*(x - 5)", target_vars=("y1", "y2")
    )
    assert (setup.m, setup.n, setup.purity.piece_dims) == (2, 2, (2, 0))
    positive = [s for s in setup.stratification.strata if s.fibre_dim > 0]
    assert [(s.fibre_dim, s.image_dim) for s in positive] == [(1, 0)]
    assert single_rational_point(positive[0].image_ideal) is not None
    assert certify_multiplicity_query(setup) is None


def test_multiplicity_needs_a_structural_route():
    # m = n = 3, a pure source and one positive stratum over the rational
    # origin: every premise holds but the route (no smooth or curve target,
    # and r = 2 is not the codimension)
    setup = redundant_cone_setup()
    assert (setup.m, setup.n, setup.purity.pure) == (3, 3, True)
    positive = [s for s in setup.stratification.strata if s.fibre_dim > 0]
    assert [(s.fibre_dim, s.image_dim) for s in positive] == [(1, 0)]
    assert single_rational_point(positive[0].image_ideal) is not None
    assert certify_multiplicity_query(setup) is None
    assert multiplicity_bound(setup) is None
    assert analyze(setup).multiplicity_bound is None


def test_multiplicity_degenerate_dimension():
    # the line over the origin: m = 1 and fibre dimension 1 over y = 0
    setup = simple_setup("y*x")
    assert (setup.m, certify_multiplicity_query(setup).fibre_dim) == (1, 1)
    assert multiplicity_bound(setup) == 0


# ---------------------------------------------------------------------------
# cross-cutting contrapositives
# ---------------------------------------------------------------------------


def test_no_vertical_forces_positive_upper_bound():
    # without a vertical component the map approximates at least one point
    for setup in (
        quadric_cone_setup(),
        cyclic_family_setup(2, 2),
        simple_setup("x - y"),
        simple_setup("y*x - 1"),
    ):
        if setup.vertical.verdict is False:
            assert phi_upper(setup) >= ExtendedNat(1)


def test_zero_upper_bound_comes_with_a_vertical_verdict():
    for setup in (simple_setup("y*x"), cyclic_family_setup(2, 1)):
        if phi_upper(setup) == ExtendedNat(0):
            assert setup.vertical.verdict is not False


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def _report(**overrides):
    fields = dict(
        phi_upper=ExtendedNat(2),
        phi_lower=ExtendedNat(2),
        phi_exact=ExtendedNat(2),
        exactness_tag="bounds-meet",
        setup=quadric_cone_setup(),
        fibred_power_verdicts=((1, False),),
        multiplicity_bound=2,
        seed=0,
        oracle={"cells": 2, "points": 10, "skipped": 0, "mismatches": 0},
        warnings=(),
        notes=(),
        timings={},
    )
    fields.update(overrides)
    return PhiReport(**fields)


def test_report_accepts_consistent_data():
    report = _report()
    assert report.phi_exact == ExtendedNat(2)


def test_report_rejects_crossed_bounds():
    with pytest.raises(InternalInconsistencyError):
        _report(phi_lower=ExtendedNat(3))


def test_report_rejects_exact_outside_bounds():
    with pytest.raises(InternalInconsistencyError):
        _report(phi_exact=ExtendedNat(1))


def test_report_rejects_unknown_tag():
    with pytest.raises(FibrephiError):
        _report(exactness_tag="by-decree")


@pytest.mark.parametrize(
    "verdicts, summary",
    [
        ((), None),
        (((1, False),), "no vertical component up to power 1; phi >= 1"),
        (((1, False), (2, False), (3, True)), "phi = 2 (vertical at power 3)"),
    ],
)
def test_report_summary_follows_the_verdicts(verdicts, summary):
    assert _report(fibred_power_verdicts=verdicts).fibred_power_summary == summary
