"""Bound formulas, exactness rules, fibred-power verdicts, multiplicity bound."""

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
    pure_dimension_check,
    summarize_power_verdicts,
)
from fibrephi.errors import (
    FibrephiError,
    InternalInconsistencyError,
    PreconditionError,
)
from fibrephi.geometry import PurityResult, VerticalResult, single_rational_point
from fibrephi.invariant import MultiplicityQuery, PhiReport

from conftest import cyclic_family_setup, quadric_cone_setup, simple_setup


def analyzed(setup):
    purity = pure_dimension_check(setup.total_ideal)
    return purity, has_vertical_component(setup, 1)


# ---------------------------------------------------------------------------
# ExtendedNat
# ---------------------------------------------------------------------------


def test_extended_nat_ordering():
    assert ExtendedNat(0) < ExtendedNat(3) < INFINITY
    assert INFINITY == ExtendedNat(None)
    assert max(ExtendedNat(2), INFINITY).is_infinite


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
    setup = quadric_cone_setup()
    purity, _ = analyzed(setup)
    assert phi_upper(setup, purity) == ExtendedNat(2)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_upper_bound_family(n, l):
    setup = cyclic_family_setup(n, l)
    purity, _ = analyzed(setup)
    assert phi_upper(setup, purity) == ExtendedNat(l - 1)


def test_upper_bound_equidimensional_map_is_infinite():
    setup = simple_setup("x - y")
    purity, _ = analyzed(setup)
    assert phi_upper(setup, purity).is_infinite


def test_upper_bound_requires_purity():
    setup = quadric_cone_setup()
    unconfirmed = PurityResult(None, 3, ())
    with pytest.raises(PreconditionError):
        phi_upper(setup, unconfirmed)
    with pytest.raises(PreconditionError):
        phi_upper(setup, PurityResult(False, 3, (3, 0)))
    assert phi_upper(setup, PurityResult(True, 3, (3,))) == ExtendedNat(2)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_quadric_cone():
    setup = quadric_cone_setup()
    _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(setup, True)
    assert value == ExtendedNat(2)


def test_lower_bound_singleton_fibre_dimension_set():
    setup = simple_setup("x - y")
    _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(setup, True)
    assert value is not None and value.is_infinite


@pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
def test_lower_bound_family_no_vertical(n, l):
    setup = cyclic_family_setup(n, l)
    _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(setup, True)
    assert value == ExtendedNat(l - 1)


def test_lower_bound_with_vertical_component_is_zero():
    setup = simple_setup("y*x")
    _, vertical = analyzed(setup)
    assert vertical.verdict is True
    assert phi_lower(setup, False) == ExtendedNat(0)


def test_lower_bound_not_applicable_when_uncertified():
    setup = quadric_cone_setup()
    assert phi_lower(setup, None) is None


# ---------------------------------------------------------------------------
# exactness rules
# ---------------------------------------------------------------------------


def test_bounds_meet_beats_complete_intersection():
    setup = quadric_cone_setup()
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    lower = phi_lower(setup, True)
    exact, tag = exactness_rules(setup, upper, lower, vertical, purity)
    assert exact == ExtendedNat(2) and tag == "bounds-meet"


def test_complete_intersection_fires_without_lower_bound():
    setup = quadric_cone_setup()
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    exact, tag = exactness_rules(setup, upper, None, vertical, purity)
    assert exact == ExtendedNat(2) and tag == "complete-intersection"


def test_smooth_target_has_priority():
    setup = cyclic_family_setup(2, 2)
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    lower = phi_lower(setup, True)
    exact, tag = exactness_rules(setup, upper, lower, vertical, purity)
    assert exact == ExtendedNat(1) and tag == "smooth-target"


def test_zero_upper_bound_forces_zero():
    setup = simple_setup("y*x")
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    assert upper == ExtendedNat(0)
    exact, tag = exactness_rules(setup, upper, None, vertical, purity)
    assert exact == ExtendedNat(0) and tag == "smooth-target"


def test_curve_target_rule():
    # singular curve target: the cusp y1^2 = y2^3 inside the plane
    from fibrephi import PolynomialRing, make_setup, parse_polynomial

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
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    exact, tag = exactness_rules(setup, upper, None, vertical, purity)
    assert exact == upper and tag == "curve-target"


def test_conflicting_rules_abort():
    setup = cyclic_family_setup(2, 2)
    purity, vertical = analyzed(setup)
    upper = phi_upper(setup, purity)
    wrong_vertical = VerticalResult(True, None, "forged")
    with pytest.raises(InternalInconsistencyError):
        exactness_rules(setup, upper, None, wrong_vertical, purity)


# ---------------------------------------------------------------------------
# fibred-power verdicts
# ---------------------------------------------------------------------------


def test_power_scan_on_quadric_cone():
    setup = quadric_cone_setup()
    verdicts = phi_by_fibred_powers(setup, 3, has_vertical_component(setup, 1))
    assert verdicts == [(1, False), (2, False), (3, True)]
    exact, summary = summarize_power_verdicts(verdicts)
    assert exact == ExtendedNat(2)
    assert "phi = 2" in summary


def test_power_scan_stops_at_first_vertical():
    setup = simple_setup("y*x")
    verdicts = phi_by_fibred_powers(setup, 3, has_vertical_component(setup, 1))
    assert verdicts == [(1, True)]
    exact, _ = summarize_power_verdicts(verdicts)
    assert exact == ExtendedNat(0)


def test_power_scan_open_map_reports_lower_bound_only():
    setup = simple_setup("x - y")
    verdicts = phi_by_fibred_powers(setup, 2, has_vertical_component(setup, 1))
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


def test_analyze_asks_each_power_once_and_reads_x_once(monkeypatch):
    # The scan takes power 1 from the vertical stage, and the X-side data of
    # the dimension counts serve every power.  They come from the
    # stratification's root cell, so no image closure is computed for them.
    asked = []
    decide = invariant.has_vertical_component

    def recording(setup, i):
        asked.append(i)
        return decide(setup, i)

    closures = []
    closure = geometry.image_closure

    def counted(J):
        closures.append(J)
        return closure(J)

    monkeypatch.setattr(invariant, "has_vertical_component", recording)
    monkeypatch.setattr(geometry, "image_closure", counted)
    report = analyze(cyclic_family_setup(3, 3), max_power=3)
    assert report.fibred_power_verdicts == ((1, False), (2, False), (3, True))
    assert asked == [1, 2, 3]
    assert len(closures) == 0


def test_a_setup_is_stratified_once(monkeypatch):
    # analyze, a later vertical test and a later power scan on the same
    # setup all read the one stratification the setup keeps
    calls = []
    stratify = geometry.stratify_by_fibre_dimension

    def counted(setup):
        calls.append(setup)
        return stratify(setup)

    monkeypatch.setattr(geometry, "stratify_by_fibre_dimension", counted)
    setup = cyclic_family_setup(3, 3)
    report = analyze(setup, max_power=3)
    assert report.stratification is setup.stratification
    assert has_vertical_component(setup, 2).verdict is False
    verdicts = phi_by_fibred_powers(setup, 3, report.vertical)
    assert verdicts == [(1, False), (2, False), (3, True)]
    assert calls == [setup]


def test_analyze_rejects_fibred_powers_that_contradict_the_rules(monkeypatch):
    monkeypatch.setattr(
        invariant, "phi_by_fibred_powers", lambda setup, i, first: [(1, True)]
    )
    with pytest.raises(InternalInconsistencyError, match="fibred powers give phi = 0"):
        analyze(quadric_cone_setup(), max_power=1)


@pytest.mark.parametrize("max_power", [0, 1])
def test_vertical_component_pins_phi_without_an_upper_bound(max_power):
    # V(y*x1, y*x2) is the plane y = 0 with the y-line x = 0: not pure, so
    # there is no upper bound, but the plane is vertical and phi = 0 whether
    # or not the fibred powers are scanned
    ring = PolynomialRing(("y",), ("x1", "x2"))
    setup = make_setup(
        ring,
        ambient_target_generators=[],
        source_generators=[parse_polynomial(text, ring) for text in ("y*x1", "y*x2")],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )
    report = analyze(setup, max_power=max_power)
    assert report.purity.pure is False and report.phi_upper is None
    assert report.vertical.verdict is True
    assert (report.phi_exact, report.exactness_tag) == (ExtendedNat(0), "fibred-power-determined")


# ---------------------------------------------------------------------------
# multiplicity bound
# ---------------------------------------------------------------------------


def test_multiplicity_on_quadric_cone():
    setup = quadric_cone_setup()
    purity, _ = analyzed(setup)
    query = certify_multiplicity_query(setup, purity)
    assert query is not None
    assert (query.common_dim, query.special_fibre_dim) == (3, 1)
    assert multiplicity_bound(query) == 2


def test_multiplicity_on_blowup_chart():
    setup = simple_setup("y1*x - y2", target_vars=("y1", "y2"), source_vars=("x",))
    purity, _ = analyzed(setup)
    query = certify_multiplicity_query(setup, purity)
    assert query is not None
    assert multiplicity_bound(query) == 1


def test_multiplicity_premises_fail_on_unequal_dimensions():
    setup = cyclic_family_setup(2, 2)  # m = 3 but n = 2
    purity, _ = analyzed(setup)
    assert certify_multiplicity_query(setup, purity) is None


def test_multiplicity_needs_a_structural_route():
    # m = n = 3, a pure source and one positive stratum over the rational
    # origin: every premise holds but the route (no smooth or curve target,
    # and r = 2 is not the codimension)
    setup = redundant_cone_setup()
    purity, _ = analyzed(setup)
    assert (setup.m, setup.n, purity.pure) == (3, 3, True)
    positive = [s for s in setup.stratification.strata if s.fibre_dim > 0]
    assert [(s.fibre_dim, s.image_dim) for s in positive] == [(1, 0)]
    assert single_rational_point(positive[0].image_ideal) is not None
    assert certify_multiplicity_query(setup, purity) is None
    assert analyze(setup).multiplicity_bound is None


def test_multiplicity_degenerate_dimension():
    query = MultiplicityQuery(common_dim=1, special_fibre_dim=1)
    assert multiplicity_bound(query) == 0


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
        purity, vertical = analyzed(setup)
        if vertical.verdict is False:
            upper = phi_upper(setup, purity)
            assert upper >= ExtendedNat(1)


def test_zero_upper_bound_comes_with_a_vertical_verdict():
    for setup in (simple_setup("y*x"), cyclic_family_setup(2, 1)):
        purity, vertical = analyzed(setup)
        upper = phi_upper(setup, purity)
        if upper == ExtendedNat(0):
            assert vertical.verdict is not False


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def _report(**overrides):
    setup = quadric_cone_setup()
    purity, vertical = analyzed(setup)
    fields = dict(
        phi_upper=ExtendedNat(2),
        phi_lower=ExtendedNat(2),
        phi_exact=ExtendedNat(2),
        exactness_tag="bounds-meet",
        vertical=vertical,
        purity=purity,
        stratification=setup.stratification,
        fibred_power_verdicts=((1, False),),
        fibred_power_summary=None,
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
