"""Bound formulas, exactness rules, fibred-power verdicts, multiplicity bound."""

import pytest

from fibrephi import (
    INFINITY,
    ExtendedNat,
    certify_multiplicity_query,
    exactness_rules,
    has_vertical_component,
    multiplicity_bound,
    phi_by_fibred_powers,
    phi_lower,
    phi_upper,
    pure_dimension_check,
    stratify_by_fibre_dimension,
    summarize_power_verdicts,
)
from fibrephi.errors import (
    FibrephiError,
    InternalInconsistencyError,
    PreconditionError,
)
from fibrephi.geometry import PurityResult, VerticalResult
from fibrephi.invariant import MultiplicityQuery, PhiReport

from conftest import cyclic_family_setup, quadric_cone_setup, simple_setup


def analyzed(setup):
    strat = stratify_by_fibre_dimension(setup)
    purity = pure_dimension_check(setup.total_ideal)
    vertical = has_vertical_component(setup.total_ideal, setup)
    return strat, purity, vertical


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
    strat, purity, _ = analyzed(setup)
    assert phi_upper(strat, setup.m, setup.n, purity) == ExtendedNat(2)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_upper_bound_family(n, l):
    setup = cyclic_family_setup(n, l)
    strat, purity, _ = analyzed(setup)
    assert phi_upper(strat, setup.m, setup.n, purity) == ExtendedNat(l - 1)


def test_upper_bound_equidimensional_map_is_infinite():
    setup = simple_setup("x - y")
    strat, purity, _ = analyzed(setup)
    assert phi_upper(strat, setup.m, setup.n, purity).is_infinite


def test_upper_bound_requires_purity():
    setup = quadric_cone_setup()
    strat, _, _ = analyzed(setup)
    unconfirmed = PurityResult(None, 3, ())
    with pytest.raises(PreconditionError):
        phi_upper(strat, setup.m, setup.n, unconfirmed)
    with pytest.raises(PreconditionError):
        phi_upper(strat, setup.m, setup.n, PurityResult(False, 3, (3, 0)))
    assert phi_upper(strat, setup.m, setup.n, PurityResult(True, 3, (3,))) == ExtendedNat(2)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_quadric_cone():
    setup = quadric_cone_setup()
    strat, _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(strat, setup.N, setup.k, setup.r, True)
    assert value == ExtendedNat(2)


def test_lower_bound_singleton_fibre_dimension_set():
    setup = simple_setup("x - y")
    strat, _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(strat, setup.N, setup.k, setup.r, True)
    assert value is not None and value.is_infinite


@pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
def test_lower_bound_family_no_vertical(n, l):
    setup = cyclic_family_setup(n, l)
    strat, _, vertical = analyzed(setup)
    assert vertical.verdict is False
    value = phi_lower(strat, setup.N, setup.k, setup.r, True)
    assert value == ExtendedNat(l - 1)


def test_lower_bound_with_vertical_component_is_zero():
    setup = simple_setup("y*x")
    strat, _, vertical = analyzed(setup)
    assert vertical.verdict is True
    assert phi_lower(strat, setup.N, setup.k, setup.r, False) == ExtendedNat(0)


def test_lower_bound_not_applicable_when_uncertified():
    setup = quadric_cone_setup()
    strat, _, _ = analyzed(setup)
    assert phi_lower(strat, setup.N, setup.k, setup.r, None) is None


# ---------------------------------------------------------------------------
# exactness rules
# ---------------------------------------------------------------------------


def test_bounds_meet_beats_complete_intersection():
    setup = quadric_cone_setup()
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
    lower = phi_lower(strat, setup.N, setup.k, setup.r, True)
    exact, tag = exactness_rules(setup, upper, lower, vertical, purity)
    assert exact == ExtendedNat(2) and tag == "bounds-meet"


def test_complete_intersection_fires_without_lower_bound():
    setup = quadric_cone_setup()
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
    exact, tag = exactness_rules(setup, upper, None, vertical, purity)
    assert exact == ExtendedNat(2) and tag == "complete-intersection"


def test_smooth_target_has_priority():
    setup = cyclic_family_setup(2, 2)
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
    lower = phi_lower(strat, setup.N, setup.k, setup.r, True)
    exact, tag = exactness_rules(setup, upper, lower, vertical, purity)
    assert exact == ExtendedNat(1) and tag == "smooth-target"


def test_zero_upper_bound_forces_zero():
    setup = simple_setup("y*x")
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
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
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
    exact, tag = exactness_rules(setup, upper, None, vertical, purity)
    assert exact == upper and tag == "curve-target"


def test_conflicting_rules_abort():
    setup = cyclic_family_setup(2, 2)
    strat, purity, vertical = analyzed(setup)
    upper = phi_upper(strat, setup.m, setup.n, purity)
    wrong_vertical = VerticalResult(True, None, "forged")
    with pytest.raises(InternalInconsistencyError):
        exactness_rules(setup, upper, None, wrong_vertical, purity)


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


# ---------------------------------------------------------------------------
# multiplicity bound
# ---------------------------------------------------------------------------


def test_multiplicity_on_quadric_cone():
    setup = quadric_cone_setup()
    strat, purity, _ = analyzed(setup)
    query = certify_multiplicity_query(setup, strat, purity)
    assert query is not None
    assert (query.common_dim, query.special_fibre_dim) == (3, 1)
    assert multiplicity_bound(query) == 2


def test_multiplicity_on_blowup_chart():
    setup = simple_setup("y1*x - y2", target_vars=("y1", "y2"), source_vars=("x",))
    strat, purity, _ = analyzed(setup)
    query = certify_multiplicity_query(setup, strat, purity)
    assert query is not None
    assert multiplicity_bound(query) == 1


def test_multiplicity_premises_fail_on_unequal_dimensions():
    setup = cyclic_family_setup(2, 2)  # m = 3 but n = 2
    strat, purity, _ = analyzed(setup)
    assert certify_multiplicity_query(setup, strat, purity) is None


def test_multiplicity_requires_certified_premises():
    query = MultiplicityQuery(common_dim=1, special_fibre_dim=1, premises=("route",))
    with pytest.raises(PreconditionError):
        multiplicity_bound(query)


def test_multiplicity_degenerate_dimension():
    query = MultiplicityQuery(
        common_dim=1,
        special_fibre_dim=1,
        premises=(
            "source-pure",
            "dimensions-match",
            "single-positive-stratum",
            "point-image",
            "route",
        ),
    )
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
        strat, purity, vertical = analyzed(setup)
        if vertical.verdict is False:
            upper = phi_upper(strat, setup.m, setup.n, purity)
            assert upper >= ExtendedNat(1)


def test_zero_upper_bound_comes_with_a_vertical_verdict():
    for setup in (simple_setup("y*x"), cyclic_family_setup(2, 1)):
        strat, purity, vertical = analyzed(setup)
        upper = phi_upper(strat, setup.m, setup.n, purity)
        if upper == ExtendedNat(0):
            assert vertical.verdict is not False


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def _report(**overrides):
    setup = quadric_cone_setup()
    strat, purity, vertical = analyzed(setup)
    fields = dict(
        phi_upper=ExtendedNat(2),
        phi_lower=ExtendedNat(2),
        phi_exact=ExtendedNat(2),
        exactness_tag="bounds-meet",
        vertical=vertical,
        purity=purity,
        stratification=strat,
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
