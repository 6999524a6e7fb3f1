"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see them."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from fibrephi import (
    INFINITY,
    ExtendedNat,
    Ideal,
    PolynomialRing,
    analyze,
    certify_multiplicity_query,
    fibre_at_point,
    multiplicity_bound,
    phi_by_fibred_powers,
    sample_cell_points,
    stratify_by_fibre_dimension,
    summarize_power_verdicts,
)
from fibrephi import geometry
from fibrephi.cli import load_setup, run_corpus
from fibrephi.poly import Polynomial

from conftest import FIXTURES, cyclic_family_setup, quadric_cone_setup, simple_setup


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_quadric_cone_end_to_end():
    with criterion(1, "quadric cone end to end", budget_seconds=10.0):
        setup = quadric_cone_setup()
        report = analyze(setup)
        assert report.phi_upper == ExtendedNat(2)
        assert report.phi_lower == ExtendedNat(2)
        assert report.phi_exact == ExtendedNat(2) and report.exactness_tag == "bounds-meet"
        strata = report.setup.stratification.strata
        assert {(s.fibre_dim, s.image_dim) for s in strata} == {(0, 3), (1, 0)}


def test_criterion_2_cyclic_family():
    with criterion(2, "two-form family, six instances", budget_seconds=360.0):
        for n, l in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
            start = time.perf_counter()
            setup = cyclic_family_setup(n, l)
            report = analyze(setup)
            purity = setup.purity
            assert purity.pure is True and purity.dim == 2 * n - 1, (n, l)
            special = [s.image_dim for s in setup.stratification.strata if s.fibre_dim == n]
            assert special == [n - l], (n, l)
            assert report.phi_exact == ExtendedNat(l - 1), (n, l)
            assert report.exactness_tag == "smooth-target", (n, l)
            assert report.phi_lower == ExtendedNat(l - 1), (n, l)
            assert time.perf_counter() - start < 60.0, (n, l)


def test_criterion_3_fibred_power_cross_check():
    with criterion(3, "fibred-power cross-check", budget_seconds=300.0):
        setup = quadric_cone_setup()
        verdicts = phi_by_fibred_powers(setup, 3)
        assert verdicts == [(1, False), (2, False), (3, True)]
        exact, _ = summarize_power_verdicts(verdicts)
        assert exact == ExtendedNat(2)


def test_criterion_4_degenerate_fixtures():
    with criterion(4, "degenerate fixtures", budget_seconds=15.0):
        start = time.perf_counter()
        vertical_setup = simple_setup("y*x")
        report = analyze(vertical_setup)
        assert report.phi_exact == ExtendedNat(0)
        vertical = vertical_setup.vertical
        assert vertical.verdict is True and vertical.witness is not None
        assert time.perf_counter() - start < 5.0

        start = time.perf_counter()
        graph = simple_setup("x - y")
        gupper = analyze(graph).phi_upper
        assert gupper == INFINITY
        assert time.perf_counter() - start < 5.0

        start = time.perf_counter()
        hyperbola = simple_setup("y*x - 1")
        hstrat = stratify_by_fibre_dimension(hyperbola)
        assert [s.fibre_dim for s in hstrat.strata] == [0]
        assert time.perf_counter() - start < 5.0


def test_criterion_5_oracle_agreement_over_corpus():
    with criterion(5, "fibre oracle agreement", budget_seconds=300.0):
        rng = Random(20250)
        cells = points = skipped = 0
        for path in sorted(FIXTURES.glob("*.setup")):
            setup = load_setup(path).setup
            strat = stratify_by_fibre_dimension(setup)
            for stratum in strat.strata:
                for cell in stratum.cells:
                    cells += 1
                    found = sample_cell_points(cell, rng, want=20)
                    if not found:
                        skipped += 1
                        print(f"  (skip: no rational point found on a cell of {path.name})")
                        continue
                    for pt in found:
                        _, dim = fibre_at_point(setup, pt)
                        assert dim == cell.fibre_dim, (path.name, pt)
                        points += 1
        print(f"  oracle checked {points} points on {cells} cells ({skipped} skipped)")
        assert points > 0 and cells > 0


def test_criterion_6_invariant_suite(monkeypatch):
    with criterion(6, "cross-cutting invariants", budget_seconds=300.0):
        applicable = 0
        for path in sorted(FIXTURES.glob("*.setup")):
            setup = load_setup(path).setup
            report = analyze(setup)
            upper, lower = report.phi_upper, report.phi_lower
            lam = setup.stratification.min_fibre_dim
            assert lam >= setup.k - setup.r, path.name
            if setup.vertical.verdict is False:
                assert lam == setup.m - setup.n, path.name
            if lower is not None and upper is not None:
                assert not upper < lower, path.name
                applicable += 1
        assert applicable > 0

        # reduced-basis canonicity under generator permutation, 50 random ideals
        ring = PolynomialRing((), ("x", "y", "z"))
        rng = random.Random(7777)
        checked = 0
        while checked < 50:
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    mono = tuple(rng.randint(0, 2) for _ in range(3))
                    terms[mono] = Fraction(rng.randint(-3, 3))
                poly = Polynomial(ring, terms)
                if not poly.is_zero:
                    gens.append(poly)
            if not gens:
                continue
            reference = Ideal(ring, gens).groebner_basis().elements
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert Ideal(ring, shuffled).groebner_basis().elements == reference
            checked += 1

        # every saturation performed during a full corpus run self-certifies:
        # saturation returns only once each generator of its result is
        # certified, so each call must come back normally
        counts = {"calls": 0, "certified": 0}
        saturate = geometry.saturation

        def counted(ideal, h):
            counts["calls"] += 1
            result = saturate(ideal, h)
            counts["certified"] += 1
            return result

        monkeypatch.setattr(geometry, "saturation", counted)
        reports, exit_code = run_corpus(FIXTURES)
        assert exit_code == 0
        assert all(not r.mismatches for r in reports)
        assert counts["calls"] > 0
        assert counts["certified"] == counts["calls"]
        print(f"  {counts['calls']} saturations, all certified")


def test_criterion_7_multiplicity_bounds():
    with criterion(7, "generic fibre cardinality bounds", budget_seconds=30.0):
        cone = quadric_cone_setup()
        assert certify_multiplicity_query(cone) is not None and multiplicity_bound(cone) == 2

        blowup = simple_setup("y1*x - y2", target_vars=("y1", "y2"), source_vars=("x",))
        assert certify_multiplicity_query(blowup) is not None and multiplicity_bound(blowup) == 1
