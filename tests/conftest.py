"""Shared rings, setups and helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from fibrephi import Polynomial, PolynomialRing, groebner, make_setup, parse_polynomial
from fibrephi.errors import FibrephiError, ResourceLimitError
from fibrephi.orders import Block

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture
def buchberger_runs(monkeypatch) -> list[tuple]:
    """Every basis the test builds, in order, as the pair of the monomial
    order and the list of generator term dicts it was built from: each
    Buchberger run, and each closed-form basis of terms."""
    runs = []
    for name in ("_buchberger", "_term_basis"):
        build = getattr(groebner, name)

        def recording(seq, key, *rest, build=build):
            runs.append((key.__self__, seq))
            return build(seq, key, *rest)

        monkeypatch.setattr(groebner, name, recording)
    return runs


def cap_block_bases(monkeypatch, ring: PolynomialRing) -> None:
    """Make every block-order Buchberger run in ``ring`` hit a Groebner cap,
    as X's basis for the stratification would on a large input; runs in
    other rings and under other orders go through."""
    run = groebner._buchberger
    block = Block(ring.split)

    def capped(seq, key, *rest):
        if key.__self__ == block and all(len(m) == ring.arity for d in seq for m in d):
            raise ResourceLimitError("Groebner reduction budget exhausted")
        return run(seq, key, *rest)

    monkeypatch.setattr(groebner, "_buchberger", capped)


def ring_xy() -> PolynomialRing:
    """Two source variables, no target block: plain Q[x, y]."""
    return PolynomialRing((), ("x", "y"))


def ring_y_x() -> PolynomialRing:
    """One target and one source variable: the smallest projection ring."""
    return PolynomialRing(("y",), ("x",))


def reference_map(p, ring, rename=None, values=None):
    """``p`` with ``values`` substituted and its other variables renamed by
    name into ``ring``, in ``Fraction`` arithmetic only, built term by term
    through the validating constructor.

    A used variable that is neither substituted nor named in ``ring`` raises
    the error text of ``fibrephi.transport``.
    """
    rename, values = rename or {}, values or {}
    terms = {}
    for mono, coeff in p.as_dict().items():
        c, exps = Fraction(coeff), {}
        for name, e in zip(p.ring.variables, mono):
            if not e:
                continue
            if name in values:
                c *= Fraction(values[name]) ** e
                continue
            new = rename.get(name, name)
            if new not in ring.variables:
                raise FibrephiError(f"variable {name!r} cannot be transported to {ring!r}")
            exps[new] = exps.get(new, 0) + e
        key = tuple(exps.get(name, 0) for name in ring.variables)
        terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ring, terms)


def power(p, n):
    """``p`` to the ``n``-th power as ``n`` plain products; the reference for
    the parser's square-and-multiply, whose power loop it does not share."""
    result = p.ring.one()
    for _ in range(n):
        result = result * p
    return result


def quadric_cone_setup():
    """Projection of a quadratic-in-x family over the determinantal cone."""
    ring = PolynomialRing(("y1", "y2", "y3", "y4"), ("x",))
    return make_setup(
        ring,
        ambient_target_generators=[parse_polynomial("y1*y4 - y2*y3", ring)],
        source_generators=[parse_polynomial("y1*x^2 + y4*x + y2 - y3", ring)],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def cyclic_family_setup(n: int, l: int):
    """The two-form family over C^n whose invariant is l - 1 by hand."""
    ring = PolynomialRing(
        tuple(f"y{i}" for i in range(1, n + 1)),
        tuple(f"x{i}" for i in range(1, n + 2)),
    )
    g1 = " + ".join(f"y{i}*x{i}" for i in range(1, l + 1)) + f" + x{n + 1}^2"
    if l == 1:
        g2 = "y1*x1"
    else:
        g2 = " + ".join([f"y{i + 1}*x{i}" for i in range(1, l)] + [f"y1*x{l}"])
    return make_setup(
        ring,
        ambient_target_generators=[],
        source_generators=[parse_polynomial(g1, ring), parse_polynomial(g2, ring)],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )


def simple_setup(source_text: str, target_vars=("y",), source_vars=("x",)):
    """A setup over affine target space from one source equation string."""
    ring = PolynomialRing(target_vars, source_vars)
    return make_setup(
        ring,
        ambient_target_generators=[],
        source_generators=[parse_polynomial(chunk, ring) for chunk in source_text.split(",")],
        assert_target_locally_irreducible=True,
        assert_target_pure_dimensional=True,
    )

