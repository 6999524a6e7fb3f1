"""Bounds and exact values for the invariant phi of a polynomial projection.

phi(f) counts how many points of an arbitrary fibre can be approximated
simultaneously from nearby general fibres; equivalently it is the largest i
such that the i-fold fibred power of f has no vertical component, with 0 when
the source itself has one and infinity exactly for open maps.

This module evaluates the two closed-form bounds read off the fibre-dimension
stratification, decides exactness from structural side conditions,
cross-validates through fibred powers and certifies the generic
fibre-cardinality bound, each from a ``ProjectionSetup`` alone: the
dimensions n and m, X's ideal, stratification, purity and vertical verdict
are computed once and cached on it.  ``analyze`` runs the whole pipeline and
returns one ``PhiReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from .errors import FibrephiError, InternalInconsistencyError
from .geometry import (
    ProjectionSetup,
    Stratum,
    fibre_at_point,
    has_vertical_component,
    sample_cell_points,
    single_rational_point,
)


@dataclass(frozen=True, order=True)
class ExtendedNat:
    """A natural number or infinity; infinity compares above every natural."""

    sort_index: tuple[int, int] = field(init=False, repr=False)
    value: int | None = None  # None encodes infinity

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise FibrephiError("ExtendedNat takes naturals or None (= infinity)")
        key = (1, 0) if self.value is None else (0, self.value)
        object.__setattr__(self, "sort_index", key)

    def __str__(self) -> str:
        return "infinity" if self.value is None else str(self.value)

    def json_value(self) -> int | str:
        return "infinity" if self.value is None else self.value


INFINITY = ExtendedNat(None)


def _stratum_bound(top: int, base: int, strata: Sequence[Stratum]) -> ExtendedNat:
    """The stratum formula of both bounds: the least integer part of
    (top - image_dim - 1) / (fibre_dim - base) over ``strata``, each with
    fibre_dim above ``base``; infinity when no stratum counts."""
    values = []
    for stratum in strata:
        if stratum.image_dim >= top:
            raise InternalInconsistencyError(
                f"stratum j={stratum.fibre_dim} has image dimension {stratum.image_dim} "
                f"in a space of dimension {top}"
            )
        values.append((top - stratum.image_dim - 1) // (stratum.fibre_dim - base))
    return ExtendedNat(min(values)) if values else INFINITY


def phi_upper(setup: ProjectionSetup) -> ExtendedNat | None:
    """Upper bound from the stratification of a pure-dimensional source.

    ``_stratum_bound`` with top n and base m - n, over the strata of
    ``setup.stratification`` whose fibre dimension j exceeds the generic
    value m - n; an equidimensional map has none and gets infinity.  None
    unless ``setup.purity`` confirms X pure-dimensional.
    """
    if setup.purity.pure is not True:
        return None
    base = setup.m - setup.n
    strata = setup.stratification.strata
    return _stratum_bound(setup.n, base, [s for s in strata if s.fibre_dim > base])


def phi_lower(setup: ProjectionSetup) -> ExtendedNat | None:
    """Lower bound for phi from the presentation data (N, k, r) of ``setup``.

    Valid for a pure-dimensional source (``setup.purity``) that
    ``setup.vertical`` certifies free of vertical components:
    ``_stratum_bound`` with top N and base k - r, over the strata of
    ``setup.stratification`` whose fibre dimension j is not the minimal one.
    When a vertical component is certified instead, phi is exactly 0, so 0
    is returned as the (tight) lower bound.  A non-pure source or an
    undecided vertical verdict yields None: not applicable.
    """
    verdict = setup.vertical.verdict if setup.purity.pure is True else None
    if verdict is None:
        return None
    if verdict is True:
        return ExtendedNat(0)
    strat, base = setup.stratification, setup.k - setup.r
    lam = strat.min_fibre_dim
    if lam < base:
        raise InternalInconsistencyError(
            f"minimal fibre dimension {lam} below the codimension floor {base}"
        )
    return _stratum_bound(setup.N, base, [s for s in strat.strata if s.fibre_dim != lam])


EXACTNESS_TAGS = (
    "smooth-target",
    "bounds-meet",
    "complete-intersection",
    "curve-target",
    "fibred-power-determined",
)


@dataclass(frozen=True)
class PhiReport:
    """Everything the analysis established about phi, with provenance flags.

    ``oracle`` counts the sampled cells and points (drawn with ``seed``) and
    the fibre-dimension mismatches among them; ``timings`` holds the wall
    time in seconds of each timed stage.  X's stratification, purity and
    vertical verdict are read through ``setup``.
    """

    phi_upper: ExtendedNat | None
    phi_lower: ExtendedNat | None
    phi_exact: ExtendedNat | None
    exactness_tag: str | None
    setup: ProjectionSetup
    fibred_power_verdicts: tuple[tuple[int, bool | None], ...]
    multiplicity_bound: int | None
    seed: int
    oracle: dict[str, int]
    warnings: tuple[str, ...]
    notes: tuple[str, ...]
    timings: dict[str, float]

    def __post_init__(self):
        if (
            self.phi_upper is not None
            and self.phi_lower is not None
            and self.phi_upper < self.phi_lower
        ):
            raise InternalInconsistencyError("lower bound exceeds upper bound")
        if self.phi_exact is not None and self.phi_upper is not None:
            if self.phi_upper < self.phi_exact:
                raise InternalInconsistencyError("exact value above the upper bound")
        if self.phi_exact is not None and self.phi_lower is not None:
            if self.phi_exact < self.phi_lower:
                raise InternalInconsistencyError("exact value below the lower bound")
        if self.exactness_tag is not None and self.exactness_tag not in EXACTNESS_TAGS:
            raise FibrephiError(f"unknown exactness tag {self.exactness_tag!r}")

    @property
    def fibred_power_summary(self) -> str | None:
        """The summary of ``fibred_power_verdicts``; None when no power was checked."""
        if not self.fibred_power_verdicts:
            return None
        return summarize_power_verdicts(self.fibred_power_verdicts)[1]

    @property
    def inconclusive(self) -> bool:
        """True when purity, the vertical test or a fibred power stayed undecided."""
        return (
            self.setup.purity.pure is None
            or self.setup.vertical.verdict is None
            or any(v is None for _, v in self.fibred_power_verdicts)
        )


def _routes(setup: ProjectionSetup) -> list[str]:
    """The structural exactness routes that hold, in ``EXACTNESS_TAGS`` order.

    These are the paper's classes of mappings whose phi is the upper bound:
      smooth-target          the target ideal is zero, so the target is affine
                             space.
      complete-intersection  r equals codimension and source and target are
                             pure-dimensional with an irreducible target.
      curve-target           one-dimensional attested-irreducible target.
    """
    irreducible = setup.assert_target_locally_irreducible
    held = []
    if setup.target_ideal.is_zero_ideal:
        held.append("smooth-target")
    if (
        setup.purity.pure is True
        and setup.r == (setup.n + setup.k) - setup.m
        and irreducible
        and setup.assert_target_pure_dimensional
    ):
        held.append("complete-intersection")
    if setup.n == 1 and irreducible:
        held.append("curve-target")
    return held


def exactness_rules(setup: ProjectionSetup) -> tuple[ExtendedNat | None, str | None]:
    """Decide whether phi is known exactly, and under which rule.

    Every structural route of ``_routes`` attains the upper bound, and so does
    bounds-meet: lower equals upper (phi >= 0 stands in for an inapplicable
    lower bound).  fibred-power-determined: a vertical component in the
    source (``setup.vertical``) pins phi = 0.  All but the last need the
    upper bound, so a non-pure source gets only it.  The reported tag is the
    first that fires in the order of ``EXACTNESS_TAGS``.
    """
    upper, lower = phi_upper(setup), phi_lower(setup)
    held: set[str] = set()
    if upper is not None:
        held.update(_routes(setup))
        if (lower if lower is not None else ExtendedNat(0)) == upper:
            held.add("bounds-meet")
    fired = [(tag, upper) for tag in EXACTNESS_TAGS if tag in held]
    if setup.vertical.verdict is True:
        fired.append(("fibred-power-determined", ExtendedNat(0)))
    if not fired:
        return None, None
    values = {value for _, value in fired}
    if len(values) > 1:
        raise InternalInconsistencyError(f"exactness rules disagree: {fired}")
    tag, value = fired[0]
    return value, tag


def phi_by_fibred_powers(setup: ProjectionSetup, i_max: int) -> list[tuple[int, bool | None]]:
    """Vertical-component verdicts on the fibred powers, in increasing order.

    phi is the largest i whose i-fold power is vertical-free, so the verdict
    sequence False,...,False,True pins it exactly; the scan stops at the
    first non-False verdict.  The power 1 is X itself: its verdict is
    ``setup.vertical``, and is not asked again.  Every power reads its
    dimension counts off ``setup.stratification``.
    """
    if i_max < 1:
        raise FibrephiError("i_max must be at least 1")
    verdicts: list[tuple[int, bool | None]] = [(1, setup.vertical.verdict)]
    for i in range(2, i_max + 1):
        if verdicts[-1][1] is not False:
            break
        verdicts.append((i, has_vertical_component(setup, i).verdict))
    return verdicts


def summarize_power_verdicts(
    verdicts: Sequence[tuple[int, bool | None]],
) -> tuple[ExtendedNat | None, str]:
    """Exact phi (or None) plus a human summary from a verdict sequence."""
    if not verdicts:
        return None, "no fibred powers checked"
    last_clear = 0
    for i, verdict in verdicts:
        if verdict is False:
            last_clear = i
        elif verdict is True:
            if i == last_clear + 1:
                return ExtendedNat(last_clear), f"phi = {last_clear} (vertical at power {i})"
            return None, f"vertical at power {i} but power {i - 1} unchecked"
        else:
            return None, f"power {i} inconclusive; phi >= {last_clear} known"
    return None, f"no vertical component up to power {last_clear}; phi >= {last_clear}"


def certify_multiplicity_query(setup: ProjectionSetup) -> Stratum | None:
    """Check the premises of the fibre-cardinality bound against computed data.

    Needs source and target of one common positive pure dimension (X's from
    ``setup.purity``, Y's attested), one of the structural exactness routes
    of ``_routes``, and exactly one stratum of ``setup.stratification`` with
    positive fibre dimension, whose image is a single rational point.
    Returns that stratum, or None when any premise fails.
    """
    if not (setup.purity.pure is True and setup.assert_target_pure_dimensional):
        return None
    if setup.m != setup.n or setup.m < 1 or not _routes(setup):
        return None
    positive = [s for s in setup.stratification.strata if s.fibre_dim > 0]
    if len(positive) != 1 or positive[0].image_dim != 0:
        return None
    if single_rational_point(positive[0].image_ideal) is None:
        return None  # the special image is not certified to be one rational point
    return positive[0]


def multiplicity_bound(setup: ProjectionSetup) -> int | None:
    """Generic fibres have at least [(m - 1) / q] points, q the fibre dimension
    over the special point, when ``certify_multiplicity_query`` certifies the
    premises; None otherwise."""
    stratum = certify_multiplicity_query(setup)
    return None if stratum is None else (setup.m - 1) // stratum.fibre_dim


# ---------------------------------------------------------------------------
# the analysis pipeline
# ---------------------------------------------------------------------------

ORACLE_POINTS_PER_CELL = 5


def _run_oracle(setup: ProjectionSetup, seed: int) -> dict[str, int]:
    """Sample rational points on every cell of ``setup.stratification`` and
    compare fibre dimensions."""
    rng = Random(seed)
    cells = points = skipped = mismatches = 0
    for stratum in setup.stratification.strata:
        for cell in stratum.cells:
            cells += 1
            found = sample_cell_points(cell, rng, want=ORACLE_POINTS_PER_CELL)
            if not found:
                skipped += 1
                continue
            for pt in found:
                points += 1
                _, dim = fibre_at_point(setup, pt)
                if dim != cell.fibre_dim:
                    mismatches += 1
    if mismatches:
        raise InternalInconsistencyError(
            f"fibre oracle disagrees with the stratification on {mismatches} points"
        )
    return {"cells": cells, "points": points, "skipped": skipped, "mismatches": mismatches}


def analyze(setup: ProjectionSetup, max_power: int = 0, seed: int = 0) -> PhiReport:
    """The full pipeline: stratify, purity, vertical test, bounds, exactness,
    fibred powers up to ``max_power``, the multiplicity bound and the
    sampling oracle (seeded by ``seed``).

    The stages read X's stratification, purity and vertical verdict off
    ``setup``, in that order.  The vertical test and the fibred powers need
    the locally-irreducible attestation; without it they are skipped with a
    warning.
    """
    if max_power < 0:
        raise FibrephiError(f"max_power must be non-negative, got {max_power}")
    timings: dict[str, float] = {}
    warnings: list[str] = []
    notes: list[str] = []

    def timed(name, fn):
        start = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - start, 3)
        return result

    timed("stratify", lambda: setup.stratification)
    pure = timed("purity", lambda: setup.purity).pure
    attested = setup.assert_target_locally_irreducible
    if not attested:
        warnings.append(
            "vertical-component test skipped: assert_target_locally_irreducible is false"
        )
    else:
        timed("vertical", lambda: setup.vertical)
    if pure is None:  # the splitting cap leaves no pieces
        reason = "a piece has no purity certificate" if setup.purity.piece_dims else "splitting cap"
        warnings.append(f"purity of the source is unconfirmed ({reason})")

    upper, lower = phi_upper(setup), phi_lower(setup)
    if pure is True:
        notes.append(
            "the lower bound uses the presentation as given; fewer generators or a "
            "smaller ambient target would strengthen it"
        )
    elif pure is False:
        warnings.append("bounds unavailable: non-pure source")
    else:
        warnings.append("bounds unavailable: purity unconfirmed")

    exact, tag = exactness_rules(setup)

    power_verdicts: list[tuple[int, bool | None]] = []
    if max_power >= 1 and not attested:
        warnings.append(
            "fibred-power verification skipped: requires the locally-irreducible attestation"
        )
    elif max_power >= 1:
        power_verdicts = timed("fibred_powers", lambda: phi_by_fibred_powers(setup, max_power))
        power_exact, _ = summarize_power_verdicts(power_verdicts)
        if power_exact is not None:
            if exact is None:
                exact, tag = power_exact, "fibred-power-determined"
            elif exact != power_exact:
                raise InternalInconsistencyError(
                    f"fibred powers give phi = {power_exact} but rules gave {exact}"
                )

    mbound = multiplicity_bound(setup)
    oracle = timed("oracle", lambda: _run_oracle(setup, seed))

    return PhiReport(
        phi_upper=upper,
        phi_lower=lower,
        phi_exact=exact,
        exactness_tag=tag,
        setup=setup,
        fibred_power_verdicts=tuple(power_verdicts),
        multiplicity_bound=mbound,
        seed=seed,
        oracle=oracle,
        warnings=tuple(warnings),
        notes=tuple(notes),
        timings=timings,
    )
