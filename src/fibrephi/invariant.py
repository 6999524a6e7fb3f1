"""Bounds and exact values for the invariant phi of a polynomial projection.

phi(f) counts how many points of an arbitrary fibre can be approximated
simultaneously from nearby general fibres; equivalently it is the largest i
such that the i-fold fibred power of f has no vertical component, with 0 when
the source itself has one and infinity exactly for open maps.

This module evaluates the two closed-form bounds read off the fibre-dimension
stratification, decides exactness from structural side conditions, and
cross-validates through fibred powers.  ``analyze`` runs the whole pipeline
and returns one ``PhiReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from .errors import FibrephiError, InternalInconsistencyError, PreconditionError
from .geometry import (
    ProjectionSetup,
    PurityResult,
    Stratification,
    VerticalResult,
    fibre_at_point,
    fibred_power,
    has_vertical_component,
    pure_dimension_check,
    sample_cell_points,
    single_rational_point,
    stratify_by_fibre_dimension,
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

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "infinity" if self.value is None else str(self.value)

    def json_value(self) -> int | str:
        return "infinity" if self.value is None else self.value


INFINITY = ExtendedNat(None)


def _floor_min(values: Sequence[int]) -> ExtendedNat:
    """Minimum of a list of naturals, infinity over the empty list."""
    if not values:
        return INFINITY
    return ExtendedNat(min(values))


def phi_upper(
    strat: Stratification,
    m: int,
    n: int,
    purity: PurityResult,
) -> ExtendedNat:
    """Upper bound from the stratification of a pure-dimensional source.

    For every stratum of fibre dimension j exceeding the generic value m - n,
    take the integer part of (n - image_dim - 1) / (j - (m - n)); the bound is
    the minimum, and an empty minimand set (an equidimensional map) gives
    infinity.
    """
    if purity.pure is not True:
        raise PreconditionError("the upper bound needs the source confirmed pure-dimensional")
    values = []
    for stratum in strat.strata:
        j = stratum.fibre_dim
        if j <= m - n:
            continue
        numerator = n - stratum.image_dim - 1
        if numerator < 0:
            raise InternalInconsistencyError(
                f"stratum j={j} has image dimension {stratum.image_dim} on an n={n} target"
            )
        values.append(numerator // (j - (m - n)))
    return _floor_min(values)


def phi_lower(
    strat: Stratification,
    ambient_dim: int,
    k: int,
    r: int,
    no_vertical: bool | None,
) -> ExtendedNat | None:
    """Lower bound for phi from the presentation data (ambient_dim, k, r).

    Valid when the source has no vertical components (certified by the
    caller): minimize the integer part of (N - image_dim - 1) / (j - (k - r))
    over the non-minimal fibre dimensions j.  When a vertical component is
    certified instead, phi is exactly 0, so 0 is returned as the (tight)
    lower bound.  An uncertified verdict yields None: not applicable.
    """
    if no_vertical is None:
        return None
    if no_vertical is False:
        return ExtendedNat(0)
    lam = strat.min_fibre_dim
    if lam < k - r:
        raise InternalInconsistencyError(
            f"minimal fibre dimension {lam} below the codimension floor {k - r}"
        )
    values = []
    for stratum in strat.strata:
        j = stratum.fibre_dim
        if j == lam:
            continue
        denominator = j - (k - r)
        if denominator <= 0:
            raise InternalInconsistencyError(
                f"non-positive denominator for stratum j={j} with k={k}, r={r}"
            )
        numerator = ambient_dim - stratum.image_dim - 1
        if numerator < 0:
            raise InternalInconsistencyError(
                f"stratum j={j} image dimension exceeds the ambient dimension"
            )
        values.append(numerator // denominator)
    return _floor_min(values)


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
    time in seconds of each timed stage.
    """

    phi_upper: ExtendedNat | None
    phi_lower: ExtendedNat | None
    phi_exact: ExtendedNat | None
    exactness_tag: str | None
    vertical: VerticalResult
    purity: PurityResult
    stratification: Stratification
    fibred_power_verdicts: tuple[tuple[int, bool | None], ...]
    fibred_power_summary: str | None
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
    def inconclusive(self) -> bool:
        """True when purity, the vertical test or a fibred power stayed undecided."""
        return (
            self.purity.pure is None
            or self.vertical.verdict is None
            or any(v is None for _, v in self.fibred_power_verdicts)
        )


def exactness_rules(
    setup: ProjectionSetup,
    upper: ExtendedNat | None,
    lower: ExtendedNat | None,
    vertical: VerticalResult,
    purity: PurityResult,
) -> tuple[ExtendedNat | None, str | None]:
    """Decide whether phi is known exactly, and under which rule.

    Rules, in the priority used for the reported tag (the order of
    ``EXACTNESS_TAGS``, in which they are tried):
      smooth-target          the target ideal is zero, so the target is affine
                             space; the upper bound is attained.
      bounds-meet            lower equals upper (phi >= 0 stands in for an
                             inapplicable lower bound).
      complete-intersection  r equals codimension and source and target are
                             pure-dimensional with an irreducible target.
      curve-target           one-dimensional attested-irreducible target.
      fibred-power-determined a vertical component in the source pins phi = 0.
    """
    if upper is None:
        return None, None
    fired: list[tuple[str, ExtendedNat]] = []
    if setup.target_ideal.is_zero_ideal:
        fired.append(("smooth-target", upper))
    effective_lower = lower if lower is not None else ExtendedNat(0)
    if effective_lower == upper:
        fired.append(("bounds-meet", upper))
    if (
        purity.pure is True
        and setup.r == (setup.n + setup.k) - setup.m
        and setup.assert_target_locally_irreducible
        and setup.assert_target_pure_dimensional
    ):
        fired.append(("complete-intersection", upper))
    if setup.n == 1 and setup.assert_target_locally_irreducible:
        fired.append(("curve-target", upper))
    if vertical.verdict is True:
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
    first non-False verdict.
    """
    if i_max < 1:
        raise FibrephiError("i_max must be at least 1")
    verdicts: list[tuple[int, bool | None]] = []
    for i in range(1, i_max + 1):
        result = has_vertical_component(fibred_power(setup, i), setup)
        verdicts.append((i, result.verdict))
        if result.verdict is not False:
            break
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


@dataclass(frozen=True)
class MultiplicityQuery:
    """Certified data for the generic fibre-cardinality bound.

    ``common_dim`` is the shared pure dimension of source and target and
    ``special_fibre_dim`` the (positive) fibre dimension over the single
    special point; ``premises`` records which certifications succeeded.
    """

    common_dim: int
    special_fibre_dim: int
    premises: tuple[str, ...]

    def __post_init__(self):
        if self.common_dim < 1 or self.special_fibre_dim < 1:
            raise FibrephiError("multiplicity query needs positive dimensions")


_MULTIPLICITY_PREMISES = (
    "source-pure",
    "dimensions-match",
    "single-positive-stratum",
    "point-image",
    "route",
)


def certify_multiplicity_query(
    setup: ProjectionSetup,
    strat: Stratification,
    purity: PurityResult,
) -> MultiplicityQuery | None:
    """Check the premises of the fibre-cardinality bound against computed data.

    Needs source and target of one common pure dimension, exactly one stratum
    of positive fibre dimension whose image is a single rational point, and
    one of the exactness routes (smooth target, curve target, or complete
    intersection).  Returns None when any premise fails.
    """
    premises: list[str] = []
    if purity.pure is True and setup.assert_target_pure_dimensional:
        premises.append("source-pure")
    else:
        return None
    if setup.m == setup.n and setup.m >= 1:
        premises.append("dimensions-match")
    else:
        return None
    positive = [s for s in strat.strata if s.fibre_dim > 0]
    if len(positive) != 1 or positive[0].image_dim != 0:
        return None
    premises.append("single-positive-stratum")
    special = positive[0]
    if single_rational_point(special.image_ideal) is None:
        return None  # the special image is not certified to be one rational point
    premises.append("point-image")
    smooth = setup.target_ideal.is_zero_ideal
    curve = setup.n == 1 and setup.assert_target_locally_irreducible
    complete = (
        setup.r == (setup.n + setup.k) - setup.m
        and setup.assert_target_locally_irreducible
        and setup.assert_target_pure_dimensional
    )
    if not (smooth or curve or complete):
        return None
    premises.append("route")
    return MultiplicityQuery(
        common_dim=setup.m,
        special_fibre_dim=special.fibre_dim,
        premises=tuple(premises),
    )


def multiplicity_bound(query: MultiplicityQuery) -> int:
    """Generic fibres have at least [(d - 1) / q] points under the certified premises."""
    missing = set(_MULTIPLICITY_PREMISES) - set(query.premises)
    if missing:
        raise PreconditionError(f"uncertified premises: {sorted(missing)}")
    return (query.common_dim - 1) // query.special_fibre_dim


# ---------------------------------------------------------------------------
# the analysis pipeline
# ---------------------------------------------------------------------------

ORACLE_POINTS_PER_CELL = 5


def _run_oracle(setup: ProjectionSetup, strat: Stratification, seed: int) -> dict[str, int]:
    """Sample rational points on every cell and compare fibre dimensions."""
    rng = Random(seed)
    cells = points = skipped = mismatches = 0
    for stratum in strat.strata:
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

    The vertical test and the fibred powers need the locally-irreducible
    attestation; without it they are skipped with a warning.
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

    strat = timed("stratify", lambda: stratify_by_fibre_dimension(setup))
    purity = timed("purity", lambda: pure_dimension_check(setup.total_ideal))
    attested = setup.assert_target_locally_irreducible
    if attested:
        vertical = timed("vertical", lambda: has_vertical_component(setup.total_ideal, setup))
        if vertical.verdict is None:
            warnings.append("vertical-component test inconclusive at the configured depth")
    else:
        vertical = VerticalResult(None, None, "target irreducibility not attested")
        warnings.append(
            "vertical-component test skipped: assert_target_locally_irreducible is false"
        )
    if purity.pure is None:
        warnings.append("purity of the source is unconfirmed (splitting cap)")

    upper = lower = None
    if purity.pure is True:
        upper = phi_upper(strat, setup.m, setup.n, purity)
        no_vertical = None if vertical.verdict is None else not vertical.verdict
        lower = phi_lower(strat, setup.N, setup.k, setup.r, no_vertical)
        notes.append(
            "the lower bound uses the presentation as given; fewer generators or a "
            "smaller ambient target would strengthen it"
        )
    else:
        warnings.append("bounds unavailable: non-pure source")

    exact = tag = None
    if upper is not None:
        exact, tag = exactness_rules(setup, upper, lower, vertical, purity)

    power_verdicts: list[tuple[int, bool | None]] = []
    power_summary = None
    if max_power >= 1 and not attested:
        warnings.append(
            "fibred-power verification skipped: requires the locally-irreducible attestation"
        )
    elif max_power >= 1:
        power_verdicts = timed("fibred_powers", lambda: phi_by_fibred_powers(setup, max_power))
        power_exact, power_summary = summarize_power_verdicts(power_verdicts)
        if power_exact is not None:
            if exact is not None and exact != power_exact:
                raise InternalInconsistencyError(
                    f"fibred powers give phi = {power_exact} but rules gave {exact}"
                )
            if exact is None:
                if upper is not None and upper < power_exact:
                    raise InternalInconsistencyError("power-determined value above upper bound")
                exact, tag = power_exact, "fibred-power-determined"

    mquery = certify_multiplicity_query(setup, strat, purity)
    mbound = multiplicity_bound(mquery) if mquery is not None else None

    oracle = timed("oracle", lambda: _run_oracle(setup, strat, seed))

    return PhiReport(
        phi_upper=upper,
        phi_lower=lower,
        phi_exact=exact,
        exactness_tag=tag,
        vertical=vertical,
        purity=purity,
        stratification=strat,
        fibred_power_verdicts=tuple(power_verdicts),
        fibred_power_summary=power_summary,
        multiplicity_bound=mbound,
        seed=seed,
        oracle=oracle,
        warnings=tuple(warnings),
        notes=tuple(notes),
        timings=timings,
    )
