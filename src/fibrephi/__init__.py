"""fibrephi: exact bounds for the fibre-approximation invariant phi of a
polynomial projection, computed with Groebner bases over the rationals."""

__version__ = "0.1.0"

from .errors import (
    EmptySpaceError,
    FibrephiError,
    ParseError,
    ResourceLimitError,
    SetupError,
)
from .orders import GREVLEX, LEX, Block, GrevLex, Lex, MonomialOrder
from .poly import Polynomial, PolynomialRing, transport
from .parser import parse_polynomial, parse_polynomial_list
from .groebner import (
    GroebnerBasis,
    Ideal,
    elimination_ideal,
    ideal_intersection,
    krull_dimension,
    radical_member,
    saturation,
)
from .geometry import (
    Cell,
    ProjectionSetup,
    PurityResult,
    Stratification,
    Stratum,
    VerticalResult,
    fibre_at_point,
    fibred_power,
    has_vertical_component,
    image_closure,
    make_setup,
    pure_dimension_check,
    sample_cell_points,
    split_components,
    stratify_by_fibre_dimension,
)
from .invariant import (
    INFINITY,
    ExtendedNat,
    PhiReport,
    analyze,
    certify_multiplicity_query,
    exactness_rules,
    multiplicity_bound,
    phi_by_fibred_powers,
    phi_lower,
    phi_upper,
    summarize_power_verdicts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
