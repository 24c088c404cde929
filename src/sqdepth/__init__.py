"""Exact Hilbert depth, dimension and depth for squarefree monomial quotients."""

__version__ = "0.1.0"

from .errors import CapExceededError, InvalidPairError, ParseError, SqdepthError
from .ideals import (
    DEFAULT_ENUMERATION_CAP,
    IdealPair,
    MonomialIdeal,
    minimalize,
    parse_ideal,
)
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    complex_of_ideal,
    f_vector,
    face_table,
    relative_of_pair,
)
from .invariants import (
    AlphaVector,
    alpha,
    first_recurrence_failure,
    hdepth_of_alpha,
)
from .macaulay import (
    MacaulayExpansion,
    binomial,
    chu_vandermonde_check,
    cm_admissible,
    expand,
    macaulay_growth_bound,
)
from .homology import (
    RATIONALS,
    CmVerdict,
    CoefficientField,
    depth_verdict,
)

__all__ = [
    "AlphaVector",
    "CapExceededError",
    "CmVerdict",
    "CoefficientField",
    "DEFAULT_ENUMERATION_CAP",
    "IdealPair",
    "InvalidPairError",
    "MacaulayExpansion",
    "MonomialIdeal",
    "ParseError",
    "RATIONALS",
    "RelativeComplex",
    "SimplicialComplex",
    "SqdepthError",
    "alpha",
    "binomial",
    "chu_vandermonde_check",
    "cm_admissible",
    "complex_of_ideal",
    "depth_verdict",
    "expand",
    "f_vector",
    "face_table",
    "first_recurrence_failure",
    "hdepth_of_alpha",
    "macaulay_growth_bound",
    "minimalize",
    "parse_ideal",
    "relative_of_pair",
]
