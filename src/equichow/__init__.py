"""equichow: exact equivariant localization and integer Groebner machinery
for deriving the integral Chow ring presentation of the moduli of stable
genus-two curves."""

from .groebner import (
    MonomialOrder,
    ideal_contains,
    ideal_equal,
    ideal_intersection,
    normal_form,
    strong_groebner,
)
from .localization import (
    DenominatorResidue,
    MapDescriptor,
    SpaceDescriptor,
    SpaceFactor,
    enumerate_fixed_points,
    euler_constant,
    euler_forms,
    map_image_fixed_point,
    pushforward,
    specialize_oracle,
)
from .poly import (
    GradeMismatch,
    NotDivisible,
    NotSymmetric,
    Poly,
    PolyError,
    TableMismatch,
    VarTable,
    exact_divide,
    to_elementary_symmetric,
)
from .presentation import (
    RingHom,
    RingPresentation,
    is_nonzerodivisor,
    verify_cartesian,
)
from .textio import ParseError, parse_poly

__version__ = "0.1.0"

__all__ = [
    "DenominatorResidue",
    "GradeMismatch",
    "MapDescriptor",
    "MonomialOrder",
    "NotDivisible",
    "NotSymmetric",
    "ParseError",
    "Poly",
    "PolyError",
    "RingHom",
    "RingPresentation",
    "SpaceDescriptor",
    "SpaceFactor",
    "TableMismatch",
    "VarTable",
    "enumerate_fixed_points",
    "euler_constant",
    "euler_forms",
    "exact_divide",
    "ideal_contains",
    "ideal_equal",
    "ideal_intersection",
    "is_nonzerodivisor",
    "map_image_fixed_point",
    "normal_form",
    "parse_poly",
    "pushforward",
    "specialize_oracle",
    "strong_groebner",
    "to_elementary_symmetric",
    "verify_cartesian",
]
