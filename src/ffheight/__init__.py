"""Bounded-height rational points over F_q(t): census, lattices, and
auxiliary-polynomial constructions."""

from .census import (
    BudgetExceeded,
    CensusReport,
    CountResult,
    InstanceSpec,
    count_points,
    dim_estimate,
    point_stream,
)
from .detmethod import (
    AuxPolyResult,
    CongruenceDatum,
    DivisibilityReport,
    MonomialBasis,
    auxiliary_poly_affine,
    auxiliary_poly_projective,
    divisibility_exponent,
    monomial_basis,
    mult_at,
)
from .groebner import GroebnerBasis, ideal_member, krull_dimension
from .lattices import (
    PolyMatrix,
    ReducedBasis,
    kernel_lattice,
    lattice_height,
    linear_space_count,
    reduce_basis,
    short_kernel_vector,
)
from .multipoly import MultiPoly
from .parsing import ParseError, parse_poly, parse_unipoly
from .pell import (
    PellInstance,
    PellSolutionSet,
    continued_fraction_unit,
    pell_family,
    pell_solutions,
)
from .rings import PolyRing, PrimeField, UniPoly
from .varieties import (
    ExpandedSystem,
    HeightPoint,
    VarietySpec,
    expand,
    variety_from_strs,
)

__version__ = "0.1.0"

__all__ = [
    "AuxPolyResult",
    "BudgetExceeded",
    "CensusReport",
    "CongruenceDatum",
    "CountResult",
    "DivisibilityReport",
    "ExpandedSystem",
    "GroebnerBasis",
    "HeightPoint",
    "InstanceSpec",
    "MonomialBasis",
    "MultiPoly",
    "ParseError",
    "PellInstance",
    "PellSolutionSet",
    "PolyMatrix",
    "PolyRing",
    "PrimeField",
    "ReducedBasis",
    "UniPoly",
    "VarietySpec",
    "auxiliary_poly_affine",
    "auxiliary_poly_projective",
    "continued_fraction_unit",
    "count_points",
    "dim_estimate",
    "divisibility_exponent",
    "expand",
    "ideal_member",
    "kernel_lattice",
    "krull_dimension",
    "lattice_height",
    "linear_space_count",
    "monomial_basis",
    "mult_at",
    "parse_poly",
    "parse_unipoly",
    "pell_family",
    "pell_solutions",
    "point_stream",
    "reduce_basis",
    "short_kernel_vector",
    "variety_from_strs",
]
