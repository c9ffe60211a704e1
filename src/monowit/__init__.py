"""Exact computation of monomial ideal decompositions and colon witnesses.

The core objects are immutable: monomials over a fixed ring context, ideals
held by their minimal generators, irreducible components, and prime supports.
On top of them sit the witness constructions (a monomial v with P = (I : v)
for each associated prime P), edge ideals of clutters, and Borel-type
detection with its simplified witness.
"""

from .borel import (
    BorelReport,
    borel_witness,
    exchange_closure,
    is_borel_type,
    is_borel_type_by_saturation,
    saturate,
)
from .clutters import Clutter, VertexSet
from .decompose import (
    Decomposition,
    IrreducibleComponent,
    associated_primes,
    irreducible_decomposition,
)
from .errors import ContextMismatchError, ParseError, TheoremViolationError
from .parsing import (
    ProblemFile,
    parse_ideal_gens,
    parse_monomial,
    parse_problem_file,
)
from .rings import Monomial, MonomialIdeal, PrimeSupport, RingContext
from .witness import (
    SymmetricPattern,
    UniquenessResult,
    WitnessSpec,
    build_symmetric_ideal,
    classify_uniqueness,
    component_from_witness,
    symmetric_witness,
    verify_witness,
    witness_from_component,
)

__version__ = "0.1.0"

__all__ = [
    "BorelReport",
    "Clutter",
    "ContextMismatchError",
    "Decomposition",
    "IrreducibleComponent",
    "Monomial",
    "MonomialIdeal",
    "ParseError",
    "PrimeSupport",
    "ProblemFile",
    "RingContext",
    "SymmetricPattern",
    "TheoremViolationError",
    "UniquenessResult",
    "VertexSet",
    "WitnessSpec",
    "associated_primes",
    "borel_witness",
    "build_symmetric_ideal",
    "classify_uniqueness",
    "component_from_witness",
    "exchange_closure",
    "irreducible_decomposition",
    "is_borel_type",
    "is_borel_type_by_saturation",
    "parse_ideal_gens",
    "parse_monomial",
    "parse_problem_file",
    "saturate",
    "symmetric_witness",
    "verify_witness",
    "witness_from_component",
]
