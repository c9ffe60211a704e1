"""Exact computation of monomial ideal decompositions and colon witnesses.

The core objects are immutable: monomials over a fixed ring context, ideals
held by their minimal generators, irreducible components, and prime supports.
On top of them sit the witness constructions (a monomial v with P = (I : v)
for each associated prime P), edge ideals of clutters, and Borel-type
detection with its simplified witness.

Each submodule is imported the first time one of its names is used
(`monowit.Clutter` loads `monowit.clutters`, and `monowit.rings` names the
submodule itself), so a CLI command compiles only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "borel": ("BorelReport", "borel_witness", "exchange_closure", "is_borel_type",
              "is_borel_type_by_saturation"),
    "clutters": ("Clutter",),
    "decompose": ("Decomposition", "IrreducibleComponent", "associated_primes",
                  "irreducible_decomposition"),
    "errors": ("ContextMismatchError", "ParseError", "TheoremViolationError"),
    "parsing": ("ProblemFile", "parse_ideal_gens", "parse_monomial", "parse_problem_file"),
    "rings": ("Monomial", "MonomialIdeal", "PrimeSupport", "RingContext", "verify_witness"),
    "witness": ("SymmetricPattern", "UniquenessResult", "WitnessSpec",
                "build_symmetric_ideal", "classify_uniqueness", "component_from_witness",
                "symmetric_witness", "witness_from_component"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
