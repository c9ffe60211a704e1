"""Witness monomials: explicit v with P = (I : v) for an associated prime P.

Given a component Q = <x_{i_1}^{a_1}, ..., x_{i_k}^{a_k}> of the irredundant
irreducible decomposition with radical P, the monomial carrying a_j - 1 on
each x_{i_j} and at least max{nu_j(u) : u in G(I)} on every other variable
always satisfies P = (I : v).  This module builds such witnesses, checks
arbitrary candidates, inverts a verified witness back to its component, and
classifies when the witness is unique.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .decompose import IrreducibleComponent, irreducible_decomposition
from .errors import TheoremViolationError
from .rings import (Monomial, MonomialIdeal, PrimeSupport, RingContext, _Frozen, _ints,
                    _require_same_context)


class WitnessSpec(_Frozen):
    """Inputs for the witness construction: a component, its radical, and
    per-variable increments above the complement exponent floors.  The
    offsets are copied, checked and kept read-only, so no later change to
    the caller's mapping can bypass the checks."""

    __slots__ = ("prime", "component", "offsets")

    def __init__(
        self,
        prime: PrimeSupport,
        component: IrreducibleComponent,
        offsets: Optional[Mapping[int, int]] = None,
    ):
        offsets = {} if offsets is None else offsets
        try:
            values = offsets.values()
        except AttributeError:
            raise ValueError("offsets must be a mapping from variable index to offset") from None
        message = "offset variables and offsets must be integers"
        offsets = dict(zip(_ints(offsets, message, low=None), _ints(values, message, low=None)))
        _require_same_context(prime, component)
        if component.support() != prime.vars:
            raise ValueError(
                f"component support {component.support()} does not match "
                f"prime {prime}"
            )
        for v, off in offsets.items():
            if v in prime.vars:
                raise ValueError(f"offset for variable {v} inside the prime")
            if not 0 <= v < prime.context.n:
                raise ValueError(f"offset variable index {v} out of range")
            if off < 0:
                raise ValueError("offsets must be non-negative")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "offsets", MappingProxyType(offsets))

    def _key(self):
        return self.prime, self.component, self.offsets

    # the offsets are a mapping, so a spec is not hashable
    __hash__ = None

    def __repr__(self):
        return (f"WitnessSpec(prime={self.prime!r}, component={self.component!r}, "
                f"offsets={dict(self.offsets)!r})")


def witness_from_component(ideal: MonomialIdeal, spec: WitnessSpec) -> Monomial:
    """The canonical witness for spec.prime built from spec.component.

    Exponents are a_j - 1 on the prime variables and (max generator exponent
    + offset) on the rest; complement variables absent from the ideal and
    with zero offset are omitted entirely.  The caller's component is checked.
    """
    if spec.component not in irreducible_decomposition(ideal):
        raise ValueError(
            f"{spec.component} is not a component of the decomposition of {ideal}"
        )
    offsets = spec.offsets  # WitnessSpec keeps them off the prime, which the rule overwrites
    return spec.component._witness(
        [f + offsets.get(v, 0) for v, f in enumerate(ideal.max_exponents())])


def verify_witness(ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial) -> bool:
    """Whether (I : v) equals the prime, by `MonomialIdeal._colon_is_prime`.

    A monomial from another ring than I raises ContextMismatchError; a prime
    from another ring is never equal to the colon, so the answer is False.
    """
    _require_same_context(ideal, v)
    return prime.context == ideal.context and ideal._colon_is_prime(v.exps, prime.vars)


def component_from_witness(
    ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial
) -> IrreducibleComponent:
    """The decomposition's own component that a verified witness points at.

    Its exponent on each prime variable is the witness exponent plus one.  It
    must exist: a miss, even of the whole prime, is an internal inconsistency.
    """
    if not verify_witness(ideal, prime, v):
        raise ValueError(f"{v} is not a witness for {prime}")
    pairs = tuple((i, v.exps[i] + 1) for i in prime.vars)  # verified: in range, positive
    for component in irreducible_decomposition(ideal)._by_support.get(prime.vars, ()):
        if component.pairs == pairs:
            return component
    raise TheoremViolationError(
        f"derived component {IrreducibleComponent(ideal.context, dict(pairs))}"
        f" missing from the decomposition of {ideal}")


class SymmetricPattern(_Frozen):
    """All placements of a sorted exponent multiset on k distinct variables."""

    __slots__ = ("context", "exps")

    def __init__(self, context: RingContext, exps: Iterable[int]):
        exps = tuple(exps)
        if not exps:
            raise ValueError("the exponent list must be non-empty")
        exps = _ints(exps, "exponents must be positive", low=1)
        if list(exps) != sorted(exps):
            raise ValueError("exponents must be non-decreasing")
        if len(exps) > context.n:
            raise ValueError(
                f"{len(exps)} exponents cannot be placed on {context.n} variables"
            )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "exps", exps)

    def _key(self):
        return self.context, self.exps

    def __repr__(self):
        return f"SymmetricPattern(context={self.context!r}, exps={self.exps!r})"

    @property
    def k(self) -> int:
        return len(self.exps)

    def distinct_values(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.exps)))

    def breaks(self) -> tuple[int, ...]:
        """0-based position of the first occurrence of each distinct value."""
        return tuple(self.exps.index(e) for e in self.distinct_values())


def build_symmetric_ideal(pattern: SymmetricPattern) -> MonomialIdeal:
    """Generators: every assignment of the exponent multiset to distinct
    variables.  From the zero vector, each distinct exponent in turn takes
    every choice of still-free variables for its run, so each is built once."""
    ctx = pattern.context
    partial = [[0] * ctx.n]
    for value in pattern.distinct_values():
        grown = []
        for exps in partial:
            free = [v for v, e in enumerate(exps) if not e]
            for chosen in itertools.combinations(free, pattern.exps.count(value)):
                placed = exps.copy()
                for v in chosen:
                    placed[v] = value
                grown.append(placed)
        partial = grown
    # all of one degree and pairwise distinct, hence an antichain
    return MonomialIdeal._from_exps(ctx, map(tuple, partial), minimal=True)


def symmetric_witness(
    pattern: SymmetricPattern,
    value_index: int,
    prime_vars: Iterable[int],
    b_choices: Sequence[int] = (),
) -> tuple[PrimeSupport, Monomial]:
    """Prime and witness for the chosen distinct exponent value.

    value_index is 0-based into pattern.distinct_values().  The prime must
    use n - k + (break position + 1) variables; each remaining variable gets
    the paired entry of b_choices, which must be at least the corresponding
    tail exponent of the pattern.
    """
    ctx = pattern.context
    breaks = pattern.breaks()
    (value_index,) = _ints((value_index,), "value_index {} out of range", high=len(breaks))
    first_pos = breaks[value_index]
    value = pattern.exps[first_pos]
    prime = PrimeSupport(ctx, prime_vars)
    expected = ctx.n - pattern.k + first_pos + 1
    if len(prime.vars) != expected:
        raise ValueError(
            f"prime must use {expected} variables for this value, got {len(prime.vars)}"
        )
    tail_floors = pattern.exps[first_pos + 1 :]
    complement = prime.complement()
    b_choices = _ints(b_choices, "complement exponent {} is not an integer", low=None)
    if len(b_choices) != len(tail_floors):
        raise ValueError(
            f"need {len(tail_floors)} complement exponents, got {len(b_choices)}"
        )
    for b, floor in zip(b_choices, tail_floors):
        if b < floor:
            raise ValueError(f"complement exponent {b} below its floor {floor}")
    powers = {i: value - 1 for i in prime.vars}
    powers.update(zip(complement, b_choices))
    return prime, ctx.monomial_from_powers(powers)


class UniquenessResult(NamedTuple):
    """Outcome of the uniqueness classification, carrying verified witnesses:
    one canonical witness when unique, two distinct ones otherwise."""

    unique: bool
    witnesses: tuple[Monomial, ...]


def classify_uniqueness(ideal: MonomialIdeal, prime: PrimeSupport) -> UniquenessResult:
    """Whether the witness for this prime is the only one that exists.

    It is unique exactly when the prime uses every variable and the
    decomposition has a single full-support component.  Otherwise two
    distinct witnesses are built straight from the prime's components: from
    two full-support components, or from one with two exponents on a
    complement variable.
    """
    components = irreducible_decomposition(ideal).components_for(prime)
    floors = list(ideal.max_exponents())
    v1 = components[0]._witness(floors.copy())
    if not prime.is_full_support:
        floors[prime.complement()[0]] += 1
        v2 = components[0]._witness(floors)
    elif len(components) > 1:
        v2 = components[1]._witness(floors)
    else:
        return UniquenessResult(True, (v1,))
    return UniquenessResult(False, (v1, v2))
