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
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .decompose import IrreducibleComponent, irreducible_decomposition
from .errors import TheoremViolationError
from .rings import Monomial, MonomialIdeal, PrimeSupport, RingContext, _require_same_context


class WitnessSpec:
    """Inputs for the witness construction: a component, its radical, and
    per-variable increments above the complement exponent floors."""

    __slots__ = ("prime", "component", "offsets")

    def __init__(
        self,
        prime: PrimeSupport,
        component: IrreducibleComponent,
        offsets: Optional[Mapping[int, int]] = None,
    ):
        if offsets is None:
            offsets = {}
        if component.support() != prime.vars:
            raise ValueError(
                f"component support {component.support()} does not match "
                f"prime {prime}"
            )
        prime_vars = set(prime.vars)
        for v, off in offsets.items():
            if v in prime_vars:
                raise ValueError(f"offset for variable {v} inside the prime")
            if not 0 <= v < prime.context.n:
                raise ValueError(f"offset variable index {v} out of range")
            if off < 0:
                raise ValueError("offsets must be non-negative")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "offsets", offsets)

    def __setattr__(self, name, value):
        raise AttributeError("WitnessSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("WitnessSpec is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.prime, self.component, self.offsets) == (
            other.prime, other.component, other.offsets)

    # the offsets are a dict, so a spec is not hashable
    __hash__ = None

    def __repr__(self):
        return (f"WitnessSpec(prime={self.prime!r}, component={self.component!r}, "
                f"offsets={self.offsets!r})")

    @classmethod
    def for_component(
        cls, component: IrreducibleComponent, offsets: Optional[Mapping[int, int]] = None
    ) -> "WitnessSpec":
        return cls(component.prime(), component, dict(offsets or {}))


def witness_from_component(ideal: MonomialIdeal, spec: WitnessSpec) -> Monomial:
    """The canonical witness for spec.prime built from spec.component.

    Exponents are a_j - 1 on the prime variables and (max generator exponent
    + offset) on the rest; complement variables absent from the ideal and
    with zero offset are omitted entirely.
    """
    decomposition = irreducible_decomposition(ideal)
    if spec.component not in decomposition.components:
        raise ValueError(
            f"{spec.component} is not a component of the decomposition of {ideal}"
        )
    floors = ideal.max_exponents()
    exps = [0] * ideal.context.n
    for v, a in spec.component.pairs:
        exps[v] = a - 1
    for v in spec.prime.complement():
        exps[v] = floors[v] + spec.offsets.get(v, 0)
    return Monomial(ideal.context, tuple(exps))


def verify_witness(ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial) -> bool:
    """Whether (I : v) equals the prime, as an exact ideal comparison."""
    _require_same_context(ideal, v)
    return ideal.colon(v) == prime.as_ideal()


def component_from_witness(
    ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial
) -> IrreducibleComponent:
    """Recover the decomposition component a verified witness points at.

    The component's exponent on each prime variable is the witness exponent
    plus one; it is guaranteed to be a member of the decomposition, and a
    miss is reported as an internal inconsistency.
    """
    if not verify_witness(ideal, prime, v):
        raise ValueError(f"{v} is not a witness for {prime}")
    powers = {i: v.exponent(i) + 1 for i in prime.vars}
    component = IrreducibleComponent(ideal.context, powers)
    if component not in irreducible_decomposition(ideal).components:
        raise TheoremViolationError(
            f"derived component {component} missing from the decomposition of {ideal}"
        )
    return component


def squarefree_witness_check(
    ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial
) -> bool:
    """Assert that a squarefree ideal's witness avoids the prime's variables."""
    if not ideal.is_squarefree():
        raise ValueError("squarefree witness check requires a squarefree ideal")
    if not verify_witness(ideal, prime, v):
        raise ValueError(f"{v} is not a witness for {prime}")
    bad = [i for i in prime.vars if v.exponent(i)]
    if bad:
        raise TheoremViolationError(
            f"witness {v} for squarefree ideal carries prime variables {bad}"
        )
    return True


class SymmetricPattern:
    """All placements of a sorted exponent multiset on k distinct variables."""

    __slots__ = ("context", "exps")

    def __init__(self, context: RingContext, exps: Iterable[int]):
        exps = tuple(exps)
        if not exps:
            raise ValueError("the exponent list must be non-empty")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive")
        if list(exps) != sorted(exps):
            raise ValueError("exponents must be non-decreasing")
        if len(exps) > context.n:
            raise ValueError(
                f"{len(exps)} exponents cannot be placed on {context.n} variables"
            )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricPattern is immutable")

    def __delattr__(self, name):
        raise AttributeError("SymmetricPattern is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.context, self.exps) == (other.context, other.exps)

    def __hash__(self):
        return hash((self.context, self.exps))

    def __repr__(self):
        return f"SymmetricPattern(context={self.context!r}, exps={self.exps!r})"

    @property
    def k(self) -> int:
        return len(self.exps)

    def distinct_values(self) -> tuple[int, ...]:
        out = []
        for e in self.exps:
            if not out or out[-1] != e:
                out.append(e)
        return tuple(out)

    def breaks(self) -> tuple[int, ...]:
        """0-based position of the first occurrence of each distinct value."""
        return tuple(self.exps.index(e) for e in self.distinct_values())


def build_symmetric_ideal(pattern: SymmetricPattern) -> MonomialIdeal:
    """Generators: every assignment of the exponent multiset to distinct variables."""
    ctx = pattern.context
    placements = set(itertools.permutations(pattern.exps))
    gens = []
    for variables in itertools.combinations(range(ctx.n), pattern.k):
        for placement in placements:
            exps = [0] * ctx.n
            for v, e in zip(variables, placement):
                exps[v] = e
            gens.append(tuple(exps))
    # all of one degree and pairwise distinct, hence an antichain
    return MonomialIdeal._from_exps(ctx, gens, minimal=True)


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
    if not 0 <= value_index < len(breaks):
        raise ValueError(f"value_index {value_index} out of range")
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
    distinct witnesses are constructed: from two full-support components, or
    from two offset choices on a complement variable.
    """
    decomposition = irreducible_decomposition(ideal)
    if prime not in decomposition.primes():
        raise ValueError(f"{prime} is not an associated prime of {ideal}")
    components = decomposition.components_for(prime)
    if prime.is_full_support:
        if len(components) == 1:
            v = witness_from_component(ideal, WitnessSpec.for_component(components[0]))
            return UniquenessResult(True, (v,))
        v1 = witness_from_component(ideal, WitnessSpec.for_component(components[0]))
        v2 = witness_from_component(ideal, WitnessSpec.for_component(components[1]))
        return UniquenessResult(False, (v1, v2))
    bump = prime.complement()[0]
    v1 = witness_from_component(ideal, WitnessSpec.for_component(components[0]))
    v2 = witness_from_component(
        ideal, WitnessSpec.for_component(components[0], {bump: 1})
    )
    return UniquenessResult(False, (v1, v2))
