"""Witness monomials: explicit v with P = (I : v) for an associated prime P.

Given a component Q = <x_{i_1}^{a_1}, ..., x_{i_k}^{a_k}> of the irredundant
irreducible decomposition with radical P, the monomial carrying a_j - 1 on
each x_{i_j} and at least max{nu_j(u) : u in G(I)} on every other variable
always satisfies P = (I : v).  This module builds such witnesses, inverts
a verified witness back to its component, and classifies when the witness
is unique.  Candidates are checked by `rings.verify_witness`, which this
module re-exports.

A symmetric ideal, one that `build_symmetric_ideal` built, keeps its
`SymmetricPattern`, and is answered from it: `verify_witness` decides
(I : v) = P by two threshold-matching membership tests,
`irreducible_decomposition` returns the pattern's closed form, and the
floors are its top exponent on every variable.  Every other ideal keeps
the mask test, the engine and the level table's floors, the oracles of
all three in the tests.  Nothing is VERIFIED except through one of the two exact tests.
"""

from __future__ import annotations

import itertools
from operator import le
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .decompose import IrreducibleComponent, irreducible_decomposition
from .errors import TheoremViolationError
from .rings import (Monomial, MonomialIdeal, PrimeSupport, RingContext, _Frozen, _int_map, _ints,
                    _require_same_context, _trusted, verify_witness)


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
        message = "offset variables and offsets must be integers"
        offsets = {} if offsets is None else _int_map(
            offsets, "offsets must be a mapping from variable index to offset", message, message)
        _require_same_context(prime, component)
        if component.support() != prime.vars:
            raise ValueError(f"component support {component.support()} does not match "
                             f"prime {prime}")
        inside, n = set(prime.vars), prime.context.n
        for v, off in offsets.items():
            if v in inside:
                raise ValueError(f"offset for variable {v} inside the prime")
            if not 0 <= v < n:
                raise ValueError(f"offset variable index {v} out of range")
            if off < 0:
                raise ValueError("offsets must be non-negative")
        put_prime, put_component, put_offsets = self._setters
        put_prime(self, prime)
        put_component(self, component)
        put_offsets(self, MappingProxyType(offsets))

    def _key(self):
        return self.prime, self.component, self.offsets

    # the offsets are a mapping, so a spec is not hashable
    __hash__ = None

    def __reduce__(self):  # a MappingProxyType does not pickle
        return WitnessSpec, (self.prime, self.component, dict(self.offsets))

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
        raise ValueError(f"{spec.component} is not a component of the decomposition of {ideal}")
    exps = list(ideal.max_exponents())
    for v, off in spec.offsets.items():  # off the prime, which the rule overwrites
        exps[v] += off
    return spec.component._witness(exps)


def component_from_witness(
    ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial
) -> IrreducibleComponent:
    """The decomposition's own component that a verified witness points at.

    Its exponent on each prime variable is the witness exponent plus one.  It
    must exist: a miss, even of the whole prime, is an internal inconsistency.
    """
    if not verify_witness(ideal, prime, v):
        raise ValueError(f"{v} is not a witness for {prime}")
    pairs = tuple([(i, v.exps[i] + 1) for i in prime.vars])  # verified: in range, positive
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

    def _contains(self, w) -> bool:
        """Whether x^w lies in the pattern's ideal.  Some placement of the
        exponents lies at or below w exactly when, both sorted largest
        first, each exponent is at or below its partner among w's: a
        threshold matching, as a larger exponent fits only where a smaller
        one does."""
        return all(map(le, reversed(self.exps), sorted(w, reverse=True)))

    def _colon_is_prime(self, prime_vars: tuple[int, ...], v: tuple[int, ...]) -> bool:
        """Whether (I : x^v) is the prime on prime_vars, for the pattern's
        ideal I, from two membership tests: (a) no monomial off the prime
        times x^v lies in I, that is, v with every other variable raised to
        the top exponent does not; (b) x^v * x_i lies in I for each x_i of
        the prime.  `rings.verify_witness` answers a symmetric ideal here.

        (b) sorts v once, largest first, and keeps the positions where the
        threshold matching fails.  Raising v_i raises the first occurrence
        of v_i in that order by 1 and keeps it sorted.  Some position
        fails, since (a) holds only for v outside I, so x^v * x_i lies in I
        exactly when one position fails, by 1, at a first occurrence of
        v_i.  A single failing position is always a first occurrence: the
        exponents descend along it, so a tie just before it would fail too."""
        raised = [self.exps[-1]] * self.context.n
        for i in prime_vars:
            raised[i] = v[i]
        if self._contains(raised):
            return False
        ordered = sorted(v, reverse=True)
        short = [j for j, e in enumerate(reversed(self.exps)) if e > ordered[j]]
        if len(short) != 1:
            return False
        (j,) = short
        s = ordered[j]
        return self.exps[-1 - j] == s + 1 and all(v[i] == s for i in prime_vars)

    def _components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The irredundant irreducible decomposition of the pattern's ideal,
        as (support, exponents) pairs: for each break b, with value e_b, one
        component (x_i^{e_b} : i in S) for each set S of n - k + b + 1
        variables, and no other.  Each holds I: a placement puts at least
        b + 1 of its exponents on S, and the largest of those is at least
        e_b.  That there are no others, and none is redundant, the tests
        check against the engine.  `decompose` reads a symmetric ideal's
        decomposition from here."""
        n, k, exps = self.context.n, self.k, self.exps
        return [(support, (exps[b],) * len(support))
                for b in self.breaks()
                for support in itertools.combinations(range(n), n - k + b + 1)]


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
    ideal = MonomialIdeal._from_antichain(ctx, map(tuple, partial))  # one degree, distinct
    object.__setattr__(ideal, "_pattern", pattern)  # colon tests and decomposition read it
    return ideal


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
    values = pattern.distinct_values()
    (value_index,) = _ints((value_index,), "value_index {} out of range", high=len(values))
    value = values[value_index]
    first_pos = pattern.exps.index(value)
    prime = PrimeSupport(ctx, prime_vars)
    expected = ctx.n - pattern.k + first_pos + 1
    if len(prime.vars) != expected:
        raise ValueError(
            f"prime must use {expected} variables for this value, got {len(prime.vars)}"
        )
    tail_floors = pattern.exps[first_pos + 1 :]
    b_choices = _ints(b_choices, "complement exponent {} is not an integer", low=None)
    if len(b_choices) != len(tail_floors):
        raise ValueError(
            f"need {len(tail_floors)} complement exponents, got {len(b_choices)}"
        )
    for b, floor in zip(b_choices, tail_floors):
        if b < floor:
            raise ValueError(f"complement exponent {b} below its floor {floor}")
    exps = list(b_choices)  # the complement's exponents, in order
    for i in prime.vars:  # ascending, so each lands at its own index
        exps.insert(i, value - 1)
    return prime, _trusted(Monomial, ctx, tuple(exps))


class UniquenessResult(NamedTuple):
    """Outcome of the uniqueness classification: one canonical witness when
    unique, two distinct ones otherwise.  Both are built by Theorem 3.1 and
    not checked here; `verify_witness` checks them, as the CLI does."""

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
        # the first variable outside the prime: vars ascends, so the first i with vars[i] != i
        floors[next((i for i, p in enumerate(prime.vars) if i != p), len(prime.vars))] += 1
        v2 = components[0]._witness(floors)
    elif len(components) > 1:
        v2 = components[1]._witness(floors)
    else:
        return UniquenessResult(True, (v1,))
    return UniquenessResult(False, (v1, v2))
