"""Irredundant irreducible decomposition and associated primes.

The decomposition is built one generator at a time.  Monomial ideals form a
distributive lattice, so if I is the intersection of the components Q, then
I + (u) is the intersection of the ideals Q + (u).  A component containing u
survives unchanged; any other Q becomes Q + (x_i^{u_i}), one new component
for each variable x_i of u.  For irreducible ideals, containing the
intersection of the others means containing one of them, so the filter is
pairwise.  A survivor never contains a new component, since the old set was
irredundant, so only the new components are filtered.  The result is
unique, so it does not depend on how the input was presented.  No state is
kept between calls: each ideal keeps its own decomposition, freed with it.
"""

from __future__ import annotations

from itertools import chain

from .rings import MonomialIdeal, PrimeSupport, RingContext

# an irreducible ideal as (support bitmask, exponent tuple); exponent 0 means
# the variable is absent
_Component = tuple[int, tuple[int, ...]]


def _contains(big: _Component, small: _Component) -> bool:
    """Whether the irreducible ideal `small` is a subset of `big`."""
    return not small[0] & ~big[0] and all(
        big[1][i] <= e for i, e in enumerate(small[1]) if e
    )


def _irreducible_components(gens, n: int) -> list[_Component]:
    """The irredundant components of the ideal generated by the exponent
    tuples gens, starting from the whole ring (the empty intersection)."""
    components: list[_Component] = [(0, (0,) * n)]
    for u in gens:
        support = [i for i, e in enumerate(u) if e]
        survivors: list[_Component] = []
        grown: set[_Component] = set()
        for mask, q in components:
            if any(0 < q[i] <= u[i] for i in support):
                survivors.append((mask, q))
            else:
                # u is outside Q, so u_i < Q_i wherever Q_i is set
                grown.update(
                    (mask | 1 << i, q[:i] + (u[i],) + q[i + 1 :]) for i in support
                )
        # a component contains another only if its support is a superset
        # and, on equal supports, its exponents are no larger; in this order
        # every component a new one could contain comes before it
        fresh: list[_Component] = []
        for t in sorted(grown, key=lambda c: (c[0].bit_count(), -sum(c[1]))):
            if not any(_contains(t, s) for s in chain(survivors, fresh)):
                fresh.append(t)
        components = survivors + fresh
    return components


class IrreducibleComponent:
    """An ideal generated by pure variable powers, as a var -> exponent map."""

    __slots__ = ("context", "pairs")

    def __init__(self, context: RingContext, powers):
        powers = dict(powers)
        if not powers:
            raise ValueError("an irreducible component needs at least one variable")
        for v, e in powers.items():
            if not isinstance(v, int) or not 0 <= v < context.n:
                raise ValueError(f"variable index {v} out of range")
            if not isinstance(e, int) or e < 1:
                raise ValueError("pure-power exponents must be positive integers")
        pairs = tuple(sorted(powers.items()))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("IrreducibleComponent is immutable")

    def __delattr__(self, name):
        raise AttributeError("IrreducibleComponent is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, IrreducibleComponent)
            and self.pairs == other.pairs
            and self.context == other.context
        )

    def __hash__(self):
        return hash((self.context, self.pairs))

    def __repr__(self):
        return f"IrreducibleComponent({self.as_ideal()})"

    def __str__(self):
        return str(self.as_ideal())

    @property
    def powers(self) -> dict[int, int]:
        return dict(self.pairs)

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pairs)

    def exponent(self, i: int) -> int:
        for v, e in self.pairs:
            if v == i:
                return e
        return 0

    def prime(self) -> PrimeSupport:
        return PrimeSupport(self.context, self.support())

    def as_ideal(self) -> MonomialIdeal:
        """Pure powers of distinct variables, so already an antichain."""
        n = self.context.n
        gens = (tuple([e if t == v else 0 for t in range(n)]) for v, e in self.pairs)
        return MonomialIdeal._from_exps(self.context, gens, minimal=True)


class Decomposition:
    """The irredundant irreducible decomposition of a monomial ideal.

    The constructor indexes the components by support once, so the primes,
    the components of one prime and membership of a component are lookups;
    each prime's variable tuple is shared by its PrimeSupport and its key.
    """

    __slots__ = ("ideal", "components", "_by_support", "_primes")

    def __init__(self, ideal: MonomialIdeal, components):
        components = tuple(components)
        groups: dict[tuple[int, ...], list[IrreducibleComponent]] = {}
        for c in components:
            groups.setdefault(c.support(), []).append(c)
        context = ideal.context
        by_support = {}
        primes = []
        for vs in sorted(groups):
            by_support[vs] = tuple(groups[vs])
            prime = object.__new__(PrimeSupport)  # vs is already sorted and valid
            object.__setattr__(prime, "context", context)
            object.__setattr__(prime, "vars", vs)
            primes.append(prime)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_by_support", by_support)
        object.__setattr__(self, "_primes", tuple(primes))

    def __setattr__(self, name, value):
        raise AttributeError("Decomposition is immutable")

    def __delattr__(self, name):
        raise AttributeError("Decomposition is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Decomposition)
            and self.ideal == other.ideal
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ideal, self.components))

    def __repr__(self):
        comps = " ^ ".join(str(c) for c in self.components)
        return f"Decomposition({self.ideal} = {comps})"

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __contains__(self, component) -> bool:
        """Whether this is one of the components, comparing only those on
        its support."""
        if not isinstance(component, IrreducibleComponent):
            return False
        return component in self._by_support.get(component.support(), ())

    def primes(self) -> tuple[PrimeSupport, ...]:
        return self._primes

    def components_for(self, prime: PrimeSupport) -> tuple[IrreducibleComponent, ...]:
        """All components whose support is exactly the given prime."""
        matches = self._by_support.get(prime.vars)
        if matches is None:
            raise ValueError(f"{prime} is not an associated prime of {self.ideal}")
        return matches


def irreducible_decomposition(ideal: MonomialIdeal) -> Decomposition:
    """The unique irredundant irreducible decomposition of a proper nonzero
    ideal, computed on first use and kept on the ideal."""
    if ideal._decomposition is not None:
        return ideal._decomposition
    if ideal.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if ideal.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    context = ideal.context
    pairs = [
        tuple((i, e) for i, e in enumerate(q) if e)
        for _, q in _irreducible_components(ideal._exps, context.n)
    ]
    pairs.sort(key=lambda c: (tuple(v for v, _ in c), tuple(e for _, e in c)))
    decomposition = Decomposition(ideal, (IrreducibleComponent(context, c) for c in pairs))
    object.__setattr__(ideal, "_decomposition", decomposition)  # races store equal ones
    return decomposition


def associated_primes(ideal: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """The supports of the decomposition components, deduplicated and sorted."""
    return irreducible_decomposition(ideal).primes()

