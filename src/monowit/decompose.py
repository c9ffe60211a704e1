"""Irredundant irreducible decomposition and associated primes.

The decomposition is built one generator at a time, in ascending degree.
Monomial ideals form a distributive lattice, so if I is the intersection of
the components Q, then I + (u) is the intersection of the ideals Q + (u).  A
component containing u survives; any other Q yields a candidate
t = Q + (x_i^{u_i}) for each variable x_i of u, kept exactly when each j in
its support S has a private generator g: g_j = t_j and g_l < t_l for every
other l in S.  That is exact: an irreducible ideal strictly inside t that
contains I + (u) lies inside t with some t_j raised by one, and that raise
loses a generator just when j has a private one.  This is the monomial form
of the critical-edge test of minimal-transversal enumeration (Murakami and
Uno, Discrete Appl. Math. 2014).  Generators are looked up by (variable,
exponent), and x_i is skipped, since u is private there.  The result is
unique, so it does not depend on how the input was presented.  No state is
kept between calls: each ideal keeps its own decomposition, which holds only
its components, so reference counting frees it with the ideal.
"""

from __future__ import annotations

from operator import le

from .rings import MonomialIdeal, PrimeSupport, RingContext, _Frozen, _ints, _trusted_prime


def _has_private(others, t: tuple[int, ...]) -> bool:
    """Whether some generator, given by its other (variable, exponent)
    pairs, lies below t on each of them."""
    for rest in others:
        for l, f in rest:
            if t[l] <= f:
                break
        else:
            return True
    return False


def _irreducible_components(gens, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The irredundant components of the ideal generated by the exponent
    tuples gens, as (support, exponents on the support) pairs.  Inside, an
    absent variable has an exponent above every generator's, so u lies in
    the component q exactly when q_i <= u_i for some i."""
    absent = max(map(max, gens)) + 1
    components = [((), (absent,) * n)]  # the whole ring, the empty intersection
    others: dict[tuple[int, int], list] = {}  # (j, g_j) -> the other pairs of each g
    for u in sorted(gens, key=sum):
        pairs = [(i, e) for i, e in enumerate(u) if e]
        for i, e in pairs:
            others.setdefault((i, e), []).append([p for p in pairs if p[0] != i])
        survivors, fresh = [], []
        for support, q in components:
            if any(map(le, q, u)):
                survivors.append((support, q))
                continue
            # no candidate repeats: if Q + (x_i^{u_i}) = Q' + (x_k^{u_k}), then
            # i = k makes Q and Q' comparable, and i != k puts u in Q'
            for i, e in pairs:
                t = q[:i] + (e,) + q[i + 1 :]
                for j in support:
                    if j != i and not _has_private(others[j, t[j]], t):
                        break
                else:
                    grown = support if q[i] < absent else tuple(sorted((*support, i)))
                    fresh.append((grown, t))
        components = survivors + fresh
    return [(support, tuple(q[j] for j in support)) for support, q in components]


class IrreducibleComponent(_Frozen):
    """An ideal generated by pure variable powers, as a var -> exponent map."""

    __slots__ = ("context", "pairs", "_support")

    def __init__(self, context: RingContext, powers):
        powers = dict(powers)
        if not powers:
            raise ValueError("an irreducible component needs at least one variable")
        checked = []
        for v, e in powers.items():  # item by item: the first bad entry is reported
            (v,) = _ints((v,), "variable index {} out of range", high=context.n)
            (e,) = _ints((e,), "pure-power exponents must be positive integers", low=1)
            checked.append((v, e))
        pairs = tuple(sorted(checked))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_support", _trusted_prime(context, tuple(v for v, _ in pairs)))

    def _key(self):
        return self.context, self.pairs

    def __str__(self):
        names = self.context.names
        return "(" + ", ".join(
            names[v] if e == 1 else f"{names[v]}^{e}" for v, e in self.pairs) + ")"

    def support(self) -> tuple[int, ...]:
        return self._support.vars

    def exponent(self, i: int) -> int:
        for v, e in self.pairs:
            if v == i:
                return e
        return 0

    def prime(self) -> PrimeSupport:
        return self._support

    def as_ideal(self) -> MonomialIdeal:
        """Pure powers of distinct variables, so already an antichain."""
        n = self.context.n
        gens = (tuple([e if t == v else 0 for t in range(n)]) for v, e in self.pairs)
        return MonomialIdeal._from_exps(self.context, gens, minimal=True)


def _trusted_component(context: RingContext, support: tuple[int, ...],
                       exps: tuple[int, ...]) -> IrreducibleComponent:
    """An IrreducibleComponent on a sorted in-range support, exponents >= 1."""
    c = object.__new__(IrreducibleComponent)
    object.__setattr__(c, "context", context)
    object.__setattr__(c, "pairs", tuple(zip(support, exps)))
    object.__setattr__(c, "_support", _trusted_prime(context, support))
    return c


class Decomposition(_Frozen):
    """The irredundant irreducible decomposition of a monomial ideal.

    The constructor indexes the components by support once, so the primes,
    the components of one prime and membership of a component are lookups;
    each prime is the one its first component holds.
    """

    __slots__ = ("components", "_by_support", "_primes")

    def __init__(self, components):
        components = tuple(components)
        groups: dict[tuple[int, ...], list[IrreducibleComponent]] = {}
        for c in components:
            groups.setdefault(c.support(), []).append(c)
        by_support = {vs: tuple(groups[vs]) for vs in sorted(groups)}
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_by_support", by_support)
        object.__setattr__(self, "_primes", tuple(cs[0].prime() for cs in by_support.values()))

    def _key(self):
        return self.components

    def __str__(self):
        return " ^ ".join(map(str, self.components))

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
        """All components whose support is exactly the given prime, which
        must be of their ring: the one check of whether a prime is associated."""
        matches = self._by_support.get(prime.vars)
        if matches is None or matches[0].context != prime.context:
            raise ValueError(f"{prime} is not an associated prime")
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
    pairs = sorted(_irreducible_components(ideal._exps, context.n))
    decomposition = Decomposition([_trusted_component(context, s, e) for s, e in pairs])
    object.__setattr__(ideal, "_decomposition", decomposition)  # races store equal ones
    return decomposition


def associated_primes(ideal: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """The supports of the decomposition components, deduplicated and sorted."""
    return irreducible_decomposition(ideal).primes()

