"""Irredundant irreducible decomposition and associated primes.

The decomposition is built one generator at a time, in ascending bit count
of its level mask (below), which is the total degree on a squarefree ideal.
Monomial ideals form a distributive lattice, so if I is the intersection of
the components Q, then I + (u) is the intersection of the ideals Q + (u).  A
component containing u survives; any other Q yields a candidate
t = Q + (x_i^{u_i}) for each variable x_i of u, kept exactly when each j in
its support S has a private generator g: g_j = t_j and g_l < t_l for every
other l in S.  That is exact: an irreducible ideal strictly inside t that
contains I + (u) lies inside t with some t_j raised by one, and that raise
loses a generator just when j has a private one.  This is the monomial form
of the critical-edge test of minimal-transversal enumeration (Murakami and
Uno, Discrete Appl. Math. 2014), and x_i is skipped, since u is private there.

Each monomial is one int on ranked level bits, read from the ideal's own
level table (`rings._level_table`, the polarization of Herzog and Hibi,
Monomial Ideals, 2011, section 1.6): x_i gets one bit per distinct nonzero
exponent of x_i among the generators, in increasing order, so a mask has at
most n * |G| bits however large the exponents are.  A generator sets every
level of x_i at or below its own, and a component sets one bit per variable
of its support, so u lies in Q exactly when their masks meet.  The
generators are filed by the bit of each of their levels, and g is private
for bit b of t when g misses every other bit of t.  The surviving masks are
decoded once, at the end.  The engine reads that table alone: the variables
of u are those whose bits its mask meets.  The ideal builds it once, and the
Borel exchange kernel, the witness floors and the colon test read it too.
The result is unique, so it does not depend on how the input was presented.
An ideal built from a symmetric pattern skips the engine and the table: its
decomposition is the pattern's closed form (`SymmetricPattern._components`),
which the tests check against the engine.  The zero and the unit ideal have
none (`MonomialIdeal._require_proper`).
No state is kept between calls: each ideal keeps its own decomposition,
which holds only its components, so reference counting frees it with the ideal.
"""

from __future__ import annotations

from .rings import (Monomial, MonomialIdeal, PrimeSupport, RingContext, _by_index, _Frozen,
                    _ints, _trusted, _values)


def _irreducible_components(table) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The irredundant components of the ideal whose minimal generators have
    this `_level_table`, as (support, exponents on the support) pairs."""
    levels, var_bits, masks, _ = table
    components = [0]  # the zero ideal: no pure power, and no generator in it
    others: dict[int, list[int]] = {}  # a level bit -> the generators exactly at it
    for mask in sorted(masks, key=int.bit_count):
        heads = []  # (the bit of u's level of x_i, every bit off x_i), per x_i dividing u
        for bits in var_bits:
            up_to = mask & bits  # x_i's bits up to u's level: the top one is that level's
            if up_to:
                heads.append((up_to & ~(up_to >> 1), ~bits))
        for b, _ in heads:
            others.setdefault(b, []).append(mask)
        survivors, fresh = [], []
        for q in components:
            if q & mask:
                survivors.append(q)
                continue
            # no candidate repeats: if Q + (x_i^{u_i}) = Q' + (x_k^{u_k}), then
            # i = k makes Q and Q' comparable, and i != k puts u in Q'
            for b, off_i in heads:
                rest = q & off_i  # the bits of t to find a private generator for
                t = rest | b
                while rest:
                    c = rest & -rest
                    rest ^= c
                    away = t ^ c
                    for g in others[c]:
                        if not g & away:
                            break
                    else:
                        break  # no private generator for c
                else:
                    fresh.append(t)
        components = survivors + fresh
    out = []
    for q in components:
        support, exps = [], []
        while q:
            c = q & -q
            q ^= c
            i, e = levels[c.bit_length() - 1]
            support.append(i)
            exps.append(e)
        out.append((tuple(support), tuple(exps)))
    return out


class IrreducibleComponent(_Frozen):
    """An ideal generated by pure variable powers, as a var -> exponent map."""

    __slots__ = ("context", "pairs", "_support")

    def __init__(self, context: RingContext, powers):
        values = _values(powers, "powers must be a mapping from variable index to exponent")
        if not powers:
            raise ValueError("an irreducible component needs at least one variable")
        variables = _ints(powers, "variable index {} out of range", high=context.n)
        exps = _ints(values, "pure-power exponents must be positive integers", low=1)
        pairs = tuple(sorted(_by_index(variables, exps).items()))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_support",
                           _trusted(PrimeSupport, context, tuple(v for v, _ in pairs)))

    def _key(self):
        return self.context, self.pairs

    def __str__(self):
        names = self.context.names
        return "(" + ", ".join(
            names[v] if e == 1 else f"{names[v]}^{e}" for v, e in self.pairs) + ")"

    def support(self) -> tuple[int, ...]:
        return self._support.vars

    def prime(self) -> PrimeSupport:
        return self._support

    def _witness(self, exps: list[int]) -> Monomial:
        """Theorem 3.1's witness: the list exps holds the exponents outside
        this component, and a_j - 1 is written into it on each x_j inside."""
        for v, a in self.pairs:
            exps[v] = a - 1
        return _trusted(Monomial, self.context, tuple(exps))

    def as_ideal(self) -> MonomialIdeal:
        n = self.context.n
        gens = (tuple([e if t == v else 0 for t in range(n)]) for v, e in self.pairs)
        return MonomialIdeal._from_antichain(self.context, gens)


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
        if matches is None or (matches[0].context is not prime.context
                               and matches[0].context != prime.context):
            raise ValueError(f"{prime} is not an associated prime")
        return matches


def irreducible_decomposition(ideal: MonomialIdeal) -> Decomposition:
    """The unique irredundant irreducible decomposition of a proper nonzero
    ideal, computed on first use and kept on the ideal: from the closed form
    of its pattern for a symmetric ideal, by the engine otherwise."""
    if ideal._decomposition is not None:
        return ideal._decomposition
    ideal._require_proper("has no irreducible decomposition")
    context, pattern = ideal.context, ideal._pattern
    if pattern is not None:
        pairs = pattern._components()
    else:
        pairs = _irreducible_components(ideal._levels())
    put_context, put_pairs, put_support = IrreducibleComponent._setters
    components = []
    for support, exps in sorted(pairs):
        c = object.__new__(IrreducibleComponent)  # trusted: sorted support, exps >= 1
        put_context(c, context)
        put_pairs(c, tuple(zip(support, exps)))
        put_support(c, _trusted(PrimeSupport, context, support))
        components.append(c)
    decomposition = Decomposition(components)
    object.__setattr__(ideal, "_decomposition", decomposition)  # races store equal ones
    return decomposition


def associated_primes(ideal: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """The supports of the decomposition components, deduplicated and sorted."""
    return irreducible_decomposition(ideal).primes()

