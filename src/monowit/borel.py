"""Borel-type ideals: detection, saturation, and the one-extra-variable witness.

An ideal is of Borel type when saturating by x_i and by <x_1..x_i> agree for
every i; equivalently every associated prime is a prefix <x_1..x_j>, and
equivalently every generator u satisfies the exchange test: for j < i with
x_i dividing u, some power of x_j times u/x_i^{nu_i(u)} lies back in the
ideal.  The existential power is decided at the finite bound max nu_j over
the generators, which is exact because a generator's x_j-exponent never
exceeds that bound.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Optional

from .decompose import IrreducibleComponent, associated_primes, irreducible_decomposition
from .rings import (Monomial, MonomialIdeal, PrimeSupport, _ints, _require_same_context,
                    _trusted_monomial)


class BorelReport(NamedTuple):
    """Detection outcome: on failure a concrete (u, i, j) violation, on
    success the associated primes, each a prefix of the variable order."""

    is_borel_type: bool
    certificate: Optional[tuple[Monomial, int, int]] = None
    primes: Optional[tuple[PrimeSupport, ...]] = None


def _require_decomposable(ideal: MonomialIdeal):
    if ideal.is_zero:
        raise ValueError("the zero ideal is not classified")
    if ideal.is_unit:
        raise ValueError("the unit ideal is not classified")


def is_borel_type(ideal: MonomialIdeal) -> BorelReport:
    """Exchange-test detection over the minimal generators.

    Checking generators suffices: any u in the ideal is a monomial multiple
    of a generator, and the multiple carries over to the exchanged monomial.
    """
    _require_decomposable(ideal)
    floors = ideal.max_exponents()
    for u in ideal._exps:
        for i in range(ideal.context.n - 1, 0, -1):
            if u[i] == 0:
                continue
            stripped = list(u)
            stripped[i] = 0
            for j in range(i):
                probe = stripped.copy()
                probe[j] += floors[j]
                if not ideal._contains_exps(probe):
                    u = _trusted_monomial(ideal.context, u)
                    return BorelReport(False, certificate=(u, i, j))
    return BorelReport(True, primes=associated_primes(ideal))


def saturate(ideal: MonomialIdeal, by: MonomialIdeal) -> MonomialIdeal:
    """(I : J^inf), the stable limit of repeated colon by a nonzero ideal J.

    For the generators g_1..g_r of J, J^{rk} lies in (g_1^k, ..., g_r^k),
    which lies in J^k, so (I : J^inf) is the intersection of the (I : g^inf);
    and (I : g^inf) drops the variables of g from every generator of I.
    """
    if by.is_zero:
        raise ValueError("saturation by the zero ideal is undefined")
    _require_same_context(ideal, by)
    parts = [
        MonomialIdeal._from_exps(
            ideal.context, (tuple([0 if d else e for e, d in zip(u, g)]) for u in ideal._exps)
        )
        for g in by._exps
    ]
    return reduce(MonomialIdeal.intersect, parts)


def is_borel_type_by_saturation(ideal: MonomialIdeal) -> bool:
    """Definition-level detection: saturating by x_i and by <x_1..x_i> agree.

    Saturation by a sum of ideals is the intersection of the saturations by
    each, so the prefix saturation grows by one intersection per variable.
    """
    _require_decomposable(ideal)
    ctx = ideal.context
    prefix = None
    for i in range(ctx.n):
        single = saturate(ideal, MonomialIdeal(ctx, [ctx.variable(i)]))
        prefix = single if prefix is None else prefix.intersect(single)
        if single != prefix:
            return False
    return True


def borel_witness(
    ideal: MonomialIdeal,
    prime: PrimeSupport,
    component: IrreducibleComponent,
    extra_exponent: Optional[int] = None,
) -> Monomial:
    """Witness for a prefix prime touching at most one variable outside it.

    For P = <x_1..x_k> with component exponents a_1..a_k the witness is
    x_1^{a_1-1} ... x_k^{a_k-1} times x_{k+1}^b, where b defaults to the max
    x_{k+1}-exponent over the generators; for k = n the extra factor is
    dropped.  The ideal is of Borel type exactly when every prime is a prefix.
    """
    if extra_exponent is not None:
        (extra_exponent,) = _ints((extra_exponent,), "the extra exponent must be an integer",
                                  low=None)
    decomposition = irreducible_decomposition(ideal)
    if any(p.vars != tuple(range(len(p.vars))) for p in decomposition.primes()):
        raise ValueError(f"{ideal} is not of Borel type")
    # every associated prime is now a prefix, and its components have its support
    if component not in decomposition.components_for(prime):
        raise ValueError(f"{component} is not a component for {prime}")
    k = len(prime.vars)
    exps = [0] * ideal.context.n
    for v, a in component.pairs:
        exps[v] = a - 1
    if k < ideal.context.n:
        floor = ideal.max_exponents()[k]
        b = floor if extra_exponent is None else extra_exponent
        if b < floor:
            raise ValueError(f"extra exponent {b} below the floor {floor}")
        exps[k] = b
    return _trusted_monomial(ideal.context, tuple(exps))


def exchange_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest ideal containing this one that is closed under moving one
    power of any variable to an earlier variable (hence of Borel type)."""
    _require_decomposable(ideal)
    current = ideal
    while True:
        missing = []
        for u in current._exps:
            for i, e in enumerate(u):
                if not e:
                    continue
                for j in range(i):
                    moved = list(u)
                    moved[i] -= 1
                    moved[j] += 1
                    if not current._contains_exps(moved):
                        missing.append(tuple(moved))
        if not missing:
            return current
        current = MonomialIdeal._from_exps(ideal.context, current._exps + tuple(missing))
