"""Borel-type ideals: detection, the exchange closure, and the
one-extra-variable witness.

An ideal is of Borel type when saturating by x_i and by <x_1..x_i> agree for
every i; equivalently every associated prime is a prefix <x_1..x_j>, and
equivalently every generator u passes the exchange test: for j < i with x_i
dividing u, u with x_i dropped lies in (I : x_j^inf).  One kernel,
`_exchange_failure`, runs that test for both detectors: the prefix
saturation is the intersection of the (I : x_j^inf) for j <= i, so it
equals (I : x_i^inf) exactly when the test holds for that i.
`exchange_closure` is a worklist that checks each generator's moves once.
"""

from __future__ import annotations

from operator import le
from typing import NamedTuple, Optional

from .decompose import IrreducibleComponent, associated_primes, irreducible_decomposition
from .rings import Monomial, MonomialIdeal, PrimeSupport, _trusted_monomial


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


def _exchange_failure(ideal: MonomialIdeal) -> Optional[tuple[tuple[int, ...], int, int]]:
    """The first generator u, i and j < i with x_i dividing u and u with x_i
    dropped outside (I : x_j^inf), or None when there is none.

    Generators are scanned in stored order, i descending and j ascending.
    (I : x_j^inf) is generated by the generators with x_j dropped.
    """
    _require_decomposable(ideal)
    n = ideal.context.n
    saturations = [[g[:j] + (0,) + g[j + 1:] for g in ideal._exps] for j in range(n - 1)]
    for u in ideal._exps:
        for i in range(n - 1, 0, -1):
            if u[i] == 0:
                continue
            stripped = u[:i] + (0,) + u[i + 1:]
            for j in range(i):
                if not any(all(map(le, g, stripped)) for g in saturations[j]):
                    return u, i, j
    return None


def is_borel_type(ideal: MonomialIdeal) -> BorelReport:
    """Exchange-test detection over the minimal generators.

    Checking generators suffices: any u in the ideal is a monomial multiple
    of a generator, and the multiple carries over to the exchanged monomial.
    """
    failure = _exchange_failure(ideal)
    if failure is not None:
        u, i, j = failure
        return BorelReport(False, certificate=(_trusted_monomial(ideal.context, u), i, j))
    return BorelReport(True, primes=associated_primes(ideal))


def is_borel_type_by_saturation(ideal: MonomialIdeal) -> bool:
    """Definition-level detection: saturating by x_i and by <x_1..x_i> agree.

    The prefix saturation is the intersection of the (I : x_j^inf) for
    j <= i, so the two agree exactly when (I : x_i^inf) lies in every
    (I : x_j^inf) with j < i: the exchange kernel's condition.
    """
    return _exchange_failure(ideal) is None


def borel_witness(
    ideal: MonomialIdeal, prime: PrimeSupport, component: IrreducibleComponent
) -> Monomial:
    """Witness for a prefix prime touching at most one variable outside it.

    For P = <x_1..x_k> with component exponents a_1..a_k the witness is
    x_1^{a_1-1} ... x_k^{a_k-1} times x_{k+1}^b, where b is the max
    x_{k+1}-exponent over the generators; for k = n the extra factor is
    dropped.  The ideal is of Borel type exactly when every prime is a prefix.
    """
    decomposition = irreducible_decomposition(ideal)
    if any(p.vars != tuple(range(len(p.vars))) for p in decomposition.primes()):
        raise ValueError(f"{ideal} is not of Borel type")
    # every associated prime is now a prefix, and its components have its support
    if component not in decomposition.components_for(prime):
        raise ValueError(f"{component} is not a component for {prime}")
    k = len(prime.vars)
    exps = [0] * ideal.context.n
    if k < ideal.context.n:
        exps[k] = ideal.max_exponents()[k]
    return component._witness(exps)


def exchange_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest ideal containing this one that is closed under moving one
    power of any variable to an earlier variable (hence of Borel type).

    A worklist: each generator, seed or new, has its moves checked once,
    against the generators so far.  That suffices because a move of a
    multiple w*u is a multiple of u or of a move of u, and the ideal only
    grows.
    """
    _require_decomposable(ideal)
    gens = list(ideal._exps)
    seen = set(gens)  # most moves land on a generator itself
    for u in gens:  # the list grows as the loop runs
        for i, e in enumerate(u):
            if not e:
                continue
            for j in range(i):
                moved = list(u)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if moved not in seen and not any(all(map(le, g, moved)) for g in gens):
                    gens.append(moved)
                    seen.add(moved)
    if len(gens) == len(ideal._exps):
        return ideal
    return MonomialIdeal._from_exps(ideal.context, gens)
