"""Borel-type ideals: detection, the exchange closure, and the
one-extra-variable witness.

An ideal is of Borel type when saturating by x_i and by <x_1..x_i> agree for
every i; equivalently every associated prime is a prefix <x_1..x_j>, and
equivalently every generator u passes the exchange test: for j < i with x_i
dividing u, u with x_i dropped lies in (I : x_j^inf).  One kernel,
`_exchange_failure`, runs that test for both detectors: the prefix
saturation is the intersection of the (I : x_j^inf) for j <= i, so it
equals (I : x_i^inf) exactly when the test holds for that i.  The kernel
reads the generators' masks from the ideal's level table, which the
decomposition engine reads too; one pass over them per generator and
variable x_i decides every j < i at once.  `exchange_closure` is a
worklist checking each generator's moves once, one degree class at a
time, against the finished generators of lower degree only.
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
    Each generator is its mask in the ideal's level table.  Let s be u with
    x_i dropped: s uses only the generators' own exponents, so the bits
    where a generator g exceeds s are exact, and g puts s in (I : x_j^inf)
    exactly when they lie on x_j alone, or nowhere.  One pass over the
    masks decides every j < i, and it stops once all of them are held.
    """
    _require_decomposable(ideal)
    n = ideal.context.n
    gens = ideal._exps
    levels, var_bits, masks, _ = ideal._levels()
    owner = [i for i, _ in levels]  # the variable of each bit
    off = [~b for b in var_bits]
    for u, mask in zip(gens, masks):
        for i in range(n - 1, 0, -1):
            if not u[i]:
                continue
            outside = ~mask | var_bits[i]  # the bits outside s
            missing = (1 << i) - 1  # the j < i not yet held, one bit each
            for g in masks:
                excess = g & outside
                if not excess:
                    break  # g divides s: every j is held
                j = owner[excess.bit_length() - 1]
                if missing >> j & 1 and not excess & off[j]:
                    missing ^= 1 << j
                    if not missing:
                        break
            else:
                return u, i, (missing & -missing).bit_length() - 1
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

    A worklist, one degree class at a time in ascending degree: each
    generator, seed or new, has its moves checked once.  That suffices
    because a move of a multiple w*u is a multiple of u or of a move of u,
    and the ideal only grows.  A move keeps the degree, so every class of
    lower degree is finished when a class starts, and a generator of the same
    degree divides a candidate only by being equal to it: a candidate is
    checked only against the finished generators of lower degree, and one
    they divide is dropped, a seed included.
    """
    _require_decomposable(ideal)
    classes: dict[int, list[tuple[int, ...]]] = {}
    for u in ideal._exps:
        classes.setdefault(sum(u), []).append(u)
    lower: list[tuple[int, ...]] = []  # the finished generators, of lower degree
    grown = False
    for degree in sorted(classes):
        todo = [u for u in classes[degree] if not any(all(map(le, g, u)) for g in lower)]
        seen = set(todo)  # most moves land on a generator of the class itself
        for u in todo:  # the list grows as the loop runs
            for i, e in enumerate(u):
                if not e:
                    continue
                for j in range(i):
                    moved = list(u)
                    moved[i] -= 1
                    moved[j] += 1
                    moved = tuple(moved)
                    if moved not in seen and not any(all(map(le, g, moved)) for g in lower):
                        todo.append(moved)
                        seen.add(moved)
                        grown = True
        lower += todo
    if not grown:
        return ideal
    return MonomialIdeal._from_exps(ideal.context, lower)
