"""Borel-type ideals: detection, the exchange closure, and the
one-extra-variable witness.

An ideal is of Borel type when saturating by x_i and by <x_1..x_i> agree for
every i; equivalently every associated prime is a prefix <x_1..x_j>, and
equivalently every generator u passes the exchange test: for j < i with x_i
dividing u, u with x_i dropped lies in (I : x_j^inf).  One kernel,
`_exchange_failure`, runs that test for both detectors: the prefix
saturation is the intersection of the (I : x_j^inf) for j <= i, so it
equals (I : x_i^inf) exactly when the test holds for that i.  The kernel
reads only the ideal's level table, which the decomposition engine reads
too, and names a failing generator by its index, so `is_borel_type` looks
up the certificate's u in the stored tuples; one pass over the masks per
generator and variable x_i decides every j < i at once.  `exchange_closure`
is a worklist checking each generator's moves once, one degree class at a
time, against the finished generators of lower degree only.  The detectors
and the closure do not classify the zero or the unit ideal (`_require_proper`).
"""

from __future__ import annotations

from operator import le
from typing import NamedTuple, Optional

from .decompose import IrreducibleComponent, associated_primes, irreducible_decomposition
from .rings import Monomial, MonomialIdeal, PrimeSupport, _trusted


class BorelReport(NamedTuple):
    """Detection outcome: on failure a concrete (u, i, j) violation, on
    success the associated primes, each a prefix of the variable order."""

    is_borel_type: bool
    certificate: Optional[tuple[Monomial, int, int]] = None
    primes: Optional[tuple[PrimeSupport, ...]] = None


def _exchange_failure(table) -> Optional[tuple[int, int, int]]:
    """The first (k, i, j) in an ideal's `_level_table`, or None: x_i divides
    its generator u of index k, j < i, and u with x_i dropped is outside (I : x_j^inf).

    Generators are scanned in stored order, i descending and j ascending.
    Let s be u with x_i dropped: s uses only the generators' own exponents,
    so the bits where a generator g exceeds s are exact, and g puts s in
    (I : x_j^inf) exactly when they lie on x_j alone.  They are never empty,
    since no minimal generator divides u with x_i dropped.  One pass over the
    masks decides every j < i, and it stops once all of them are held.
    """
    levels, var_bits, masks, _ = table
    owner = [i for i, _ in levels]  # the variable of each bit
    off = [~b for b in var_bits]
    for k, mask in enumerate(masks):
        for i in range(len(var_bits) - 1, 0, -1):
            if not mask & var_bits[i]:
                continue
            outside = ~mask | var_bits[i]  # the bits outside s
            missing = (1 << i) - 1  # the j < i not yet held, one bit each
            for g in masks:
                excess = g & outside
                j = owner[excess.bit_length() - 1]
                if missing >> j & 1 and not excess & off[j]:
                    missing ^= 1 << j
                    if not missing:
                        break
            else:
                return k, i, (missing & -missing).bit_length() - 1
    return None


def is_borel_type(ideal: MonomialIdeal) -> BorelReport:
    """Exchange-test detection over the minimal generators.

    Checking generators suffices: any u in the ideal is a monomial multiple
    of a generator, and the multiple carries over to the exchanged monomial.
    """
    ideal._require_proper("is not classified")
    failure = _exchange_failure(ideal._levels())
    if failure is not None:
        k, i, j = failure
        u = _trusted(Monomial, ideal.context, ideal._exps[k])
        return BorelReport(False, certificate=(u, i, j))
    return BorelReport(True, primes=associated_primes(ideal))


def is_borel_type_by_saturation(ideal: MonomialIdeal) -> bool:
    """Definition-level detection: saturating by x_i and by <x_1..x_i> agree.

    The prefix saturation is the intersection of the (I : x_j^inf) for
    j <= i, so the two agree exactly when (I : x_i^inf) lies in every
    (I : x_j^inf) with j < i: the exchange kernel's condition.
    """
    ideal._require_proper("is not classified")
    return _exchange_failure(ideal._levels()) is None


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
    they divide is dropped, a seed included.  The generators kept are
    therefore distinct and pairwise non-dividing, and are only sorted.
    """
    ideal._require_proper("is not classified")
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
    return MonomialIdeal._from_antichain(ideal.context, lower)
