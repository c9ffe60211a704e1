"""Reference checks, written on exponent tuples and vertex bitmasks.

None of these call monowit: each result the library returns is compared with
a fact derived here from the inputs alone (an exact colon, a containment
test, a count, an enumeration), so a wrong answer cannot pass by agreeing
with itself.
"""

from __future__ import annotations

import itertools
import math

from inputs import minimal_exponents

# ---------------------------------------------------------------------------
# monomial ideals as lists of exponent tuples


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(gens, m) -> bool:
    return any(divides(g, m) for g in gens)


def colon(gens, v) -> list[tuple[int, ...]]:
    return minimal_exponents(tuple(max(a - b, 0) for a, b in zip(g, v)) for g in gens)


def prime_gens(n: int, prime_vars) -> list[tuple[int, ...]]:
    return sorted(tuple(1 if j == i else 0 for j in range(n)) for i in prime_vars)


def is_witness(gens, n: int, prime_vars, v) -> bool:
    """Whether (I : v) is exactly the prime on prime_vars."""
    return colon(gens, v) == prime_gens(n, prime_vars)


def component_contains_ideal(pairs, gens) -> bool:
    """Whether the irreducible ideal (x_v^a : (v, a) in pairs) contains I."""
    return all(any(g[v] >= a for v, a in pairs) for g in gens)


def component_contains(outer, inner) -> bool:
    """Whether irreducible `inner` is a subset of irreducible `outer`."""
    o = dict(outer)
    return all(v in o and o[v] <= a for v, a in inner)


def intersection_inside(gens, components) -> bool:
    """Whether the intersection of the components lies inside I.

    Intersects one component at a time, keeping only the minimal generators
    of the partial intersection that are still outside I: a generator inside
    I stays inside after every later lcm, and a multiple of a kept generator
    adds nothing.  The intersection lies in I exactly when none is left.
    """
    frontier = [(0,) * len(gens[0])]
    for pairs in components:
        grown = set()
        for m in frontier:
            if any(m[v] >= a for v, a in pairs):
                grown.add(m)
                continue
            for v, a in pairs:
                raised = m[:v] + (a,) + m[v + 1:]
                if not member(gens, raised):
                    grown.add(raised)
        frontier = minimal_exponents(grown)
        if not frontier:
            return True
    return False


def decomposition_errors(gens, components) -> list[str]:
    """Exact check that the components are I's irredundant decomposition."""
    errors = []
    for c in components:
        if not component_contains_ideal(c, gens):
            errors.append(f"component {c} does not contain the ideal")
    for i, c in enumerate(components):
        for j, d in enumerate(components):
            if i != j and component_contains(c, d):
                errors.append(f"component {d} is inside {c}")
    if not errors and not intersection_inside(gens, components):
        errors.append("intersection of the components is larger than the ideal")
    return errors


# ---------------------------------------------------------------------------
# graphs and clutters as bitmasks


def masks(edges) -> list[int]:
    return [sum(1 << v for v in e) for e in edges]


def is_stable(edge_masks, a: int) -> bool:
    return not any(e & a == e for e in edge_masks)


def neighbor_set(edge_masks, n: int, a: int) -> int:
    out = 0
    for v in range(n):
        b = a | (1 << v)
        if any(e & b == e for e in edge_masks):
            out |= 1 << v
    return out


def is_cover(edge_masks, k: int) -> bool:
    return all(e & k for e in edge_masks)


def is_minimal_cover(edge_masks, n: int, k: int) -> bool:
    return is_cover(edge_masks, k) and not any(
        k >> v & 1 and is_cover(edge_masks, k & ~(1 << v)) for v in range(n)
    )


def to_mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def perrin(n: int) -> int:
    """P(0..2) = 3, 0, 2 and P(n) = P(n-2) + P(n-3): the number of minimal
    vertex covers, hence of components, of the cycle C_n."""
    a, b, c = 3, 0, 2
    for _ in range(n):
        a, b, c = b, c, a + b
    return a


def greedy_minimal_cover(edges, n: int, order) -> list[int]:
    """Drop vertices in the given order while the rest still covers."""
    em = masks(edges)
    k = (1 << n) - 1
    for v in order:
        if is_cover(em, k & ~(1 << v)):
            k &= ~(1 << v)
    return [v for v in range(n) if k >> v & 1]


# ---------------------------------------------------------------------------
# Borel type and symmetric patterns


def symmetric_count(n: int, exps) -> int:
    """C(n, k) variable sets times the distinct orderings of the k exponents."""
    orderings = math.factorial(len(exps))
    for value in set(exps):
        orderings //= math.factorial(exps.count(value))
    return math.comb(n, len(exps)) * orderings


def symmetric_gens(n: int, exps) -> list[tuple[int, ...]]:
    """Minimal generators of the symmetric power-pattern ideal."""
    gens = set()
    for variables in itertools.combinations(range(n), len(exps)):
        for placement in set(itertools.permutations(exps)):
            e = [0] * n
            for v, a in zip(variables, placement):
                e[v] = a
            gens.add(tuple(e))
    return minimal_exponents(gens)

