"""Edge ideals of clutters: stable sets, vertex covers, and witness bases.

A clutter is a hypergraph whose edges form an antichain under inclusion;
simple graphs are the special case of 2-element edges.  The minimal vertex
covers are exactly the supports of the associated primes of the edge ideal,
and for the prime on a cover P the product of the complementary vertices is
already a witness: (I : t_A) = <P> for A = V \\ P.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Union

from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .rings import Monomial, MonomialIdeal, PrimeSupport, RingContext, _Frozen

VertexSet = FrozenSet[int]

DEFAULT_ENUMERATION_LIMIT = 16


class Clutter(_Frozen):
    """A vertex set together with an antichain of non-empty edges, kept as
    vertex bitmasks (bit v for vertex v) for the predicates."""

    __slots__ = ("context", "edges", "_masks", "_ideal")

    def __init__(
        self,
        vertices: Union[int, Iterable[str]],
        edges: Iterable[Iterable[Union[int, str]]],
    ):
        if isinstance(vertices, int):
            if vertices < 1:
                raise ValueError("a clutter needs at least one vertex")
            context = RingContext(tuple(f"t{i + 1}" for i in range(vertices)))
        else:
            context = RingContext(vertices)
        resolved = set()
        for edge in edges:
            members = frozenset(
                v if isinstance(v, int) else context.index_of(v) for v in edge
            )
            if not members:
                raise ValueError("edges must be non-empty")
            if any(not 0 <= v < context.n for v in members):
                raise ValueError(f"edge {sorted(members)} mentions an unknown vertex")
            resolved.add(members)
        for e, f in itertools.combinations(resolved, 2):
            if e <= f or f <= e:
                raise ValueError(
                    f"edges {sorted(e)} and {sorted(f)} are nested; "
                    "a clutter's edges must form an antichain"
                )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "edges", tuple(sorted(resolved, key=sorted)))
        masks = tuple(sum(1 << v for v in e) for e in self.edges)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_ideal", None)

    def _key(self):
        return self.context, self.edges

    def __repr__(self):
        shown = ", ".join(
            "{" + ",".join(self.context.names[v] for v in sorted(e)) + "}"
            for e in self.edges
        )
        return f"Clutter({shown})"

    @property
    def n(self) -> int:
        return self.context.n

    def vertices(self) -> VertexSet:
        return frozenset(range(self.n))

    def _mask(self, subset: Iterable[int]) -> int:
        vs = frozenset(subset)
        if any(not 0 <= v < self.n for v in vs):
            raise ValueError(f"unknown vertex in {sorted(vs)}")
        return sum(1 << v for v in vs)

    def _vertex_set(self, mask: int) -> VertexSet:
        return frozenset(v for v in range(self.n) if mask >> v & 1)

    def _covers(self, k: int) -> bool:
        return all(e & k for e in self._masks)

    def _stable(self, a: int) -> bool:
        return not any(e & a == e for e in self._masks)

    def _neighbors(self, a: int) -> int:
        """Vertices v for which a | {v} contains an edge."""
        out = 0
        for e in self._masks:
            rest = e & ~a
            if not rest & (rest - 1):  # at most one vertex short of the edge
                if not rest:  # a contains e, so every vertex qualifies
                    return (1 << self.n) - 1
                out |= rest
        return out

    def edge_ideal(self) -> MonomialIdeal:
        """The squarefree ideal with one generator per edge, built once; the
        edges are an antichain, so their products are already minimal."""
        if self._ideal is None:
            gens = (tuple([e >> v & 1 for v in range(self.n)]) for e in self._masks)
            ideal = MonomialIdeal._from_exps(self.context, gens, minimal=True)
            object.__setattr__(self, "_ideal", ideal)  # racing threads store equal ideals
        return self._ideal

    def is_stable(self, subset: Iterable[int]) -> bool:
        """Whether the set contains no edge."""
        return self._stable(self._mask(subset))

    def neighbor_set(self, subset: Iterable[int]) -> VertexSet:
        """Vertices whose addition to the set makes it contain an edge."""
        return self._vertex_set(self._neighbors(self._mask(subset)))

    def is_vertex_cover(self, subset: Iterable[int]) -> bool:
        return self._covers(self._mask(subset))

    def is_minimal_vertex_cover(self, subset: Iterable[int]) -> bool:
        """Whether the set meets every edge and no proper subset does."""
        k = self._mask(subset)
        return self._covers(k) and not any(
            self._covers(k & ~(1 << v)) for v in range(self.n) if k >> v & 1
        )

    def _check_limit(self, limit):
        if self.n > limit:
            raise ValueError(
                f"enumeration over {self.n} vertices exceeds the limit of {limit}"
            )

    def maximal_stable_sets(self, limit: int = DEFAULT_ENUMERATION_LIMIT):
        """Every stable set not properly contained in another stable set: the
        complements of the minimal vertex covers, which are the supports of
        the edge ideal's components."""
        self._check_limit(limit)
        if not self.edges:
            return (self.vertices(),)
        out = [
            self.vertices() - set(q.support())
            for q in irreducible_decomposition(self.edge_ideal()).components
        ]
        return tuple(sorted(out, key=sorted))

    def good_stable_sets(self, limit: int = DEFAULT_ENUMERATION_LIMIT):
        """Stable sets whose neighbor set is a minimal vertex cover.

        A stable set's neighbor set is minimal as soon as it covers, so the
        membership test is stability plus the cover check.  A search on
        bitmasks grows stable sets by increasing vertex, adding only vertices
        outside the neighbor set, which keeps them stable.
        """
        self._check_limit(limit)
        out = []
        stack = [(0, 0)]  # (stable set, smallest vertex it may still gain)
        while stack:
            a, start = stack.pop()
            neighbors = self._neighbors(a)
            if self._covers(neighbors):
                out.append(self._vertex_set(a))
            for v in range(start, self.n):
                if not neighbors >> v & 1:  # a | {v} is still stable
                    stack.append((a | 1 << v, v + 1))
        return tuple(sorted(out, key=sorted))

    def vertex_product(self, subset: Iterable[int]) -> Monomial:
        k = self._mask(subset)
        return self.context.monomial(k >> v & 1 for v in range(self.n))

    def witness_base(self, prime: PrimeSupport) -> Monomial:
        """The witness t_A for the prime on a minimal vertex cover, with
        A the complementary vertex set.

        The complement of a minimal cover is a maximal stable set whose
        neighbor set is exactly the cover, so t_A alone realizes the colon;
        each of those facts is re-checked and a failure is an internal error.
        The colon is checked without building it: (I : t_A) lies in P because
        every edge meets the cover P, and x_i is in it because some edge has
        x_i as its only vertex outside A; one pass over the edges checks both.
        """
        if prime.context != self.context:
            raise ValueError("prime does not live in this clutter's ring")
        if not self.is_minimal_vertex_cover(prime.vars):
            raise ValueError(
                f"{prime} is not an associated prime of the edge ideal "
                "(its variables are not a minimal vertex cover)"
            )
        rest = prime.complement()
        a = sum(1 << v for v in rest)
        if not self._stable(a) or any(self._stable(a | 1 << v) for v in prime.vars):
            raise TheoremViolationError(
                f"complement {list(rest)} of {prime} is not a maximal stable set"
            )
        if self._neighbors(a) != sum(1 << v for v in prime.vars):
            raise TheoremViolationError(f"neighbor set of {list(rest)} is not {prime}")
        t_a = self.vertex_product(rest)
        if not self.edge_ideal()._colon_is_prime(t_a.exps, prime.vars):
            raise TheoremViolationError(f"(I : {t_a}) failed to equal {prime}")
        return t_a
