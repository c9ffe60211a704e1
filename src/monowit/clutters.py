"""Edge ideals of clutters: stable sets, vertex covers, and witness bases.

A clutter is a hypergraph whose edges form an antichain under inclusion;
simple graphs are the special case of 2-element edges.  The minimal vertex
covers are exactly the supports of the associated primes of the edge ideal,
and for the prime on a cover P the product of the complementary vertices is
already a witness: (I : t_A) = <P> for A = V \\ P.  Both stable-set
families are read from those covers, the edge ideal's component supports.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Union

from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .rings import Monomial, MonomialIdeal, PrimeSupport, RingContext, _Frozen, _ints
from .rings import _trusted_monomial

VertexSet = FrozenSet[int]

DEFAULT_ENUMERATION_LIMIT = 16


def _braced(names, mask: int) -> str:
    return "{" + ",".join(names[v] for v in _bits(mask)) + "}"


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, in ascending order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


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
            indices = [context.index_of(v) if isinstance(v, str) else v for v in edge]
            members = frozenset(_ints(indices, "unknown vertex {}", low=None))
            if not members:
                raise ValueError("edges must be non-empty")
            if any(not 0 <= v < context.n for v in members):
                raise ValueError(f"edge {sorted(members)} mentions an unknown vertex")
            resolved.add(members)
        edges = tuple(sorted(resolved, key=sorted))
        masks = tuple(sum(1 << v for v in e) for e in edges)
        for e, f in itertools.combinations(masks, 2):
            if e & f in (e, f):
                raise ValueError(
                    f"edges {_braced(context.names, e)} and {_braced(context.names, f)} "
                    "are nested; a clutter's edges must form an antichain"
                )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_ideal", None)

    def _key(self):
        return self.context, self.edges

    def __repr__(self):
        shown = ", ".join(_braced(self.context.names, e) for e in self._masks)
        return f"Clutter({shown})"

    @property
    def n(self) -> int:
        return self.context.n

    def _mask(self, subset: Iterable[int]) -> int:
        vs = frozenset(_ints(subset, "unknown vertex {}", low=None))
        if any(not 0 <= v < self.n for v in vs):
            raise ValueError(f"unknown vertex in {sorted(vs)}")
        return sum(1 << v for v in vs)

    def _vertex_set(self, mask: int) -> VertexSet:
        return frozenset(_bits(mask))

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
        a = self._mask(subset)
        return not any(e & a == e for e in self._masks)

    def neighbor_set(self, subset: Iterable[int]) -> VertexSet:
        """Vertices whose addition to the set makes it contain an edge."""
        return self._vertex_set(self._neighbors(self._mask(subset)))

    def _cover_masks(self) -> list[int]:
        """The minimal vertex covers as bitmasks: the supports of the edge
        ideal's components, or the empty cover when there are no edges."""
        if not self.edges:
            return [0]
        return [
            sum(1 << v for v in q.support())
            for q in irreducible_decomposition(self.edge_ideal()).components
        ]

    def maximal_stable_sets(self):
        """Every stable set not properly contained in another stable set: the
        complements of the minimal vertex covers."""
        full = (1 << self.n) - 1
        return tuple(map(frozenset, sorted(_bits(full & ~p) for p in self._cover_masks())))

    def good_stable_sets(self, limit: int = DEFAULT_ENUMERATION_LIMIT):
        """Stable sets whose neighbor set is a minimal vertex cover.

        Each lies in T = V \\ P for its cover P and has N(b) inside P: a vertex
        of P is in N(b) when it is the one vertex of P on an edge whose rest
        lies in b, read from one table of (rest, vertex) rows per cover.  The
        good b, those with N(b) = P, form an up-set in T: a search from T that
        drops vertices in increasing order while N(b) = P holds visits them only.
        """
        if self.n > limit:
            raise ValueError(
                f"enumeration over {self.n} vertices exceeds the limit of {limit}"
            )
        full = (1 << self.n) - 1
        out = []
        for p in self._cover_masks():
            table = [(e & ~p, over) for e in self._masks if not (over := e & p) & (over - 1)]
            stack = [(full & ~p, full & ~p)]  # (good set, vertices it may still drop)
            while stack:
                b, droppable = stack.pop()
                out.append(_bits(b))
                while droppable:
                    low = droppable & -droppable
                    droppable ^= low
                    c = b ^ low
                    reached = 0
                    for rest, v in table:
                        if not rest & ~c:
                            reached |= v
                    if reached == p:
                        stack.append((c, droppable))
        return tuple(map(frozenset, sorted(out)))

    def vertex_product(self, subset: Iterable[int]) -> Monomial:
        k = self._mask(subset)
        return self.context.monomial(k >> v & 1 for v in range(self.n))

    def _colon_is_cover(self, p: int) -> bool:
        """`MonomialIdeal._colon_is_prime` for t_A, A = V \\ P, on the edge
        masks: an edge e exceeds t_A on e & P alone, and by 1 there."""
        reached = 0
        for e in self._masks:
            over = e & p
            if not over:
                return False
            if not over & (over - 1):
                reached |= over
        return reached == p

    def witness_base(self, prime: PrimeSupport) -> Monomial:
        """The witness t_A for the prime on a minimal vertex cover, with
        A the complementary vertex set.

        The edge ideal's decomposition checks that the prime is associated,
        which covers its ring.  The complement of a minimal cover is a maximal
        stable set whose neighbor set is exactly the cover, so t_A alone
        realizes the colon; one pass of the colon test over the edge masks
        certifies it, and a failure is an internal error.
        """
        irreducible_decomposition(self.edge_ideal()).components_for(prime)
        p = sum(1 << v for v in prime.vars)
        a = ((1 << self.n) - 1) & ~p
        t_a = _trusted_monomial(self.context, tuple([a >> v & 1 for v in range(self.n)]))
        if not self._colon_is_cover(p):
            raise TheoremViolationError(f"(I : {t_a}) failed to equal {prime}")
        return t_a
