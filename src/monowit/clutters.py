"""Edge ideals of clutters: their stable-set families and witness bases.

A clutter is a hypergraph whose edges form an antichain under inclusion;
simple graphs are the special case of 2-element edges.  The minimal vertex
covers are exactly the supports of the associated primes of the edge ideal,
and for the prime on a cover P the product of the complementary vertices is
already a witness: (I : t_A) = <P> for A = V \\ P.  Both stable-set
families, the maximal and the good stable sets, are read from those covers,
the edge ideal's component supports.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Union

from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .rings import Monomial, MonomialIdeal, PrimeSupport, RingContext, _Frozen, _ints
from .rings import _trusted_monomial

_GOOD_SET_CAP = 1 << 16  # every clutter on at most 16 vertices fits


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
    vertex bitmasks (bit v for vertex v) for the searches and checks."""

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

    def edge_ideal(self) -> MonomialIdeal:
        """The squarefree ideal with one generator per edge, built once; the
        edges are an antichain, so their products are already minimal."""
        if self._ideal is None:
            gens = (tuple([e >> v & 1 for v in range(self.n)]) for e in self._masks)
            ideal = MonomialIdeal._from_exps(self.context, gens, minimal=True)
            object.__setattr__(self, "_ideal", ideal)  # racing threads store equal ideals
        return self._ideal

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

    def good_stable_sets(self):
        """Stable sets whose neighbor set is a minimal vertex cover.

        Each lies in T = V \\ P for its cover P and has N(b) inside P: a vertex
        v of P is in N(b) when some edge meets P in v alone and has its rest
        inside b.  The good b, those with N(b) = P, form an up-set in T, and b
        cannot drop a vertex u when, for some v, every such rest inside b
        contains u; one pass over the rests, grouped by v, finds all of them.
        A search from T drops the other vertices in increasing order and
        visits good sets only.  A vertex b cannot drop stays so in every
        subset of b, so it is never tried again below b.  An edgeless clutter
        on n vertices has 2^n good sets, so past 2^16 sets, as many as 16
        vertices can have, the search raises ValueError.
        """
        full = (1 << self.n) - 1
        out = []
        for p in self._cover_masks():
            rests = {}  # vertex bit of P -> rests of the edges meeting P there alone
            for e in self._masks:
                if not (over := e & p) & (over - 1):
                    rests.setdefault(over, []).append(e & ~p)
            t = full & ~p
            stack = [(_bits(t), t, t)]  # (members, good set, vertices it may still drop)
            while stack:
                members, b, droppable = stack.pop()
                out.append(members)
                if len(out) > _GOOD_SET_CAP:
                    raise ValueError(f"more than {_GOOD_SET_CAP} good stable sets")
                outside = ~b
                for group in rests.values():
                    kept = b  # the vertices every rest of this group inside b holds
                    for rest in group:
                        if not rest & outside:
                            kept &= rest
                    droppable &= ~kept
                for i, u in enumerate(members):
                    if droppable >> u & 1:
                        droppable ^= 1 << u
                        stack.append((members[:i] + members[i + 1:], b ^ 1 << u, droppable))
        return tuple(map(frozenset, sorted(out)))

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
