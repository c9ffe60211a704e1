"""Edge ideals of clutters: their stable-set families and witness bases.

A clutter is a hypergraph whose edges form an antichain under inclusion;
simple graphs are the special case of 2-element edges.  The minimal vertex
covers are exactly the supports of the associated primes of the edge ideal,
and for the prime on a cover P the product of the complementary vertices is
already a witness: (I : t_A) = <P> for A = V \\ P.  Both stable-set
families, the maximal and the good stable sets, are read from those covers,
the edge ideal's component supports.  `witness_base` certifies t_A with
the colon kernel that `verify_witness` runs, `rings._colon_reaches`, on
the edge masks themselves.  A clutter is stored only as its edge masks;
`edges` builds the frozensets on each read from `rings._bits`, and the 0/1
exponent tuples of the edge ideal and of t_A are filled from a mask's set
bits (`_zero_one`).
"""

from __future__ import annotations

from typing import Iterable, Union

from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .rings import (Monomial, MonomialIdeal, PrimeSupport, RingContext, _bits,
                    _colon_reaches, _Frozen, _ints, _squarefree_table, _trusted)

_GOOD_SET_CAP = 1 << 16  # every clutter on at most 16 vertices fits


def _braced(names, mask: int) -> str:
    return "{" + ",".join(names[v] for v in _bits(mask)) + "}"


def _zero_one(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 exponent tuple of length n with a 1 at each set bit of mask,
    filled from those bits alone."""
    row = bytearray(n)
    while mask:
        low = mask & -mask
        row[low.bit_length() - 1] = 1
        mask ^= low
    return tuple(row)


def _edge_order(masks) -> tuple[int, ...]:
    """The distinct masks sorted by their ascending vertex lists.  A mask's
    binary digits reversed mark its vertices lowest first with '1's and end
    in 'b0'; since 'b' > '1' > '0', the descending order of those strings
    puts first the mask with the lower first differing vertex, or the
    prefix, whose 'b' meets a '1' or a '0' of the longer list."""
    return tuple(sorted(set(masks), key=lambda m: bin(m)[::-1], reverse=True))


def _nested_pair(masks: tuple[int, ...]):
    """The first pair (i, j), i < j, of nested masks, or None.  Distinct
    masks of one size never nest, so a mask is tested only against the
    smaller masks whose lowest vertex it contains."""
    sizes = [e.bit_count() for e in masks]
    if len(set(sizes)) < 2:
        return None
    by_low = {}  # (size, lowest vertex bit) -> indices of the masks
    for k, e in enumerate(masks):
        by_low.setdefault((sizes[k], e & -e), []).append(k)
    smaller = sorted({s for s, _ in by_low})
    nested = []
    for j, e in enumerate(masks):
        for s in smaller:
            if s >= sizes[j]:
                break
            rest = e
            while rest:
                low = rest & -rest
                rest ^= low
                for i in by_low.get((s, low), ()):
                    if masks[i] & e == masks[i]:
                        nested.append((min(i, j), max(i, j)))
    return min(nested, default=None)


class Clutter(_Frozen):
    """A vertex set together with an antichain of non-empty edges, kept only
    as vertex bitmasks (bit v for vertex v) in edge order.  The public
    constructor validates names and ints and reduces each edge to its mask;
    the parser builds the masks itself and calls `_from_masks`.  The
    minimal vertex covers are decoded from the edge ideal's decomposition on
    first use and kept, like the edge ideal."""

    __slots__ = ("context", "_masks", "_ideal", "_covers")

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
        masks = []
        for edge in edges:
            if isinstance(edge, str):  # a vertex name, not one vertex per character
                raise ValueError(f"an edge is a collection of vertices, not the string {edge!r}")
            indices = [context.index_of(v) if isinstance(v, str) else v for v in edge]
            members = frozenset(_ints(indices, "unknown vertex {}", low=None))
            if not members:
                raise ValueError("edges must be non-empty")
            if any(not 0 <= v < context.n for v in members):
                raise ValueError(f"edge {sorted(members)} mentions an unknown vertex")
            masks.append(sum(1 << v for v in members))
        self._set(context, masks)

    @classmethod
    def _from_masks(cls, context: RingContext, masks) -> "Clutter":
        """Trusted constructor for non-empty edge masks over the context's
        vertices; duplicates are dropped, and nested edges raise ValueError."""
        clutter = object.__new__(cls)
        clutter._set(context, masks)
        return clutter

    def _set(self, context: RingContext, masks):
        """Sort the distinct masks into edge order (by their sorted vertex
        lists), check that they form an antichain, and fill the slots."""
        masks = _edge_order(masks)
        nested = _nested_pair(masks)
        if nested is not None:
            i, j = nested
            raise ValueError(
                f"edges {_braced(context.names, masks[i])} and "
                f"{_braced(context.names, masks[j])} are nested; "
                "a clutter's edges must form an antichain"
            )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_ideal", None)
        object.__setattr__(self, "_covers", None)

    def _key(self):
        return self.context, self._masks

    def __repr__(self):
        shown = ", ".join(_braced(self.context.names, e) for e in self._masks)
        return f"Clutter({shown})"

    @property
    def n(self) -> int:
        return self.context.n

    @property
    def edges(self) -> tuple[frozenset, ...]:
        return tuple([frozenset(_bits(e)) for e in self._masks])

    def edge_ideal(self) -> MonomialIdeal:
        """The squarefree ideal with one generator per edge, built once.  The
        edges are distinct and pairwise non-nested, so the generators are
        only sorted.  Its level table is built here, from the edge masks
        (`rings._squarefree_table`), rather than from the generators on
        first read: on an antichain, edge order is the generators' order."""
        if self._ideal is None:
            n = self.n
            gens = (_zero_one(e, n) for e in self._masks)
            ideal = MonomialIdeal._from_antichain(self.context, gens)
            object.__setattr__(ideal, "_table", _squarefree_table(self._masks, n))
            object.__setattr__(self, "_ideal", ideal)  # racing threads store equal ideals
        return self._ideal

    def _cover_masks(self) -> tuple[int, ...]:
        """The minimal vertex covers as bitmasks: the supports of the edge
        ideal's components, or the empty cover when there are no edges.
        Decoded once, on first use."""
        if self._covers is None:
            covers = (0,)
            if self._masks:
                covers = tuple([
                    sum(1 << v for v in q.support())
                    for q in irreducible_decomposition(self.edge_ideal()).components
                ])
            object.__setattr__(self, "_covers", covers)  # racing threads store equal tuples
        return self._covers

    def maximal_stable_sets(self):
        """Every stable set not properly contained in another stable set: the
        complements of the minimal vertex covers."""
        full = (1 << self.n) - 1
        return tuple(map(frozenset, sorted(_bits(full & ~p) for p in self._cover_masks())))

    def good_stable_sets(self):
        """Stable sets whose neighbor set is a minimal vertex cover.

        Each lies in T = V \\ P for its cover P and has N(b) inside P: a vertex
        v of P is in N(b) when some edge meets P in v alone and has its rest
        inside b.  One pass over the edge masks files, per vertex v, the
        other ends of its 2-vertex edges as one mask and the rests e - v of
        its other edges as a list; v's group for P is that mask inside T and
        the listed rests that miss P.  The good b, those with N(b) = P, form
        an up-set in T, and b cannot drop a vertex u when, for some v, every
        rest of v's group inside b contains u: u is then critical for v, as
        in minimal-transversal search (Murakami and Uno, Discrete Appl. Math.
        2014).  In a group of other ends alone, that happens when b holds
        exactly one of them; a group with wider rests ANDs every rest inside
        b, its other ends as one-vertex rests.  The pass over the groups stops
        once no vertex is left that b could drop.
        A search from T drops the other vertices in increasing order and
        visits good sets only.  A vertex b cannot drop stays so in every
        subset of b, so it is never tried again below b.  An edgeless clutter
        on n vertices has 2^n good sets, so past 2^16 sets, as many as 16
        vertices can have, the search raises ValueError.
        """
        n = self.n
        pairs = [0] * n  # vertex v -> the other ends of its 2-vertex edges
        wide = [[] for _ in range(n)]  # vertex v -> the rests e - v of its other edges
        for e in self._masks:
            if e.bit_count() == 2:
                low = e & -e
                high = e ^ low
                pairs[low.bit_length() - 1] |= high
                pairs[high.bit_length() - 1] |= low
            else:
                for v in _bits(e):
                    wide[v].append(e ^ 1 << v)
        full = (1 << n) - 1
        out = []
        for p in self._cover_masks():
            t = full & ~p
            members, ends, groups = [], [], []  # T; the groups of other ends alone; the rest
            for v in range(n):
                if not p >> v & 1:
                    members.append(v)
                    continue
                if wide[v] and (rests := [r for r in wide[v] if not r & p]):
                    rests += [1 << u for u in _bits(pairs[v] & t)]
                    groups.append(rests)
                else:
                    ends.append(pairs[v] & t)
            stack = [(tuple(members), t, t)]  # (members, good set, vertices it may still drop)
            while stack:
                members, b, droppable = stack.pop()
                out.append(members)
                if len(out) > _GOOD_SET_CAP:
                    raise ValueError(f"more than {_GOOD_SET_CAP} good stable sets")
                for s in ends:
                    if not droppable:
                        break
                    x = s & b  # not empty, since v lies in N(b)
                    if not x & (x - 1):
                        droppable &= ~x
                if groups:
                    outside = ~b
                    for rests in groups:
                        if not droppable:
                            break
                        kept = b  # the vertices every rest of this group inside b holds
                        for rest in rests:
                            if not rest & outside:
                                kept &= rest
                        droppable &= ~kept
                if not droppable:
                    continue
                for i, u in enumerate(members):
                    if droppable >> u & 1:
                        droppable ^= 1 << u
                        stack.append((members[:i] + members[i + 1:], b ^ 1 << u, droppable))
        return tuple(map(frozenset, sorted(out)))

    def witness_base(self, prime: PrimeSupport) -> Monomial:
        """The witness t_A for the prime on a minimal vertex cover, with
        A the complementary vertex set.

        The edge ideal's decomposition checks that the prime is associated,
        which covers its ring.  The complement of a minimal cover is a maximal
        stable set whose neighbor set is exactly the cover, so t_A alone
        realizes the colon.  The colon kernel `rings._colon_reaches` certifies
        it on the edge masks, with the cover as above, inside and need, and a
        failure is an internal error.
        """
        irreducible_decomposition(self.edge_ideal()).components_for(prime)
        p = sum(1 << v for v in prime.vars)
        a = ((1 << self.n) - 1) & ~p
        t_a = _trusted(Monomial, self.context, _zero_one(a, self.n))
        if not _colon_reaches(self._masks, p, p, p):
            raise TheoremViolationError(f"(I : {t_a}) failed to equal {prime}")
        return t_a
