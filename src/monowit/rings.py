"""Exact arithmetic on monomials and monomial ideals.

Everything is combinatorics on exponent vectors: a monomial is a tuple of
non-negative integers over a fixed ambient ring context, a monomial ideal is
its unique minimal generating set in a canonical order, and every operation
(membership, colon by a monomial) is a pure function on those tuples.  The
coefficient field is never represented.

A ring context owns its names and their one name -> index table; a ring
given only its size builds both on first read, so a ring that nothing
prints or parses names in costs no more than its size.  An ideal stores
only its exponent tuples.  The public constructor, the parser and
`colon`'s quotients minimize them by `_minimize_exps`; an ideal whose
generators are distinct and pairwise non-dividing by construction (the
symmetric ideals, exchange closures, clutter edge ideals, a prime's or a
component's own ideal and the unit ideal) is only sorted, by
`MonomialIdeal._from_antichain`.  `gens` builds the `Monomial`s on each
read.  An ideal keeps its level table (`_level_table`) once first read, as
it keeps its decomposition, except a clutter's edge ideal, which is built
with its table in place, by `_squarefree_table` from the edge masks rather
than from its tuples.  The decomposition engine, the Borel exchange
kernel, the witness floors (`max_exponents`) and `verify_witness`, behind
every witness verification, all read it.  `verify_witness` decides the
colon by `_colon_reaches`, the one colon kernel, which
`Clutter.witness_base` runs on edge masks too; its docstring says why
the test is exact.  The one
exception is an ideal that `witness.build_symmetric_ideal` built: it keeps
its pattern, which gives its floors and answers `verify_witness` by two
exact membership tests instead.  Nothing is VERIFIED except through the
colon kernel or the pattern test.  All value classes inherit `_Frozen`: immutability,
equality, hashing, the default repr, copying and pickling, and the slot
setters (`_setters`) that trusted values are filled through.

Four rules are stated here once, for every module: `_trusted` builds a
value the library has already checked, through its class's slot setters,
`MonomialIdeal._require_proper` refuses the zero and the unit ideal,
`_values` reads an index-keyed mapping, and `_is_name` says what a variable
name is.  `_ints` checks and converts outside integers, and `_by_index`
refuses a mapping whose keys name one index twice.  Three operations are
written once here too: `_bits` lists a mask's set bits, `_row` fills an
exponent tuple from (variable, exponent) pairs, and `_member` asks whether
some generator tuple divides a tuple; only the hottest loops walk inline.
"""

from __future__ import annotations

from itertools import compress
from operator import index, le, sub
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import ContextMismatchError


def _ints(values, message: str, low: Optional[int] = 0,
          high: Optional[int] = None) -> tuple[int, ...]:
    """The values as plain ints.  The first one that is not an integer, lies
    below low or is not below high (None: no bound) raises
    ValueError(message.format(value)), so a "{}" in message names it."""
    out = []
    for v in values:
        try:
            i = index(v)
        except TypeError:
            raise ValueError(message.format(v)) from None
        if low is not None and i < low or high is not None and i >= high:
            raise ValueError(message.format(v))
        out.append(i)
    return tuple(out)


def _values(mapping, message: str):
    """mapping.values(); anything that is not a mapping raises ValueError(message)."""
    try:
        return mapping.values()
    except AttributeError:
        raise ValueError(message) from None


def _is_name(token) -> bool:
    """Whether token is a variable name: a str matching [A-Za-z_][A-Za-z0-9_]*."""
    return isinstance(token, str) and token.isascii() and token.isidentifier()


def _by_index(indices: tuple[int, ...], values) -> dict:
    """dict(zip(indices, values)) for keys already read by `_ints`.  Keys
    that are distinct to their mapping can still name one index, which raises."""
    out = dict(zip(indices, values))
    if len(out) < len(indices):
        twice = next(i for i in indices if indices.count(i) > 1)
        raise ValueError(f"variable index {twice} is given more than once")
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, in ascending order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _row(n: int, pairs) -> tuple[int, ...]:
    """The length-n exponent tuple with e at i for each (i, e) of pairs, 0 elsewhere."""
    row = [0] * n
    for i, e in pairs:
        row[i] = e
    return tuple(row)


def _member(gens, v) -> bool:
    """Whether some exponent tuple of gens divides the tuple v."""
    return any(all(map(le, g, v)) for g in gens)


def _trusted(cls, context, value, new=object.__new__):
    """A Monomial, PrimeSupport or SymmetricPattern (cls) on a value already
    checked, without its constructor: its two slots are filled through the
    class's `_setters`, with no check and no lookup by name."""
    made = new(cls)
    put_context, put_value = cls._setters
    put_context(made, context)
    put_value(made, value)
    return made


def _rebuild(cls, slots: tuple):
    """A `cls` whose slots hold `slots`, in `cls.__slots__` order: how
    `_Frozen.__reduce__` unpickles a value, with its caches."""
    value = object.__new__(cls)
    for put, slot in zip(cls._setters, slots):
        put(value, slot)
    return value


class _Frozen:
    """Base of the value classes.  Each class states its identity in
    `_key()`: two values are equal exactly when they have the same type and
    equal keys, and a value hashes as its key.  A public constructor, and a
    cache stored on first use, writes a slot by name through
    object.__setattr__.  `_trusted`, `_rebuild`, the trusted ideal
    constructors, `gens`, a `RingContext` given its size and
    `decompose.irreducible_decomposition` fill the values they build
    through `_setters` instead: each slot descriptor's
    `__set__` in `__slots__` order, bound once per class by
    `__init_subclass__` and looked up through the class, so a subclass
    without its own `__slots__` gets its base's.  Every later assignment or
    deletion raises, so `copy` and `deepcopy` return the value itself.
    `pickle` goes through `__reduce__`, which hands every slot to `_rebuild`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def __reduce__(self):
        cls = type(self)
        return _rebuild, (cls, tuple(getattr(self, name) for name in cls.__slots__))

    def __eq__(self, other):
        if other is self:  # most comparisons are of a ring with itself
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class RingContext(_Frozen):
    """Ambient polynomial ring: a number of variables plus display names.

    A name is a str that `_is_name` accepts, so that every monomial prints
    and parses back.  A ring given names builds and checks them, and their
    name -> index table, at construction.  A ring given its size n keeps
    only n: its names x1..xn, never checked, and their table are built
    together by `_table` on first read, by printing, `names`, `index_of`, a
    name lookup in the parser, or equality and hashing against another ring
    object; races store equal values.  Every name the library reads
    resolves through that one table."""

    __slots__ = ("n", "_names", "_index")

    def __init__(self, names_or_size: Union[int, Iterable[str]]):
        if isinstance(names_or_size, int):
            if names_or_size < 1:
                raise ValueError("a ring context needs at least one variable")
            put_n, put_names, put_index = self._setters
            put_n(self, int(names_or_size))
            put_names(self, None)
            put_index(self, None)
            return
        try:
            if isinstance(names_or_size, str):  # not one name per character
                raise TypeError
            names = tuple(names_or_size)
        except TypeError:
            raise ValueError(
                f"a ring context needs a size or variable names, not {names_or_size!r}"
            ) from None
        for name in names:
            if not _is_name(name):
                raise ValueError(f"invalid variable name {name!r}")
        if not names:
            raise ValueError("a ring context needs at least one variable")
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        object.__setattr__(self, "n", len(names))
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", index)

    def _table(self) -> dict:
        """The name -> index table; a sized ring builds it, with its names,
        on first read."""
        if self._index is None:  # the names are stored first, so a set table has them
            names = tuple(f"x{i + 1}" for i in range(self.n))
            object.__setattr__(self, "_names", names)
            object.__setattr__(self, "_index", dict(zip(names, range(self.n))))
        return self._index

    @property
    def names(self) -> tuple[str, ...]:
        self._table()
        return self._names

    def _key(self):
        return self.names

    def __repr__(self):
        return f"RingContext({list(self.names)!r})"

    def index_of(self, name: str) -> int:
        try:
            return self._table()[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown variable {name!r}") from None

    @property
    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def monomial(self, exps: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exps))

    def monomial_from_powers(self, powers: Mapping[int, int]) -> "Monomial":
        values = _values(powers, "powers must be a mapping from variable index to exponent")
        indices = _ints(powers, "variable index {} out of range", high=self.n)
        return Monomial(self, _row(self.n, _by_index(indices, values).items()))


def _require_same_context(a, b):
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"operands live in different rings: {a.context!r} vs {b.context!r}"
        )


class Monomial(_Frozen):
    """A monomial x^a, stored as its exponent vector."""

    __slots__ = ("context", "exps")

    def __init__(self, context: RingContext, exps: tuple[int, ...]):
        exps = tuple(exps)
        if len(exps) != context.n:
            raise ValueError(
                f"exponent vector has length {len(exps)}, ring has {context.n} variables"
            )
        exps = _ints(exps, "exponents must be non-negative integers")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "exps", exps)

    def _key(self):
        return self.context, self.exps

    def __str__(self):
        names = self.context.names
        parts = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(self.exps)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def support(self) -> tuple[int, ...]:
        """Indices of the variables dividing this monomial."""
        return tuple(i for i, e in enumerate(self.exps) if e)


def _minimize_exps(vectors: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal vectors in descending lex order, for the
    public constructor, the parser and `colon`'s quotients; an ideal built
    by `MonomialIdeal._from_antichain` is only sorted and never comes here.
    Only a vector of lower degree can divide v, so a set of one
    degree is an antichain once deduplicated, and otherwise v is compared
    only with the survivors of lower degree, first by support mask."""
    ordered = sorted(set(vectors), key=sum)
    if not ordered or sum(ordered[0]) == sum(ordered[-1]):
        return tuple(sorted(ordered, reverse=True))
    bits = [1 << i for i in range(len(ordered[0]))]
    keep = []  # (degree, support mask, vector) of each survivor, by ascending degree
    for v in ordered:
        degree, mask = sum(v), sum(compress(bits, v))
        for k_degree, k_mask, k in keep:
            if k_degree == degree:  # v's own degree: no survivor from here on divides it
                keep.append((degree, mask, v))
                break
            if not k_mask & ~mask and all(map(le, k, v)):
                break
        else:
            keep.append((degree, mask, v))
    return tuple(sorted([k for _, _, k in keep], reverse=True))


def _level_table(gens, n: int):
    """The ranked level bits of the exponent tuples gens, which keep only the
    order of the exponents: the sorted (variable, exponent) levels, bit k for
    levels[k], so each variable's bits are contiguous; each variable's bits;
    each tuple's mask, in the order given, with every level of x_i at or
    below its own; and the floors, each variable's largest exponent.  g
    divides w exactly when mask(g) & ~mask(w) == 0, on these levels."""
    levels, var_bits, floors, columns = [], [], [], []
    bit = 1
    for i, column in enumerate(zip(*gens) if gens else [()] * n):
        up_to = {0: 0}  # an exponent of x_i -> the bits of x_i up to its level
        bits = floor = 0  # the loop leaves floor at x_i's largest exponent
        for floor in sorted(set(column) - {0}):
            levels.append((i, floor))
            bits |= bit
            up_to[floor] = bits
            bit <<= 1
        var_bits.append(bits)
        floors.append(floor)
        columns.append(map(up_to.__getitem__, column))
    masks = tuple(map(sum, zip(*columns)))  # the variables' bits are disjoint
    return tuple(levels), tuple(var_bits), masks, tuple(floors)


def _squarefree_table(masks, n: int):
    """The `_level_table` of squarefree generators given as variable masks
    (bit i for x_i), in the order given, without building it from tuples: a
    level (i, 1) for each variable some mask holds, each mask squeezed past
    the variables none holds, and 0/1 floors.  When the masks hold every
    variable, each is its own level mask."""
    used = 0
    for m in masks:
        used |= m
    levels, var_bits, floors = [], [0] * n, [0] * n
    for i in _bits(used):
        var_bits[i] = 1 << len(levels)
        floors[i] = 1
        levels.append((i, 1))
    if used & (used + 1):  # a variable below the top one is held by no mask
        masks = [sum([var_bits[i] for i in _bits(m)]) for m in masks]
    return tuple(levels), tuple(var_bits), tuple(masks), tuple(floors)


class MonomialIdeal(_Frozen):
    """A monomial ideal, held as the exponent tuples of its minimal
    generators in descending lex order.

    The constructor minimizes and sorts, and `_from_antichain` sorts tuples
    that are minimal by construction, so equality of ideals is structural
    equality of the stored tuples.  `gens` builds the generators as
    `Monomial`s on each read.  The zero ideal has no generators; the unit
    ideal is generated by 1.  `_decomposition` is filled by
    `decompose.irreducible_decomposition` on first use, and `_table` by
    `_levels` (by `Clutter.edge_ideal` on an edge ideal, as it builds it):
    the ideal keeps both, and they are freed with it.
    `_pattern` is the `SymmetricPattern` an ideal was built from, set only
    by `witness.build_symmetric_ideal` and None otherwise.  None of the
    three is part of the ideal's identity, and pickling keeps all three.
    """

    __slots__ = ("context", "_exps", "_decomposition", "_table", "_pattern")

    def __init__(self, context: RingContext, gens: Iterable[Monomial]):
        gens = tuple(gens)
        for g in gens:
            if g.context is not context and g.context != context:
                raise ContextMismatchError(f"generator {g!r} does not live in {context!r}")
        self._set(context, _minimize_exps(g.exps for g in gens))

    @classmethod
    def _from_exps(cls, context: RingContext, vectors) -> "MonomialIdeal":
        """Trusted constructor: the tuples are minimized but not validated."""
        ideal = object.__new__(cls)
        ideal._set(context, _minimize_exps(vectors))
        return ideal

    @classmethod
    def _from_antichain(cls, context: RingContext, vectors) -> "MonomialIdeal":
        """Trusted constructor for tuples that are distinct and pairwise
        non-dividing by construction: they are only sorted.  Each caller is
        checked against `_from_exps` in the tests."""
        ideal = object.__new__(cls)
        ideal._set(context, tuple(sorted(vectors, reverse=True)))
        return ideal

    def _set(self, context: RingContext, exps: tuple[tuple[int, ...], ...]):
        put_context, put_exps, put_decomposition, put_table, put_pattern = self._setters
        put_context(self, context)
        put_exps(self, exps)
        put_decomposition(self, None)
        put_table(self, None)
        put_pattern(self, None)

    def _key(self):
        return self.context, self._exps

    def __str__(self):
        if not self._exps:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    @property
    def gens(self) -> tuple[Monomial, ...]:
        new, context, out = object.__new__, self.context, []
        put_context, put_exps = Monomial._setters
        for v in self._exps:
            m = new(Monomial)
            put_context(m, context)
            put_exps(m, v)
            out.append(m)
        return tuple(out)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self._exps)

    @property
    def is_zero(self) -> bool:
        return not self._exps

    @property
    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    def _require_proper(self, outcome: str):
        """Raise ValueError("the zero|unit ideal <outcome>") on those two ideals."""
        if not self._exps:
            raise ValueError(f"the zero ideal {outcome}")
        if self.is_unit:
            raise ValueError(f"the unit ideal {outcome}")

    def __contains__(self, m: Monomial) -> bool:
        _require_same_context(self, m)
        return _member(self._exps, m.exps)

    def _levels(self):
        """The `_level_table` of the generators, built on first use and kept."""
        if self._table is None:  # races store equal tables
            object.__setattr__(self, "_table", _level_table(self._exps, self.context.n))
        return self._table

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max over the generators, all zeros for the zero and
        the unit ideal: the witnesses' exponent floors, from the level table,
        or from the pattern, whose top exponent every variable takes."""
        if self._pattern is not None:
            return (self._pattern.exps[-1],) * self.context.n
        return self._levels()[3]

    def colon(self, v: Monomial) -> "MonomialIdeal":
        """The quotient (I : v) by a monomial: the unit ideal when v lies in
        I, found by one membership test before any quotient is built."""
        _require_same_context(self, v)
        if _member(self._exps, v.exps):
            return MonomialIdeal._from_antichain(self.context, [(0,) * self.context.n])
        quotients = (tuple([d if d > 0 else 0 for d in map(sub, g, v.exps)])
                     for g in self._exps)
        return MonomialIdeal._from_exps(self.context, quotients)


def _colon_reaches(masks, above, inside, need) -> bool:
    """The one colon test, (I : v) = P, on bit masks: every `g & above`
    meets inside, and the single bits among them OR to exactly need.

    (I : v) is generated by the g / gcd(g, v), which are nonzero exactly
    where g exceeds v.  With masks the generators' level masks, above the
    levels over v and inside the levels of P's variables, over = g & above
    is where g exceeds v, so the colon lies in P exactly when (a) every over
    meets inside.  Given (a), x_j is in the colon exactly when (b) some g
    exceeds v on x_j alone and by 1: its over is the single level
    (j, v_j + 1), the step level of x_j.  need holds the step levels of P's
    variables, and the caller has checked that each has one, since (b)
    fails for a variable without it.  A single-bit over that meets inside
    is the first level above v_j of some x_j of P, which is then its step
    level, so the single bits OR to need exactly when (b) holds for every
    x_j.  `verify_witness` calls it on the level table.
    `Clutter.witness_base` calls it on the edge masks, with above, inside
    and need all the cover P: an edge exceeds the squarefree t_A,
    A = V \\ P, on its vertices in P, each by 1, and each vertex is its own
    step level.
    """
    hits = 0
    for g in masks:
        over = g & above
        if not over & inside:
            return False
        if not over & (over - 1):
            hits |= over
    return hits == need


def verify_witness(ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial) -> bool:
    """Whether (I : v) equals the prime P, on the ideal's level table: one
    pass over its levels, then `_colon_reaches` over the generator masks,
    without building the colon.

    A monomial from another ring than I raises ContextMismatchError; a prime
    from another ring is never equal to the colon, so the answer is False
    before the level table is read.  An ideal built from a symmetric pattern
    is answered from the pattern alone (`SymmetricPattern._colon_is_prime`),
    without the level table or the masks; the colon kernel is its oracle.

    The pass marks the levels at or below v and the step levels (i, v_i + 1).
    No generator exceeds v by exactly 1 on a variable of P without a step
    level, so that variable fails (b) and the answer is False before the
    masks are read.
    """
    _require_same_context(ideal, v)
    if prime.context is not ideal.context and prime.context != ideal.context:
        return False
    if ideal._pattern is not None:
        return ideal._pattern._colon_is_prime(prime.vars, v.exps)
    levels, var_bits, masks, _ = ideal._levels()
    exps = v.exps
    below = steps = 0
    bit = 1
    for i, e in levels:
        if e <= exps[i]:
            below |= bit
        elif e == exps[i] + 1:
            steps |= bit
        bit <<= 1
    inside = 0
    for i in prime.vars:
        inside |= var_bits[i]
    need = steps & inside  # at most one step level per variable
    if need.bit_count() < len(prime.vars):
        return False
    return _colon_reaches(masks, ~below, inside, need)


class PrimeSupport(_Frozen):
    """A monomial prime ideal, stored as its (sorted, non-empty) variable set."""

    __slots__ = ("context", "vars")

    def __init__(self, context: RingContext, variables: Iterable[int]):
        vs = tuple(sorted(set(_ints(variables, "variable indices must be integers", low=None))))
        if not vs:
            raise ValueError("a prime support needs at least one variable")
        if vs[0] < 0 or vs[-1] >= context.n:
            raise ValueError(f"variable indices {vs} out of range for n={context.n}")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "vars", vs)

    def _key(self):
        return self.context, self.vars

    def __str__(self):
        names = self.context.names
        return "(" + ", ".join(names[i] for i in self.vars) + ")"

    @property
    def is_full_support(self) -> bool:
        return len(self.vars) == self.context.n

    def complement(self) -> tuple[int, ...]:
        inside = set(self.vars)
        return tuple(i for i in range(self.context.n) if i not in inside)

    def as_ideal(self) -> MonomialIdeal:
        gens = (_row(self.context.n, ((i, 1),)) for i in self.vars)
        return MonomialIdeal._from_antichain(self.context, gens)
