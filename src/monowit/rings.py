"""Exact arithmetic on monomials and monomial ideals.

Everything is combinatorics on exponent vectors: a monomial is a tuple of
non-negative integers over a fixed ambient ring context, a monomial ideal is
its unique minimal generating set in a canonical order, and every operation
(membership, colon by a monomial) is a pure function on those tuples.  The
coefficient field is never represented.

A ring context owns its names and their one name -> index table.  An ideal
stores only its exponent tuples, minimized by `_minimize_exps` whichever
constructor built it; `gens` builds the `Monomial`s on each read.  It keeps
its level table (`_level_table`) once first read, as it keeps its
decomposition; the decomposition engine, the Borel exchange kernel, the
witness floors (`max_exponents`) and `verify_witness`, the colon test behind
every witness verification, all read it.  Library-built values skip
validation through the trusted constructor beside their class.  All value
classes inherit `_Frozen`: immutability, equality, hashing, the default
repr, copying and pickling.  `_ints` checks and converts outside integers,
and `_by_index` refuses a mapping whose keys name one index twice.
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


def _by_index(indices: tuple[int, ...], values) -> dict:
    """dict(zip(indices, values)) for keys already read by `_ints`.  Keys
    that are distinct to their mapping can still name one index, which raises."""
    out = dict(zip(indices, values))
    if len(out) < len(indices):
        twice = next(i for i in indices if indices.count(i) > 1)
        raise ValueError(f"variable index {twice} is given more than once")
    return out


def _rebuild(cls, slots: tuple):
    """A `cls` whose slots hold `slots`, in `cls.__slots__` order: how
    `_Frozen.__reduce__` unpickles a value, with its caches."""
    value = object.__new__(cls)
    for name, slot in zip(cls.__slots__, slots):
        object.__setattr__(value, name, slot)
    return value


class _Frozen:
    """Base of the value classes.  Each class states its identity in
    `_key()`: two values are equal exactly when they have the same type and
    equal keys, and a value hashes as its key.  Each constructor fills the
    slots through object.__setattr__, and every later assignment or deletion
    raises, so `copy` and `deepcopy` return the value itself.  `pickle` goes
    through `__reduce__`, which hands every slot to `_rebuild`."""

    __slots__ = ()

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

    A name is a str matching [A-Za-z_][A-Za-z0-9_]*, so that every monomial
    prints and parses back; generated names x1..xn are not checked.  Every
    name the library reads resolves through `_index`, built once."""

    __slots__ = ("names", "n", "_index")

    def __init__(self, names_or_size: Union[int, Iterable[str]]):
        if isinstance(names_or_size, int):
            names = tuple(f"x{i + 1}" for i in range(names_or_size))
        else:
            try:
                if isinstance(names_or_size, str):  # not one name per character
                    raise TypeError
                names = tuple(names_or_size)
            except TypeError:
                raise ValueError(
                    f"a ring context needs a size or variable names, not {names_or_size!r}"
                ) from None
            for name in names:
                if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
                    raise ValueError(f"invalid variable name {name!r}")
        if not names:
            raise ValueError("a ring context needs at least one variable")
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "n", len(names))
        object.__setattr__(self, "_index", index)

    def _key(self):
        return self.names

    def __repr__(self):
        return f"RingContext({list(self.names)!r})"

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown variable {name!r}") from None

    @property
    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def monomial(self, exps: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exps))

    def monomial_from_powers(self, powers: Mapping[int, int]) -> "Monomial":
        try:
            values = powers.values()
        except AttributeError:
            raise ValueError("powers must be a mapping from variable index to exponent") from None
        exps = [0] * self.n
        indices = _ints(powers, "variable index {} out of range", high=self.n)
        for i, e in _by_index(indices, values).items():
            exps[i] = e
        return Monomial(self, tuple(exps))


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


def _trusted_monomial(context: RingContext, exps: tuple[int, ...]) -> Monomial:
    """A Monomial on a tuple of non-negative ints of the ring's length."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "context", context)
    object.__setattr__(m, "exps", exps)
    return m


def _minimize_exps(vectors: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal vectors in descending lex order, for every
    ideal.  Only a vector of lower degree can divide v, so a set of one
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


class MonomialIdeal(_Frozen):
    """A monomial ideal, held as the exponent tuples of its minimal
    generators in descending lex order.

    The constructor minimizes and sorts, so equality of ideals is structural
    equality of the stored tuples.  `gens` builds the generators as
    `Monomial`s on each read.  The zero ideal has no generators; the unit
    ideal is generated by 1.  `_decomposition` is filled by
    `decompose.irreducible_decomposition` on first use, and `_table` by
    `_levels`: the ideal keeps both, and they are freed with it.
    """

    __slots__ = ("context", "_exps", "_decomposition", "_table")

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

    def _set(self, context: RingContext, exps: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_decomposition", None)
        object.__setattr__(self, "_table", None)

    def _key(self):
        return self.context, self._exps

    def __str__(self):
        if not self._exps:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    @property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(_trusted_monomial(self.context, v) for v in self._exps)

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

    def __contains__(self, m: Monomial) -> bool:
        _require_same_context(self, m)
        return self._contains_exps(m.exps)

    def _contains_exps(self, v: tuple[int, ...]) -> bool:
        return any(all(map(le, g, v)) for g in self._exps)

    def _levels(self):
        """The `_level_table` of the generators, built on first use and kept."""
        if self._table is None:  # races store equal tables
            object.__setattr__(self, "_table", _level_table(self._exps, self.context.n))
        return self._table

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max over the generators, all zeros for the zero and
        the unit ideal: the witnesses' exponent floors, from the level table."""
        return self._levels()[3]

    def colon(self, v: Monomial) -> "MonomialIdeal":
        """The quotient (I : v) by a monomial."""
        _require_same_context(self, v)
        quotients = (tuple([d if d > 0 else 0 for d in map(sub, g, v.exps)])
                     for g in self._exps)
        return MonomialIdeal._from_exps(self.context, quotients)


def verify_witness(ideal: MonomialIdeal, prime: PrimeSupport, v: Monomial) -> bool:
    """Whether (I : v) equals the prime P, on the ideal's level table: one
    pass over its levels, then one AND per generator mask, without building
    the colon.

    A monomial from another ring than I raises ContextMismatchError; a prime
    from another ring is never equal to the colon, so the answer is False
    before the level table is read.

    (I : x^v) is generated by the g / gcd(g, x^v), which are nonzero
    exactly where g exceeds v.  The levels (i, e) with v_i < e <= g_i
    are the bits of over = mask(g) & ~below, below being the levels at or
    under v.  So the colon lies in P exactly when (a) every over meets
    the bits of P's variables.  Given (a), x_i is in it exactly when (b)
    some g divides x_i * x^v, that is, exceeds v on x_i alone and by 1:
    its over is the single bit of the level (i, v_i + 1).
    """
    _require_same_context(ideal, v)
    if prime.context is not ideal.context and prime.context != ideal.context:
        return False
    levels, var_bits, masks, _ = ideal._levels()
    exps = v.exps
    inside = target = 0
    for i in prime.vars:
        inside |= var_bits[i]
        target |= 1 << i
    below = 0
    step = {}  # the bit of a level (i, v_i + 1) -> 1 << i; (a) rules out i outside P
    bit = 1
    for i, e in levels:
        if e <= exps[i]:
            below |= bit
        elif e == exps[i] + 1:
            step[bit] = 1 << i
        bit <<= 1
    above = ~below
    reached = 0  # the variables of P that (b) has shown lie in the colon
    for g in masks:
        over = g & above
        if not over & inside:
            return False
        reached |= step.get(over, 0)
    return reached == target


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
        n = self.context.n
        gens = (tuple([1 if t == i else 0 for t in range(n)]) for i in self.vars)
        return MonomialIdeal._from_exps(self.context, gens)


def _trusted_prime(context: RingContext, vs: tuple[int, ...]) -> PrimeSupport:
    """A PrimeSupport on indices already sorted, distinct and in range."""
    prime = object.__new__(PrimeSupport)
    object.__setattr__(prime, "context", context)
    object.__setattr__(prime, "vars", vs)
    return prime
