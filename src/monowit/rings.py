"""Exact arithmetic on monomials and monomial ideals.

Everything is combinatorics on exponent vectors: a monomial is a tuple of
non-negative integers over a fixed ambient ring context, a monomial ideal is
its unique minimal generating set in a canonical order, and every operation
(divisibility, membership, colon, intersection) is a pure function on those
tuples.  The coefficient field is never represented.

An ideal stores only its exponent tuples; `gens` builds the `Monomial`s on
each read.  Library-built values skip validation through the trusted
constructor beside their class.  All value classes inherit `_Frozen`, which
gives them immutability, equality, hashing and the default repr; outside
integers are checked and converted by `_ints`.
"""

from __future__ import annotations

from functools import reduce
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


class _Frozen:
    """Base of the value classes.  Each class states its identity in
    `_key()`: two values are equal exactly when they have the same type and
    equal keys, and a value hashes as its key.  Each constructor fills the
    slots through object.__setattr__, and every later assignment or deletion
    raises."""

    __slots__ = ()

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
    """Ambient polynomial ring: a number of variables plus display names."""

    __slots__ = ("names",)

    def __init__(self, names_or_size: Union[int, Iterable[str]]):
        if isinstance(names_or_size, int):
            names = tuple(f"x{i + 1}" for i in range(names_or_size))
        else:
            names = tuple(names_or_size)
        if not names:
            raise ValueError("a ring context needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.names)

    def _key(self):
        return self.names

    def __repr__(self):
        return f"RingContext({list(self.names)!r})"

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    @property
    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def variable(self, i: int) -> "Monomial":
        return self.monomial_from_powers({i: 1})

    def monomial(self, exps: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exps))

    def monomial_from_powers(self, powers: Mapping[int, int]) -> "Monomial":
        exps = [0] * self.n
        for i, e in zip(_ints(powers, "variable index {} out of range", high=self.n),
                        powers.values()):
            exps[i] = e
        return Monomial(self, tuple(exps))


def _require_same_context(a, b):
    if a.context != b.context:
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

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def exponent(self, i: int) -> int:
        return self.exps[i]

    def support(self) -> tuple[int, ...]:
        """Indices of the variables dividing this monomial."""
        return tuple(i for i, e in enumerate(self.exps) if e)

    def divides(self, other: "Monomial") -> bool:
        _require_same_context(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))


def _trusted_monomial(context: RingContext, exps: tuple[int, ...]) -> Monomial:
    """A Monomial on a tuple of non-negative ints of the ring's length."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "context", context)
    object.__setattr__(m, "exps", exps)
    return m


def _minimize_exps(vectors: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Keep the divisibility-minimal exponent vectors, in descending lex order.

    Scanning by total degree first means nothing seen later can divide an
    earlier survivor, so one forward pass suffices.  A survivor can divide v
    only if its support is inside v's, which a bitmask test settles first.
    """
    ordered = sorted(set(vectors), key=lambda v: (sum(v), v))
    keep: list[tuple[int, tuple[int, ...]]] = []  # (support mask, vector)
    for v in ordered:
        mask = sum(1 << i for i, e in enumerate(v) if e)
        for k_mask, k in keep:
            if not k_mask & ~mask and all(map(le, k, v)):
                break
        else:
            keep.append((mask, v))
    return tuple(sorted((k for _, k in keep), reverse=True))


class MonomialIdeal(_Frozen):
    """A monomial ideal, held as the exponent tuples of its minimal
    generators in descending lex order.

    The constructor minimizes and sorts, so equality of ideals is structural
    equality of the stored tuples.  `gens` builds the generators as
    `Monomial`s on each read.  The zero ideal has no generators; the unit
    ideal is generated by 1.  `_decomposition` is filled by
    `decompose.irreducible_decomposition` on first use.
    """

    __slots__ = ("context", "_exps", "_decomposition")

    def __init__(self, context: RingContext, gens: Iterable[Monomial]):
        gens = tuple(gens)
        for g in gens:
            if g.context != context:
                raise ContextMismatchError(
                    f"generator {g!r} does not live in {context!r}"
                )
        self._set(context, _minimize_exps(g.exps for g in gens))

    @classmethod
    def _from_exps(cls, context: RingContext, vectors, minimal=False) -> "MonomialIdeal":
        """Trusted constructor for exponent tuples the library built itself:
        nothing is validated, and with minimal=True (the caller guarantees an
        antichain) the vectors are only deduplicated and sorted."""
        ideal = object.__new__(cls)
        exps = sorted(set(vectors), reverse=True) if minimal else _minimize_exps(vectors)
        ideal._set(context, tuple(exps))
        return ideal

    def _set(self, context: RingContext, exps: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_decomposition", None)

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

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """Whether other is a subset of this ideal."""
        _require_same_context(self, other)
        return all(map(self._contains_exps, other._exps))

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max over the generators (all zeros for the zero ideal)."""
        if not self._exps:
            return (0,) * self.context.n
        return tuple(map(max, zip(*self._exps)))

    def colon(self, other: Union[Monomial, "MonomialIdeal"]) -> "MonomialIdeal":
        """The quotient (I : v) by a monomial, or (I : J) by a nonzero ideal,
        which is the intersection of the (I : v) over the generators v of J."""
        _require_same_context(self, other)
        if isinstance(other, Monomial):
            return self._colon_exps(other.exps)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is undefined")
        return reduce(MonomialIdeal.intersect, map(self._colon_exps, other._exps))

    def _colon_exps(self, v: tuple[int, ...]) -> "MonomialIdeal":
        quotients = (tuple([d if d > 0 else 0 for d in map(sub, g, v)])
                     for g in self._exps)
        return MonomialIdeal._from_exps(self.context, quotients)

    def _colon_is_prime(self, v: tuple[int, ...], prime_vars: tuple[int, ...]) -> bool:
        """Whether (I : x^v) equals the prime P on prime_vars, in one pass
        over the generators and without building the colon.

        (I : x^v) is generated by the g / gcd(g, x^v), which are nonzero
        exactly where g exceeds v.  So it lies in P exactly when (a) every g
        exceeds v on some variable of P.  Given (a), x_i is in it exactly when
        (b) some g divides x_i * x^v, that is, exceeds v on x_i alone and by 1.
        """
        mask = 0
        for i in prime_vars:
            mask |= 1 << i
        reached = 0  # the variables of P that (b) has shown lie in the colon
        for g in self._exps:
            over = 0  # where g exceeds v
            bit = 1
            last = 0  # the excess at the last such variable
            for a, b in zip(g, v):
                if a > b:
                    over |= bit
                    last = a - b
                bit <<= 1
            if not over & mask:
                return False
            if last == 1 and not over & (over - 1):
                reached |= over
        return reached == mask

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _require_same_context(self, other)
        return MonomialIdeal._from_exps(
            self.context,
            (tuple(map(max, u, w)) for u in self._exps for w in other._exps),
        )

    __and__ = intersect

    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self._exps for e in g)


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

    def __len__(self) -> int:
        return len(self.vars)

    @property
    def is_full_support(self) -> bool:
        return len(self.vars) == self.context.n

    def complement(self) -> tuple[int, ...]:
        inside = set(self.vars)
        return tuple(i for i in range(self.context.n) if i not in inside)

    def as_ideal(self) -> MonomialIdeal:
        n = self.context.n
        return MonomialIdeal._from_exps(
            self.context,
            (tuple([1 if t == i else 0 for t in range(n)]) for i in self.vars),
            minimal=True,
        )


def _trusted_prime(context: RingContext, vs: tuple[int, ...]) -> PrimeSupport:
    """A PrimeSupport on indices already sorted, distinct and in range."""
    prime = object.__new__(PrimeSupport)
    object.__setattr__(prime, "context", context)
    object.__setattr__(prime, "vars", vs)
    return prime
