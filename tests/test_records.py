"""Value semantics of the small immutable records: equality, hashing,
immutability, repr, copying and pickling, and the validation their
constructors do."""

import copy
import pickle

import pytest

from monowit import (
    BorelReport,
    Clutter,
    ContextMismatchError,
    Decomposition,
    IrreducibleComponent,
    Monomial,
    PrimeSupport,
    ProblemFile,
    RingContext,
    SymmetricPattern,
    UniquenessResult,
    WitnessSpec,
    build_symmetric_ideal,
    exchange_closure,
    irreducible_decomposition,
    is_borel_type,
    parse_problem_file,
    verify_witness,
    witness_from_component,
)
from monowit.rings import MonomialIdeal, _Frozen, _rebuild, _trusted
from util import ctx, ideal, mono


def _spec(*offsets):
    c = ctx(3)
    return WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), *offsets)


class TestWitnessSpec:
    def test_equality(self):
        assert _spec() == _spec()
        assert _spec({1: 2}) == _spec({1: 2})
        assert _spec({1: 2}) != _spec({1: 3})
        assert _spec() != _spec({2: 1})
        c = ctx(3)
        other = WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 3}))
        assert _spec() != other
        assert _spec() != (_spec().prime, _spec().component, {})

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(_spec())

    def test_immutable(self):
        spec = _spec()
        for name in ("prime", "component", "offsets", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, None)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert spec == _spec()

    def test_repr_shows_fields(self):
        text = repr(_spec({1: 4}))
        assert text.startswith("WitnessSpec(")
        for part in ("prime=PrimeSupport((x1))", "component=IrreducibleComponent((x1^2))",
                     "offsets={1: 4}"):
            assert part in text

    def test_default_offsets_are_fresh(self):
        a, b = _spec(), _spec()
        assert a.offsets == {} and b.offsets == {}
        assert a.offsets is not b.offsets

    def test_offsets_are_copied(self):
        c = ctx(3)
        I = ideal(c, "x1^2", "x1*x2^3")
        offsets = {1: 0}
        spec = WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 1}), offsets)
        offsets[1] = -1  # would bypass the check in __init__ if it were kept
        assert spec.offsets == {1: 0}
        v = witness_from_component(I, spec)
        assert v == mono(c, "x2^3")
        assert verify_witness(I, spec.prime, v)

    def test_offsets_are_read_only(self):
        spec = _spec({1: 4})
        with pytest.raises(TypeError):
            spec.offsets[1] = 5
        assert spec.offsets == {1: 4}

    @pytest.mark.parametrize("prime, powers, offsets, message", [
        ([0, 1], {0: 2}, {},
         "component support (0,) does not match prime (x1, x2)"),
        ([0], {0: 2}, {0: 1}, "offset for variable 0 inside the prime"),
        ([0], {0: 2}, {3: 1}, "offset variable index 3 out of range"),
        ([0], {0: 2}, {-1: 1}, "offset variable index -1 out of range"),
        ([0], {0: 2}, {1: -1}, "offsets must be non-negative"),
    ])
    def test_validation_messages(self, prime, powers, offsets, message):
        c = ctx(3)
        with pytest.raises(ValueError) as info:
            WitnessSpec(PrimeSupport(c, prime), IrreducibleComponent(c, powers), offsets)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [4, 1])
    def test_prime_from_another_ring_rejected(self, n):
        with pytest.raises(ContextMismatchError):
            WitnessSpec(PrimeSupport(ctx(n), [0]), IrreducibleComponent(ctx(3), {0: 1}))


@pytest.mark.parametrize("build, message", [
    (lambda: _spec({1: 1.5}), "offset variables and offsets must be integers"),
    (lambda: _spec({1: "2"}), "offset variables and offsets must be integers"),
    (lambda: _spec({"a": 1}), "offset variables and offsets must be integers"),
    (lambda: _spec({1.0: 2}), "offset variables and offsets must be integers"),
], ids=["offset-float", "offset-str", "variable-str", "variable-float"])
def test_non_integer_offsets_rejected_early(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _value_objects(c=None):
    c = c or ctx(3)
    I = ideal(c, "x1^2", "x1*x2")
    return [
        c,
        mono(c, "x1*x2"),
        I,
        PrimeSupport(c, [0, 2]),
        IrreducibleComponent(c, {0: 2}),
        irreducible_decomposition(I),
        Clutter(3, [{0, 1}, {1, 2}]),
        WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), {1: 4}),
        SymmetricPattern(c, (1, 2)),
    ]


def _changed_values(c):
    """Per entry of _value_objects(c), values that differ in one key field."""
    I = ideal(c, "x1^2", "x1*x2")
    components = irreducible_decomposition(I).components
    q = IrreducibleComponent(c, {0: 2})
    return [
        [RingContext(["x1", "x2", "y"])],
        [mono(c, "x1*x3"), mono(ctx(4), "x1*x2")],
        [ideal(c, "x1^2", "x2"), ideal(ctx(4), "x1^2", "x1*x2")],
        [PrimeSupport(c, [0, 1]), PrimeSupport(ctx(4), [0, 2])],
        [IrreducibleComponent(c, {0: 3}), IrreducibleComponent(ctx(4), {0: 2})],
        [Decomposition(components[:1]),
         irreducible_decomposition(ideal(ctx(4), "x1^2", "x1*x2"))],
        [Clutter(3, [{0, 1}, {0, 2}]), Clutter(["a", "b", "c"], [{0, 1}, {1, 2}])],
        [WitnessSpec(q.prime(), q, {1: 5}), WitnessSpec(q.prime(), q)],
        [SymmetricPattern(c, (1, 3)), SymmetricPattern(ctx(4), (1, 2))],
    ]


_REPRS = [
    "RingContext(['x1', 'x2', 'x3'])",
    "Monomial(x1*x2)",
    "MonomialIdeal((x1^2, x1*x2))",
    "PrimeSupport((x1, x3))",
    "IrreducibleComponent((x1^2))",
    "Decomposition((x1) ^ (x1^2, x2))",
    "Clutter({t1,t2}, {t2,t3})",
    "WitnessSpec(prime=PrimeSupport((x1)), component=IrreducibleComponent((x1^2)), "
    "offsets={1: 4})",
    "SymmetricPattern(context=RingContext(['x1', 'x2', 'x3']), exps=(1, 2))",
]


@pytest.mark.parametrize("k", range(9), ids=[type(o).__name__ for o in _value_objects()])
def test_value_equality_hash_and_repr(k):
    obj = _value_objects()[k]
    again = _value_objects(RingContext(3))[k]  # in a ring equal to, not the same as, obj's
    assert again is not obj and again == obj and not again != obj
    if isinstance(obj, WitnessSpec):
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(again) == hash(obj)
    for changed in _changed_values(ctx(3))[k]:
        assert type(changed) is type(obj) and changed != obj and obj != changed
    assert obj.__eq__(object()) is NotImplemented
    for other in _value_objects():
        if type(other) is not type(obj):
            assert obj != other and other != obj
    c = ctx(2)
    for a, b in [(Monomial(c, (1, 2)), SymmetricPattern(c, (1, 2))),
                 (Monomial(c, (0, 1)), PrimeSupport(c, [0, 1]))]:
        if type(obj) in (type(a), type(b)):
            assert a._key() == b._key() and a != b and b != a
    assert repr(obj) == _REPRS[k]


def test_value_classes_share_one_base():
    classes = {type(obj) for obj in _value_objects()}
    assert len(classes) == 9 and all(issubclass(cls, _Frozen) for cls in classes)


_SLOTS = [(obj, name) for obj in _value_objects() for name in type(obj).__slots__]
# Read-only properties that stand for stored fields: ``MonomialIdeal.gens`` is
# rebuilt from ``_exps`` and ``Clutter.edges`` from ``_masks`` on each read, and
# ``RingContext.names`` reads ``_names``, which a ring given its size fills on
# first read, so each must be guarded like a slot.
_SLOTS += [(obj, "gens") for obj in _value_objects() if type(obj) is MonomialIdeal]
_SLOTS += [(obj, "edges") for obj in _value_objects() if type(obj) is Clutter]
_SLOTS += [(obj, "names") for obj in _value_objects() if type(obj) is RingContext]


@pytest.mark.parametrize("obj, name", _SLOTS,
                         ids=[f"{type(obj).__name__}-{name}" for obj, name in _SLOTS])
def test_slots_cannot_be_deleted(obj, name):
    before = getattr(obj, name)
    message = f"^{type(obj).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        delattr(obj, name)
    with pytest.raises(AttributeError, match=message):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match=message):
        setattr(obj, "unknown", None)
    if name in type(obj).__slots__:
        assert getattr(obj, name) is before
    else:
        assert getattr(obj, name) == before


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def _cached_ideals():
    """Ideals whose caches the library filled through the slot setters: a
    decomposed ideal (its decomposition and level table), a symmetric ideal
    (its pattern and the pattern's decomposition) and an exchange closure
    (decomposed, with its level table)."""
    decomposed = ideal(ctx(4), "x1^2*x2", "x2^3*x3", "x1*x4^2", "x3^2")
    symmetric = build_symmetric_ideal(SymmetricPattern(ctx(4), (1, 2, 2)))
    closure = exchange_closure(ideal(ctx(3), "x2*x3^2", "x1^3"))
    for I in (decomposed, symmetric, closure):
        irreducible_decomposition(I)
        I.max_exponents()
    return [decomposed, symmetric, closure]


def _copied_objects():
    return _value_objects() + _cached_ideals()


_COPIED_IDS = [type(o).__name__ for o in _value_objects()] + [
    "MonomialIdeal-decomposed", "MonomialIdeal-symmetric", "MonomialIdeal-closure"]


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("k", range(len(_COPIED_IDS)), ids=_COPIED_IDS)
def test_values_copy_and_pickle(k, how):
    obj = _copied_objects()[k]
    again = _COPIES[how](obj)
    assert (again is obj) == (how != "pickle")  # an immutable value is its own copy
    assert type(again) is type(obj) and again == obj and repr(again) == repr(obj)
    if not isinstance(obj, WitnessSpec):
        assert hash(again) == hash(obj)
    for name in type(obj).__slots__:  # the caches too
        assert getattr(again, name) == getattr(obj, name)
    if isinstance(obj, MonomialIdeal) and obj._decomposition is not None:
        d = again._decomposition
        assert irreducible_decomposition(again) is d and d.primes() == obj._decomposition.primes()
        assert list(d._by_support.items()) == list(obj._decomposition._by_support.items())
        assert (again._pattern is None) == (obj._pattern is None)
    with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
        setattr(again, type(obj).__slots__[0], None)


class _PlainSubclass(PrimeSupport):
    """A value subclass without its own `__slots__`."""


@pytest.mark.parametrize("k", range(9), ids=[type(o).__name__ for o in _value_objects()])
def test_setters_are_the_slot_descriptors_in_order(k):
    cls = type(_value_objects()[k])
    assert len(cls._setters) == len(cls.__slots__)
    for put, name in zip(cls._setters, cls.__slots__):
        assert put.__self__ is cls.__dict__[name]  # the class's own descriptor


def test_subclass_without_slots_fills_through_its_base():
    c = ctx(3)
    assert _PlainSubclass._setters == PrimeSupport._setters
    made = _trusted(_PlainSubclass, c, (0, 2))
    assert type(made) is _PlainSubclass and made.vars == (0, 2) and made.context is c
    assert made != PrimeSupport(c, [0, 2])  # another type
    again = pickle.loads(pickle.dumps(made))
    assert type(again) is _PlainSubclass and again == made
    with pytest.raises(AttributeError, match="^_PlainSubclass is immutable$"):
        setattr(made, "vars", (1,))


def _public_builds():
    """(class, its public constructor's arguments, the trusted build of a
    value's slots) for every value class; a sized and a named ring both."""
    c = ctx(3)
    q = IrreducibleComponent(c, {0: 2})
    pair = lambda cls, v: _trusted(cls, v.context, getattr(v, cls.__slots__[1]))
    every = lambda cls, v: _rebuild(cls, tuple(getattr(v, name) for name in cls.__slots__))
    return [
        (RingContext, (3,), every),
        (RingContext, (["a", "b"],), every),
        (Monomial, (c, [1, 0, 2]), pair),
        (MonomialIdeal, (c, [mono(c, "x1^2"), mono(c, "x1*x2"), mono(c, "x1^3")]),
         lambda cls, v: cls._from_exps(v.context, v._exps)),
        (PrimeSupport, (c, [2, 0, 2]), pair),
        (IrreducibleComponent, (c, {1: 3, 0: 2}), every),
        (Decomposition, ([q, IrreducibleComponent(c, {1: 1})],), every),
        (Clutter, (3, [{1, 2}, {0, 1}]), lambda cls, v: cls._from_masks(v.context, v._masks)),
        (WitnessSpec, (q.prime(), q, {2: 1}), every),
        (SymmetricPattern, (c, [1, 2]), pair),
    ]


# a subclass of each value class, without its own `__slots__`, found by
# pickle under its name in this module
_SUBCLASSES = {cls: type(f"_Sub{cls.__name__}", (cls,), {"__module__": __name__})
               for cls in {cls for cls, _, _ in _public_builds()}}
globals().update({sub.__name__: sub for sub in _SUBCLASSES.values()})


@pytest.mark.parametrize("k", range(10), ids=[
    f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(_public_builds())])
def test_public_constructor_builds_the_subclass_it_is_called_on(k):
    """Each public constructor checks, then returns the trusted build of the
    class it is called on: the same slots, and the same copies and pickles."""
    cls, args, trusted = _public_builds()[k]
    sub = _SUBCLASSES[cls]
    made, plain = sub(*args), cls(*args)
    assert type(made) is sub  # and its slots, read before any cache is filled, are the base's
    assert [getattr(made, n) for n in cls.__slots__] == [getattr(plain, n) for n in cls.__slots__]
    assert made == trusted(sub, made) and made != plain
    for how, copied in _COPIES.items():
        again = copied(made)
        assert type(again) is sub and again == made and repr(again) == repr(made)
        assert (again is made) == (how != "pickle")


@pytest.mark.parametrize("how", _COPIES)
def test_caches_travel_with_the_copy(how):
    I = ideal(ctx(4), "x1^2*x2", "x2^3*x3", "x1*x4^2")
    decomposition = irreducible_decomposition(I)
    I.max_exponents()
    clutter = Clutter(4, [{0, 1}, {1, 2}, {2, 3}])
    clutter.maximal_stable_sets()  # stores the edge ideal and the covers
    again = _COPIES[how](I)
    assert again == I and again._table == I._table is not None
    assert again._decomposition == decomposition
    assert irreducible_decomposition(again) is again._decomposition
    assert again._decomposition.primes() == decomposition.primes()
    with pytest.raises(AttributeError, match="^MonomialIdeal is immutable$"):
        setattr(again, "_decomposition", None)
    copied = _COPIES[how](clutter)
    assert copied == clutter and copied._covers == clutter._covers
    assert copied._ideal == clutter.edge_ideal()
    assert copied._ideal._decomposition == clutter.edge_ideal()._decomposition
    assert copied.maximal_stable_sets() == clutter.maximal_stable_sets()


class TestSymmetricPattern:
    def test_stores_a_tuple(self):
        assert SymmetricPattern(ctx(3), [1, 2]).exps == (1, 2)

    def test_equality_and_hash(self):
        a = SymmetricPattern(ctx(3), (1, 3, 3))
        b = SymmetricPattern(ctx(3), [1, 3, 3])
        assert a == b and hash(a) == hash(b)
        assert a != SymmetricPattern(ctx(3), (1, 2, 3))
        assert a != SymmetricPattern(ctx(4), (1, 3, 3))
        assert a != (ctx(3), (1, 3, 3))
        assert len({a, b}) == 1

    def test_immutable(self):
        pattern = SymmetricPattern(ctx(3), (1, 2))
        for name in ("context", "exps", "other"):
            with pytest.raises(AttributeError):
                setattr(pattern, name, None)
            with pytest.raises(AttributeError):
                delattr(pattern, name)
        assert pattern.exps == (1, 2)

    def test_repr_shows_fields(self):
        assert repr(SymmetricPattern(ctx(2), (1, 2))) == (
            "SymmetricPattern(context=RingContext(['x1', 'x2']), exps=(1, 2))")

    @pytest.mark.parametrize("n, exps, message", [
        (3, (), "the exponent list must be non-empty"),
        (3, (0, 1), "exponents must be positive"),
        (3, (3, 1), "exponents must be non-decreasing"),
        (2, (1, 2, 3), "3 exponents cannot be placed on 2 variables"),
    ])
    def test_validation_messages(self, n, exps, message):
        with pytest.raises(ValueError) as info:
            SymmetricPattern(ctx(n), exps)
        assert str(info.value) == message


class TestUniquenessResult:
    def test_value_semantics(self):
        v, w = mono(ctx(2), "x1"), mono(ctx(2), "x2")
        a = UniquenessResult(True, (v,))
        assert a == UniquenessResult(True, (v,))
        assert hash(a) == hash(UniquenessResult(True, (v,)))
        assert a != UniquenessResult(False, (v,))
        assert a != UniquenessResult(True, (w,))
        with pytest.raises(AttributeError):
            a.unique = False
        with pytest.raises(AttributeError):
            del a.unique
        assert repr(a) == "UniquenessResult(unique=True, witnesses=(Monomial(x1),))"


class TestBorelReport:
    def test_value_semantics(self):
        c = ctx(2)
        positive = is_borel_type(ideal(c, "x1^2", "x1*x2"))
        assert positive == is_borel_type(ideal(c, "x1^2", "x1*x2"))
        assert hash(positive) == hash(is_borel_type(ideal(c, "x1^2", "x1*x2")))
        negative = is_borel_type(ideal(c, "x2"))
        assert negative != positive
        assert negative == BorelReport(False, certificate=(mono(c, "x2"), 1, 0))
        assert negative.primes is None and positive.certificate is None
        with pytest.raises(AttributeError):
            positive.is_borel_type = False
        with pytest.raises(AttributeError):
            del positive.is_borel_type
        assert repr(negative) == (
            "BorelReport(is_borel_type=False, certificate=(Monomial(x2), 1, 0), "
            "primes=None)")


class TestProblemFile:
    def test_value_semantics(self):
        text = "ring n=2\nideal I = x1^2, x2\n"
        problem = parse_problem_file(text)
        assert problem == parse_problem_file(text)
        assert hash(problem) == hash(parse_problem_file(text))
        assert problem != parse_problem_file("ring n=2\nideal I = x1\n")
        assert problem == ProblemFile(ctx(2), ideal(ctx(2), "x1^2", "x2"), None, None)
        with pytest.raises(AttributeError):
            problem.ideal = None
        with pytest.raises(AttributeError):
            del problem.ideal
        assert repr(problem) == (
            "ProblemFile(context=RingContext(['x1', 'x2']), "
            "ideal=MonomialIdeal((x1^2, x2)), clutter=None, pattern=None)")
