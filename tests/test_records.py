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
    irreducible_decomposition,
    is_borel_type,
    parse_problem_file,
    verify_witness,
    witness_from_component,
)
from monowit.rings import MonomialIdeal, _Frozen
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
# rebuilt from ``_exps`` and ``Clutter.edges`` from ``_masks`` on each read, so
# each must be guarded like a slot.
_SLOTS += [(obj, "gens") for obj in _value_objects() if type(obj) is MonomialIdeal]
_SLOTS += [(obj, "edges") for obj in _value_objects() if type(obj) is Clutter]


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


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("k", range(9), ids=[type(o).__name__ for o in _value_objects()])
def test_values_copy_and_pickle(k, how):
    obj = _value_objects()[k]
    again = _COPIES[how](obj)
    assert (again is obj) == (how != "pickle")  # an immutable value is its own copy
    assert type(again) is type(obj) and again == obj and repr(again) == repr(obj)
    if not isinstance(obj, WitnessSpec):
        assert hash(again) == hash(obj)
    with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
        setattr(again, type(obj).__slots__[0], None)


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
