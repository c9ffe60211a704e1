"""Core monomial and ideal arithmetic, checked against definitional oracles."""

import ast
import copy
import itertools
import pickle
import random
import sys
import threading
from collections.abc import Mapping
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import monowit
from monowit import (
    Clutter,
    ContextMismatchError,
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingContext,
    SymmetricPattern,
    WitnessSpec,
    associated_primes,
    build_symmetric_ideal,
    exchange_closure,
    irreducible_decomposition,
    parse_monomial,
    symmetric_witness,
)
from monowit.rings import _member, _minimize_exps
from util import (
    borel_closure_seeds,
    box_bounds,
    box_corpus,
    box_exponents,
    clutter_corpus,
    ctx,
    graph_corpus,
    ideal,
    ideals,
    intersect,
    mono,
    monomials,
    oracle_colon_by_ideal,
    oracle_member,
    oracle_minimal_subset,
    oracle_radical,
    session_ideal,
    six_var_ideal,
    tiny_corpus,
    tuple_colon,
    variable,
    witness_corpus,
)


class TestRingContext:
    def test_default_names(self):
        assert ctx(3).names == ("x1", "x2", "x3")

    def test_explicit_names(self):
        r = RingContext(["a", "b"])
        assert r.n == 2 and r.index_of("b") == 1

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            RingContext(0)
        with pytest.raises(ValueError):
            RingContext(["a", "a"])

    @pytest.mark.parametrize("arg, message", [
        ([1, 2], "invalid variable name 1"),
        (["a", ""], "invalid variable name ''"),
        (["a b"], "invalid variable name 'a b'"),
        (["1x"], "invalid variable name '1x'"),
        (["\u00e9"], "invalid variable name '\u00e9'"),
        ((b"x",), "invalid variable name b'x'"),
        (2.0, "a ring context needs a size or variable names, not 2.0"),
        (None, "a ring context needs a size or variable names, not None"),
        ("xy", "a ring context needs a size or variable names, not 'xy'"),
    ], ids=["ints", "empty-name", "space", "leading-digit", "non-ascii", "bytes",
            "float-size", "none", "one-string"])
    def test_rejects_names_that_cannot_print_or_parse(self, arg, message):
        with pytest.raises(ValueError) as info:
            RingContext(arg)
        assert str(info.value) == message

    def test_n_is_a_frozen_slot(self):
        for r in (ctx(4), RingContext(["a", "_b", "c9"])):
            assert r.n == len(r.names)
        with pytest.raises(AttributeError, match="^RingContext is immutable$"):
            r.n = 5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ctx(2).index_of("y")

    @pytest.mark.parametrize("name", ["y", ["x1"], None], ids=["str", "unhashable", "none"])
    def test_unknown_name_message(self, name):
        with pytest.raises(ValueError) as info:
            ctx(2).index_of(name)
        assert str(info.value) == f"unknown variable {name!r}"


class TestSizedRing:
    """A ring given its size keeps only n; its names x1..xn and their table
    are built together on first read, and it is the ring that names them."""

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_equals_and_hashes_like_the_ring_that_names_x1_to_xn(self, n):
        sized = RingContext(n)
        assert sized._names is None and sized._index is None
        named = RingContext([f"x{i + 1}" for i in range(n)])
        assert sized == named and named == sized and not sized != named
        assert hash(sized) == hash(named)
        assert len({sized, named, RingContext(n)}) == 1
        assert sized._names == named.names and sized._index == named._index

    def test_differs_from_rings_of_other_sizes_or_names(self):
        assert RingContext(3) != RingContext(4)
        assert RingContext(2) != RingContext(["x1", "y"])
        assert RingContext(["x2", "x1"]) != RingContext(2)

    @pytest.mark.parametrize("read", [
        str, repr, lambda r: r.names, lambda r: r.index_of("x2"),
        lambda r: parse_monomial("x2", r), lambda r: r == RingContext(3),
        lambda r: hash(r)], ids=["str", "repr", "names", "index_of", "parse", "eq", "hash"])
    def test_every_read_builds_names_and_table_together(self, read):
        r = RingContext(3)
        read(r)
        assert r._names == ("x1", "x2", "x3")
        assert r._index == {"x1": 0, "x2": 1, "x3": 2}

    def test_size_only_reads_build_nothing(self):
        r = RingContext(5)
        r.one, r.monomial((1, 0, 0, 0, 2)), r.monomial_from_powers({4: 3})
        assert r == r and r.n == 5 and Monomial(r, (0,) * 5) in MonomialIdeal(r, [r.one])
        assert r._names is None and r._index is None

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_copies_of_an_unread_ring_stay_unread_and_equal(self, how):
        copies = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                  "copy": copy.copy, "deepcopy": copy.deepcopy}
        r = RingContext(4)
        again = copies[how](r)
        assert again._names is None and again._index is None and again.n == 4
        assert r._names is None and r._index is None
        assert again == r and hash(again) == hash(r)
        assert again.names == r.names == ("x1", "x2", "x3", "x4")

    def test_a_read_ring_pickles_with_its_names(self):
        r = RingContext(2)
        r.index_of("x1")
        again = pickle.loads(pickle.dumps(r))
        assert again._names == ("x1", "x2") and again._index == {"x1": 0, "x2": 1}

    def test_threads_racing_to_the_first_read_all_see_names_and_table(self):
        # the names are stored before the table, so no reader that finds the
        # table sees the names unset; races store equal values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                r = RingContext(50)
                start = threading.Barrier(8)
                seen = []

                def read(k):
                    start.wait(timeout=10)
                    names = [r.names for _ in range(20)]
                    seen.append((r.index_of(f"x{k + 1}"), names.count(names[-1])))

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert sorted(seen) == [(k, 20) for k in range(8)]
                assert r.names == tuple(f"x{i + 1}" for i in range(50))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size", [0, -3, False, pytest.param([], id="empty-list"),
                                      pytest.param((), id="empty-tuple")])
    def test_sizes_below_one_are_refused(self, size):
        with pytest.raises(ValueError, match="^a ring context needs at least one variable$"):
            RingContext(size)

    def test_a_true_size_is_the_int_one(self):
        r = RingContext(True)
        assert type(r.n) is int and r.n == 1 and r.names == ("x1",)


def test_zero_ideal_prints_as_zero():
    assert str(MonomialIdeal(ctx(2), ())) == "(0)"


def test_prime_support_index_out_of_range():
    with pytest.raises(ValueError) as info:
        PrimeSupport(RingContext(2), [5])
    assert str(info.value) == "variable indices (5,) out of range for n=2"


@pytest.mark.parametrize("build, message", [
    (lambda c: Monomial(c, ("a", 1)), "exponents must be non-negative integers"),
    (lambda c: Monomial(c, (None, 0)), "exponents must be non-negative integers"),
    (lambda c: Monomial(c, (1.5, 0)), "exponents must be non-negative integers"),
    (lambda c: Monomial(c, (-1, 0)), "exponents must be non-negative integers"),
    (lambda c: IrreducibleComponent(c, {0: 1.5}),
     "pure-power exponents must be positive integers"),
    (lambda c: IrreducibleComponent(c, {0: "2"}),
     "pure-power exponents must be positive integers"),
    (lambda c: IrreducibleComponent(c, {0: None}),
     "pure-power exponents must be positive integers"),
    (lambda c: IrreducibleComponent(c, {0: 0}),
     "pure-power exponents must be positive integers"),
    (lambda c: SymmetricPattern(c, [1.5, 2]), "exponents must be positive"),
    (lambda c: SymmetricPattern(c, ["a"]), "exponents must be positive"),
    (lambda c: symmetric_witness(SymmetricPattern(c, [1, 2]), 0.0, [0], [2]),
     "value_index 0.0 out of range"),
    (lambda c: symmetric_witness(SymmetricPattern(c, [1, 2]), 0, [0], ["a"]),
     "complement exponent a is not an integer"),
    (lambda c: symmetric_witness(SymmetricPattern(c, [1, 2]), 0, [0], [None]),
     "complement exponent None is not an integer"),
    (lambda c: symmetric_witness(SymmetricPattern(c, [1, 2]), 0, [0], [2.5]),
     "complement exponent 2.5 is not an integer"),
], ids=[
    "monomial-str", "monomial-none", "monomial-float", "monomial-negative",
    "component-float", "component-str", "component-none", "component-zero",
    "pattern-float", "pattern-str", "value-index-float", "b-str", "b-none", "b-float",
])
def test_exponents_must_be_integers(build, message):
    with pytest.raises(ValueError) as info:
        build(ctx(2))
    assert str(info.value) == message


class _Index:
    """An integer type that is not int, such as numpy.int64."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("build, read, expected", [
    (lambda c: Monomial(c, (_Index(2), True)), lambda m: m.exps, (2, 1)),
    (lambda c: c.monomial_from_powers({_Index(1): 3}), lambda m: m.exps, (0, 3)),
    (lambda c: PrimeSupport(c, [_Index(1), False]), lambda p: p.vars, (0, 1)),
    (lambda c: IrreducibleComponent(c, {_Index(1): _Index(2), False: True}),
     lambda q: sum(q.pairs, ()), (0, 1, 1, 2)),
    (lambda c: WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}),
                           {_Index(1): True}),
     lambda s: sum(s.offsets.items(), ()), (1, 1)),
    (lambda c: SymmetricPattern(c, [True, _Index(2)]), lambda p: p.exps, (1, 2)),
    (lambda c: symmetric_witness(SymmetricPattern(c, [1, 2]), _Index(0), [0], [2]),
     lambda pv: pv[1].exps, (0, 2)),
    (lambda c: Clutter(c.n, [[_Index(0), 1]]), lambda k: tuple(sorted(k.edges[0])), (0, 1)),
], ids=["monomial", "powers", "prime", "component", "offsets", "pattern",
        "value-index", "clutter"])
def test_index_integers_are_stored_as_int(build, read, expected):
    stored = read(build(ctx(2)))
    assert stored == expected and all(type(i) is int for i in stored)


@pytest.mark.parametrize("build", [
    lambda c: c.monomial_from_powers({1: 2, _Index(1): 3}),
    lambda c: IrreducibleComponent(c, {1: 2, _Index(1): 3}),
    lambda c: WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}),
                          {1: 5, _Index(1): 0}),
], ids=["powers", "component", "offsets"])
def test_one_index_given_twice(build):
    # the keys are distinct to the mapping, so only their indices collide
    with pytest.raises(ValueError, match="^variable index 1 is given more than once$"):
        build(ctx(2))


class _Pairs(Mapping):
    """A mapping that keeps its (key, value) pairs as given, so keys equal
    to each other, such as 1 and True, stay two keys."""

    def __init__(self, *pairs):
        self._pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self._pairs if k is key)

    def __iter__(self):
        return (k for k, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)

    def items(self):
        return self._pairs


_MAPPING_READERS = {
    "powers": lambda c, m: c.monomial_from_powers(m),
    "component": lambda c, m: IrreducibleComponent(c, m),
    "offsets": lambda c, m: WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), m),
}
_OFFSETS_INTS = "offset variables and offsets must be integers"


@pytest.mark.parametrize("reader, mapping, message", [
    # a bad key raises before a bad value in an earlier item
    ("powers", {1: -1, 5: 1}, "variable index 5 out of range"),
    ("powers", {1: "a", 0.5: 1}, "variable index 0.5 out of range"),
    ("component", {1: 0, "a": 1}, "variable index a out of range"),
    ("component", {1: 1.5, 3: 1}, "variable index 3 out of range"),
    ("offsets", {1: "x", "a": 1}, _OFFSETS_INTS),
    # a bad value raises before an index that two keys name
    ("powers", _Pairs((1, -1), (True, 2)), "exponents must be non-negative integers"),
    ("component", _Pairs((1, 0), (True, 2)), "pure-power exponents must be positive integers"),
    ("offsets", _Pairs((1, 0.5), (True, 2)), _OFFSETS_INTS),
    # and so does a bad key after the index named twice
    ("powers", _Pairs((1, 0), (True, 2), (3, 1)), "variable index 3 out of range"),
    ("component", _Pairs((1, 1), (True, 2), ("a", 1)), "variable index a out of range"),
    ("offsets", _Pairs((1, 0), (True, 2), ("a", 1)), _OFFSETS_INTS),
    # {1: 0, True: 2} with two keys names index 1 twice; the first index in
    # key order that is named twice is the one named
    ("powers", _Pairs((1, 0), (True, 2)), "variable index 1 is given more than once"),
    ("powers", _Pairs((2, 1), (1, 1), (_Index(1), 1), (_Index(2), 1)),
     "variable index 2 is given more than once"),
    ("component", _Pairs((1, 1), (True, 2)), "variable index 1 is given more than once"),
    ("offsets", _Pairs((1, 0), (True, 2)), "variable index 1 is given more than once"),
    # the offsets' own checks come after: inside the prime, out of range, negative
    ("offsets", _Pairs((0, 1), (1, 0), (True, 2)), "variable index 1 is given more than once"),
    ("offsets", _Pairs((5, -1), (1, 0), (True, 2)), "variable index 1 is given more than once"),
    # anything without items is not a mapping
    ("powers", 5, "powers must be a mapping from variable index to exponent"),
    ("component", {0, 1}, "powers must be a mapping from variable index to exponent"),
    ("offsets", "ab", "offsets must be a mapping from variable index to offset"),
])
def test_mapping_faults_raise_keys_then_values_then_repeats(reader, mapping, message):
    with pytest.raises(ValueError) as info:
        _MAPPING_READERS[reader](ctx(3), mapping)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda c: PrimeSupport(c, [0.5]), "variable indices must be integers"),
    (lambda c: PrimeSupport(c, [1.0]), "variable indices must be integers"),
    (lambda c: PrimeSupport(c, ["a"]), "variable indices must be integers"),
    (lambda c: PrimeSupport(c, [0, "a"]), "variable indices must be integers"),
    (lambda c: PrimeSupport(c, [None]), "variable indices must be integers"),
    (lambda c: IrreducibleComponent(c, {"a": 1}), "variable index a out of range"),
    (lambda c: IrreducibleComponent(c, {0: 1, "a": 1}), "variable index a out of range"),
    (lambda c: IrreducibleComponent(c, {0.5: 1}), "variable index 0.5 out of range"),
    (lambda c: IrreducibleComponent(c, {2: 1}), "variable index 2 out of range"),
    (lambda c: c.monomial_from_powers({"a": 1}), "variable index a out of range"),
    (lambda c: c.monomial_from_powers([0, 1]),
     "powers must be a mapping from variable index to exponent"),
    (lambda c: c.monomial_from_powers({1.0: 1}), "variable index 1.0 out of range"),
    (lambda c: c.monomial_from_powers({-1: 1}), "variable index -1 out of range"),
    (lambda c: Clutter(c.n, [[0.5, 1]]), "unknown vertex 0.5"),
    (lambda c: Clutter(["a", "b", "ab"], ["ab"]),
     "an edge is a collection of vertices, not the string 'ab'"),
    # unhashable or non-integer indices are checked before a set, dict or mask is built
    (lambda c: PrimeSupport(c, [[0]]), "variable indices must be integers"),
    (lambda c: IrreducibleComponent(c, {(0,): 1}), "variable index (0,) out of range"),
    (lambda c: WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), {(1,): 1}),
     "offset variables and offsets must be integers"),
    # only a mapping is accepted: (variable, value) pairs could repeat a variable
    (lambda c: IrreducibleComponent(c, [(0, 1), (0, 2)]),
     "powers must be a mapping from variable index to exponent"),
    (lambda c: WitnessSpec(PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}),
                           [(1, 3), (1, 0)]),
     "offsets must be a mapping from variable index to offset"),
], ids=[
    "prime-float", "prime-integral-float", "prime-str", "prime-mixed", "prime-none",
    "component-str", "component-mixed", "component-float", "component-too-large",
    "powers-str", "powers-list", "powers-integral-float", "powers-negative", "clutter-float",
    "clutter-string-edge",
    "prime-list", "component-tuple", "offsets-tuple", "component-pairs-list",
    "offsets-pairs-list",
])
def test_variable_indices_must_be_integers(build, message):
    with pytest.raises(ValueError) as info:
        build(ctx(2))
    assert str(info.value) == message


class TestDivides:
    """u divides w exactly when w lies in the principal ideal (u)."""

    def test_componentwise(self):
        c = ctx(8)
        assert mono(c, "x1^3*x4^2*x8") in ideal(c, "x1*x4^2")

    def test_reflexive(self):
        u = mono(ctx(3), "x1^2*x3")
        assert u in MonomialIdeal(u.context, [u])

    def test_missing_variable(self):
        c = ctx(3)
        assert mono(c, "x1^2") not in ideal(c, "x3")

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            ctx(3).one in MonomialIdeal(ctx(2), [ctx(2).one])


class TestContextMismatchEverywhere:
    def test_membership(self):
        with pytest.raises(ContextMismatchError):
            ctx(3).one in ideal(ctx(2), "x1")

    def test_intersect(self):
        with pytest.raises(ContextMismatchError):
            intersect(ideal(ctx(2), "x1"), ideal(ctx(3), "x1"))

    def test_colon(self):
        with pytest.raises(ContextMismatchError):
            ideal(ctx(2), "x1").colon(ctx(3).one)

    def test_generator_from_other_ring(self):
        with pytest.raises(ContextMismatchError):
            MonomialIdeal(ctx(2), [ctx(3).one])

    def test_same_size_different_names_still_mismatch(self):
        named = RingContext(["a", "b"])
        with pytest.raises(ContextMismatchError):
            ideal(ctx(2), "x1").colon(named.one)


class TestLcmGcd:
    """lcm and gcd of monomials, as the ideal operations compute them:
    (u) & (w) = (lcm(u, w)) and (u : w) = (u / gcd(u, w))."""

    def test_lcm(self):
        c = ctx(2)
        assert intersect(ideal(c, "x1^2*x2"), ideal(c, "x2^3")) == ideal(c, "x1^2*x2^3")

    def test_gcd(self):
        c = ctx(2)  # gcd(x1^2*x2, x2^3) = x2
        assert ideal(c, "x1^2*x2").colon(mono(c, "x2^3")) == ideal(c, "x1^2")

    def test_unit_is_lcm_identity(self):
        c = ctx(4)
        u = ideal(c, "x2^5*x4")
        assert intersect(u, MonomialIdeal(c, [c.one])) == u

    @given(data=st.data())
    def test_lcm_gcd_degree_identity(self, data):
        c = ctx(3)
        u = data.draw(monomials(c))
        w = data.draw(monomials(c))
        (lcm,) = intersect(MonomialIdeal(c, [u]), MonomialIdeal(c, [w]))
        (u_over_gcd,) = MonomialIdeal(c, [u]).colon(w)
        # deg lcm + deg gcd = deg u + deg w
        assert sum(lcm.exps) == sum(w.exps) + sum(u_over_gcd.exps)


class TestMinimize:
    def test_drops_multiples(self):
        c = ctx(2)
        assert ideal(c, "x1^2", "x1^3", "x2") == ideal(c, "x1^2", "x2")

    def test_session_generators_already_minimal(self):
        assert len(session_ideal().gens) == 9

    def test_idempotent_and_order_independent(self):
        rng = random.Random(99)
        c = ctx(3)
        for _ in range(50):
            gens = [
                Monomial(c, tuple(rng.randint(0, 3) for _ in range(3)))
                for _ in range(rng.randint(1, 6))
            ]
            made = MonomialIdeal(c, gens)
            rng.shuffle(gens)
            assert MonomialIdeal(c, gens) == made
            assert MonomialIdeal(c, made.gens) == made
        # gens is built from the stored tuples on each read, also for the
        # ideals that operations derive through the trusted constructor
        corpus = tiny_corpus()
        derived = [MonomialIdeal(ctx(2), ()), MonomialIdeal(ctx(2), [ctx(2).one])]
        for k, I in enumerate(corpus):
            c = I.context
            J = next(J for J in corpus[k + 1:] + corpus[:k] if J.context == c)
            derived += [I, intersect(I, J), I.colon(variable(c, 0)), oracle_colon_by_ideal(I, J),
                        exchange_closure(I)]
        for I in derived:
            gens = I.gens
            assert tuple(g.exps for g in gens) == I._exps
            assert len(I) == len(gens) and list(I) == list(gens)
            assert MonomialIdeal(I.context, gens) == I
            with pytest.raises(AttributeError, match="^MonomialIdeal is immutable$"):
                I.gens = gens
            with pytest.raises(AttributeError, match="^MonomialIdeal is immutable$"):
                del I.gens

    def test_planted_divisibilities_match_brute_filter(self):
        rng = random.Random(3)
        c = ctx(4)
        for _ in range(30):
            base = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(4)]
            multiples = [
                tuple(b + rng.randint(0, 2) for b in rng.choice(base))
                for _ in range(4)
            ]
            vectors = base + multiples
            expected = oracle_minimal_subset(vectors)
            got = MonomialIdeal(c, [Monomial(c, v) for v in vectors])
            assert {g.exps for g in got.gens} == expected

    def test_unit_swallows_everything(self):
        c = ctx(2)
        swallowed = MonomialIdeal(c, [mono(c, "x1^2"), c.one, mono(c, "x2")])
        assert swallowed.is_unit and len(swallowed.gens) == 1

    def test_zero_ideal_is_empty(self):
        z = MonomialIdeal(ctx(2), ())
        assert z.is_zero and not z.is_unit


class TestMembership:
    def test_simple(self):
        c = ctx(2)
        power = ideal(c, "x1^4")
        assert mono(c, "x1^5*x2") in power
        assert mono(c, "x1^3") not in power

    def test_session_membership(self):
        assert mono(ctx(8), "x3*x4^2*x5") in session_ideal()

    def test_box_consistency_small(self):
        for I in box_corpus()[:25]:
            for exps in box_exponents(box_bounds(I)):
                m = Monomial(I.context, exps)
                assert (m in I) == oracle_member(I, exps)


def contains(I, J):
    """Whether J lies in I: each generator of J is a member of I."""
    return all(g in I for g in J)


class TestContainmentAndEquality:
    def test_reflexive(self):
        I = session_ideal()
        assert contains(I, I)

    def test_strict_power_containment(self):
        c = ctx(1)
        assert contains(ideal(c, "x1"), ideal(c, "x1^2"))
        assert not contains(ideal(c, "x1^2"), ideal(c, "x1"))

    def test_equality_is_canonical_form(self):
        c = ctx(2)
        assert ideal(c, "x2", "x1^2", "x1^3") == ideal(c, "x1^2", "x2")
        assert ideal(c, "x1") != ideal(c, "x2")

    @given(data=st.data())
    def test_mutual_containment_is_equality(self, data):
        I = data.draw(ideals())
        J = data.draw(ideals())
        if I.context != J.context:
            return
        both = contains(I, J) and contains(J, I)
        assert both == (I == J)


class TestColonByMonomial:
    def test_session_first_witness(self):
        c = ctx(8)
        I = session_ideal()
        v = mono(c, "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13")
        assert I.colon(v) == ideal(c, "x1", "x2", "x3", "x4")

    def test_session_second_witness(self):
        c = ctx(8)
        I = session_ideal()
        v = mono(c, "x1^2*x2^3*x4^4*x5^2*x7^8*x8")
        assert I.colon(v) == ideal(c, "x1", "x2", "x3", "x4", "x8")

    def test_failing_candidate_from_six_var_ideal(self):
        c = ctx(6)
        I = six_var_ideal()
        assert I.colon(mono(c, "x3^5*x5^2")) != ideal(c, "x1", "x2")

    def test_colon_by_unit(self):
        I = session_ideal()
        assert I.colon(I.context.one) == I

    def test_colon_by_member_is_unit(self):
        I = session_ideal()
        assert I.colon(mono(I.context, "x1^4*x5")).is_unit

    def test_box_oracle(self):
        for I in box_corpus()[:20]:
            bounds = box_bounds(I)
            for v_exps in [bounds, tuple(b // 2 for b in bounds)]:
                v = Monomial(I.context, v_exps)
                quotient = I.colon(v)
                for m_exps in box_exponents(bounds):
                    lifted = tuple(a + b for a, b in zip(m_exps, v_exps))
                    assert (Monomial(I.context, m_exps) in quotient) == oracle_member(
                        I, lifted
                    )


class TestColonAgainstTupleColon:
    """`MonomialIdeal.colon` answers a v in I by one membership test, and
    otherwise minimizes every g / gcd(g, v).  It must give the very ideal of
    `tuple_colon`, which always builds every quotient."""

    @staticmethod
    def same(I, v):
        quotient, reference = I.colon(v), tuple_colon(I, v)
        assert quotient == reference
        assert quotient._exps == reference._exps
        assert str(quotient) == str(reference)
        return quotient

    def test_witness_corpus(self):
        rng = random.Random(3901)
        for I in witness_corpus():
            floors = I.max_exponents()
            draws = [floors, tuple(e // 2 for e in floors)]
            draws += [tuple(rng.randint(0, e + 1) for e in floors) for _ in range(5)]
            for v_exps in draws:
                self.same(I, Monomial(I.context, v_exps))

    def test_graph_corpus_edge_ideals_by_every_squarefree_monomial(self):
        for clutter in graph_corpus():
            I = clutter.edge_ideal()
            for v_exps in itertools.product((0, 1), repeat=I.context.n):
                self.same(I, Monomial(I.context, v_exps))

    def test_box_corpus_by_every_monomial_in_the_box(self):
        for I in box_corpus():
            for v_exps in box_exponents(box_bounds(I)):
                self.same(I, Monomial(I.context, v_exps))

    @given(I=ideals(max_n=5, max_exp=4, max_gens=8, proper=False), data=st.data())
    def test_hypothesis_ideals(self, I, data):
        self.same(I, data.draw(monomials(I.context, max_exp=5)))

    def test_zero_and_unit_ideals(self):
        c = ctx(3)
        for I in (MonomialIdeal(c, ()), MonomialIdeal(c, [c.one])):
            for v in (c.one, mono(c, "x2"), mono(c, "x1^3*x3")):
                assert self.same(I, v) == I

    def test_unused_variable_and_v_above_the_floors(self):
        c = ctx(4)
        I = ideal(c, "x1^3*x2", "x2^2", "x1*x3^4")
        # x4 divides no generator, so dividing by it leaves I
        assert self.same(I, mono(c, "x4^7")) == I
        assert self.same(I, mono(c, "x2*x4")) == ideal(c, "x1^3", "x2", "x1*x3^4")
        # v above every generator's exponent on x1
        assert self.same(I, mono(c, "x1^5")) == ideal(c, "x2", "x3^4")
        # members through a variable no generator uses
        assert self.same(I, mono(c, "x1*x3^4*x4^9")).is_unit

    def test_exponents_near_a_million(self):
        c = ctx(4)
        I = ideal(c, "x1^1000002*x2^1000000", "x2^1000001*x3^1000001",
                  "x3^1000000*x4^1000002", "x1^1000000*x4^1000001", "x1^1000001*x3^1000002")
        for v_exps in itertools.product((0, 999999, 1000000, 1000001, 1000003), repeat=4):
            self.same(I, Monomial(c, v_exps))

    def test_symmetric_ideal(self):
        c = ctx(4)
        I = build_symmetric_ideal(SymmetricPattern(c, (1, 2, 2)))
        assert I._pattern is not None
        plain = MonomialIdeal(c, I.gens)
        for v_exps in box_exponents((3, 3, 3, 3)):
            v = Monomial(c, v_exps)
            assert self.same(I, v) == plain.colon(v)

    def test_foreign_monomial_raises(self):
        I = ideal(ctx(2), "x1^2", "x2")
        for foreign in (ctx(3).one, RingContext(["a", "b"]).one):
            with pytest.raises(ContextMismatchError):
                I.colon(foreign)
            with pytest.raises(ContextMismatchError):
                tuple_colon(I, foreign)


class TestColonByIdeal:
    """(I : J) through the colon by each generator of J and intersection."""

    def test_by_unit_ideal(self):
        I = session_ideal()
        assert oracle_colon_by_ideal(I, ideal(I.context, "1")) == I

    def test_derived_value_from_box_oracle(self):
        # m in (I : <x1, x2>) iff m*x1 and m*x2 are both in I; over the box
        # that pins (x1^2*x2 : <x1, x2>) = <x1^2*x2> exactly
        c = ctx(2)
        I = ideal(c, "x1^2*x2")
        J = ideal(c, "x1", "x2")
        members = [
            exps
            for exps in box_exponents((4, 4))
            if oracle_member(I, (exps[0] + 1, exps[1]))
            and oracle_member(I, (exps[0], exps[1] + 1))
        ]
        expected = MonomialIdeal(c, [Monomial(c, e) for e in members])
        assert oracle_colon_by_ideal(I, J) == expected
        assert oracle_colon_by_ideal(I, J) == ideal(c, "x1^2*x2")

    def test_quotient_contains_numerator(self):
        rng = random.Random(17)
        for I in box_corpus()[:15]:
            gens = [g for g in I.gens]
            J = MonomialIdeal(I.context, rng.sample(gens, rng.randint(1, len(gens))))
            assert contains(oracle_colon_by_ideal(I, J), I)


class TestIntersect:
    def test_idempotent(self):
        I = session_ideal()
        assert intersect(I, I) == I

    def test_coprime_variables(self):
        c = ctx(2)
        assert intersect(ideal(c, "x1"), ideal(c, "x2")) == ideal(c, "x1*x2")

    def test_commutative_and_associative(self):
        c = ctx(3)
        A = ideal(c, "x1^2", "x2*x3")
        B = ideal(c, "x2^2")
        C = ideal(c, "x1*x3^2", "x3^3")
        assert intersect(A, B) == intersect(B, A)
        assert intersect(intersect(A, B), C) == intersect(A, intersect(B, C))

    def test_box_oracle(self):
        pairs = list(zip(box_corpus()[:20], box_corpus()[20:40]))
        for I, J in pairs:
            if I.context != J.context:
                continue
            met = intersect(I, J)
            bounds = tuple(
                max(a, b) + 1 for a, b in zip(I.max_exponents(), J.max_exponents())
            )
            for exps in box_exponents(bounds):
                assert (Monomial(I.context, exps) in met) == (
                    oracle_member(I, exps) and oracle_member(J, exps)
                )


class TestRadical:
    """The radical is the intersection of the associated primes."""

    @staticmethod
    def radical(I):
        return reduce(intersect, (p.as_ideal() for p in associated_primes(I)))

    def test_pure_power_component(self):
        c = ctx(8)
        I = ideal(c, "x1^4", "x2^7", "x3^5", "x4^2")
        assert associated_primes(I) == (PrimeSupport(c, [0, 1, 2, 3]),)
        assert self.radical(I) == ideal(c, "x1", "x2", "x3", "x4")

    def test_squarefree_fixed_point(self):
        c = ctx(3)
        I = ideal(c, "x1*x2", "x2*x3")
        assert self.radical(I) == I

    def test_single_generator(self):
        c = ctx(2)
        assert self.radical(ideal(c, "x1^2*x2^3")) == ideal(c, "x1*x2")

    @given(I=ideals())
    def test_idempotent_and_squarefree(self, I):
        r = self.radical(I)
        assert r == oracle_radical(I)
        assert self.radical(r) == r
        assert max(r.max_exponents()) <= 1


class TestIsSquarefree:
    """An ideal is squarefree when no generator has an exponent above 1."""

    def test_session_ideal_is_not(self):
        assert max(session_ideal().max_exponents()) > 1

    def test_unit_ideal_is(self):
        c = ctx(2)
        assert max(MonomialIdeal(c, [c.one]).max_exponents()) <= 1

    def test_edge_ideal_style(self):
        c = ctx(4)
        assert max(ideal(c, "x1*x2", "x2*x3*x4").max_exponents()) <= 1


class TestPrimeSupport:
    def test_as_ideal(self):
        c = ctx(4)
        assert PrimeSupport(c, [0, 2]).as_ideal() == ideal(c, "x1", "x3")

    def test_sorted_and_deduplicated(self):
        p = PrimeSupport(ctx(5), [3, 1, 3])
        assert p.vars == (1, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PrimeSupport(ctx(2), [])

    def test_complement(self):
        assert PrimeSupport(ctx(4), [1, 2]).complement() == (0, 3)

    def test_complement_matches_a_set_difference(self):
        primes = [P for I in witness_corpus() for P in associated_primes(I)]
        primes += [P for g in graph_corpus() for P in associated_primes(g.edge_ideal())]
        primes += [PrimeSupport(ctx(n), vs) for n in range(1, 6)
                   for r in range(1, n + 1) for vs in itertools.combinations(range(n), r)]
        primes += [PrimeSupport(ctx(1000), [0, 3, 500, 998])]
        for P in primes:
            assert P.complement() == tuple(sorted(set(range(P.context.n)) - set(P.vars)))
        assert PrimeSupport(ctx(4), range(4)).complement() == ()
        assert PrimeSupport(ctx(1), [0]).complement() == ()
        assert len(PrimeSupport(ctx(1000), [0, 3, 500, 998]).complement()) == 996


class TestZeroAndUnitBehavior:
    def test_zero_ideal_operations(self):
        c = ctx(2)
        zero = MonomialIdeal(c, ())
        assert zero.colon(mono(c, "x1")) == zero
        assert intersect(zero, ideal(c, "x1")) == zero
        assert mono(c, "x1") not in zero
        assert contains(ideal(c, "x1"), zero)

    def test_unit_ideal_operations(self):
        c = ctx(2)
        unit = MonomialIdeal(c, [c.one])
        assert unit.colon(mono(c, "x1^3")) == unit
        assert intersect(unit, ideal(c, "x2")) == ideal(c, "x2")
        assert mono(c, "x1*x2") in unit
        assert contains(unit, ideal(c, "x1"))

    def test_colon_of_zero_by_ideal(self):
        c = ctx(2)
        zero = MonomialIdeal(c, ())
        assert oracle_colon_by_ideal(zero, ideal(c, "x1", "x2")) == zero

    def test_max_exponents_of_extremes(self):
        c = ctx(3)
        assert MonomialIdeal(c, ()).max_exponents() == (0, 0, 0)
        assert MonomialIdeal(c, [c.one]).max_exponents() == (0, 0, 0)

    @given(I=st.one_of(
        ideals(proper=False),
        st.integers(1, 4).map(lambda n: MonomialIdeal(ctx(n), ())),
        st.integers(1, 4).map(lambda n: MonomialIdeal(ctx(n), [ctx(n).one]))))
    def test_max_exponents_read_once(self, I):
        """The componentwise max from the level table, all zeros for the
        zero and the unit ideal, the same tuple on every read."""
        floors = I.max_exponents()
        assert floors == tuple(max((u[i] for u in I._exps), default=0)
                               for i in range(I.context.n))
        assert I.max_exponents() is floors


class TestImmutability:
    def test_monomial_rejects_mutation(self):
        u = ctx(2).one
        with pytest.raises(AttributeError):
            u.exps = (1, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(ctx(2), (1, -1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Monomial(ctx(2), (1,))


class TestTrustedPath:
    """The tuple core and the trusted constructor against the public,
    validating constructor and the definitional oracles."""

    @given(data=st.data())
    def test_minimize_matches_brute_filter(self, data):
        n = data.draw(st.integers(1, 5))
        vectors = data.draw(
            st.lists(st.tuples(*(st.integers(0, 3) for _ in range(n))), max_size=12)
        )
        expected = tuple(sorted(oracle_minimal_subset(vectors), reverse=True))
        assert _minimize_exps(vectors) == expected

    def test_minimize_past_one_machine_word(self):
        # the support masks span more than 64 bits
        rng = random.Random(6471)
        for _ in range(40):
            n = rng.randint(65, 130)
            base = []
            for _ in range(rng.randint(1, 8)):
                v = [0] * n
                for i in rng.sample(range(n), rng.randint(1, 4)):
                    v[i] = rng.randint(1, 3)
                base.append(v)
            vectors = [tuple(v) for v in base]
            for v in base:  # multiples, some raised only past bit 64
                w = v.copy()
                w[rng.randrange(n)] += 1
                w[rng.randrange(64, n)] += rng.randint(0, 2)
                vectors.append(tuple(w))
            rng.shuffle(vectors)
            expected = tuple(sorted(oracle_minimal_subset(vectors), reverse=True))
            assert _minimize_exps(vectors) == expected
        # large sets of one degree, and sets over many degrees with many
        # survivors of each, on a few variables spread past bit 64
        for _ in range(3):
            n = rng.randint(65, 130)
            pool = rng.sample(range(n), 8)
            vectors = []
            for _ in range(300):
                v = [0] * n
                for _ in range(4):
                    v[rng.choice(pool)] += 1
                vectors.append(tuple(v))
            expected = tuple(sorted(oracle_minimal_subset(vectors), reverse=True))
            assert expected == tuple(sorted(set(vectors), reverse=True))
            assert _minimize_exps(vectors) == expected
        for _ in range(3):
            # on each pair of variables the (2k, K - k) form an antichain over
            # the degrees K..2K, and so do their products over three pairs
            n = rng.randint(65, 130)
            pool = rng.sample(range(n), 6)
            blocks = [[(2 * k, K - k) for k in range(K + 1)]
                      for K in (rng.randint(2, 5) for _ in range(3))]
            survivors = []
            for parts in itertools.product(*blocks):
                v = [0] * n
                for (a, b), i, j in zip(parts, pool[::2], pool[1::2]):
                    v[i], v[j] = a, b
                survivors.append(tuple(v))
            vectors = list(survivors)
            for _ in range(100):  # multiples, which the survivors divide
                v = list(rng.choice(survivors))
                v[rng.randrange(n)] += 1
                vectors.append(tuple(v))
            rng.shuffle(vectors)
            expected = tuple(sorted(oracle_minimal_subset(vectors), reverse=True))
            assert expected == tuple(sorted(set(survivors), reverse=True))
            assert _minimize_exps(vectors) == expected
            degrees = [sum(v) for v in expected]
            assert len(set(degrees)) > 4 and len(degrees) > 2 * len(set(degrees))

    @given(I=ideals(proper=False), data=st.data())
    def test_trusted_constructor_matches_public(self, I, data):
        c = I.context
        extra = data.draw(st.lists(monomials(c), max_size=4))
        raw = [g.exps for g in I.gens] + [m.exps for m in extra]
        public = MonomialIdeal(c, [Monomial(c, v) for v in raw])
        trusted = MonomialIdeal._from_exps(c, raw)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted.gens == public.gens
        assert [g.context for g in trusted.gens] == [c] * len(public.gens)
        antichain = [g.exps for g in reversed(public.gens)] * 2
        assert MonomialIdeal._from_exps(c, antichain) == public

    def test_former_antichain_callers_match_public(self):
        """Edge ideals, symmetric ideals and pure-power ideals, which skip
        the minimization (`TestAntichainSites`), equal the public constructor
        on the same vectors and keep exactly the distinct vectors."""
        built = []
        for clutter in graph_corpus() + clutter_corpus():
            n = clutter.n
            vectors = [tuple(int(v in e) for v in range(n)) for e in clutter.edges]
            built.append((clutter.edge_ideal(), vectors))
        for n in range(1, 6):  # every pattern on up to five variables, exponents up to 3
            for k in range(1, n + 1):
                for exps in itertools.combinations_with_replacement((1, 2, 3), k):
                    placements = set(itertools.permutations(exps + (0,) * (n - k)))
                    pattern = SymmetricPattern(ctx(n), exps)
                    built.append((build_symmetric_ideal(pattern), placements))
        for I in tiny_corpus():
            for q in irreducible_decomposition(I):
                powers = [tuple(e if t == v else 0 for t in range(I.context.n))
                          for v, e in q.pairs]
                built.append((q.as_ideal(), powers))
                built.append((q.prime().as_ideal(), [tuple(min(e, 1) for e in v) for v in powers]))
        for J, vectors in built:
            c = J.context
            assert J == MonomialIdeal(c, [Monomial(c, v) for v in vectors])
            assert J._exps == tuple(sorted(set(vectors), reverse=True))

    @given(I=ideals(max_n=3), data=st.data())
    def test_colon_intersect_membership_match_oracle(self, I, data):
        c = I.context
        v = data.draw(monomials(c))
        J = MonomialIdeal(c, data.draw(st.lists(monomials(c), min_size=1, max_size=3)))
        quotient, met = I.colon(v), intersect(I, J)
        bounds = tuple(
            max(a, b) + 1 for a, b in zip(I.max_exponents(), J.max_exponents())
        )
        for exps in box_exponents(bounds):
            m = Monomial(c, exps)
            lifted = tuple(a + b for a, b in zip(exps, v.exps))
            assert (m in I) == oracle_member(I, exps)
            assert _member(I._exps, lifted) == oracle_member(I, lifted)
            assert (m in quotient) == oracle_member(I, lifted)
            assert (m in met) == (oracle_member(I, exps) and oracle_member(J, exps))

    def test_variable_ideals_match_public(self):
        """A prime's and a component's `as_ideal` equal the public
        constructor's ideal of their pure powers, each row written out in full."""
        def public(c, pairs):
            return MonomialIdeal(c, [c.monomial(e if t == v else 0 for t in range(c.n))
                                     for v, e in pairs])

        c = ctx(5)
        cases = [IrreducibleComponent(c, {v: v + 2 for v in vs})
                 for vs in ([0], [1, 3], [0, 2, 3, 4], range(5))]
        cases += [q for I in witness_corpus() for q in irreducible_decomposition(I)]
        cases.append(IrreducibleComponent(ctx(1000), dict.fromkeys(range(1000), 2)))
        for q in cases:
            p = q.prime()
            assert p.as_ideal() == public(p.context, [(v, 1) for v in p.vars])
            assert q.as_ideal() == public(q.context, q.pairs)


# The callers of `MonomialIdeal._from_antichain`, which only sorts: each
# builds vectors that are distinct and pairwise non-dividing by construction.
# For each, the ideals it builds from the corpora below; every one must equal
# `_from_exps` of the same vectors, which minimizes them.
def _symmetric_ideals():
    """Every pattern on up to six variables with exponents up to 4."""
    for n in range(1, 7):
        for k in range(1, n + 1):
            for exps in itertools.combinations_with_replacement(range(1, 5), k):
                yield build_symmetric_ideal(SymmetricPattern(ctx(n), exps))


def _edge_ideals():
    return (clutter.edge_ideal() for clutter in graph_corpus() + clutter_corpus())


def _proper_ideals():
    yield from witness_corpus()
    yield from _edge_ideals()


def _prime_ideals(ideals_):
    return (p.as_ideal() for I in ideals_ for p in associated_primes(I))


def _component_ideals(ideals_):
    return (q.as_ideal() for I in ideals_ for q in irreducible_decomposition(I))


def _colons(ideals_):
    """Colons by each generator, which give the unit ideal, and by each
    variable, which mostly do not: every ideal the colon returns is checked,
    whichever of its two constructors built it."""
    for I in ideals_:
        c = I.context
        yield from (I.colon(g) for g in I.gens)
        for i in range(c.n):
            yield I.colon(c.monomial(tuple(int(t == i) for t in range(c.n))))


ANTICHAIN_SITES = {
    "witness.build_symmetric_ideal": _symmetric_ideals,
    "borel.exchange_closure": lambda: map(exchange_closure, borel_closure_seeds()),
    "clutters.Clutter.edge_ideal": _edge_ideals,
    "rings.PrimeSupport.as_ideal": lambda: _prime_ideals(_proper_ideals()),
    "decompose.IrreducibleComponent.as_ideal": lambda: _component_ideals(_proper_ideals()),
    "rings.MonomialIdeal.colon": lambda: _colons(_proper_ideals()),
}


def _is_sorted_antichain(J):
    """Whether J's stored tuples are what `_from_exps` makes of them."""
    return J == MonomialIdeal._from_exps(J.context, J._exps)


class TestAntichainSites:
    @pytest.mark.parametrize("site", ANTICHAIN_SITES)
    def test_site_matches_minimization(self, site):
        built = list(ANTICHAIN_SITES[site]())
        assert built
        for J in built:
            assert _is_sorted_antichain(J), (site, J)
        if site == "rings.MonomialIdeal.colon":  # both constructors ran
            assert {J.is_unit for J in built} == {True, False}

    @given(I=ideals())
    def test_sites_match_minimization_on_random_ideals(self, I):
        built = [exchange_closure(I), *_prime_ideals([I]), *_component_ideals([I]),
                 *_colons([I])]
        for J in built:
            assert _is_sorted_antichain(J)

    def test_callers_are_the_listed_sites(self):
        """Every call of `_from_antichain` in the library is in a function
        that `ANTICHAIN_SITES` checks, and every listed site still calls it."""
        assert _antichain_callers() == set(ANTICHAIN_SITES)


def _antichain_callers() -> set:
    """module.Class.function of each call of `_from_antichain` in monowit."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "_from_antichain"):
                callers.add(".".join(scope))
            visit(child, inner)

    for path in sorted(Path(monowit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    return callers


# The one construction rule: a value's slots are filled by a trusted builder
# through `_setters`, and afterwards only these first-use caches are written,
# each from the function that owns it.
CACHE_FILLS = {
    ("rings.RingContext._table", "_names"),
    ("rings.RingContext._table", "_index"),
    ("rings.MonomialIdeal._levels", "_table"),
    ("decompose.irreducible_decomposition", "_decomposition"),
    ("clutters.Clutter.edge_ideal", "_ideal"),
    ("clutters.Clutter._cover_masks", "_covers"),
}

SETTER_READERS = {  # `__init_subclass__` binds them
    "rings._trusted",
    "rings._rebuild",
    "rings._Frozen.__init_subclass__",
    "rings.MonomialIdeal.gens",  # both inline `_trusted` in a hot loop
    "decompose.Decomposition._from_rows",
}


def _library_sites():
    """In monowit: (module.Class.function, slot) of each object.__setattr__
    call, module.Class.function of each use of `_setters`, and the names
    of every function and class defined."""
    fills, readers, defined = set(), set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                defined.add(child.name)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "__setattr__"):
                slot = child.args[1]
                fills.add((".".join(scope), slot.value if isinstance(slot, ast.Constant) else None))
            elif isinstance(child, ast.Attribute) and child.attr == "_setters":
                readers.add(".".join(scope))
            visit(child, inner)

    for path in sorted(Path(monowit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    return fills, readers, defined


class TestConstructionRule:
    def test_only_first_use_caches_are_written_by_name(self):
        """No module writes a slot after its builder but at a cache fill, so
        no module other than `rings` writes an ideal's slot but its decomposition."""
        fills, _, _ = _library_sites()
        assert fills == CACHE_FILLS

    def test_setters_are_read_only_by_the_builders(self):
        _, readers, _ = _library_sites()
        assert readers == SETTER_READERS

    def test_no_slot_filler_besides_the_builders(self):
        _, _, defined = _library_sites()
        assert "_set" not in defined
        assert not hasattr(MonomialIdeal, "_set") and not hasattr(Clutter, "_set")
