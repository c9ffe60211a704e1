"""Core monomial and ideal arithmetic, checked against definitional oracles."""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given
import hypothesis.strategies as st

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
    symmetric_witness,
)
from monowit.rings import _minimize_exps
from util import (
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
    variable,
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
        """Edge ideals, symmetric ideals and pure-power ideals, which once
        skipped the minimization, equal the public constructor on the same
        vectors and keep exactly the distinct vectors."""
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
            assert (m in quotient) == oracle_member(I, lifted)
            assert (m in met) == (oracle_member(I, exps) and oracle_member(J, exps))

    def test_variable_ideals_match_public(self):
        c = ctx(5)
        for vs in ([0], [1, 3], [0, 2, 3, 4], range(5)):
            p = PrimeSupport(c, vs)
            assert p.as_ideal() == MonomialIdeal(c, [variable(c, i) for i in p.vars])
            q = IrreducibleComponent(c, {v: v + 2 for v in p.vars})
            assert q.as_ideal() == MonomialIdeal(
                c, [c.monomial_from_powers({v: e}) for v, e in q.pairs]
            )
