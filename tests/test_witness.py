"""Witness construction, verification, inversion, and uniqueness."""

import copy
import itertools
import math
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from monowit import (
    ContextMismatchError,
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingContext,
    SymmetricPattern,
    TheoremViolationError,
    WitnessSpec,
    associated_primes,
    build_symmetric_ideal,
    classify_uniqueness,
    component_from_witness,
    irreducible_decomposition,
    symmetric_witness,
    verify_witness,
    witness_from_component,
)
from monowit.decompose import Decomposition
from monowit.rings import _colon_reaches
from util import (
    box_bounds,
    box_exponents,
    ctx,
    every_prime,
    ideal,
    ideals,
    intersect,
    mono,
    oracle_symmetric_gens,
    oracle_verify_witness,
    resorting_colon_is_prime,
    session_ideal,
    six_var_ideal,
    squarefree_witness,
    step_map_colon_is_prime,
    times_variable,
    tiny_corpus,
    tuple_colon_is_prime,
    witness_corpus,
)


def spec_for(I, prime_vars, component_powers, offsets=None):
    c = I.context
    prime = PrimeSupport(c, prime_vars)
    component = IrreducibleComponent(c, component_powers)
    return WitnessSpec(prime, component, offsets or {})


class TestWitnessFromComponent:
    def test_session_first_prime(self):
        I = session_ideal()
        spec = spec_for(I, [0, 1, 2, 3], {0: 1, 1: 7, 2: 5, 3: 2},
                        {4: 5, 5: 5, 6: 2, 7: 5})
        v = witness_from_component(I, spec)
        assert v == mono(ctx(8), "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13")
        assert verify_witness(I, spec.prime, v)

    def test_session_second_prime(self):
        I = session_ideal()
        spec = spec_for(I, [0, 1, 2, 3, 7], {0: 3, 1: 4, 2: 1, 3: 5, 7: 2},
                        {4: 2, 5: 0, 6: 8})
        v = witness_from_component(I, spec)
        assert v == mono(ctx(8), "x1^2*x2^3*x4^4*x5^2*x7^8*x8")
        assert verify_witness(I, spec.prime, v)

    def test_default_offsets_are_zero(self):
        I = session_ideal()
        spec = spec_for(I, [0, 1, 2, 3], {0: 1, 1: 7, 2: 5, 3: 2})
        # absent complement variables are omitted, x8 sits at its floor
        assert witness_from_component(I, spec) == mono(ctx(8), "x2^6*x3^4*x4*x8^8")

    def test_zero_offsets_verify_on_corpus_sample(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            for q in d.components:
                v = witness_from_component(I, WitnessSpec(q.prime(), q))
                assert verify_witness(I, q.prime(), v)

    def test_component_not_in_decomposition_rejected(self):
        I = session_ideal()
        with pytest.raises(ValueError):
            witness_from_component(
                I, spec_for(I, [0], {0: 2})
            )

    def test_support_mismatch_rejected(self):
        c = ctx(3)
        with pytest.raises(ValueError):
            WitnessSpec(PrimeSupport(c, [0, 1]), IrreducibleComponent(c, {0: 2}))

    def test_offsets_on_prime_variables_rejected(self):
        c = ctx(3)
        with pytest.raises(ValueError):
            WitnessSpec(
                PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), {0: 1}
            )

    def test_negative_offset_rejected(self):
        c = ctx(3)
        with pytest.raises(ValueError):
            WitnessSpec(
                PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 2}), {1: -1}
            )


def level_neighbours(I, v):
    """v moved on one variable at a time: by one either way, strictly
    between two levels of that variable, and above its top level (to 1 and
    3 on a variable no generator uses)."""
    levels = I._levels()[0]
    for i in range(len(v)):
        exps = [0] + [e for j, e in levels if j == i]
        values = {v[i] - 1, v[i] + 1, exps[-1] + 1, exps[-1] + 3}
        values.update(low + 1 for low, high in zip(exps, exps[1:]) if high - low > 1)
        for e in sorted(values - {v[i]}):
            if e >= 0:
                yield v[:i] + (e,) + v[i + 1:]


def assert_colon_tests_agree(I, P, exps):
    """verify_witness on the level masks, the step-map test it replaced and
    the tuple scan all give the verdict of the colon built as an ideal."""
    v = Monomial(I.context, exps)
    expected = oracle_verify_witness(I, P, v)
    assert tuple_colon_is_prime(I, exps, P.vars) == expected, (I, P, v)
    assert step_map_colon_is_prime(I, P, v) == expected, (I, P, v)
    assert verify_witness(I, P, v) == expected, (I, P, v)
    return expected


class TestVerifyWitness:
    def test_six_var_witnesses(self):
        I = six_var_ideal()
        P = PrimeSupport(ctx(6), [0, 1])
        for text in ("x3^5*x4^4", "x3^5*x5^3", "x6^8*x4^4", "x6^8*x5^3"):
            assert verify_witness(I, P, mono(ctx(6), text))

    def test_six_var_failing_candidate(self):
        I = six_var_ideal()
        P = PrimeSupport(ctx(6), [0, 1])
        assert not verify_witness(I, P, mono(ctx(6), "x3^5*x5^2"))

    def test_unit_witness_on_prime_ideal(self):
        c = ctx(3)
        I = ideal(c, "x1", "x3")
        assert verify_witness(I, PrimeSupport(c, [0, 2]), c.one)
        assert not verify_witness(I, PrimeSupport(c, [0, 1]), c.one)

    @given(I=ideals(proper=False), data=st.data())
    def test_matches_the_colon_oracle(self, I, data):
        bounds = box_bounds(I)
        exps = data.draw(st.tuples(*(st.integers(0, b) for b in bounds)))
        candidates = [Monomial(I.context, exps)]
        if not I.is_unit:  # and a witness for each component
            candidates += [witness_from_component(I, WitnessSpec(q.prime(), q))
                           for q in irreducible_decomposition(I).components]
        for v in candidates:
            for P in every_prime(I.context):
                assert verify_witness(I, P, v) == oracle_verify_witness(I, P, v)

    def test_exhaustive_sweep_matches_the_colon_oracle(self):
        """Every box point and every prime, on the zero and unit ideals of
        each ring with n <= 3 and on the n <= 3 corpus; the tuple scan agrees
        with it too."""
        cases = []
        for n in (1, 2, 3):
            c = ctx(n)
            cases += [MonomialIdeal(c, []), MonomialIdeal(c, [c.one])]
        cases += tiny_corpus()
        outcomes = set()
        for I in cases:
            primes = every_prime(I.context)
            for exps in box_exponents(box_bounds(I, slack=2)):
                for P in primes:
                    outcomes.add(assert_colon_tests_agree(I, P, exps))
        assert outcomes == {True, False}

    def test_prime_from_another_ring_is_false(self):
        c = ctx(3)
        I = ideal(c, "x1", "x3")
        assert verify_witness(I, PrimeSupport(c, [0, 2]), c.one)
        renamed = RingContext(["a", "b", "c"])
        assert not verify_witness(I, PrimeSupport(renamed, [0, 2]), c.one)
        assert not verify_witness(I, PrimeSupport(ctx(4), [0, 2]), c.one)

    def test_monomial_from_another_ring_raises(self):
        I = ideal(ctx(3), "x1", "x3")
        with pytest.raises(ContextMismatchError):
            verify_witness(I, PrimeSupport(ctx(3), [0, 2]), ctx(4).one)
        with pytest.raises(ContextMismatchError):
            verify_witness(I, PrimeSupport(ctx(3), [0, 2]), RingContext(["a", "b", "c"]).one)


class TestLevelKernel:
    """`verify_witness` on the level masks, through `rings._colon_reaches`,
    against the step-map test and the tuple scan it replaced and against the
    colon itself."""

    @pytest.mark.parametrize("gens, prime, exps, below, need", [
        # x1's first level above v_1 = 1 is 3, not 2: x2*x3's over is the
        # single step level of x2, so the hits are all of need
        (("x1^3*x2", "x2*x3"), (0, 1), (1, 0, 1), 0b100, 0b010),
        # x3 is in P and in no generator, so it has no level at all
        (("x1", "x2"), (0, 1, 2), (0, 0, 0), 0b000, 0b011),
    ])
    def test_a_prime_variable_without_a_step_level(self, gens, prime, exps, below, need):
        """The bit-count guard decides these: the kernel alone reaches need,
        yet the colon is not P."""
        I = ideal(ctx(3), *gens)
        P = PrimeSupport(I.context, prime)
        _, var_bits, masks, _ = I._levels()
        inside = sum(var_bits[i] for i in prime)
        assert _colon_reaches(masks, ~below, inside, need)
        assert not assert_colon_tests_agree(I, P, exps)

    @given(I=st.one_of(ideals(proper=False, max_exp=4), st.sampled_from(witness_corpus())))
    def test_agrees_with_the_tuple_scan_and_the_colon(self, I):
        # the same generators with one more variable, which none of them uses
        n = I.context.n
        J = MonomialIdeal._from_exps(ctx(n + 1), (g + (0,) for g in I._exps))
        outside = PrimeSupport(J.context, [n])  # never associated
        candidates = [(0,) * (n + 1), J.max_exponents()]
        primes = {outside, PrimeSupport(J.context, range(n + 1))}
        if not J.is_unit:
            for q in irreducible_decomposition(J).components:
                P = q.prime()
                v = witness_from_component(J, WitnessSpec(P, q)).exps
                assert assert_colon_tests_agree(J, P, v)
                for w in level_neighbours(J, v):
                    assert_colon_tests_agree(J, P, w)
                    assert_colon_tests_agree(J, PrimeSupport(J.context, P.vars + (n,)), w)
                candidates.append(v)
                primes.add(P)
        for v in candidates:
            for P in primes:
                assert_colon_tests_agree(J, P, v)

    def test_exponents_near_a_million(self):
        I = ideal(ctx(4), "x1^1000002*x2^1000000", "x2^1000001*x3^1000001",
                  "x3^1000000*x4^1000002", "x1^1000000*x4^1000001", "x1^1000001*x3^1000002")
        outcomes = []
        for q in irreducible_decomposition(I).components:
            v = witness_from_component(I, WitnessSpec(q.prime(), q)).exps
            for w in (v, *level_neighbours(I, v)):
                for P in every_prime(I.context):
                    outcomes.append(assert_colon_tests_agree(I, P, w))
        assert outcomes.count(True) >= 7 and False in outcomes


class TestComponentFromWitness:
    def test_session_golden(self):
        I = session_ideal()
        P = PrimeSupport(ctx(8), [0, 1, 2, 3])
        v = mono(ctx(8), "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13")
        q = component_from_witness(I, P, v)
        assert q.as_ideal() == ideal(ctx(8), "x1", "x2^7", "x3^5", "x4^2")

    def test_six_var_small_witness_points_at_radical_component(self):
        I = six_var_ideal()
        P = PrimeSupport(ctx(6), [0, 1])
        q = component_from_witness(I, P, mono(ctx(6), "x3^5*x4^4"))
        assert q.as_ideal() == ideal(ctx(6), "x1", "x2")

    def test_roundtrip_on_corpus_sample(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            for q in d.components:
                v = witness_from_component(I, WitnessSpec(q.prime(), q))
                assert component_from_witness(I, q.prime(), v) == q

    def test_returns_the_decompositions_own_component(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            for q in d.components:
                v = witness_from_component(I, WitnessSpec(q.prime(), q))
                recovered = component_from_witness(I, q.prime(), v)
                assert recovered is q
                assert any(recovered is own for own in d.components_for(q.prime()))

    @pytest.mark.parametrize("keep_other", [True, False],
                             ids=["other-component-on-prime", "no-component-on-prime"])
    def test_missing_derived_component_is_an_internal_error(self, keep_other):
        # (x1, x2)^2 = (x1, x2^2) ^ (x1^2, x2); x2 points at (x1, x2^2), which
        # a stored decomposition that lacks it cannot return
        I = ideal(ctx(2), "x1^2", "x1*x2", "x2^2")
        P = PrimeSupport(ctx(2), [0, 1])
        derived, other = irreducible_decomposition(I).components_for(P)
        assert derived.pairs == ((0, 1), (1, 2))
        object.__setattr__(I, "_decomposition", Decomposition([other] if keep_other else []))
        with pytest.raises(TheoremViolationError) as info:
            component_from_witness(I, P, mono(ctx(2), "x2"))
        assert str(info.value) == (
            "derived component (x1, x2^2) missing from the decomposition of "
            "(x1^2, x1*x2, x2^2)")

    def test_invalid_witness_rejected(self):
        I = six_var_ideal()
        P = PrimeSupport(ctx(6), [0, 1])
        with pytest.raises(ValueError):
            component_from_witness(I, P, mono(ctx(6), "x3^5*x5^2"))

    def test_exhaustive_witness_search_lands_in_decomposition(self):
        c = ctx(3)
        I = ideal(c, "x1^2*x2", "x2^3", "x1*x3^2")
        d = irreducible_decomposition(I)
        primes = associated_primes(I)
        hits = 0
        for exps in box_exponents(box_bounds(I)):
            v = Monomial(c, exps)
            quotient = I.colon(v)
            for P in primes:
                if quotient == P.as_ideal():
                    assert component_from_witness(I, P, v) in d.components
                    hits += 1
        assert hits > 0


class TestSquarefreeWitnesses:
    """For a squarefree ideal, no prime variable divides a witness."""

    def test_path_style_example(self):
        c = ctx(3)
        I = ideal(c, "x1*x2", "x2*x3")
        assert squarefree_witness(I, PrimeSupport(c, [1]), mono(c, "x1*x3"))

    def test_invalid_witness_rejected(self):
        c = ctx(3)
        I = ideal(c, "x1*x2", "x2*x3")
        assert not squarefree_witness(I, PrimeSupport(c, [0]), mono(c, "x3"))

    def test_brute_force_witnesses_avoid_prime_variables(self):
        rng = random.Random(2024)
        c = ctx(4)
        seen = 0
        for _ in range(30):
            gens = []
            for _ in range(rng.randint(1, 4)):
                support = rng.sample(range(4), rng.randint(1, 3))
                gens.append(c.monomial_from_powers({v: 1 for v in support}))
            I = MonomialIdeal(c, gens)
            if I.is_unit or I.is_zero:
                continue
            primes = associated_primes(I)
            for exps in box_exponents((2, 2, 2, 2)):
                v = Monomial(c, exps)
                quotient = I.colon(v)
                for P in primes:
                    if quotient == P.as_ideal():
                        assert squarefree_witness(I, P, v)
                        seen += 1
        assert seen > 0

    def test_theorem_level_witnesses_on_squarefree_corpus(self):
        for I in witness_corpus():
            if max(I.max_exponents()) > 1:
                continue
            for q in irreducible_decomposition(I).components:
                v = witness_from_component(I, WitnessSpec(q.prime(), q))
                assert squarefree_witness(I, q.prime(), v)


class TestSymmetricIdeals:
    def test_three_variable_pattern_1_3_3(self):
        c = ctx(3)
        pattern = SymmetricPattern(c, (1, 3, 3))
        assert build_symmetric_ideal(pattern) == ideal(
            c, "x1*x2^3*x3^3", "x1^3*x2^3*x3", "x1^3*x2*x3^3"
        )

    def test_three_variable_pattern_2_4_5(self):
        c = ctx(3)
        pattern = SymmetricPattern(c, (2, 4, 5))
        expected = ideal(
            c,
            "x1^2*x2^4*x3^5", "x1^4*x2^2*x3^5", "x1^2*x2^5*x3^4",
            "x1^5*x2^2*x3^4", "x1^4*x2^5*x3^2", "x1^5*x2^4*x3^2",
        )
        assert build_symmetric_ideal(pattern) == expected

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, 3), min_size=1, max_size=n))))
    def test_matches_the_definitional_oracle_in_order(self, case):
        n, exps = case
        pattern = SymmetricPattern(ctx(n), sorted(exps))
        built = [g.exps for g in build_symmetric_ideal(pattern).gens]
        assert built == oracle_symmetric_gens(pattern)

    def test_twelve_variables_one_then_eleven_twos(self):
        # twelve generators, each a placement of the lone 1: no 12! orderings
        pattern = SymmetricPattern(ctx(12), (1,) + (2,) * 11)
        gens = build_symmetric_ideal(pattern).gens
        assert len(gens) == 12
        assert sorted(g.exps.index(1) for g in gens) == list(range(12))

    def test_single_exponent_on_two_variables(self):
        c = ctx(2)
        assert build_symmetric_ideal(SymmetricPattern(c, (1,))) == ideal(c, "x1", "x2")

    def test_too_many_exponents_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPattern(ctx(2), (1, 2, 3))

    def test_generator_count_is_choose_times_multinomial(self):
        for n in range(1, 6):
            c = ctx(n)
            for k in range(1, n + 1):
                for exps in itertools.combinations_with_replacement((1, 2, 3), k):
                    I = build_symmetric_ideal(SymmetricPattern(c, exps))
                    multinomial = math.factorial(k)
                    for e in set(exps):
                        multinomial //= math.factorial(exps.count(e))
                    assert len(I.gens) == math.comb(n, k) * multinomial
                    assert I == MonomialIdeal(c, [
                        c.monomial_from_powers(dict(zip(vs, placement)))
                        for vs in itertools.combinations(range(n), k)
                        for placement in itertools.permutations(exps)
                    ])

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            SymmetricPattern(ctx(3), (3, 1))
        with pytest.raises(ValueError):
            SymmetricPattern(ctx(3), (0, 1))
        with pytest.raises(ValueError):
            SymmetricPattern(ctx(3), ())

    def test_breaks(self):
        pattern = SymmetricPattern(ctx(4), (1, 3, 3, 4))
        assert pattern.distinct_values() == (1, 3, 4)
        assert pattern.breaks() == (0, 1, 3)

    def test_displayed_decomposition_recombines(self):
        # the claimed components: for each distinct value, all pure-power
        # ideals with that exponent on n - k + (position + 1) variables
        for n, exps in ((3, (1, 3, 3)), (3, (2, 4, 5)), (4, (1, 2, 2)), (2, (2, 2))):
            c = ctx(n)
            pattern = SymmetricPattern(c, exps)
            I = build_symmetric_ideal(pattern)
            met = None
            expected_primes = set()
            for pos in pattern.breaks():
                size = n - pattern.k + pos + 1
                value = exps[pos]
                for vs in itertools.combinations(range(n), size):
                    q = MonomialIdeal(
                        c, [c.monomial_from_powers({v: value}) for v in vs]
                    )
                    met = q if met is None else intersect(met, q)
                    expected_primes.add(vs)
            assert met == I
            assert {p.vars for p in associated_primes(I)} == expected_primes


class TestSymmetricWitness:
    def test_pair_prime_for_value_three(self):
        c = ctx(3)
        pattern = SymmetricPattern(c, (1, 3, 3))
        I = build_symmetric_ideal(pattern)
        for pair in itertools.combinations(range(3), 2):
            for b in (3, 4, 7):
                prime, v = symmetric_witness(pattern, 1, pair, (b,))
                assert prime.vars == pair
                assert verify_witness(I, prime, v)

    def test_singleton_prime_for_value_one(self):
        c = ctx(3)
        pattern = SymmetricPattern(c, (1, 3, 3))
        I = build_symmetric_ideal(pattern)
        prime, v = symmetric_witness(pattern, 0, (0,), (3, 3))
        assert prime.vars == (0,)
        assert v == mono(c, "x2^3*x3^3")
        assert verify_witness(I, prime, v)

    def test_wrong_prime_cardinality_rejected(self):
        pattern = SymmetricPattern(ctx(3), (1, 3, 3))
        with pytest.raises(ValueError):
            symmetric_witness(pattern, 1, (0,), (3,))

    def test_too_few_b_values_rejected(self):
        pattern = SymmetricPattern(ctx(3), (1, 2, 3))
        with pytest.raises(ValueError, match="^need 2 complement exponents, got 1$"):
            symmetric_witness(pattern, 0, (0,), (2,))

    def test_b_below_floor_rejected(self):
        pattern = SymmetricPattern(ctx(3), (1, 3, 3))
        with pytest.raises(ValueError):
            symmetric_witness(pattern, 0, (0,), (3, 2))

    def test_value_index_out_of_range(self):
        pattern = SymmetricPattern(ctx(3), (1, 3, 3))
        with pytest.raises(ValueError, match="^value_index 2 out of range$"):
            symmetric_witness(pattern, 2, (0, 1), (3,))

    def test_full_value_prime_takes_no_complement_exponents(self):
        c = ctx(4)
        pattern = SymmetricPattern(c, (2, 2, 5))
        I = build_symmetric_ideal(pattern)
        prime, v = symmetric_witness(pattern, 1, (0, 1, 2, 3), ())
        assert verify_witness(I, prime, v)
        assert v == mono(c, "x1^4*x2^4*x3^4*x4^4")


def symmetric_patterns(n, top):
    """Every sorted exponent list on n variables with entries 1..top."""
    for k in range(1, n + 1):
        yield from itertools.combinations_with_replacement(range(1, top + 1), k)


def symmetric_and_plain(n, exps):
    """The symmetric ideal of the pattern, which keeps it, and the same
    generators built without it, which take the mask test and the engine."""
    c = ctx(n)
    I = build_symmetric_ideal(SymmetricPattern(c, exps))
    return I, MonomialIdeal._from_exps(c, I._exps)


class TestSymmetricIdealFromItsPattern:
    """A symmetric ideal answers colon tests and its decomposition from its
    pattern; the same generators without it are the oracle."""

    def test_only_the_builder_keeps_the_pattern(self):
        c = ctx(3)
        pattern = SymmetricPattern(c, (1, 3, 3))
        I, plain = symmetric_and_plain(3, (1, 3, 3))
        public = MonomialIdeal(c, I.gens)
        assert I._pattern == pattern
        assert plain._pattern is None and public._pattern is None
        assert I.colon(mono(c, "x1"))._pattern is None

    @pytest.mark.parametrize("n, exps", [(3, (1, 3, 3)), (4, (1, 2, 2)), (5, (1, 1, 2, 3))])
    def test_equals_and_hashes_like_the_public_constructor(self, n, exps):
        I, plain = symmetric_and_plain(n, exps)
        public = MonomialIdeal(I.context, I.gens)
        assert I == public == plain and public == I
        assert hash(I) == hash(public) == hash(plain)
        assert len({I, public, plain}) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_the_mask_test_on_every_box_point(self, n):
        # every pattern with entries up to 3, every prime, every v <= max + 1
        primes = every_prime(ctx(n))
        for exps in symmetric_patterns(n, 3):
            I, plain = symmetric_and_plain(n, exps)
            for v in itertools.product(range(exps[-1] + 2), repeat=n):
                m = Monomial(I.context, v)
                for P in primes:
                    verdict = verify_witness(I, P, m)
                    assert verdict == verify_witness(plain, P, m), (exps, P, v)
                    assert verdict == resorting_colon_is_prime(I._pattern, P.vars, v), (exps, P, v)
            assert I._table is None  # the pattern test reads no level table

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_the_tuple_scan_on_every_box_point(self, n):
        primes = [P.vars for P in every_prime(ctx(n))]
        for exps in symmetric_patterns(n, 2):
            I, _ = symmetric_and_plain(n, exps)
            for v in itertools.product(range(exps[-1] + 2), repeat=n):
                m = Monomial(I.context, v)
                for vs in primes:
                    P = PrimeSupport(I.context, vs)
                    verdict = verify_witness(I, P, m)
                    assert verdict == tuple_colon_is_prime(I, v, vs), (exps, vs, v)
                    assert verdict == resorting_colon_is_prime(I._pattern, vs, v), (exps, vs, v)

    @pytest.mark.parametrize("n, count", [(5, 4000), (6, 3000)])
    def test_agrees_with_both_oracles_on_seeded_samples(self, n, count):
        # half the points anywhere in the box, half a step or none away from a
        # canonical witness: e_b - 1 on the prime of a break b, the top off it
        rng = random.Random(8000 + n)
        primes = every_prime(ctx(n))
        cases = {}
        verified = 0
        for _ in range(count):
            exps = tuple(sorted(rng.choices(range(1, 5), k=rng.randint(1, n))))
            if exps not in cases:
                cases[exps] = symmetric_and_plain(n, exps)
            I, plain = cases[exps]
            if rng.random() < 0.5:
                P = rng.choice(primes)
                v = tuple(rng.randint(0, exps[-1] + 1) for _ in range(n))
            else:
                b = rng.choice(I._pattern.breaks())
                P = PrimeSupport(I.context, rng.sample(range(n), n - len(exps) + b + 1))
                v = tuple(max(0, (exps[b] - 1 if i in P.vars else exps[-1])
                              + rng.choice((-1, 0, 0, 0, 1))) for i in range(n))
            verdict = verify_witness(I, P, Monomial(I.context, v))
            assert verdict == verify_witness(plain, P, Monomial(I.context, v)), (exps, P, v)
            assert verdict == tuple_colon_is_prime(plain, v, P.vars), (exps, P, v)
            assert verdict == resorting_colon_is_prime(I._pattern, P.vars, v), (exps, P, v)
            verified += verdict
        assert verified > count // 20  # the samples reach true verdicts too

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_form_is_the_engine_decomposition(self, n):
        for exps in symmetric_patterns(n, 4 if n <= 5 else 3):
            I, plain = symmetric_and_plain(n, exps)
            d = irreducible_decomposition(I)
            assert d == irreducible_decomposition(plain), exps
            # the floors come from the pattern: the top exponent on every variable
            assert I.max_exponents() == plain.max_exponents() == (exps[-1],) * n, exps
            for P in d.primes():
                classify_uniqueness(I, P)
                witness_from_component(I, WitnessSpec(P, d.components_for(P)[0]))
            assert I._table is None  # neither the closed form nor the floors build a table

    @pytest.mark.parametrize("exps", [(1,), (2, 2), (1, 2, 3), (1, 1, 2, 3), (1, 2, 2, 3),
                                      (2, 3, 3, 3, 3), (2, 2, 2, 3, 3, 3, 3),
                                      (1, 1, 1, 1, 1, 2, 2, 2), (1,) * 8])
    def test_closed_form_on_eight_variables(self, exps):
        I, plain = symmetric_and_plain(8, exps)
        assert irreducible_decomposition(I) == irreducible_decomposition(plain)

    def test_closed_form_counts(self):
        # one component per break b and set of n - k + b + 1 variables
        I, _ = symmetric_and_plain(10, (1, 1, 2, 3, 4))
        d = irreducible_decomposition(I)
        assert len(I) == 15120
        assert len(d) == math.comb(10, 6) + math.comb(10, 8) + math.comb(10, 9) + 1 == 266
        assert all(len(d.components_for(P)) == 1 for P in d.primes())

    def test_every_canonical_witness_verifies_and_its_neighbours_agree(self):
        I, plain = symmetric_and_plain(6, (1, 2, 2, 4))
        d = irreducible_decomposition(I)
        floors = list(I.max_exponents())
        for q in d:
            v = q._witness(floors.copy())
            assert verify_witness(I, q.prime(), v) and verify_witness(plain, q.prime(), v)
            for i, sign in itertools.product(range(6), (-1, 1)):
                exps = list(v.exps)
                exps[i] = max(0, exps[i] + sign)
                w = Monomial(I.context, exps)
                assert verify_witness(I, q.prime(), w) == verify_witness(plain, q.prime(), w)

    def test_rings_are_checked_as_for_any_ideal(self):
        I, _ = symmetric_and_plain(3, (1, 3, 3))
        other = ctx(4)
        with pytest.raises(ContextMismatchError):
            verify_witness(I, PrimeSupport(I.context, [0]), mono(other, "x1"))
        assert not verify_witness(I, PrimeSupport(other, [0]), mono(I.context, "x2^3*x3^3"))
        assert verify_witness(I, PrimeSupport(I.context, [0]), mono(I.context, "x2^3*x3^3"))

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_copies_keep_the_pattern_and_every_verdict(self, how):
        copies = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                  "copy": copy.copy, "deepcopy": copy.deepcopy}
        I, plain = symmetric_and_plain(4, (1, 2, 2))
        again = copies[how](I)
        assert again._pattern == I._pattern is not None
        assert again == I and hash(again) == hash(I)
        for v in itertools.product(range(4), repeat=4):
            m = Monomial(I.context, v)
            for P in every_prime(I.context):
                assert verify_witness(again, P, m) == verify_witness(plain, P, m)
        assert irreducible_decomposition(again) == irreducible_decomposition(plain)


class TestClassifyUniqueness:
    def test_six_var_prime_is_not_unique(self):
        I = six_var_ideal()
        P = PrimeSupport(ctx(6), [0, 1])
        result = classify_uniqueness(I, P)
        assert not result.unique
        v1, v2 = result.witnesses
        assert v1 != v2
        assert verify_witness(I, P, v1) and verify_witness(I, P, v2)

    def test_unique_full_support(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x2^3")
        result = classify_uniqueness(I, PrimeSupport(c, [0, 1]))
        assert result.unique
        assert result.witnesses == (mono(c, "x1*x2^2"),)

    def test_two_full_support_components(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2", "x2^3")
        result = classify_uniqueness(I, PrimeSupport(c, [0, 1]))
        assert not result.unique
        assert result.witnesses == (mono(c, "x2^2"), mono(c, "x1"))
        for w in result.witnesses:
            assert verify_witness(I, PrimeSupport(c, [0, 1]), w)

    def test_not_associated_rejected(self):
        c = ctx(2)
        with pytest.raises(ValueError):
            classify_uniqueness(ideal(c, "x1"), PrimeSupport(c, [1]))

    def test_corpus_classification(self):
        for I in witness_corpus()[:80]:
            d = irreducible_decomposition(I)
            for P in d.primes():
                result = classify_uniqueness(I, P)
                full = P.is_full_support
                single = len(d.components_for(P)) == 1
                assert result.unique == (full and single)
                for w in result.witnesses:
                    assert verify_witness(I, P, w)
                if not result.unique:
                    assert len(set(result.witnesses)) == 2

    def test_unique_witness_perturbations_fail(self):
        for I in witness_corpus()[:120]:
            d = irreducible_decomposition(I)
            for P in d.primes():
                result = classify_uniqueness(I, P)
                if not result.unique:
                    continue
                (v,) = result.witnesses
                for i in P.vars:
                    bumped = times_variable(v, i)
                    assert not verify_witness(I, P, bumped)


class TestOffsetMonotonicity:
    def test_increasing_offsets_preserve_verification(self):
        rng = random.Random(31337)
        for I in witness_corpus()[:30]:
            d = irreducible_decomposition(I)
            for q in d.components:
                P = q.prime()
                complement = P.complement()
                if not complement:
                    continue
                offsets = {v: rng.choice((0, 1)) for v in complement}
                bump = rng.choice(complement)
                grown = dict(offsets)
                grown[bump] = offsets[bump] + rng.randint(1, 3)
                for chosen in (offsets, grown):
                    v = witness_from_component(I, WitnessSpec(P, q, chosen))
                    assert verify_witness(I, P, v)
