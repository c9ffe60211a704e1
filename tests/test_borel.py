"""Borel-type detection, the saturation oracle, the exchange closure, and the
one-extra-variable witness."""

import itertools
import random
from functools import reduce
from math import comb

import pytest
from hypothesis import given
import hypothesis.strategies as st

import monowit.rings as rings
from monowit import (
    IrreducibleComponent,
    MonomialIdeal,
    PrimeSupport,
    SymmetricPattern,
    WitnessSpec,
    associated_primes,
    borel_witness,
    build_symmetric_ideal,
    exchange_closure,
    irreducible_decomposition,
    is_borel_type,
    is_borel_type_by_saturation,
    symmetric_witness,
    verify_witness,
    witness_from_component,
)
from util import (
    borel_closure_seeds,
    borel_corpus,
    ctx,
    ideal,
    ideals,
    intersect,
    mono,
    monomials,
    oracle_exchange_certificate,
    oracle_exchange_closure,
    oracle_is_borel_type_by_saturation,
    oracle_saturate,
    session_ideal,
    variable,
    witness_corpus,
)


def certificate_exps(I):
    """is_borel_type's certificate as (u.exps, i, j), or None."""
    certificate = is_borel_type(I).certificate
    if certificate is None:
        return None
    u, i, j = certificate
    return u.exps, i, j


class TestDetection:
    def test_positive_two_variable_example(self):
        c = ctx(2)
        report = is_borel_type(ideal(c, "x1^2", "x1*x2"))
        assert report.is_borel_type
        assert report.certificate is None
        assert tuple(p.vars for p in report.primes) == ((0,), (0, 1))

    def test_negative_with_certificate(self):
        c = ctx(2)
        report = is_borel_type(ideal(c, "x2"))
        assert not report.is_borel_type
        u, i, j = report.certificate
        assert (u, i, j) == (mono(c, "x2"), 1, 0)

    def test_certificates_revalidate(self):
        for I in borel_corpus():
            report = is_borel_type(I)
            if report.is_borel_type:
                continue
            u, i, j = report.certificate
            assert u in I.gens and j < i and u.exps[i] > 0
            bound = I.max_exponents()[j]
            stripped = {
                t: e for t, e in enumerate(u.exps) if e and t != i
            }
            stripped[j] = stripped.get(j, 0) + bound
            probe = I.context.monomial_from_powers(stripped)
            assert probe not in I

    def test_certificate_matches_probe_oracle(self):
        for I in borel_corpus() + witness_corpus():
            assert certificate_exps(I) == oracle_exchange_certificate(I)

    @given(ideals(max_n=5))
    def test_certificate_matches_probe_oracle_on_random_ideals(self, I):
        assert certificate_exps(I) == oracle_exchange_certificate(I)

    def test_certificates_on_exponents_near_a_million(self):
        # the level bits keep only the order of the exponents, and an increasing
        # map of each variable's exponents keeps every exchange-test outcome
        def lift(e):
            return e + 999_999 if e else 0

        for I in borel_corpus() + witness_corpus():
            lifted = MonomialIdeal._from_exps(I.context, (tuple(map(lift, u)) for u in I._exps))
            expected = certificate_exps(I)
            if expected is not None:
                u, i, j = expected
                expected = tuple(map(lift, u)), i, j
            assert certificate_exps(lifted) == expected == oracle_exchange_certificate(lifted)

    def test_session_ideal_is_not_borel_type(self):
        assert not is_borel_type(session_ideal()).is_borel_type

    def test_zero_and_unit_rejected(self):
        c = ctx(2)
        for name, I in [("zero", MonomialIdeal(c, ())), ("unit", MonomialIdeal(c, [c.one]))]:
            for operation in (is_borel_type, is_borel_type_by_saturation, exchange_closure):
                with pytest.raises(ValueError) as raised:
                    operation(I)
                assert str(raised.value) == f"the {name} ideal is not classified"

    def test_single_variable_ring_is_trivially_borel(self):
        c = ctx(1)
        assert is_borel_type(ideal(c, "x1^3")).is_borel_type


class TestSaturate:
    """`oracle_saturate`, the repeated colon that the saturation checks use."""

    def test_pure_power_saturates_to_unit(self):
        c = ctx(1)
        assert oracle_saturate(ideal(c, "x1^3"), ideal(c, "x1")).is_unit

    def test_strips_one_variable(self):
        c = ctx(2)
        assert oracle_saturate(ideal(c, "x1*x2"), ideal(c, "x2")) == ideal(c, "x1")

    def test_zero_divisor_rejected(self):
        c = ctx(2)
        with pytest.raises(ValueError):
            oracle_saturate(ideal(c, "x1"), MonomialIdeal(c, ()))

    def test_borel_type_saturation_identity(self):
        # saturating by x_i alone matches saturating by the whole prefix
        for I in borel_corpus():
            if not is_borel_type(I).is_borel_type:
                continue
            c = I.context
            for i in range(c.n):
                single = MonomialIdeal(c, [variable(c, i)])
                prefix = MonomialIdeal(c, [variable(c, t) for t in range(i + 1)])
                assert oracle_saturate(I, single) == oracle_saturate(I, prefix)

    @given(data=st.data())
    def test_matches_repeated_colon(self, data):
        # the closed form: intersect, over the generators g of J, the ideals
        # I with the variables of g dropped from every generator
        I = data.draw(ideals(max_n=4, max_exp=3, max_gens=5, proper=False))
        gens = data.draw(st.lists(monomials(I.context), min_size=1, max_size=4))
        J = MonomialIdeal(I.context, gens)
        c = I.context
        parts = [MonomialIdeal(c, [c.monomial(0 if d else e for e, d in zip(u.exps, g.exps))
                                   for u in I]) for g in J]
        assert oracle_saturate(I, J) == reduce(intersect, parts)

    def test_zero_ideal_saturates_to_zero(self):
        c = ctx(2)
        assert oracle_saturate(MonomialIdeal(c, ()), ideal(c, "x1")).is_zero

    def test_context_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracle_saturate(ideal(ctx(2), "x1"), ideal(ctx(3), "x1"))


def prefix_primes(I):
    """Whether every associated prime is a prefix (x_1..x_j)."""
    return all(p.vars == tuple(range(len(p.vars))) for p in associated_primes(I))


class TestDetectionEquivalence:
    def test_condition_three_matches_saturation_definition(self):
        for I in borel_corpus() + witness_corpus():
            assert is_borel_type(I).is_borel_type == is_borel_type_by_saturation(I)

    def test_incremental_prefix_matches_per_prefix_oracle(self):
        for I in borel_corpus() + witness_corpus():
            assert is_borel_type_by_saturation(I) == oracle_is_borel_type_by_saturation(I)

    @given(ideals(max_n=5))
    def test_incremental_prefix_matches_oracle_on_random_ideals(self, I):
        assert is_borel_type_by_saturation(I) == oracle_is_borel_type_by_saturation(I)

    def test_prefix_primes_iff_borel(self):
        for I in borel_corpus():
            assert is_borel_type(I).is_borel_type == prefix_primes(I)

    @given(ideals())
    def test_prefix_primes_iff_borel_on_random_ideals_and_closures(self, I):
        """borel_witness reads Borel type from the primes; the exchange test
        must agree on every draw and on its exchange closure, and so must
        borel_witness on each prefix prime."""
        for J in (I, exchange_closure(I)):
            borel = is_borel_type(J).is_borel_type
            assert borel == prefix_primes(J)
            d = irreducible_decomposition(J)
            for P in d.primes():
                if P.vars != tuple(range(len(P.vars))):
                    continue
                Q = d.components_for(P)[0]
                if borel:
                    assert verify_witness(J, P, borel_witness(J, P, Q))
                else:
                    with pytest.raises(ValueError, match="is not of Borel type"):
                        borel_witness(J, P, Q)


class TestOneLevelTable:
    """Each ideal builds its level table once: both detectors, the
    decomposition engine, the witness floors and the colon test read the
    same one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The generators of every level table built while the test runs."""
        calls = []
        build = rings._level_table

        def counted(exps, n):
            calls.append(exps)
            return build(exps, n)

        monkeypatch.setattr(rings, "_level_table", counted)
        return calls

    @pytest.mark.parametrize("gens, close", [(("x3^3",), True), (("x1*x3^2", "x2^2"), True),
                                             (("x1*x3^2", "x2^2"), False)])
    def test_one_build_per_ideal(self, builds, gens, close):
        I = ideal(ctx(3), *gens)
        J = exchange_closure(I) if close else I
        assert is_borel_type(J).is_borel_type is close
        assert is_borel_type_by_saturation(J) is close
        floors = J.max_exponents()
        assert floors == tuple(map(max, zip(*(g.exps for g in J.gens))))
        d = irreducible_decomposition(J)
        for P in d.primes():  # the colon test reads the same table
            Q = d.components_for(P)[0]
            v = borel_witness(J, P, Q) if close else witness_from_component(J, WitnessSpec(P, Q))
            assert verify_witness(J, P, v)
        assert builds == [J._exps] and J._table[3] is floors

    def test_symmetric_ideal_builds_no_table_and_its_generators_one(self, builds):
        """A symmetric ideal is verified and decomposed from its pattern, with
        no table; the same generators without it, verified but never
        decomposed, build their table for the first verification alone."""
        pattern = SymmetricPattern(ctx(4), (1, 2, 2))
        S = build_symmetric_ideal(pattern)
        P, v = symmetric_witness(pattern, 0, [0, 1], [2, 2])
        assert [verify_witness(S, P, v) for _ in range(3)] == [True] * 3
        assert P in irreducible_decomposition(S).primes()
        assert builds == [] and S._table is None
        plain = MonomialIdeal._from_exps(S.context, S._exps)
        assert [verify_witness(plain, P, v) for _ in range(3)] == [True] * 3
        assert builds == [plain._exps] and plain._decomposition is None


class TestExchangeClosure:
    def test_contains_seed_is_borel_and_idempotent(self):
        # dedicated small seeds: closing large random ideals blows up
        import random

        rng = random.Random(8)
        c = ctx(4)
        for _ in range(15):
            support = rng.sample(range(4), rng.randint(1, 3))
            seed = c.monomial_from_powers({v: rng.randint(1, 2) for v in support})
            I = MonomialIdeal(c, [seed])
            if I.is_unit:
                continue
            closed = exchange_closure(I)
            assert all(g in closed for g in I)
            assert is_borel_type(closed).is_borel_type
            assert exchange_closure(closed) is closed

    def test_closed_corpus_half_is_borel_type(self):
        for idx, I in enumerate(borel_corpus()):
            if idx % 2:
                assert is_borel_type(I).is_borel_type

    def test_matches_round_oracle_on_corpus_seeds(self):
        for seed in borel_closure_seeds():
            assert exchange_closure(seed) == oracle_exchange_closure(seed)

    @given(ideals())
    def test_matches_round_oracle_on_random_ideals(self, I):
        assert exchange_closure(I) == oracle_exchange_closure(I)

    @pytest.mark.parametrize("n, d", itertools.product(range(1, 7), repeat=2))
    def test_closure_of_last_variable_power_is_maximal_ideal_power(self, n, d):
        c = ctx(n)
        closed = exchange_closure(MonomialIdeal(c, [c.monomial_from_powers({n - 1: d})]))
        power = MonomialIdeal(c, [c.monomial(vs.count(v) for v in range(n))
                                  for vs in itertools.combinations_with_replacement(range(n), d)])
        assert closed == power
        assert len(closed) == comb(n + d - 1, d)

    def test_a_seed_the_closure_makes_non_minimal(self):
        # x2^2 moves to x1^2, which divides the seed generator x1^3
        c = ctx(2)
        seed = ideal(c, "x1^3", "x2^2")
        closed = exchange_closure(seed)
        assert closed == ideal(c, "x1^2", "x1*x2", "x2^2")
        assert closed == oracle_exchange_closure(seed)

    def test_matches_round_oracle_on_mixed_degree_seeds(self):
        """Seeds of two or three generators of distinct degrees, whose closures
        include some that gain a generator through a move below a seed's
        degree, and some that make a seed generator non-minimal."""
        rng = random.Random(2929)
        gained_lower = made_non_minimal = 0
        for _ in range(400):
            c = ctx(rng.randint(2, 4))
            gens = {tuple(rng.randint(0, 3) for _ in range(c.n)) for _ in range(rng.randint(2, 3))}
            if len({sum(u) for u in gens}) < 2 or not all(map(any, gens)):
                continue
            seed = MonomialIdeal(c, map(c.monomial, gens))
            closed = exchange_closure(seed)
            assert closed == oracle_exchange_closure(seed)
            assert certificate_exps(seed) == oracle_exchange_certificate(seed)
            assert certificate_exps(closed) is None
            top = max(map(sum, seed._exps))
            gained_lower += any(sum(g) < top for g in set(closed._exps) - set(seed._exps))
            made_non_minimal += not set(seed._exps) <= set(closed._exps)
        assert gained_lower > 50 and made_non_minimal > 50

    def test_known_closure(self):
        c = ctx(2)
        assert exchange_closure(ideal(c, "x2^2")) == ideal(
            c, "x1^2", "x1*x2", "x2^2"
        )


class TestBorelWitness:
    def test_one_extra_variable(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2")
        P = PrimeSupport(c, [0])
        Q = IrreducibleComponent(c, {0: 1})
        v = borel_witness(I, P, Q)
        assert v == mono(c, "x2")
        assert I.colon(v) == ideal(c, "x1")

    def test_full_support_prime_drops_extra_factor(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2", "x2^3")
        assert is_borel_type(I).is_borel_type
        P = PrimeSupport(c, [0, 1])
        Q = IrreducibleComponent(c, {0: 1, 1: 3})
        v = borel_witness(I, P, Q)
        assert v == mono(c, "x2^2")
        assert verify_witness(I, P, v)

    def test_non_borel_rejected(self):
        c = ctx(2)
        I = ideal(c, "x2")
        with pytest.raises(ValueError):
            borel_witness(I, PrimeSupport(c, [1]), IrreducibleComponent(c, {1: 1}))

    def test_non_prefix_prime_rejected(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2")
        with pytest.raises(ValueError):
            borel_witness(I, PrimeSupport(c, [1]), IrreducibleComponent(c, {1: 1}))

    def test_component_support_must_match_prime(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2")
        with pytest.raises(ValueError):
            borel_witness(I, PrimeSupport(c, [0, 1]), IrreducibleComponent(c, {0: 2}))

    def test_component_must_belong_to_prime(self):
        c = ctx(2)
        I = ideal(c, "x1^2", "x1*x2")
        with pytest.raises(ValueError):
            borel_witness(I, PrimeSupport(c, [0]), IrreducibleComponent(c, {0: 7}))

    def test_every_prefix_prime_gets_a_thin_witness(self):
        for I in borel_corpus():
            if not is_borel_type(I).is_borel_type:
                continue
            d = irreducible_decomposition(I)
            for P in d.primes():
                k = len(P.vars)
                for Q in d.components_for(P):
                    v = borel_witness(I, P, Q)
                    outside = [t for t in v.support() if t not in P.vars]
                    assert outside in ([], [k])
                    assert verify_witness(I, P, v)
