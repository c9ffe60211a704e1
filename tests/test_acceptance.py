"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact arithmetic, so there are no tolerances anywhere.
"""

import functools
import itertools
import random
import time

from monowit import (
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    WitnessSpec,
    associated_primes,
    borel_witness,
    classify_uniqueness,
    component_from_witness,
    irreducible_decomposition,
    is_borel_type,
    is_borel_type_by_saturation,
    verify_witness,
    witness_from_component,
)
from util import (
    borel_corpus,
    box_bounds,
    box_corpus,
    box_exponents,
    clutter_corpus,
    ctx,
    drop_one_intersections,
    graph_corpus,
    ideal,
    intersect,
    mono,
    oracle_member,
    session_ideal,
    six_var_ideal,
    times_variable,
    tiny_corpus,
    witness_corpus,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {name}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {name}")

        return wrapper

    return decorate


def intersect_all(ideals_):
    result = None
    for j in ideals_:
        result = j if result is None else intersect(result, j)
    return result


@criterion(1, "eight-variable session reproduction, exact, under one second")
def test_criterion_1_session_reproduction():
    c = ctx(8)
    started = time.monotonic()
    I = session_ideal()
    d = irreducible_decomposition(I)

    assert d.primes() == (
        PrimeSupport(c, [0, 1, 2, 3]),
        PrimeSupport(c, [0, 1, 2, 3, 7]),
    )
    small = d.components_for(PrimeSupport(c, [0, 1, 2, 3]))
    assert [q.as_ideal() for q in small] == [ideal(c, "x1", "x2^7", "x3^5", "x4^2")]
    big = d.components_for(PrimeSupport(c, [0, 1, 2, 3, 7]))
    assert len(big) == 2
    assert ideal(c, "x1^3", "x2^4", "x3", "x4^5", "x8^2") in [
        q.as_ideal() for q in big
    ]
    assert I.colon(mono(c, "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13")) == ideal(
        c, "x1", "x2", "x3", "x4"
    )
    assert I.colon(mono(c, "x1^2*x2^3*x4^4*x5^2*x7^8*x8")) == ideal(
        c, "x1", "x2", "x3", "x4", "x8"
    )
    assert time.monotonic() - started < 1.0


@criterion(2, "six-variable example: witnesses, failing candidate, non-uniqueness")
def test_criterion_2_six_variable_example():
    c = ctx(6)
    I = six_var_ideal()
    P = PrimeSupport(c, [0, 1])
    assert P in associated_primes(I)
    for text in ("x3^5*x4^4", "x3^5*x5^3", "x6^8*x4^4", "x6^8*x5^3"):
        assert verify_witness(I, P, mono(c, text))
    assert not verify_witness(I, P, mono(c, "x3^5*x5^2"))
    result = classify_uniqueness(I, P)
    assert not result.unique
    v1, v2 = result.witnesses
    assert v1 != v2
    assert verify_witness(I, P, v1) and verify_witness(I, P, v2)


@criterion(3, "witness construction verifies across 500 random ideals")
def test_criterion_3_witness_totality():
    started = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for I in witness_corpus():
        d = irreducible_decomposition(I)
        for P in d.primes():
            complement = P.complement()
            for q in d.components_for(P):
                for _ in range(3):
                    offsets = {v: rng.choice((0, 1, 2)) for v in complement}
                    v = witness_from_component(I, WitnessSpec(P, q, offsets))
                    assert verify_witness(I, P, v)
                    checked += 1
    assert checked > 500
    assert time.monotonic() - started < 60.0


@criterion(4, "decomposition recombines, is irredundant, and is presentation-independent")
def test_criterion_4_decomposition_oracles():
    rng = random.Random(2)
    for I in witness_corpus():
        d = irreducible_decomposition(I)
        parts = [q.as_ideal() for q in d.components]
        assert intersect_all(parts) == I
        if len(parts) > 1:
            for partial in drop_one_intersections(parts):
                assert partial != I
        gens = list(I.gens)
        rng.shuffle(gens)
        padded = gens + [
            times_variable(g, rng.randrange(I.context.n))
            for g in rng.sample(gens, min(2, len(gens)))
        ]
        again = irreducible_decomposition(MonomialIdeal(I.context, padded))
        assert again.components == d.components


@criterion(5, "membership, colon, and intersection match box-enumeration oracles")
def test_criterion_5_brute_force_equivalence():
    rng = random.Random(3)
    corpus = box_corpus()
    for I in corpus:
        bounds = box_bounds(I)
        for exps in box_exponents(bounds):
            assert (Monomial(I.context, exps) in I) == oracle_member(I, exps)
        for _ in range(3):
            v_exps = tuple(rng.randint(0, b) for b in bounds)
            quotient = I.colon(Monomial(I.context, v_exps))
            for exps in box_exponents(bounds):
                lifted = tuple(a + b for a, b in zip(exps, v_exps))
                assert (Monomial(I.context, exps) in quotient) == oracle_member(
                    I, lifted
                )
    by_size = {}
    for I in corpus:
        by_size.setdefault(I.context.n, []).append(I)
    pairs = [
        pair
        for group in by_size.values()
        for pair in zip(group[0::2], group[1::2])
    ]
    assert pairs
    for I, J in pairs:
        met = intersect(I, J)
        bounds = tuple(
            max(a, b) + 1 for a, b in zip(I.max_exponents(), J.max_exponents())
        )
        for exps in box_exponents(bounds):
            assert (Monomial(I.context, exps) in met) == (
                oracle_member(I, exps) and oracle_member(J, exps)
            )


@criterion(6, "edge ideals: primes are minimal covers and complements witness them")
def test_criterion_6_squarefree_clutters():
    for clutter in graph_corpus() + clutter_corpus():
        I = clutter.edge_ideal()
        primes = associated_primes(I)
        covers = {
            frozenset(kk)
            for r in range(clutter.n + 1)
            for kk in itertools.combinations(range(clutter.n), r)
            if all(e & set(kk) for e in clutter.edges)
        }
        minimal = {
            k for k in covers if not any(other < k for other in covers)
        }
        assert {frozenset(p.vars) for p in primes} == minimal
        for p in primes:
            t_a = clutter.witness_base(p)
            assert set(t_a.support()) == set(range(clutter.n)) - set(p.vars)
            assert verify_witness(I, p, t_a)
            assert not any(t_a.exps[i] for i in p.vars)


@criterion(7, "Borel detection routes agree; prefix primes get thin witnesses")
def test_criterion_7_borel():
    borel_seen = 0
    for I in borel_corpus():
        by_condition = is_borel_type(I)
        assert by_condition.is_borel_type == is_borel_type_by_saturation(I)
        if not by_condition.is_borel_type:
            continue
        borel_seen += 1
        d = irreducible_decomposition(I)
        for P in d.primes():
            assert P.vars == tuple(range(len(P.vars)))
            for q in d.components_for(P):
                v = borel_witness(I, P, q)
                outside = set(v.support()) - set(P.vars)
                assert len(outside) <= 1
                assert verify_witness(I, P, v)
    assert borel_seen >= 50


@criterion(8, "witnesses invert to decomposition components")
def test_criterion_8_component_roundtrip():
    rng = random.Random(4)
    for I in witness_corpus():
        d = irreducible_decomposition(I)
        for q in d.components:
            P = q.prime()
            offsets = {v: rng.choice((0, 1, 2)) for v in P.complement()}
            for chosen in ({}, offsets):
                v = witness_from_component(I, WitnessSpec(P, q, chosen))
                assert component_from_witness(I, P, v) == q
    for I in tiny_corpus():
        d = irreducible_decomposition(I)
        prime_ideals = {P: P.as_ideal() for P in d.primes()}
        for exps in box_exponents(box_bounds(I)):
            v = Monomial(I.context, exps)
            quotient = I.colon(v)
            for P, as_ideal in prime_ideals.items():
                if quotient == as_ideal:
                    assert component_from_witness(I, P, v) in d.components


@criterion(9, "uniqueness classification matches the full-support component count")
def test_criterion_9_uniqueness_classifier():
    for I in witness_corpus()[:100]:
        d = irreducible_decomposition(I)
        for P in d.primes():
            result = classify_uniqueness(I, P)
            expected = P.is_full_support and len(d.components_for(P)) == 1
            assert result.unique == expected
            for w in result.witnesses:
                assert verify_witness(I, P, w)
            if result.unique:
                assert len(result.witnesses) == 1
            else:
                assert len(result.witnesses) == 2
                assert result.witnesses[0] != result.witnesses[1]
