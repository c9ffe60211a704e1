"""Irredundant irreducible decomposition and associated primes."""

import gc
import random
import re
import time
from operator import add, le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monowit import (
    Clutter,
    Decomposition,
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingContext,
    WitnessSpec,
    associated_primes,
    borel_witness,
    classify_uniqueness,
    component_from_witness,
    irreducible_decomposition,
    parse_ideal_gens,
    verify_witness,
    witness_from_component,
)
from monowit.decompose import _irreducible_components
from monowit.rings import _level_table, _minimize_exps
from util import (
    box_bounds,
    box_exponents,
    clutter_corpus,
    ctx,
    drop_one_intersections,
    every_prime,
    graph_corpus,
    ideal,
    ideals,
    intersect,
    mono,
    oracle_radical,
    pairwise_components,
    session_ideal,
    six_var_ideal,
    split_components,
    times_variable,
    tiny_corpus,
    tuple_components,
    wide_clutter_corpus,
    wide_ideal_corpus,
    witness_corpus,
)


def intersect_all(components):
    result = None
    for q in components:
        j = q.as_ideal()
        result = j if result is None else intersect(result, j)
    return result


class TestSessionIdeal:
    def test_components(self):
        c = ctx(8)
        d = irreducible_decomposition(session_ideal())
        expected = {
            ideal(c, "x1", "x2^7", "x3^5", "x4^2"),
            ideal(c, "x1^4", "x2^7", "x3^5", "x4^2", "x8^8"),
            ideal(c, "x1^3", "x2^4", "x3", "x4^5", "x8^2"),
        }
        assert {q.as_ideal() for q in d.components} == expected

    def test_associated_primes(self):
        c = ctx(8)
        assert associated_primes(session_ideal()) == (
            PrimeSupport(c, [0, 1, 2, 3]),
            PrimeSupport(c, [0, 1, 2, 3, 7]),
        )

    def test_components_for_each_prime(self):
        c = ctx(8)
        d = irreducible_decomposition(session_ideal())
        small = d.components_for(PrimeSupport(c, [0, 1, 2, 3]))
        assert [q.as_ideal() for q in small] == [ideal(c, "x1", "x2^7", "x3^5", "x4^2")]
        big = d.components_for(PrimeSupport(c, [0, 1, 2, 3, 7]))
        assert {q.as_ideal() for q in big} == {
            ideal(c, "x1^4", "x2^7", "x3^5", "x4^2", "x8^8"),
            ideal(c, "x1^3", "x2^4", "x3", "x4^5", "x8^2"),
        }

    def test_recombination(self):
        d = irreducible_decomposition(session_ideal())
        assert intersect_all(d.components) == session_ideal()


class TestBasics:
    def test_irreducible_input_is_its_own_decomposition(self):
        c = ctx(3)
        I = ideal(c, "x1^2", "x3")
        d = irreducible_decomposition(I)
        assert len(d) == 1 and d.components[0].as_ideal() == I

    def test_component_accessors(self):
        q = IrreducibleComponent(ctx(4), {0: 2, 3: 1})
        assert q.support() == (0, 3)
        assert q.pairs == ((0, 2), (3, 1))
        assert q.prime() == PrimeSupport(ctx(4), [0, 3])

    def test_component_validation(self):
        with pytest.raises(ValueError):
            IrreducibleComponent(ctx(2), {})
        with pytest.raises(ValueError):
            IrreducibleComponent(ctx(2), {0: 0})
        with pytest.raises(ValueError):
            IrreducibleComponent(ctx(2), {5: 1})

    def test_zero_and_unit_rejected(self):
        c = ctx(2)
        for name, I in [("zero", MonomialIdeal(c, ())), ("unit", MonomialIdeal(c, [c.one]))]:
            for operation in (irreducible_decomposition, associated_primes):
                with pytest.raises(ValueError) as raised:
                    operation(I)
                assert str(raised.value) == f"the {name} ideal has no irreducible decomposition"

    def test_not_associated_raises(self):
        d = irreducible_decomposition(session_ideal())
        with pytest.raises(ValueError):
            d.components_for(PrimeSupport(ctx(8), [4]))

    def test_six_var_ideal_has_x1_x2_prime(self):
        c = ctx(6)
        d = irreducible_decomposition(six_var_ideal())
        assert PrimeSupport(c, [0, 1]) in d.primes()
        assert [q.as_ideal() for q in d.components_for(PrimeSupport(c, [0, 1]))] == [
            ideal(c, "x1", "x2")
        ]


class TestCorpusProperties:
    def test_recombination_exact(self):
        for I in witness_corpus()[:60]:
            d = irreducible_decomposition(I)
            assert intersect_all(d.components) == I

    def test_irredundancy_by_dropping(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            if len(d) == 1:
                continue
            for partial in drop_one_intersections([q.as_ideal() for q in d.components]):
                assert partial != I

    def test_components_are_canonically_sorted(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            keys = [(q.support(), tuple(e for _, e in q.pairs)) for q in d.components]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_primes_are_component_radicals(self):
        for I in witness_corpus()[:40]:
            d = irreducible_decomposition(I)
            assert set(d.primes()) == {q.prime() for q in d.components}
            for q in d.components:
                assert oracle_radical(q.as_ideal()) == q.prime().as_ideal()
                assert str(q) == str(q.as_ideal())

    def test_determinism_under_shuffle_and_redundancy(self):
        rng = random.Random(5150)
        for I in witness_corpus()[:25]:
            d = irreducible_decomposition(I)
            gens = list(I.gens)
            rng.shuffle(gens)
            padded = gens + [
                times_variable(g, rng.randrange(I.context.n))
                for g in rng.sample(gens, min(2, len(gens)))
            ]
            again = irreducible_decomposition(MonomialIdeal(I.context, padded))
            assert again.components == d.components


class TestLifetime:
    """Each ideal keeps its own decomposition, computed once and freed with
    the ideal; nothing is shared between equal ideals or kept globally."""

    def test_repeat_calls_return_the_same_object(self):
        I = session_ideal()
        assert irreducible_decomposition(I) is irreducible_decomposition(I)
        assert associated_primes(I) is irreducible_decomposition(I).primes()

    def test_equal_ideals_do_not_share(self):
        first, second = session_ideal(), session_ideal()
        assert first == second and first is not second
        d1, d2 = irreducible_decomposition(first), irreducible_decomposition(second)
        assert d1 == d2 and d1 is not d2
        assert irreducible_decomposition(first) is d1
        assert irreducible_decomposition(second) is d2

    def test_dropped_ideals_free_their_decompositions(self):
        """A decomposition holds no reference back to its ideal, so reference
        counting frees it with the ideal, with no cyclic collection."""
        def alive():
            return sum(isinstance(o, Decomposition) and o.components[0].context is c
                       for o in gc.get_objects())

        c = RingContext(2)  # not shared with the corpora, which stay alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            for a in range(1, 301):
                assert len(irreducible_decomposition(ideal(c, f"x1^{a}", "x2"))) == 1
            assert alive() == 0
        finally:
            if enabled:
                gc.enable()


def corpus_decompositions():
    """Each corpus decomposition, and the same components handed to the
    constructor in reverse order."""
    out = [irreducible_decomposition(I) for I in witness_corpus()] + [
        irreducible_decomposition(g.edge_ideal()) for g in graph_corpus()]
    return out + [Decomposition(reversed(d.components)) for d in out]


def near_components(d):
    """The components, each with one exponent raised and (where it stays
    positive) lowered, and the first component of a ring one variable larger."""
    out = list(d.components)
    for q in d.components:
        for i, e in q.pairs:
            for step in (1, -1):
                powers = dict(q.pairs)
                powers[i] = e + step
                if powers[i] > 0:
                    out.append(IrreducibleComponent(q.context, powers))
    first = d.components[0]
    out.append(IrreducibleComponent(ctx(first.context.n + 1), dict(first.pairs)))
    return out


class TestIndexedLookups:
    """primes(), components_for and component membership read an index the
    constructor builds; each must agree with a plain scan of components."""

    def test_primes_match_a_scan(self):
        for d in corpus_decompositions():
            supports = sorted({q.support() for q in d.components})
            ring = d.components[0].context
            assert d.primes() == tuple(PrimeSupport(ring, vs) for vs in supports)

    def test_components_for_matches_a_scan(self):
        for d in corpus_decompositions():
            for P in every_prime(d.components[0].context):
                scan = tuple(q for q in d.components if q.support() == P.vars)
                if scan:
                    assert d.components_for(P) == scan
                else:
                    with pytest.raises(ValueError, match="is not an associated prime"):
                        d.components_for(P)

    def test_membership_matches_a_scan(self):
        members = nonmembers = 0
        for d in corpus_decompositions():
            for q in near_components(d):
                expected = any(q == c for c in d.components)
                assert (q in d) == expected
                members += expected
                nonmembers += not expected
            assert d.primes()[0] not in d and "x1" not in d
        assert members and nonmembers

    def test_witness_checks_match_a_scan(self):
        for I in witness_corpus()[:100]:
            d = irreducible_decomposition(I)
            for q in near_components(d):
                spec = WitnessSpec(q.prime(), q)
                if any(q == c for c in d.components):
                    v = witness_from_component(I, spec)
                    assert component_from_witness(I, q.prime(), v) == q
                else:
                    with pytest.raises(ValueError, match="is not a component"):
                        witness_from_component(I, spec)

    @pytest.mark.parametrize("ring", [RingContext(["y1", "y2"]), RingContext(3)],
                             ids=["same-size", "larger"])
    @pytest.mark.parametrize("check", [
        lambda I, P: irreducible_decomposition(I).components_for(P),
        lambda I, P: classify_uniqueness(I, P),
        lambda I, P: borel_witness(I, P, irreducible_decomposition(I).components[0]),
    ], ids=["components_for", "classify_uniqueness", "borel_witness"])
    def test_primes_of_another_ring_are_not_associated(self, check, ring):
        """A prime on the indices of an associated prime, in another ring,
        is not associated: components_for rejects it for every caller."""
        I = ideal(ctx(2), "x1^2", "x1*x2^3")
        assert irreducible_decomposition(I).primes()[0].vars == (0,)
        P = PrimeSupport(ring, [0])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(P))} is not an associated prime$"):
            check(I, P)


class TestHypothesisProperties:
    @given(I=ideals(max_n=4, max_exp=3, max_gens=5))
    def test_recombination(self, I):
        d = irreducible_decomposition(I)
        assert intersect_all(d.components) == I

    @given(I=ideals(max_n=3, max_exp=3, max_gens=4))
    def test_every_component_is_pure_power(self, I):
        for q in irreducible_decomposition(I).components:
            base = q.as_ideal()
            assert all(len(g.support()) == 1 for g in base.gens)


def assert_matches_oracles(I, rng, split=True):
    """The decomposition equals the pairwise filter and, when split is true,
    the split recursion, which takes seconds past eight variables; and the
    engine fed the generators in given, reversed and shuffled order equals
    the unpruned tuple engine fed the same order.  Returns the components."""
    gens, n = I._exps, I.context.n
    expected = pairwise_components(gens, n)
    if split:
        assert split_components(gens) == expected
    assert [q.pairs for q in irreducible_decomposition(I).components] == expected
    shuffled = list(gens)
    rng.shuffle(shuffled)
    for order in (gens, gens[::-1], shuffled):
        found = sorted(_irreducible_components(_level_table(order, n)))
        assert found == sorted(tuple_components(order, n))
        assert [tuple(zip(support, exps)) for support, exps in found] == expected
    return expected


def perrin(top):
    """The Perrin numbers P(0..top), P(n) = P(n-2) + P(n-3): for n >= 3, the
    number of minimal vertex covers of the n-cycle."""
    out = [3, 0, 2]
    while len(out) <= top:
        out.append(out[-2] + out[-3])
    return out


def cycle_ideal(n):
    return Clutter(n, [{i, (i + 1) % n} for i in range(n)]).edge_ideal()


class TestSplitRecursionOracle:
    """The engine against the split recursion and the pairwise filter."""

    def test_witness_corpus(self):
        rng = random.Random(8)
        for I in witness_corpus():
            assert_matches_oracles(I, rng)

    def test_edge_ideals(self):
        rng = random.Random(9)
        for clutter in graph_corpus() + clutter_corpus():
            assert_matches_oracles(clutter.edge_ideal(), rng)

    @given(I=ideals(max_n=5, max_gens=7), rng=st.randoms(use_true_random=False))
    def test_random_ideals(self, I, rng):
        assert_matches_oracles(I, rng)

    @given(I=ideals(max_n=6, max_exp=1, max_gens=8), rng=st.randoms(use_true_random=False))
    def test_squarefree_ideals(self, I, rng):
        assert_matches_oracles(I, rng)


class TestWideOracle:
    """The engine against the pairwise filter and the unpruned tuple engine
    on inputs too wide for the split recursion."""

    def test_random_ideals_that_are_not_squarefree(self):
        rng = random.Random(10)
        corpus = wide_ideal_corpus()
        assert all(15 <= len(I) <= 25 and 8 <= I.context.n <= 10 for I in corpus)
        for I in corpus:
            assert_matches_oracles(I, rng, split=False)

    def test_graph_and_clutter_edge_ideals(self):
        rng = random.Random(11)
        corpus = wide_clutter_corpus()
        assert {len(e) for c in corpus[1::2] for e in c.edges} == {3}
        for clutter in corpus:
            assert 10 <= clutter.n <= 14
            assert_matches_oracles(clutter.edge_ideal(), rng, split=False)

    def test_cycles_against_the_perrin_counts(self):
        rng = random.Random(12)
        counts = perrin(26)
        for n in range(3, 27):
            assert len(assert_matches_oracles(cycle_ideal(n), rng, split=False)) == counts[n]


class TestReach:
    """A candidate Q + (x_i^{u_i}) tests again only the variables of Q that
    x_i reaches: those of a generator that x_i divides.  Each case feeds the
    engine its generators in this order, all of one bit count, so the last
    one, u = x2*x3, extends the component (x1) by x2 with x1 reached."""

    @pytest.mark.parametrize("gens, expected", [
        # x1's only private generator in (x1) is x1*x2, which x2 divides:
        # (x1, x2) contains (x2) and is dropped
        (["x1*x2", "x2*x3"], ["(x1, x3)", "(x2)"]),
        # x1*x4 is private for x1 too, and x2 does not divide it: (x1, x2) is kept
        (["x1*x2", "x1*x4", "x2*x3"], ["(x1, x2)", "(x1, x3)", "(x2, x4)"]),
    ], ids=["only-private-generator-killed", "second-private-generator-survives"])
    def test_the_new_head_against_the_private_generators(self, gens, expected):
        n = 4
        c = ctx(n)
        order = [mono(c, g).exps for g in gens]
        found = sorted(_irreducible_components(_level_table(order, n)))
        assert [tuple(zip(support, exps)) for support, exps in found] == \
            pairwise_components(_minimize_exps(order), n)
        assert [str(IrreducibleComponent(c, dict(zip(support, exps))))
                for support, exps in found] == expected


def assert_certified(I, d):
    """Every generator lies in every component, and each component's
    Theorem 3.1 witness verifies."""
    for q in d.components:
        assert all(any(g[v] >= e for v, e in q.pairs) for g in I._exps)
        v = witness_from_component(I, WitnessSpec(q.prime(), q))
        assert verify_witness(I, q.prime(), v)


class TestCycles:
    def test_perrin_counts(self):
        counts = perrin(30)
        for n in range(3, 31):
            d = irreducible_decomposition(cycle_ideal(n))
            assert len(d) == counts[n]
            assert all(len(q.support()) >= n // 2 for q in d.components)
        assert counts[22] == 486 and counts[30] == 4610
        assert_certified(cycle_ideal(30), d)

    def test_random_ideal_at_scale(self):
        rng = random.Random(2)
        c = ctx(10)
        gens = []
        while len(MonomialIdeal(c, gens).gens) < 20:
            exps = [0] * 10
            for v in rng.sample(range(10), rng.randint(2, 4)):
                exps[v] = rng.randint(1, 5)
            gens.append(Monomial(c, tuple(exps)))
        I = MonomialIdeal(c, gens)
        d = irreducible_decomposition(I)
        assert len(d) == 365
        assert [q.pairs for q in d.components] == pairwise_components(I._exps, 10)
        assert_certified(I, d)


def cycle_powers(n, top):
    """The powers 1..top of the n-cycle's edge ideal, each built from the
    products of the last one with the edges, through the public constructor."""
    c = ctx(n)
    edges = [Monomial(c, tuple(int(j in (i, (i + 1) % n)) for j in range(n))) for i in range(n)]
    powers = [MonomialIdeal(c, edges)]
    while len(powers) < top:
        powers.append(MonomialIdeal(c, [Monomial(c, tuple(map(add, u.exps, e.exps)))
                                        for u in powers[-1].gens for e in edges]))
    return powers


class TestCyclePowers:
    """Ass(I^t) for the edge ideal I of a cycle, where theorems fix the
    answer.  x_i's levels in I^t are 1..t, so each generator's mask has as
    many bits as its degree, 2t."""

    @staticmethod
    def primes(power):
        return {p.vars for p in associated_primes(power)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_odd_cycles_gain_the_maximal_ideal_at_power_k_plus_one(self, k):
        # Chen, Morey and Sung, Rocky Mountain J. Math. 2002
        n = 2 * k + 1
        everything = tuple(range(n))
        for t, power in enumerate(cycle_powers(n, k + 2), start=1):
            assert (everything in self.primes(power)) == (t >= k + 1), t
            if t == k + 1:  # x1*...*xn, one degree short of I^t
                v = Monomial(power.context, (1,) * n)
                assert verify_witness(power, PrimeSupport(power.context, everything), v)

    @pytest.mark.parametrize("n, top", [(4, 4), (6, 4), (8, 3)])
    def test_even_cycles_keep_their_primes(self, n, top):
        # bipartite graphs are normally torsion-free: Simis, Vasconcelos and
        # Villarreal, J. Algebra 1994
        powers = cycle_powers(n, top)
        assert all(self.primes(power) == self.primes(powers[0]) for power in powers)

    @pytest.mark.parametrize("n, top", [(3, 3), (4, 4), (5, 4), (6, 4), (7, 5), (8, 3)])
    def test_primes_persist(self, n, top):
        # Martinez-Bernal, Morey and Villarreal, Collect. Math. 2012
        primes = [self.primes(power) for power in cycle_powers(n, top)]
        assert all(a <= b for a, b in zip(primes, primes[1:]))

    @pytest.mark.parametrize("n, t", [(5, 3), (6, 2), (7, 2)])
    def test_powers_match_the_split_recursion(self, n, t):
        power = cycle_powers(n, t)[-1]
        assert [q.pairs for q in irreducible_decomposition(power)] == split_components(power._exps)


def lift_ideal(I, lift):
    """I with each nonzero exponent e of x_i replaced by lift(i, e)."""
    c = I.context
    return MonomialIdeal(c, [Monomial(c, tuple(e and lift(i, e) for i, e in enumerate(g)))
                             for g in I._exps])


def best_time(f, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


class TestOrderType:
    """The engine reads only the order of each variable's exponents: one
    level bit per distinct exponent, not one per value up to the largest."""

    @given(I=ideals(max_n=5, max_exp=4, max_gens=7), data=st.data())
    def test_increasing_maps_carry_the_components(self, I, data):
        n = I.context.n
        shifts = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))

        def lift(i, e):
            return 1000 * e + shifts[i]

        expected = [tuple((i, lift(i, e)) for i, e in q.pairs)
                    for q in irreducible_decomposition(I).components]
        lifted = irreducible_decomposition(lift_ideal(I, lift))
        assert [q.pairs for q in lifted.components] == expected

    def test_exponents_near_a_million(self):
        small = ideal(ctx(4), "x1^3*x2", "x2^2*x3^2", "x3*x4^3", "x1*x4^2", "x1^2*x3^3")
        large = lift_ideal(small, lambda i, e: 999_999 + e)
        assert str(large).startswith("(x1^1000002*x2^1000000, ")
        assert [str(q) for q in irreducible_decomposition(large)] == [
            "(x1^1000002, x2^1000001, x3^1000002, x4^1000001)",
            "(x1^1000000, x2^1000001, x4^1000002)",
            "(x1^1000001, x2^1000001, x4^1000001)",
            "(x1^1000000, x3^1000000)",
            "(x1^1000000, x3^1000001, x4^1000002)",
            "(x1^1000002, x3^1000001, x4^1000001)",
            "(x2^1000000, x3^1000002, x4^1000001)",
        ]
        # the same order of time as the small twin: a mask with a bit per
        # value up to a million would take seconds, not microseconds
        n = small.context.n

        def engine(J):  # the table is built inside the timed call, as the engine's input
            return lambda: _irreducible_components(_level_table(J._exps, n))

        twin = best_time(engine(small))
        lifted = best_time(engine(large))
        assert lifted < 10 * twin + 0.01


class TestLevelTable:
    """The ranked level bits that the engine, the Borel exchange kernel and
    the witness floors all read."""

    def test_masks_decide_divisibility(self):
        # g and w are drawn from the ideal's own levels, zero included, so
        # passing them among the vectors adds no level and their masks are exact
        rng = random.Random(1357)
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [tuple(rng.choice((0, 1, 2, 3, 7, 999_999, 1_000_000)) for _ in range(n))
                    for _ in range(rng.randint(1, 6))]
            levels, var_bits, masks, floors = _level_table(gens, n)
            assert list(levels) == sorted({(i, e) for u in gens for i, e in enumerate(u) if e})
            assert len(levels) == sum(b.bit_count() for b in var_bits)
            assert sum(var_bits) == (1 << len(levels)) - 1  # disjoint and covering every bit
            assert floors == tuple(map(max, zip(*gens))) and len(masks) == len(gens)
            own = [[0] + [e for v, e in levels if v == i] for i in range(n)]
            for _ in range(30):
                g, w = (tuple(map(rng.choice, own)) for _ in range(2))
                table = _level_table(gens + [g, w], n)
                assert table[:2] == (levels, var_bits) and table[2][:-2] == masks
                mask_g, mask_w = table[2][-2:]
                assert (mask_g & ~mask_w == 0) == all(map(le, g, w)), (gens, g, w)

    def test_masks_localized_at_a_prime_give_its_components(self):
        """Setting the variables outside P to 1 is mask & P's bits, and the
        engine run on the subset-minimal localized masks, with the parent's
        levels, returns the components of support P, and none when P is not
        associated (Miller and Sturmfels, Combinatorial Commutative Algebra,
        ch. 5)."""
        pairs = empty = 0
        for I in witness_corpus()[:200]:
            levels, var_bits, masks, floors = I._levels()
            d = irreducible_decomposition(I)
            associated = {p.vars for p in d.primes()}
            for P in every_prime(I.context):
                bits = sum(var_bits[i] for i in P.vars)
                local = {m & bits for m in masks}
                minimal = tuple(m for m in local if not any(g != m and not g & ~m for g in local))
                found = sorted((support, exps) for support, exps
                               in _irreducible_components((levels, var_bits, minimal, floors))
                               if support == P.vars)
                expected = [] if P.vars not in associated else [
                    (q.support(), tuple(e for _, e in q.pairs)) for q in d.components_for(P)]
                assert found == expected, (I, P)
                pairs += 1
                empty += not expected
        assert 0 < empty < pairs


class TestCoverIdeal:
    def test_the_cover_ideal_of_a_cycle_decomposes_to_its_edges(self):
        """Alexander duality: the ideal generated by the minimal vertex
        covers of C22, read off its edge ideal's components, has the 22
        edges as its components."""
        n = 22
        c = ctx(n)
        edges = Clutter(n, [{i, (i + 1) % n} for i in range(n)]).edge_ideal()
        covers = [q.support() for q in irreducible_decomposition(edges)]
        assert len(covers) == 486
        cover_ideal = MonomialIdeal(c, [Monomial(c, tuple(int(i in s) for i in range(n)))
                                        for s in covers])
        assert len(cover_ideal.gens) == 486
        found = [q.pairs for q in irreducible_decomposition(cover_ideal)]
        assert found == sorted(tuple(sorted({(i, 1), ((i + 1) % n, 1)})) for i in range(n))


class TestNamedContexts:
    def test_components_carry_the_declared_ring(self):
        named = RingContext(["a", "b", "c"])
        I = parse_ideal_gens("a^2*b, b*c^3", named)
        # an ideal with the same exponents on the default names, decomposed
        # first, must leave the named ideal its own ring
        irreducible_decomposition(parse_ideal_gens("x1^2*x2, x2*x3^3", ctx(3)))
        d = irreducible_decomposition(I)
        assert all(q.context == named for q in d.components)
        assert str(d.components[0].as_ideal()).startswith("(")
        assert intersect_all(d.components) == I


class TestSquarefreeCase:
    def test_all_component_exponents_one_and_primes_minimal(self):
        for I in witness_corpus():
            if max(I.max_exponents()) > 1:
                continue
            d = irreducible_decomposition(I)
            for q in d.components:
                assert all(e == 1 for _, e in q.pairs)
            # Ass contains the minimal primes and is an antichain, so Ass = Min
            primes = [set(p.vars) for p in d.primes()]
            for a in primes:
                for b in primes:
                    assert a == b or not a < b


def dual_intersection_components(I):
    """Independent route to the components, on raw exponent tuples.

    Pick a componentwise bound a over the generators.  Each generator u
    contributes the pure-power ideal with exponent a_i + 1 - nu_i(u) on its
    support; intersecting all of them and reading the minimal generators w
    back through c_i = a_i + 1 - nu_i(w) yields exactly the irredundant
    component set.
    """
    n = I.context.n
    a = I.max_exponents()

    def minimize(vectors):
        vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
        keep = []
        for v in vectors:
            if not any(all(x <= y for x, y in zip(k, v)) for k in keep):
                keep.append(v)
        return keep

    met = None
    for g in I.gens:
        block = [
            tuple(a[i] + 1 - e if j == i else 0 for j in range(n))
            for i, e in enumerate(g.exps)
            if e
        ]
        if met is None:
            met = minimize(block)
        else:
            met = minimize(
                [tuple(map(max, u, w)) for u in met for w in block]
            )
    components = set()
    for w in met:
        components.add(
            tuple((i, a[i] + 1 - e) for i, e in enumerate(w) if e)
        )
    return components


class TestDualRoute:
    def test_matches_splitting_algorithm(self):
        for I in witness_corpus()[:150]:
            d = irreducible_decomposition(I)
            assert {q.pairs for q in d.components} == dual_intersection_components(I)

    def test_matches_on_golden_ideals(self):
        for I in (session_ideal(), six_var_ideal()):
            d = irreducible_decomposition(I)
            assert {q.pairs for q in d.components} == dual_intersection_components(I)

    def test_alexander_dual_round_trip(self):
        """For a the floors of I, each component m^b gives the generator
        x^(a+1-b) of the Alexander dual J, with 0 where b has no power; J's
        components, read the same way, give back I's generators (Miller and
        Sturmfels, ch. 5).  Exponents 1 to 3 leave gaps in the levels, so a
        mask's bit count and its degree can order the generators differently."""
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(8, 10)
            c = ctx(n)
            gens = []
            while len(MonomialIdeal(c, gens)) < 3 * n:
                exps = [0] * n
                for v in rng.sample(range(n), rng.randint(2, 4)):
                    exps[v] = rng.randint(1, 3)
                gens.append(Monomial(c, tuple(exps)))
            I = MonomialIdeal(c, gens)
            a = I.max_exponents()

            def dual(J):
                vectors = []
                for q in irreducible_decomposition(J):
                    exps = [0] * n
                    for v, b in q.pairs:
                        exps[v] = a[v] + 1 - b
                    vectors.append(Monomial(c, tuple(exps)))
                return MonomialIdeal(c, vectors)

            J = dual(I)
            assert len(J) == len(irreducible_decomposition(I))
            assert dual(J) == I


class TestColonCharacterization:
    def test_associated_primes_are_exactly_radical_colon_supports(self):
        # Ass(I) = { radical(I : m) : m monomial } restricted to primes,
        # checked by exhausting the bounded exponent box
        for I in tiny_corpus()[:25]:
            found = set()
            for exps in box_exponents(box_bounds(I)):
                quotient = I.colon(Monomial(I.context, exps))
                if quotient.is_unit or quotient.is_zero:
                    continue
                rad = oracle_radical(quotient)
                if all(sum(g.exps) == 1 for g in rad.gens):
                    found.add(tuple(sorted(g.support()[0] for g in rad.gens)))
            assert found == {p.vars for p in associated_primes(I)}
