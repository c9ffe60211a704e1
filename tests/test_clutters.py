"""Clutters, stable sets, covers, and the complement witness."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monowit import (
    Clutter,
    MonomialIdeal,
    PrimeSupport,
    TheoremViolationError,
    associated_primes,
    verify_witness,
)
from util import (
    clutter_corpus,
    ctx,
    graph_corpus,
    ideal,
    mono,
    oracle_good_stable_sets,
    oracle_maximal_stable_sets,
    search_good_stable_sets,
)


def path3():
    return Clutter(3, [{0, 1}, {1, 2}])


def triangle():
    return Clutter(3, [{0, 1}, {1, 2}, {0, 2}])


def square():
    return Clutter(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])


def cycle(n):
    return Clutter(n, [{i, (i + 1) % n} for i in range(n)])


def complete_graph(n):
    return Clutter(n, [set(e) for e in itertools.combinations(range(n), 2)])


def brute_minimal_covers(clutter):
    """Independent enumeration: subsets meeting every edge, then minimality."""
    vertices = range(clutter.n)
    covers = [
        set(kk)
        for r in range(clutter.n + 1)
        for kk in itertools.combinations(vertices, r)
        if all(e & set(kk) for e in clutter.edges)
    ]
    return {
        frozenset(k)
        for k in covers
        if not any(other < k for other in covers)
    }


class TestConstruction:
    def test_default_vertex_names(self):
        assert path3().context.names == ("t1", "t2", "t3")

    def test_named_vertices_and_edges(self):
        c = Clutter(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        assert c.edges == (frozenset({0, 1}), frozenset({1, 2}))

    def test_nested_edges_rejected(self):
        with pytest.raises(ValueError, match=r"^edges \{t1,t2\} and \{t1,t2,t3\} are nested"):
            Clutter(3, [{0, 1, 2}, {0, 1}])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Clutter(3, [set()])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Clutter(3, [{0, 7}])
        with pytest.raises(ValueError):
            path3().is_stable({5})


class TestEdgeIdeal:
    def test_path(self):
        c = path3().context
        assert path3().edge_ideal() == ideal(c, "t1*t2", "t2*t3")

    def test_single_triple_edge(self):
        clutter = Clutter(3, [{0, 1, 2}])
        assert clutter.edge_ideal() == ideal(clutter.context, "t1*t2*t3")

    def test_triangle_primes_are_minimal_covers(self):
        clutter = triangle()
        primes = {p.vars for p in associated_primes(clutter.edge_ideal())}
        assert primes == {(0, 1), (0, 2), (1, 2)}
        assert primes == {tuple(sorted(k)) for k in brute_minimal_covers(clutter)}

    def test_always_squarefree(self):
        for clutter in clutter_corpus():
            assert clutter.edge_ideal().is_squarefree()


class TestStableSetsAndNeighbors:
    def test_path_endpoints(self):
        p = path3()
        assert p.is_stable({0, 2})
        assert p.neighbor_set({0, 2}) == {1}

    def test_superset_of_edge_is_not_stable(self):
        assert not path3().is_stable({0, 1, 2})
        assert not triangle().is_stable({1, 2})

    def test_empty_set(self):
        p = path3()
        assert p.is_stable(set())
        assert p.neighbor_set(set()) == frozenset()
        looped = Clutter(3, [{0}, {1, 2}])
        assert looped.neighbor_set(set()) == {0}


class TestVertexCovers:
    """The minimal vertex covers are the supports of the associated primes."""

    @staticmethod
    def covers(clutter):
        return {frozenset(p.vars) for p in associated_primes(clutter.edge_ideal())}

    def test_path_middle_vertex(self):
        assert frozenset({1}) in self.covers(path3())

    def test_whole_vertex_set_is_not_minimal(self):
        assert frozenset({0, 1, 2}) not in self.covers(path3())

    def test_associated_primes_are_minimal_covers(self):
        for clutter in clutter_corpus()[:10]:
            assert self.covers(clutter) == brute_minimal_covers(clutter)


class TestStableFamilies:
    def test_path_maximal_stable_sets(self):
        assert path3().maximal_stable_sets() == (frozenset({0, 2}), frozenset({1}))

    def test_square_maximal_stable_sets(self):
        assert square().maximal_stable_sets() == (
            frozenset({0, 2}),
            frozenset({1, 3}),
        )

    def test_enumeration_limit(self):
        # maximal stable sets come from the decomposition and take no limit
        assert len(cycle(30).maximal_stable_sets()) == 4610  # a Perrin number
        k17 = complete_graph(17)
        with pytest.raises(ValueError, match="^enumeration over 17 vertices exceeds "
                                             "the limit of 16$"):
            k17.good_stable_sets()
        assert k17.good_stable_sets(limit=17) == tuple(frozenset({v}) for v in range(17))

    def test_good_sets_satisfy_colon_identity(self):
        for clutter in clutter_corpus()[:8]:
            I = clutter.edge_ideal()
            for a in clutter.good_stable_sets():
                neighbors = clutter.neighbor_set(a)
                assert neighbors in brute_minimal_covers(clutter)
                expected = PrimeSupport(clutter.context, neighbors).as_ideal()
                assert I.colon(clutter.vertex_product(a)) == expected

    def test_maximal_sets_neighbor_complement(self):
        for clutter in graph_corpus()[:15]:
            for a in clutter.maximal_stable_sets():
                assert clutter.neighbor_set(a) == frozenset(range(clutter.n)) - a


class TestStableFamiliesAgainstBruteForce:
    def test_corpora(self):
        special = (path3(), triangle(), Clutter(3, [{0}, {1, 2}]),
                   Clutter(3, [{0}, {1}, {2}]), Clutter(1, [{0}]))
        for clutter in graph_corpus() + clutter_corpus() + special:
            assert clutter.maximal_stable_sets() == oracle_maximal_stable_sets(clutter)
            assert clutter.good_stable_sets() == oracle_good_stable_sets(clutter)

    def test_wide_clutters_against_search(self):
        """Cycles C10-C20, and random graphs and clutters on 10-15 vertices,
        against the search over every stable set."""
        wide = [cycle(n) for n in range(10, 21)]
        rng = random.Random(2468)
        for k in range(16):
            n = rng.randint(10, 15)
            if k % 2:
                raw = {frozenset(rng.sample(range(n), rng.choice((2, 3))))
                       for _ in range(rng.randint(n, 2 * n))}
                edges = [e for e in raw if not any(f < e for f in raw)]
            else:
                edges = [{v, rng.randrange(v)} for v in range(1, n)]
                edges += [{u, v} for u, v in itertools.combinations(range(n), 2)
                          if rng.random() < 0.25 and {u, v} not in edges]
            wide.append(Clutter(n, edges))
        for c in wide:
            assert c.good_stable_sets(limit=c.n) == search_good_stable_sets(c)

    def test_edgeless_clutter(self):
        empty = Clutter(3, [])
        assert empty.maximal_stable_sets() == (frozenset({0, 1, 2}),)
        good = empty.good_stable_sets()
        assert len(good) == 8 and good == oracle_good_stable_sets(empty)


class TestWitnessBase:
    def test_path_middle_prime(self):
        p = path3()
        t_a = p.witness_base(PrimeSupport(p.context, [1]))
        assert t_a == mono(p.context, "t1*t3")
        assert p.edge_ideal().colon(t_a) == ideal(p.context, "t2")

    def test_triangle(self):
        t = triangle()
        assert t.witness_base(PrimeSupport(t.context, [0, 1])) == mono(t.context, "t3")

    def test_complete_graph_leaves_one_vertex(self):
        for s in (3, 4, 5):
            k = complete_graph(s)
            cover = PrimeSupport(k.context, range(s - 1))
            assert k.witness_base(cover) == k.context.variable(s - 1)

    def test_not_associated_rejected(self):
        with pytest.raises(ValueError):
            path3().witness_base(PrimeSupport(path3().context, [0]))

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            path3().witness_base(PrimeSupport(ctx(3), [1]))

    def test_output_is_squarefree_and_disjoint_from_prime(self):
        for clutter in clutter_corpus():
            I = clutter.edge_ideal()
            for p in associated_primes(I):
                t_a = clutter.witness_base(p)
                assert all(e <= 1 for e in t_a.exps)
                assert not set(t_a.support()) & set(p.vars)
                assert verify_witness(I, p, t_a)

    def test_singleton_edges_force_cover_membership(self):
        looped = Clutter(3, [{0}, {1, 2}])
        I = looped.edge_ideal()
        primes = {p.vars for p in associated_primes(I)}
        assert primes == {(0, 1), (0, 2)}
        for vars_ in primes:
            p = PrimeSupport(looped.context, vars_)
            assert verify_witness(I, p, looped.witness_base(p))

    def test_all_vertices_cover_when_every_singleton_is_an_edge(self):
        spikes = Clutter(3, [{0}, {1}, {2}])
        p = PrimeSupport(spikes.context, [0, 1, 2])
        assert spikes.witness_base(p) == spikes.context.one

    def test_every_vertex_subset(self):
        """A witness exactly for the minimal covers, the complement's product;
        every other subset is rejected as not associated."""
        for clutter in graph_corpus() + clutter_corpus():
            I = clutter.edge_ideal()
            covers = brute_minimal_covers(clutter)
            for r in range(1, clutter.n + 1):
                for vars_ in itertools.combinations(range(clutter.n), r):
                    p = PrimeSupport(clutter.context, vars_)
                    if frozenset(vars_) in covers:
                        t_a = clutter.witness_base(p)
                        assert t_a == clutter.vertex_product(p.complement())
                        assert verify_witness(I, p, t_a)
                    else:
                        with pytest.raises(ValueError, match="not an associated prime"):
                            clutter.witness_base(p)

    def test_edgeless_clutter_rejected(self):
        empty = Clutter(3, [])
        with pytest.raises(ValueError, match="zero ideal"):
            empty.witness_base(PrimeSupport(empty.context, [0]))

    def test_one_vertex_clutter(self):
        dot = Clutter(1, [{0}])
        p = PrimeSupport(dot.context, [0])
        assert dot.edge_ideal() == ideal(dot.context, "t1")
        assert dot.witness_base(p) == dot.context.one
        assert dot.maximal_stable_sets() == (frozenset(),)


class TestColonOnMasks:
    """The colon test on edge masks against the ring's colon test."""

    def test_every_vertex_subset(self):
        outcomes = set()
        for clutter in graph_corpus() + clutter_corpus():
            I = clutter.edge_ideal()
            for r in range(1, clutter.n + 1):
                for vars_ in itertools.combinations(range(clutter.n), r):
                    t_a = clutter.vertex_product(set(range(clutter.n)) - set(vars_))
                    expected = I._colon_is_prime(t_a.exps, vars_)
                    assert clutter._colon_is_cover(sum(1 << v for v in vars_)) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}


@st.composite
def small_clutters(draw):
    """Clutters on at most 9 vertices with edges of size 2-3; vertices on no
    edge are allowed."""
    n = draw(st.integers(2, 9))
    raw = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2, max_size=3),
                        min_size=1, max_size=12))
    return Clutter(n, {e for e in raw if not any(f < e for f in raw)})


class TestStableFamiliesOnRandomClutters:
    @given(clutter=small_clutters())
    def test_against_search_and_oracle(self, clutter):
        good = clutter.good_stable_sets()
        assert good == search_good_stable_sets(clutter) == oracle_good_stable_sets(clutter)
        assert clutter.maximal_stable_sets() == oracle_maximal_stable_sets(clutter)


class TestBitmaskPredicates:
    """The bitmask predicates against set arithmetic over every subset."""

    def test_corpora(self):
        for clutter in graph_corpus() + clutter_corpus():
            vertices = range(clutter.n)
            edges = [frozenset(e) for e in clutter.edges]

            for r in range(clutter.n + 1):
                for combo in itertools.combinations(vertices, r):
                    s = frozenset(combo)
                    assert clutter.is_stable(s) == (not any(e <= s for e in edges))
                    assert clutter.neighbor_set(s) == frozenset(
                        v for v in vertices if any(e <= s | {v} for e in edges)
                    )

    def test_unknown_vertex_rejected(self):
        for check in (path3().is_stable, path3().neighbor_set, path3().vertex_product):
            with pytest.raises(ValueError):
                check({0, 3})

    def test_edge_ideal_built_once(self):
        for clutter in graph_corpus()[:10] + clutter_corpus()[:5]:
            c = clutter.context
            first = clutter.edge_ideal()
            assert first is clutter.edge_ideal()
            assert first == MonomialIdeal(
                c, [c.monomial_from_powers({v: 1 for v in e}) for e in clutter.edges]
            )


class TestWitnessBaseChecksRun:
    """The colon check of witness_base fires when its premise is broken."""

    def test_wrong_colon(self, monkeypatch):
        p = path3()
        monkeypatch.setattr(Clutter, "_colon_is_cover", lambda self, prime_mask: False)
        with pytest.raises(TheoremViolationError, match="failed to equal"):
            p.witness_base(PrimeSupport(p.context, [1]))


class TestCoverEnumerationAgreement:
    def test_graphs(self):
        for clutter in graph_corpus()[:20]:
            primes = {p.vars for p in associated_primes(clutter.edge_ideal())}
            covers = {tuple(sorted(k)) for k in brute_minimal_covers(clutter)}
            assert primes == covers

    def test_clutters(self):
        for clutter in clutter_corpus()[:10]:
            primes = {p.vars for p in associated_primes(clutter.edge_ideal())}
            covers = {tuple(sorted(k)) for k in brute_minimal_covers(clutter)}
            assert primes == covers
