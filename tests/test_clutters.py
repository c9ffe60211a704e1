"""Clutters, stable sets, covers, and the complement witness."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monowit.rings as rings
from monowit import (
    Clutter,
    MonomialIdeal,
    PrimeSupport,
    TheoremViolationError,
    associated_primes,
    is_borel_type,
    verify_witness,
)
from monowit.clutters import _edge_order
from monowit.rings import _bits, _level_table
from util import (
    clutter_corpus,
    ctx,
    graph_corpus,
    ideal,
    is_stable,
    mono,
    neighbor_set,
    oracle_good_stable_sets,
    oracle_maximal_stable_sets,
    oracle_verify_witness,
    per_cover_good_stable_sets,
    search_good_stable_sets,
    step_map_colon_is_prime,
    tuple_colon_is_prime,
    variable,
    vertex_mask,
)


def path3():
    return Clutter(3, [{0, 1}, {1, 2}])


def triangle():
    return Clutter(3, [{0, 1}, {1, 2}, {0, 2}])


def square():
    return Clutter(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])


def cycle(n):
    return Clutter(n, [{i, (i + 1) % n} for i in range(n)])


def triples(n):
    """The clutter of the n cyclic triples {i, i+1, i+2}."""
    return Clutter(n, [{i, (i + 1) % n, (i + 2) % n} for i in range(n)])


def complete_graph(n):
    return Clutter(n, [set(e) for e in itertools.combinations(range(n), 2)])


def vertex_product(clutter, vertices):
    """The squarefree monomial t_A on the vertex set A."""
    return clutter.context.monomial_from_powers(dict.fromkeys(vertices, 1))


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

    def test_first_nested_pair_in_sorted_edge_order_is_named(self):
        # sizes 1-4 on up to 10 vertices, so a pair is found through the
        # index of the smaller edges by their lowest vertex
        rng = random.Random(2468)
        for _ in range(600):
            n = rng.randint(2, 10)
            edges = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 4))))
                     for _ in range(rng.randint(2, 12))}
            ordered = sorted(edges, key=sorted)
            pairs = [(e, f) for e, f in itertools.combinations(ordered, 2) if e < f or f < e]
            if not pairs:
                assert Clutter(n, edges).edges == tuple(ordered)
                continue
            names = ["{" + ",".join(f"t{v + 1}" for v in sorted(e)) + "}" for e in pairs[0]]
            with pytest.raises(ValueError) as info:
                Clutter(n, edges)
            assert str(info.value).startswith(f"edges {names[0]} and {names[1]} are nested")

    def test_edge_order_sorts_by_vertex_lists(self):
        # nested and prefix-sharing masks included, as the antichain check
        # runs on the sorted masks
        rng = random.Random(1113)
        for _ in range(2000):
            n = rng.randint(1, 12)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))]
            masks += [m & ~(1 << (m.bit_length() - 1)) or m for m in masks[:3]]  # prefixes
            assert _edge_order(masks) == tuple(sorted(set(masks), key=_bits))

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Clutter(3, [set()])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Clutter(3, [{0, 7}])

    def test_unknown_vertex_name_rejected(self):
        with pytest.raises(ValueError, match="^unknown variable 'd'$"):
            Clutter(["a", "b", "c"], [["a", "d"]])

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="^a clutter needs at least one vertex$"):
            Clutter(0, [])


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
            assert max(clutter.edge_ideal().max_exponents()) <= 1


class TestStableSetsAndNeighbors:
    """The mask-level stable-set and neighbor-set oracles on small cases."""

    def test_path_endpoints(self):
        p = path3()
        assert is_stable(p, vertex_mask({0, 2}))
        assert neighbor_set(p, {0, 2}) == {1}

    def test_superset_of_edge_is_not_stable(self):
        assert not is_stable(path3(), vertex_mask({0, 1, 2}))
        assert not is_stable(triangle(), vertex_mask({1, 2}))

    def test_empty_set(self):
        p = path3()
        assert is_stable(p, 0)
        assert neighbor_set(p, set()) == frozenset()
        looped = Clutter(3, [{0}, {1, 2}])
        assert neighbor_set(looped, set()) == {0}


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
        """Neither family takes a limit.  The maximal stable sets are one per
        component; the good stable sets raise ValueError past 2^16 sets, as
        many as the subsets of 16 vertices."""
        assert len(cycle(30).maximal_stable_sets()) == 4610  # a Perrin number
        k17 = complete_graph(17)
        assert k17.good_stable_sets() == tuple(frozenset({v}) for v in range(17))
        empty = Clutter(16, [])
        good = empty.good_stable_sets()
        assert len(good) == 1 << 16
        assert good == per_cover_good_stable_sets(empty) == search_good_stable_sets(empty)
        with pytest.raises(ValueError, match="^more than 65536 good stable sets$"):
            Clutter(17, []).good_stable_sets()

    def test_good_sets_satisfy_colon_identity(self):
        for clutter in clutter_corpus()[:8]:
            I = clutter.edge_ideal()
            for a in clutter.good_stable_sets():
                neighbors = neighbor_set(clutter, a)
                assert neighbors in brute_minimal_covers(clutter)
                expected = PrimeSupport(clutter.context, neighbors).as_ideal()
                assert I.colon(vertex_product(clutter, a)) == expected

    def test_maximal_sets_neighbor_complement(self):
        for clutter in graph_corpus()[:15]:
            for a in clutter.maximal_stable_sets():
                assert neighbor_set(clutter, a) == frozenset(range(clutter.n)) - a


class TestStableFamiliesAgainstBruteForce:
    def test_corpora(self):
        special = (path3(), triangle(), Clutter(3, [{0}, {1, 2}]),
                   Clutter(3, [{0}, {1}, {2}]), Clutter(1, [{0}]))
        for clutter in graph_corpus() + clutter_corpus() + special:
            assert clutter.maximal_stable_sets() == oracle_maximal_stable_sets(clutter)
            good = clutter.good_stable_sets()
            assert good == oracle_good_stable_sets(clutter) == per_cover_good_stable_sets(clutter)

    def test_wide_clutters_against_search(self):
        """Cycles C10-C22, the cyclic triples on 16-22 vertices, and random
        graphs and clutters on 10-15 vertices, against the search over every
        stable set and the per-cover search."""
        wide = [cycle(n) for n in range(10, 23)] + [triples(n) for n in range(16, 23)]
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
            good = c.good_stable_sets()
            assert good == search_good_stable_sets(c) == per_cover_good_stable_sets(c)

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
            assert k.witness_base(cover) == variable(k.context, s - 1)

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
                        assert t_a == vertex_product(clutter, p.complement())
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
    """The colon kernel on edge masks, as `witness_base` calls it, against
    `verify_witness` on the edge ideal's level table and the colon itself."""

    def test_every_vertex_subset(self):
        clutters = graph_corpus() + clutter_corpus()
        # a vertex on no edge has no level: the edge masks and the level masks differ
        assert any(len(set().union(*c.edges)) < c.n for c in clutters)
        outcomes = set()
        for clutter in clutters:
            I = clutter.edge_ideal()
            for r in range(1, clutter.n + 1):
                for vars_ in itertools.combinations(range(clutter.n), r):
                    P = PrimeSupport(clutter.context, vars_)
                    t_a = vertex_product(clutter, set(range(clutter.n)) - set(vars_))
                    expected = oracle_verify_witness(I, P, t_a)
                    assert tuple_colon_is_prime(I, t_a.exps, vars_) == expected
                    assert step_map_colon_is_prime(I, P, t_a) == expected
                    assert verify_witness(I, P, t_a) == expected
                    p = vertex_mask(vars_)
                    assert rings._colon_reaches(clutter._masks, p, p, p) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}


@st.composite
def small_clutters(draw, min_size=2, max_size=3):
    """Clutters on at most 9 vertices with edges of min_size to max_size
    vertices; vertices on no edge are allowed."""
    n = draw(st.integers(2, 9))
    raw = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=min_size,
                                      max_size=max_size),
                        min_size=1, max_size=12))
    return Clutter(n, {e for e in raw if not any(f < e for f in raw)})


class TestStableFamiliesOnRandomClutters:
    @given(clutter=small_clutters(1, 4))
    def test_against_search_and_oracle(self, clutter):
        good = clutter.good_stable_sets()
        assert good == search_good_stable_sets(clutter) == oracle_good_stable_sets(clutter)
        assert good == per_cover_good_stable_sets(clutter)
        assert clutter.maximal_stable_sets() == oracle_maximal_stable_sets(clutter)


class TestEdgeIdealTable:
    """The edge ideal's level table, built from the edge masks, against the
    table built from the generators."""

    @staticmethod
    def random_clutters(count=300, seed=8642):
        """Clutters on 1-12 vertices with edges of 1-4 vertices, most of them
        with vertices on no edge."""
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            n = rng.randint(1, 12)
            raw = {frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
                   for _ in range(rng.randint(0, n + 2))}
            out.append(Clutter(n, [e for e in raw if not any(f < e for f in raw)]))
        return out

    def clutters(self):
        return list(graph_corpus() + clutter_corpus()) + self.random_clutters()

    def test_equals_the_table_from_the_generators(self):
        isolated = 0
        for clutter in self.clutters():
            I = clutter.edge_ideal()
            assert I._table == _level_table(I._exps, clutter.n)
            covered = 0
            for e in clutter._masks:
                covered |= e
            isolated += covered != (1 << clutter.n) - 1
        assert isolated > 100

    def test_general_builder_never_runs(self, monkeypatch):
        calls = []
        build = rings._level_table

        def counted(exps, n):
            calls.append(exps)
            return build(exps, n)

        monkeypatch.setattr(rings, "_level_table", counted)
        for shared in graph_corpus()[:10] + clutter_corpus()[:10]:
            clutter = Clutter(shared.n, shared.edges)  # no edge ideal built yet
            I = clutter.edge_ideal()
            I.max_exponents()
            is_borel_type(I)
            clutter.good_stable_sets()
            for p in associated_primes(I):
                assert verify_witness(I, p, clutter.witness_base(p))
        assert calls == []

    def test_borel_report_as_for_an_equal_ideal(self):
        """The Borel kernel reads the masks in stored order, so an equal
        report, certificate included, pins the order of the table's masks."""
        outcomes = set()
        for clutter in self.clutters():
            I = clutter.edge_ideal()
            if I.is_zero:  # an edgeless clutter's, which is not classified
                continue
            c = clutter.context
            J = MonomialIdeal(c, [c.monomial_from_powers(dict.fromkeys(e, 1))
                                  for e in clutter.edges])
            assert J == I and J._table is None
            assert is_borel_type(I) == is_borel_type(J)
            outcomes.add(is_borel_type(I).is_borel_type)
        assert outcomes == {True, False}


class TestBitmaskPredicates:
    """The mask-level oracles against set arithmetic over every subset."""

    def test_corpora(self):
        for clutter in graph_corpus() + clutter_corpus():
            vertices = range(clutter.n)
            edges = [frozenset(e) for e in clutter.edges]

            for r in range(clutter.n + 1):
                for combo in itertools.combinations(vertices, r):
                    s = frozenset(combo)
                    assert is_stable(clutter, vertex_mask(s)) == (not any(e <= s for e in edges))
                    assert neighbor_set(clutter, s) == frozenset(
                        v for v in vertices if any(e <= s | {v} for e in edges)
                    )

    def test_edge_ideal_built_once(self):
        for clutter in graph_corpus()[:10] + clutter_corpus()[:5]:
            c = clutter.context
            first = clutter.edge_ideal()
            assert first is clutter.edge_ideal()
            assert first == MonomialIdeal(
                c, [c.monomial_from_powers({v: 1 for v in e}) for e in clutter.edges]
            )

    def test_covers_decoded_once(self, monkeypatch):
        import monowit.clutters

        decode = monowit.clutters.irreducible_decomposition
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return decode(ideal)

        monkeypatch.setattr(monowit.clutters, "irreducible_decomposition", counted)
        clutter = cycle(7)
        first = clutter.maximal_stable_sets()
        clutter.good_stable_sets()
        assert clutter.maximal_stable_sets() == first
        assert calls == [clutter.edge_ideal()]


class TestWitnessBaseChecksRun:
    """The colon check of witness_base fires when its premise is broken."""

    def test_wrong_colon(self, monkeypatch):
        import monowit.clutters

        p = path3()
        monkeypatch.setattr(monowit.clutters, "_colon_reaches", lambda *masks: False)
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
