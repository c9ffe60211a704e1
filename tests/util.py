"""Shared test helpers: parsing shorthands, definitional oracles over bounded
exponent boxes, hypothesis strategies, and the seeded random corpora."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import operator
import os
import random
import subprocess
import sys
from functools import lru_cache, reduce

import hypothesis.strategies as st

import monowit
from monowit import (
    Clutter,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingContext,
    exchange_closure,
    parse_ideal_gens,
    parse_monomial,
    verify_witness,
)
from monowit.rings import _minimize_exps, _require_same_context

_CONTEXTS: dict[int, RingContext] = {}


def ctx(n: int) -> RingContext:
    if n not in _CONTEXTS:
        _CONTEXTS[n] = RingContext(n)
    return _CONTEXTS[n]


def fresh_interpreter(probe: str) -> str:
    """stdout of the code `probe`, run in a new interpreter that imports
    monowit from the same tree as these tests."""
    src = os.path.dirname(os.path.dirname(monowit.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def argparse_oracle():
    """The CLI's former argparse parser, with its option table restated: the
    reference `monowit.cli`'s argv reader must match on every line.  Its
    integer flags read through `cli._int`, with the messages they had."""
    import argparse

    from monowit.cli import _int

    def integer(text):
        try:
            return _int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    prime_required = ("--prime", dict(required=True))
    commands = {
        "decompose": (), "assprimes": (),
        "witness": (
            ("--prime", {}),
            ("--component", dict(type=integer)),
            ("--offset", dict(action="append")),
            ("--seed", dict(type=integer)),
            ("--max-offset", dict(type=integer, default=8)),
            ("--list", dict(action="store_true")),
        ),
        "verify": (prime_required, ("--v", dict(required=True))),
        "colon": (("--v", dict(required=True)),),
        "borel": (("--prime", {}), ("--component", dict(type=integer))),
        "uniqueness": (prime_required,),
        "clutter-base": (prime_required,),
        "symgen": (("--prime", {}), ("--value-index", dict(type=integer)), ("--b", {})),
    }
    parser = argparse.ArgumentParser(
        prog="monowit", description="Monomial ideal decompositions and colon witnesses.")
    parser.add_argument("--version", action="version", version=f"monowit {monowit.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in commands.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


# the golden CLI manifest keeps a longer stdout as its SHA-256 and byte count
GOLDEN_LARGE = 4096


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `monowit.cli.main(argv)`, run in process."""
    from monowit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_stdout(out: str) -> dict:
    """A stdout as the golden CLI manifest keeps it: the text, or, past
    GOLDEN_LARGE bytes, its SHA-256 and byte count."""
    data = out.encode()
    if len(data) <= GOLDEN_LARGE:
        return {"stdout": out}
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def mono(context: RingContext, text: str) -> Monomial:
    return parse_monomial(text, context)


def ideal(context: RingContext, *gens: str) -> MonomialIdeal:
    return parse_ideal_gens(", ".join(gens), context)


def variable(context: RingContext, i: int) -> Monomial:
    """The variable x_i as a monomial."""
    return context.monomial_from_powers({i: 1})


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I & J, generated by the lcms of a generator of I and one of J."""
    _require_same_context(I, J)
    lcms = (tuple(map(max, u, w)) for u in I._exps for w in J._exps)
    return MonomialIdeal._from_exps(I.context, lcms)


def times_variable(m: Monomial, i: int) -> Monomial:
    """The product m * x_i."""
    return Monomial(m.context, [e + (j == i) for j, e in enumerate(m.exps)])


def session_ideal() -> MonomialIdeal:
    """The 8-variable golden ideal used throughout the suite."""
    return ideal(
        ctx(8),
        "x1^4", "x2^7", "x3^5", "x1^3*x4^2", "x2^4*x4^2",
        "x3*x4^2", "x4^5", "x4^2*x8^2", "x1*x8^8",
    )


def six_var_ideal() -> MonomialIdeal:
    """The 6-variable golden ideal with four small witnesses for (x1, x2)."""
    return ideal(ctx(6), "x1*x3^5", "x2*x5^3", "x2*x4^4", "x1^5*x4^2", "x1*x6^8")


# ---------------------------------------------------------------------------
# definitional oracles, written on raw exponent tuples

def box_exponents(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def box_bounds(ideal_, slack=1):
    return tuple(e + slack for e in ideal_.max_exponents())


def oracle_member(ideal_, exps) -> bool:
    """m is in I iff some minimal generator divides it, componentwise.  The
    generator tuples are read as stored, with no `Monomial` built per probe,
    and not through `rings._member`, which this checks."""
    return any(all(map(operator.le, g, exps)) for g in ideal_._exps)


def oracle_minimal_subset(vectors):
    """Brute-force filter: keep u with no proper divisor present."""
    out = []
    for u in vectors:
        dominated = any(
            v != u and all(a <= b for a, b in zip(v, u)) for v in vectors
        )
        if not dominated:
            out.append(u)
    return set(out)


def oracle_radical(ideal_) -> MonomialIdeal:
    """The radical: one squarefree generator per generator, on its support."""
    c = ideal_.context
    return MonomialIdeal(c, [Monomial(c, [min(e, 1) for e in g.exps]) for g in ideal_.gens])


def tuple_colon(ideal_, v) -> MonomialIdeal:
    """(I : v) on exponent tuples: every g / gcd(g, v), minimized by the
    ideal's own constructor, with no membership shortcut.  The reference
    for `MonomialIdeal.colon`; a monomial from another ring raises."""
    _require_same_context(ideal_, v)
    quotients = (tuple([d if d > 0 else 0 for d in map(operator.sub, g, v.exps)])
                 for g in ideal_._exps)
    return MonomialIdeal._from_exps(ideal_.context, quotients)


def oracle_colon_by_ideal(ideal_, by) -> MonomialIdeal:
    """(I : J) for a nonzero J: the intersection of the (I : v) over the
    generators v of J."""
    return reduce(intersect, (tuple_colon(ideal_, v) for v in by))


def drop_one_intersections(ideals_) -> list[MonomialIdeal]:
    """For each of two or more ideals, the intersection of all the others,
    from prefix and suffix intersections: an irredundant decomposition of I
    gives none equal to I."""
    n = len(ideals_)
    prefix = [None] * (n + 1)
    suffix = [None] * (n + 1)
    for i in range(n):
        prefix[i + 1] = ideals_[i] if prefix[i] is None else intersect(prefix[i], ideals_[i])
    for i in range(n - 1, -1, -1):
        suffix[i] = ideals_[i] if suffix[i + 1] is None else intersect(ideals_[i], suffix[i + 1])
    out = []
    for i in range(n):
        left, right = prefix[i], suffix[i + 1]
        if left is None:
            out.append(right)
        elif right is None:
            out.append(left)
        else:
            out.append(intersect(left, right))
    return out


def oracle_verify_witness(ideal_, prime, v) -> bool:
    """(I : v) == P by building the colon on tuples and the prime as ideals:
    the reference for the one-pass check in verify_witness."""
    return tuple_colon(ideal_, v) == prime.as_ideal()


def tuple_colon_is_prime(ideal_, v, prime_vars) -> bool:
    """`verify_witness` as a scan of every exponent of every generator tuple
    against the tuple v: (a) every g exceeds v on some variable of P, and (b)
    each x_i of P has a g that exceeds v on x_i alone, and by exactly 1."""
    mask = sum(1 << i for i in prime_vars)
    reached = 0
    for g in ideal_._exps:
        over = 0  # where g exceeds v
        last = 0  # the excess at the last such variable
        for i, (a, b) in enumerate(zip(g, v)):
            if a > b:
                over |= 1 << i
                last = a - b
        if not over & mask:
            return False
        if last == 1 and not over & (over - 1):
            reached |= over
    return reached == mask


def step_map_colon_is_prime(ideal_, prime, v) -> bool:
    """`verify_witness` as it was before the colon kernel, for an ideal
    without a pattern: a map from each step level (i, v_i + 1) to x_i's
    bit, read by one lookup per generator's over set, and the variables of
    P it reaches compared with P.  The reference for `rings._colon_reaches`."""
    _require_same_context(ideal_, v)
    levels, var_bits, masks, _ = ideal_._levels()
    exps = v.exps
    inside = target = 0
    for i in prime.vars:
        inside |= var_bits[i]
        target |= 1 << i
    below = 0
    step = {}  # the bit of a level (i, v_i + 1) -> 1 << i
    bit = 1
    for i, e in levels:
        if e <= exps[i]:
            below |= bit
        elif e == exps[i] + 1:
            step[bit] = 1 << i
        bit <<= 1
    above = ~below
    reached = 0
    for g in masks:
        over = g & above
        if not over & inside:
            return False
        reached |= step.get(over, 0)
    return reached == target


def squarefree_witness(ideal_, prime, v) -> bool:
    """The shape of a witness for a squarefree ideal: it verifies, and no
    variable of the prime divides it."""
    return verify_witness(ideal_, prime, v) and not any(v.exps[i] for i in prime.vars)


def oracle_symmetric_gens(pattern) -> list[tuple[int, ...]]:
    """Every exponent vector whose nonzero entries, sorted, are the pattern's
    exponents, in the generator order of an ideal (descending lex)."""
    values = (0,) + tuple(sorted(set(pattern.exps)))
    return sorted((e for e in itertools.product(values, repeat=pattern.context.n)
                   if sorted(x for x in e if x) == list(pattern.exps)), reverse=True)


def resorting_colon_is_prime(pattern, prime_vars, v) -> bool:
    """`SymmetricPattern._colon_is_prime` as two membership tests that each
    sort their tuple: (a) v with every variable off the prime raised to the
    top exponent is outside I, and (b) v + e_i, sorted again for each x_i of
    the prime, is inside.  The reference for the one-sort pattern test."""
    raised = [pattern.exps[-1]] * pattern.context.n
    for i in prime_vars:
        raised[i] = v[i]
    if pattern._contains(raised):
        return False
    w = list(v)
    for i in prime_vars:
        w[i] += 1
        if not pattern._contains(w):
            return False
        w[i] -= 1
    return True


def every_prime(context):
    """The monomial prime on each non-empty set of variables."""
    return [
        PrimeSupport(context, vs)
        for r in range(1, context.n + 1)
        for vs in itertools.combinations(range(context.n), r)
    ]


def split_components(gens):
    """Irredundant components by the split recursion, as sorted
    ((var, exp), ...) tuples; the reference for the incremental engine.

    A generator u = x_i^a * u' with i its lowest variable and u' free of x_i
    splits the ideal into the intersection of the ideals obtained by
    replacing u with x_i^a and with u'.  Recursing until every generator is
    a pure power yields irreducible candidates; dropping every candidate
    that contains another leaves the irredundant set.  gens must be a
    minimized, sorted, proper, nonzero generator tuple of exponent tuples.
    """
    memo = {}

    def pure_power_candidates(gens):
        cached = memo.get(gens)
        if cached is not None:
            return cached

        result = None
        for idx, g in enumerate(gens):
            support = [i for i, e in enumerate(g) if e]
            if len(support) > 1:
                i = support[0]
                head = tuple(e if j == i else 0 for j, e in enumerate(g))
                tail = tuple(0 if j == i else e for j, e in enumerate(g))
                rest = gens[:idx] + gens[idx + 1 :]
                left = pure_power_candidates(_minimize_exps(rest + (head,)))
                right = pure_power_candidates(_minimize_exps(rest + (tail,)))
                result = left | right
                break
        if result is None:
            # every generator is a pure power; minimality leaves one per variable
            pairs = []
            for g in gens:
                for v, e in enumerate(g):
                    if e:
                        pairs.append((v, e))
                        break
            result = frozenset({tuple(sorted(pairs))})
        memo[gens] = result
        return result

    def component_contains(outer, inner):
        return all(v in outer and outer[v] <= e for v, e in inner)

    candidates = pure_power_candidates(tuple(gens))
    as_dicts = [(c, dict(c)) for c in candidates]
    keep = []
    for c, d in as_dicts:
        if not any(c2 != c and component_contains(d, c2) for c2, _ in as_dicts):
            keep.append(c)
    keep.sort(key=lambda c: (tuple(v for v, _ in c), tuple(e for _, e in c)))
    return keep


def tuple_components(gens, n):
    """Irredundant components by the private-generator test on exponent
    tuples, as unsorted (support, exponents on the support) pairs; the
    unpruned reference for the engine, and the engine it replaced.  It tests
    every variable of every candidate for a private generator, where the
    engine on level bitmasks tests again only those that the new
    generator's variable reaches.

    Inside, an absent variable has an exponent above every generator's, so
    u lies in the component q exactly when q_i <= u_i for some i.  Each
    generator is filed under its (variable, exponent) pairs with its other
    pairs, and is private for (j, t_j) when it lies below t on all of them.
    """

    def has_private(others, t):
        for rest in others:
            for l, f in rest:
                if t[l] <= f:
                    break
            else:
                return True
        return False

    absent = max(map(max, gens)) + 1
    components = [((), (absent,) * n)]
    others = {}  # (j, g_j) -> the other pairs of each g
    for u in sorted(gens, key=sum):
        pairs = [(i, e) for i, e in enumerate(u) if e]
        for i, e in pairs:
            others.setdefault((i, e), []).append([p for p in pairs if p[0] != i])
        survivors, fresh = [], []
        for support, q in components:
            if any(map(operator.le, q, u)):
                survivors.append((support, q))
                continue
            for i, e in pairs:
                t = q[:i] + (e,) + q[i + 1 :]
                for j in support:
                    if j != i and not has_private(others[j, t[j]], t):
                        break
                else:
                    grown = support if q[i] < absent else tuple(sorted((*support, i)))
                    fresh.append((grown, t))
        components = survivors + fresh
    return [(support, tuple(q[j] for j in support)) for support, q in components]


def pairwise_components(gens, n):
    """Irredundant components by adding one generator at a time and keeping
    each new component that contains no other, as sorted ((var, exp), ...)
    tuples; the reference for the private-generator test.

    A component is (support bitmask, exponent tuple), exponent 0 meaning the
    variable is absent.  A component containing u survives; any other Q
    becomes Q + (x_i^{u_i}) for each variable x_i of u.  For irreducible
    ideals, containing the intersection of the others means containing one
    of them, so the filter is pairwise.
    """

    def contains(big, small):
        """Whether the irreducible ideal `small` is a subset of `big`."""
        return not small[0] & ~big[0] and all(
            big[1][i] <= e for i, e in enumerate(small[1]) if e
        )

    components = [(0, (0,) * n)]
    for u in gens:
        support = [i for i, e in enumerate(u) if e]
        survivors = []
        grown = set()
        for mask, q in components:
            if any(0 < q[i] <= u[i] for i in support):
                survivors.append((mask, q))
            else:
                # u is outside Q, so u_i < Q_i wherever Q_i is set
                grown.update(
                    (mask | 1 << i, q[:i] + (u[i],) + q[i + 1 :]) for i in support
                )
        # a component contains another only if its support is a superset
        # and, on equal supports, its exponents are no larger; in this order
        # every component a new one could contain comes before it
        fresh = []
        for t in sorted(grown, key=lambda c: (c[0].bit_count(), -sum(c[1]))):
            if not any(contains(t, s) for s in itertools.chain(survivors, fresh)):
                fresh.append(t)
        components = survivors + fresh
    pairs = [tuple((i, e) for i, e in enumerate(q) if e) for _, q in components]
    pairs.sort(key=lambda c: (tuple(v for v, _ in c), tuple(e for _, e in c)))
    return pairs


def oracle_saturate(ideal: MonomialIdeal, by: MonomialIdeal) -> MonomialIdeal:
    """The stable limit of repeated colon by a nonzero ideal."""
    if by.is_zero:
        raise ValueError("saturation by the zero ideal is undefined")
    current = ideal
    while True:
        quotient = oracle_colon_by_ideal(current, by)
        if quotient == current:
            return current
        current = quotient


def oracle_is_borel_type_by_saturation(ideal: MonomialIdeal) -> bool:
    """Borel type by definition, saturating by each whole prefix
    <x_1..x_i> from scratch."""
    ideal._require_proper("is not classified")
    ctx = ideal.context
    for i in range(ctx.n):
        single = MonomialIdeal(ctx, [variable(ctx, i)])
        prefix = MonomialIdeal(ctx, [variable(ctx, t) for t in range(i + 1)])
        if oracle_saturate(ideal, single) != oracle_saturate(ideal, prefix):
            return False
    return True


def oracle_exchange_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """The exchange closure in rounds: every round tries every move of every
    generator, adds the missing ones and minimizes, until a round adds none."""
    ideal._require_proper("is not classified")
    current = ideal
    while True:
        missing = []
        for u in current._exps:
            for i, e in enumerate(u):
                if not e:
                    continue
                for j in range(i):
                    moved = list(u)
                    moved[i] -= 1
                    moved[j] += 1
                    if not oracle_member(current, moved):
                        missing.append(tuple(moved))
        if not missing:
            return current
        current = MonomialIdeal._from_exps(ideal.context, current._exps + tuple(missing))


def oracle_exchange_certificate(ideal: MonomialIdeal):
    """The first exchange-test violation (u.exps, i, j) as a membership probe:
    u with x_i dropped times x_j to the largest x_j-exponent among the
    generators must lie in the ideal.  None when the ideal is of Borel type.
    Generators in stored order, i descending, j ascending."""
    ideal._require_proper("is not classified")
    floors = ideal.max_exponents()
    for u in ideal._exps:
        for i in range(ideal.context.n - 1, 0, -1):
            if u[i] == 0:
                continue
            stripped = list(u)
            stripped[i] = 0
            for j in range(i):
                probe = stripped.copy()
                probe[j] += floors[j]
                if not oracle_member(ideal, probe):
                    return u, i, j
    return None


def vertex_mask(vertices) -> int:
    """The bitmask of a vertex set, bit v for vertex v."""
    return sum(1 << v for v in vertices)


def is_stable(clutter, a: int) -> bool:
    """Whether the vertex mask a contains no edge."""
    return not any(e & a == e for e in clutter._masks)


def neighbor_mask(clutter, a: int) -> int:
    """The vertices v for which the vertex mask a | {v} contains an edge."""
    out = 0
    for e in clutter._masks:
        rest = e & ~a
        if not rest & (rest - 1):  # at most one vertex short of the edge
            if not rest:  # a contains e, so every vertex qualifies
                return (1 << clutter.n) - 1
            out |= rest
    return out


def neighbor_set(clutter, vertices) -> frozenset:
    """The neighbor set of a vertex set, through neighbor_mask."""
    neighbors = neighbor_mask(clutter, vertex_mask(vertices))
    return frozenset(v for v in range(clutter.n) if neighbors >> v & 1)


def oracle_maximal_stable_sets(clutter):
    """Every subset of the vertices, kept when stable and not extendable."""
    out = []
    for a in _all_subsets(clutter.n):
        k = vertex_mask(a)
        if is_stable(clutter, k) and all(
            not is_stable(clutter, k | 1 << v) for v in range(clutter.n) if v not in a
        ):
            out.append(a)
    return tuple(sorted(out, key=sorted))


def oracle_good_stable_sets(clutter):
    """Every subset of the vertices, kept when stable with a covering
    neighbor set."""
    out = [
        a
        for a in _all_subsets(clutter.n)
        if is_stable(clutter, vertex_mask(a))
        and all(e & neighbor_set(clutter, a) for e in clutter.edges)
    ]
    return tuple(sorted(out, key=sorted))


def search_good_stable_sets(clutter):
    """Good stable sets by a search that grows stable sets by increasing
    vertex, adding only vertices outside the neighbor set, so it visits every
    stable set; the reference for the search inside each cover's complement."""
    out = []
    stack = [(0, 0)]  # (stable set, smallest vertex it may still gain)
    while stack:
        a, start = stack.pop()
        neighbors = neighbor_mask(clutter, a)
        if all(e & neighbors for e in clutter._masks):
            out.append(frozenset(v for v in range(clutter.n) if a >> v & 1))
        for v in range(start, clutter.n):
            if not neighbors >> v & 1:  # a | {v} is still stable
                stack.append((a | 1 << v, v + 1))
    return tuple(sorted(out, key=sorted))


def per_cover_good_stable_sets(clutter):
    """Good stable sets by the search inside each cover's complement T, with
    every cover P rescanning the edges: the edges that meet P in one vertex
    v are grouped by v and kept as their rests outside P, and a good set b
    cannot drop a vertex that every rest of some group inside b holds.  The
    reference for the search on per-vertex rests."""
    full = (1 << clutter.n) - 1
    out = []
    for p in clutter._cover_masks():
        rests = {}  # vertex bit of P -> rests of the edges meeting P there alone
        for e in clutter._masks:
            if not (over := e & p) & (over - 1):
                rests.setdefault(over, []).append(e & ~p)
        t = full & ~p
        stack = [(t, t)]  # (good set, vertices it may still drop)
        while stack:
            b, droppable = stack.pop()
            out.append(frozenset(v for v in range(clutter.n) if b >> v & 1))
            for group in rests.values():
                kept = b  # the vertices every rest of this group inside b holds
                for rest in group:
                    if not rest & ~b:
                        kept &= rest
                droppable &= ~kept
            for u in range(clutter.n):
                if droppable >> u & 1:
                    droppable ^= 1 << u
                    stack.append((b ^ 1 << u, droppable))
    return tuple(sorted(out, key=sorted))


def _all_subsets(n):
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# hypothesis strategies

@st.composite
def monomials(draw, context, max_exp=3):
    exps = draw(
        st.tuples(*(st.integers(0, max_exp) for _ in range(context.n)))
    )
    return Monomial(context, exps)


@st.composite
def ideals(draw, max_n=4, max_exp=3, max_gens=5, proper=True):
    n = draw(st.integers(1, max_n))
    context = ctx(n)
    count = draw(st.integers(1, max_gens))
    gens = [draw(monomials(context, max_exp)) for _ in range(count)]
    result = MonomialIdeal(context, gens)
    if proper and (result.is_unit or result.is_zero):
        gens = [g for g in gens if any(g.exps)]
        if not gens:
            gens = [variable(context, draw(st.integers(0, n - 1)))]
        result = MonomialIdeal(context, gens)
    return result


# ---------------------------------------------------------------------------
# seeded random corpora (shared by property and acceptance suites)

def _random_ideal(rng, max_n=6, max_exp=5, max_gens=8, min_n=2):
    n = rng.randint(min_n, max_n)
    context = ctx(n)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        support = rng.sample(range(n), rng.randint(1, n))
        exps = [0] * n
        for v in support:
            exps[v] = rng.randint(1, max_exp)
        gens.append(Monomial(context, tuple(exps)))
    return MonomialIdeal(context, gens)


@lru_cache(maxsize=None)
def witness_corpus(count=500, seed=20260810):
    """Proper nonzero ideals with n <= 6, exponents <= 5, <= 8 generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        candidate = _random_ideal(rng)
        if candidate.is_zero or candidate.is_unit:
            continue
        out.append(candidate)
    return tuple(out)


@lru_cache(maxsize=None)
def box_corpus(count=100, seed=4418):
    """Small ideals (n <= 4, exponents <= 3) for exhaustive box checks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        candidate = _random_ideal(rng, max_n=4, max_exp=3, max_gens=5, min_n=1)
        if candidate.is_zero or candidate.is_unit:
            continue
        out.append(candidate)
    return tuple(out)


@lru_cache(maxsize=None)
def tiny_corpus(count=100, seed=90210):
    """n <= 3 ideals for exhaustive witness searches."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        candidate = _random_ideal(rng, max_n=3, max_exp=4, max_gens=4, min_n=1)
        if candidate.is_zero or candidate.is_unit:
            continue
        out.append(candidate)
    return tuple(out)


@lru_cache(maxsize=None)
def _borel_draws(count, seed):
    """(seed, ideal) pairs: a raw random ideal with seed None, or a closure
    with the seed it closes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            closure_seed = _random_ideal(rng, max_n=4, max_exp=3, max_gens=2, min_n=2)
            if closure_seed.is_zero or closure_seed.is_unit:
                continue
            candidate = exchange_closure(closure_seed)
            if len(candidate.gens) > 40:
                continue
            out.append((closure_seed, candidate))
        else:
            candidate = _random_ideal(rng, max_n=5, max_exp=3, max_gens=3, min_n=2)
            if candidate.is_zero or candidate.is_unit:
                continue
            out.append((None, candidate))
    return tuple(out)


def borel_corpus(count=100, seed=246810):
    """Half raw random ideals, half exchange closures that force Borel type.

    Closures of high-degree seeds explode combinatorially, so closure seeds
    are kept small and oversized results are redrawn; the saturation-based
    cross-check is quadratic in the generator count.
    """
    return tuple(ideal for _, ideal in _borel_draws(count, seed))


def borel_closure_seeds(count=100, seed=246810):
    """The seeds whose exchange closures make up half of borel_corpus."""
    return tuple(s for s, _ in _borel_draws(count, seed) if s is not None)


@lru_cache(maxsize=None)
def graph_corpus(count=50, seed=777):
    """Random connected simple graphs on 2..6 vertices, as clutters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 6)
        vertices = list(range(n))
        rng.shuffle(vertices)
        edges = set()
        for i in range(1, n):  # random spanning tree keeps it connected
            edges.add(frozenset({vertices[i], vertices[rng.randrange(i)]}))
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                edges.add(frozenset({u, v}))
        out.append(Clutter(n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def wide_clutter_corpus(count=16, seed=4510):
    """Random clutters on 10..14 vertices, alternately a connected simple
    graph and a 3-uniform clutter with n to 3n/2 triples."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(10, 14)
        if len(out) % 2:
            edges = {frozenset(rng.sample(range(n), 3)) for _ in range(rng.randint(n, 3 * n // 2))}
        else:
            vertices = list(range(n))
            rng.shuffle(vertices)
            edges = {frozenset({vertices[i], vertices[rng.randrange(i)]}) for i in range(1, n)}
            edges.update(frozenset(e) for e in itertools.combinations(range(n), 2)
                         if rng.random() < 0.15)
        out.append(Clutter(n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def wide_ideal_corpus(count=10, seed=4511):
    """Random ideals that are not squarefree, on 8..10 variables, with
    15..25 minimal generators, each on 2..4 variables with exponents 1..4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, size = rng.randint(8, 10), rng.randint(15, 25)
        context = ctx(n)
        gens = []
        while len(MonomialIdeal(context, gens)) < size:  # one more generator adds at most one
            exps = [0] * n
            for v in rng.sample(range(n), rng.randint(2, 4)):
                exps[v] = rng.randint(1, 4)
            gens.append(Monomial(context, tuple(exps)))
        candidate = MonomialIdeal(context, gens)
        if max(candidate.max_exponents()) > 1:
            out.append(candidate)
    return tuple(out)


@lru_cache(maxsize=None)
def clutter_corpus(count=20, seed=13579):
    """Random clutters on <= 8 vertices with edges of size 1..4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        raw = []
        for _ in range(rng.randint(2, 7)):
            size = rng.randint(1, min(4, n))
            raw.append(frozenset(rng.sample(range(n), size)))
        # keep only the inclusion-minimal edges so the family is an antichain
        edges = [e for e in raw if not any(f < e for f in raw)]
        if not edges:
            continue
        out.append(Clutter(n, set(edges)))
    return tuple(out)
