"""Seeded input generators for the four workloads.

Inputs are plain data (exponent tuples, edge lists, problem-file text), so
the library sees only what the generators produce.  Item i of a stream is a
pure function of (seed, workload, i): a run that needs more items than were
generated at set-up extends the stream without changing what came before.

Nothing here imports monowit or the test helpers, so neither a library change
nor a test edit can change the inputs.
"""

from __future__ import annotations

import itertools
import random

# Random ideals: the ranges the benchmark is defined on.  Slow draws are kept:
# the split recursion's blow-up on the upper end is what the workload measures.
IDEAL_N = (5, 8)
IDEAL_GENS = (6, 11)
IDEAL_MAX_EXP = 5
# Generator j has IDEAL_SUPPORTS[j % 4] variables, chosen at random.  The
# fixed profile ties an ideal's total support to its size, so cost still grows
# steeply from the smallest size to the largest, but two draws of one size
# cost about the same.  With a coin flip per variable instead, a few draws
# with five- or six-variable generators took most of a run, and throughput
# moved by 20% from one seed to the next.
IDEAL_SUPPORTS = (1, 2, 3, 4)

# Exchange closures explode combinatorially for large seeds; like the test
# corpus, closure seeds are small and a closure that passes 40 generators is
# redrawn (here as soon as it passes them, so that drawing stays cheap).
CLOSURE_CAP = 40


# Every (variables, generators) pair once per cycle, so the mix of sizes is
# the same in every run and only the draws within a size differ.
IDEAL_STRATA = [(n, k) for k in range(IDEAL_GENS[0], IDEAL_GENS[1] + 1)
                for n in range(IDEAL_N[0], IDEAL_N[1] + 1)]


def item_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# ideals


def random_exponents(rng: random.Random, n: int, count: int, max_exp: int):
    """count nonzero exponent vectors, each variable present with chance 1/2."""
    gens = []
    while len(gens) < count:
        e = tuple(rng.randint(1, max_exp) if rng.random() < 0.5 else 0 for _ in range(n))
        if any(e):
            gens.append(e)
    return gens


def minimal_exponents(vectors) -> list[tuple[int, ...]]:
    """Divisibility-minimal vectors, sorted (an independent re-implementation)."""
    vs = sorted(set(vectors), key=lambda v: (sum(v), v))
    keep = []
    for v in vs:
        if not any(all(a <= b for a, b in zip(k, v)) for k in keep):
            keep.append(v)
    return sorted(keep)


def random_ideal(rng: random.Random, n: int, count: int) -> list[tuple[int, ...]]:
    """count generators on the support profile; redrawn only if squarefree."""
    while True:
        gens = []
        for j in range(count):
            e = [0] * n
            for v in rng.sample(range(n), IDEAL_SUPPORTS[j % len(IDEAL_SUPPORTS)]):
                e[v] = rng.randint(1, IDEAL_MAX_EXP)
            gens.append(tuple(e))
        if any(e > 1 for g in minimal_exponents(gens) for e in g):
            return gens


def ideal_item(seed: int, index: int) -> dict:
    """A non-squarefree random ideal with witness offsets and decoy candidates."""
    rng = item_rng(seed, "ideals", index)
    n, count = IDEAL_STRATA[index % len(IDEAL_STRATA)]
    gens = random_ideal(rng, n, count)
    return {
        "n": n,
        "gens": gens,
        # per-variable offsets above the complement floors, for every witness
        "offsets": [rng.randint(0, 3) for _ in range(n)],
        # arbitrary monomials to verify against a random prime; most are not
        # witnesses, so verify_witness is exercised on both outcomes
        "decoys": [tuple(rng.randint(0, IDEAL_MAX_EXP + 1) for _ in range(n)) for _ in range(3)],
    }


# ---------------------------------------------------------------------------
# graphs and clutters


def cycle_edges(n: int) -> list[tuple[int, ...]]:
    return [(i, (i + 1) % n) for i in range(n)]


def random_graph_edges(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """A random spanning tree plus extra edges with probability 0.25."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {frozenset((order[i], order[rng.randrange(i)])) for i in range(1, n)}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.25:
            edges.add(frozenset((u, v)))
    return sorted(tuple(sorted(e)) for e in edges)


def random_clutter_edges(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Edges of size 2 and 3, reduced to the inclusion-minimal ones."""
    raw = set()
    for _ in range(rng.randint(n, 2 * n)):
        raw.add(frozenset(rng.sample(range(n), rng.choice((2, 2, 3)))))
    edges = [e for e in raw if not any(f < e for f in raw)]
    return sorted(tuple(sorted(e)) for e in edges)


def clutter_text(n: int, edges) -> str:
    names = [f"t{i + 1}" for i in range(n)]
    body = ",".join("{" + ",".join(names[v] for v in e) + "}" for e in edges)
    return f"ring vars={','.join(names)}\nclutter C = {body}\n"


# Share of ops at each vertex count.  The clutter enumerations cost about
# twice as much per extra vertex, so larger sizes come less often; the shares
# put the median inside the 11-vertex population and the 90th percentile
# inside the 13-vertex one, never in the gap between two sizes.
GRAPH_SHARES = {10: 0.35, 11: 0.30, 12: 0.20, 13: 0.10, 14: 0.03, 15: 0.02}


def graph_size(block: int) -> int:
    """Vertex count of the block-th group of four ops.

    A golden-ratio sequence spreads the sizes evenly, and it does not depend
    on the seed: every run sees the same sizes in the same order, and only
    the graphs drawn at each size change with the seed.
    """
    u = ((block + 1) * 0.6180339887498949) % 1.0
    total = 0.0
    for n, share in GRAPH_SHARES.items():
        total += share
        if u < total:
            return n
    return max(GRAPH_SHARES)


def graph_item(seed: int, index: int) -> dict:
    """Cycles, random graphs and random clutters in the ratio 1:2:1."""
    rng = item_rng(seed, "graphs", index)
    n = graph_size(index // 4)
    kind = ("cycle", "graph", "clutter", "graph")[index % 4]
    if kind == "cycle":
        edges = cycle_edges(n)
    elif kind == "graph":
        edges = random_graph_edges(rng, n)
    else:
        edges = random_clutter_edges(rng, n)
    return {"kind": kind, "n": n, "edges": edges, "text": clutter_text(n, edges)}


# ---------------------------------------------------------------------------
# Borel type and symmetric patterns


def exchange_closure_exps(gens, cap: int):
    """Closure under moving one power of x_i to an earlier x_j, on tuples,
    or None as soon as it has more than `cap` generators."""
    current = minimal_exponents(gens)
    while True:
        missing = []
        for u in current:
            for i, e in enumerate(u):
                if not e:
                    continue
                for j in range(i):
                    moved = list(u)
                    moved[i] -= 1
                    moved[j] += 1
                    m = tuple(moved)
                    if not any(all(a <= b for a, b in zip(g, m)) for g in current):
                        missing.append(m)
        if not missing:
            return current
        current = minimal_exponents(current + missing)
        if len(current) > cap:
            return None


def draw_closure(rng: random.Random, n: int, gens: int, min_gens=1):
    """A random seed ideal with up to `gens` generators and its exchange
    closure, redrawn until the closure has min_gens to CLOSURE_CAP generators."""
    while True:
        seed = random_exponents(rng, n, rng.randint(1, gens), 3)
        closure = exchange_closure_exps(seed, CLOSURE_CAP)
        if closure is not None and len(closure) >= min_gens:
            return seed, closure


# (variables, pattern length) of the symmetric half, in a fixed cycle; the
# closure half cycles through 2 to 4 variables on the slower beat, so every
# pair comes once per 27 ops and the mix of sizes is the same in every run.
SYM_STRATA = [(n, k) for n in range(4, 7) for k in range(2, 5)]


def borel_item(seed: int, index: int) -> dict:
    """One symmetric pattern and one exchange closure: every op runs both
    halves, so op latency is a single population rather than two."""
    rng = item_rng(seed, "borel-sym", index)
    n, k = SYM_STRATA[index % len(SYM_STRATA)]
    cn = 2 + index // len(SYM_STRATA) % 3
    exps = sorted(rng.randint(1, 4) for _ in range(k))
    witnesses = []
    for value_index, value in enumerate(sorted(set(exps))):
        # the prime for a value uses n - k + (its first position + 1) variables
        pos = exps.index(value)
        prime_vars = sorted(rng.sample(range(n), n - k + pos + 1))
        b = [t + rng.randint(0, 2) for t in exps[pos + 1:]]
        witnesses.append((value_index, prime_vars, b))
    seed_gens, closure = draw_closure(rng, cn, 2)
    return {
        "sym_n": n,
        "sym_exps": exps,
        "sym_witnesses": witnesses,
        "closure_n": cn,
        "closure_seed": seed_gens,
        "closure": closure,
    }


# ---------------------------------------------------------------------------
# CLI problem files


def cli_problems(seed: int) -> dict:
    """Mid-size problem files for the nine commands.

    Sized so that a call costs a few milliseconds of library work on top of
    interpreter start and import, which is what every CLI user pays.
    """
    rng = item_rng(seed, "cli", 0)
    _, closure = draw_closure(rng, 4, 2, min_gens=6)
    return {
        "ideal": {"n": 6, "gens": minimal_exponents(random_ideal(rng, 6, 8))},
        "graph": {"n": 10, "edges": random_graph_edges(rng, 10)},
        "borel": {"n": 4, "gens": closure},
        "sym": {"n": 5, "exps": sorted(rng.randint(1, 4) for _ in range(3))},
    }


def monomial_text(exps, prefix: str = "x") -> str:
    parts = [f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def ideal_text(n: int, gens) -> str:
    return f"ring n={n}\nideal I = " + ", ".join(monomial_text(g) for g in gens) + "\n"
