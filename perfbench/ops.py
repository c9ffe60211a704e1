"""What one op of each workload does, and how its output is checked.

`run` is the timed part: it calls monowit through `api` exactly as a library
user (or, for `cli`, a shell user) would.  `check` runs after the clock has
stopped and returns the problems it found; any problem fails the op.  For the
library workloads every problem is a wrong answer: a result that disagrees
with the reference in `oracle`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import inputs
import oracle


# ---------------------------------------------------------------------------
# graphs: parse, decompose, clutter witnesses, stable-set enumeration


def graphs_run(api, item):
    clutter = api.parse_problem_file(item["text"]).clutter
    ideal = api.edge_ideal(clutter)
    decomposition = api.irreducible_decomposition(ideal)
    primes = decomposition.primes()
    bases = [api.witness_base(clutter, p) for p in primes]
    return {
        "components": [c.pairs for c in decomposition.components],
        "primes": [p.vars for p in primes],
        "bases": [b.exps for b in bases],
        "maximal": api.maximal_stable_sets(clutter),
        "good": api.good_stable_sets(clutter),
    }


def graphs_check(item, out):
    n, edges = item["n"], item["edges"]
    em = oracle.masks(edges)
    gens = [tuple(1 if v in e else 0 for v in range(n)) for e in edges]
    wrong = []
    if item["kind"] == "cycle" and len(out["components"]) != oracle.perrin(n):
        wrong.append(f"C{n} has {len(out['components'])} components, Perrin says {oracle.perrin(n)}")
    if any(len(p) != len(c) or any(a != 1 for _, a in c)
           for p, c in zip(out["primes"], out["components"])):
        wrong.append("an edge ideal component is not its prime")
    full = (1 << n) - 1
    covers = [oracle.to_mask(p) for p in out["primes"]]
    if any(not oracle.is_minimal_cover(em, n, k) for k in covers):
        wrong.append("a prime is not a minimal vertex cover")
    maximal = sorted(oracle.to_mask(a) for a in out["maximal"])
    if sorted(full & ~k for k in covers) != maximal:
        wrong.append("prime complements differ from the maximal stable sets")
    for p, k, b in zip(out["primes"], covers, out["bases"]):
        if oracle.to_mask(v for v, e in enumerate(b) if e) != full & ~k:
            wrong.append(f"witness base for {p} is not the complement product")
        if not oracle.is_witness(gens, n, p, b):
            wrong.append(f"witness base for {p} fails the colon check")
    good = {oracle.to_mask(a) for a in out["good"]}
    if not set(maximal) <= good:
        wrong.append("a maximal stable set is missing from the good stable sets")
    for a in good:
        if not oracle.is_stable(em, a) or not oracle.is_cover(em, oracle.neighbor_set(em, n, a)):
            wrong.append("a good stable set is unstable or its neighbours do not cover")
            break
    return wrong


# ---------------------------------------------------------------------------
# ideals: decomposition, witnesses and their inverses, uniqueness, decoys


def ideals_run(api, item):
    lib = api.lib
    n = item["n"]
    ctx = lib.RingContext(n)
    ideal = api.MonomialIdeal(ctx, [ctx.monomial(g) for g in item["gens"]])
    primes = api.associated_primes(ideal)
    decomposition = api.irreducible_decomposition(ideal)
    offsets = item["offsets"]
    witnesses = []
    for component in decomposition.components:
        prime = component.prime()
        spec = lib.WitnessSpec(prime, component, {v: offsets[v] for v in prime.complement()})
        v = api.witness_from_component(ideal, spec)
        witnesses.append((
            v.exps,
            api.verify_witness(ideal, prime, v),
            api.component_from_witness(ideal, prime, v).pairs,
        ))
    uniqueness = []
    for prime in primes:
        result = api.classify_uniqueness(ideal, prime)
        uniqueness.append((result.unique, [w.exps for w in result.witnesses]))
    decoys = []
    for i, d in enumerate(item["decoys"]):
        prime = primes[i % len(primes)]
        m = ctx.monomial(d)
        quotient = api.colon(ideal, m)
        decoys.append((prime.vars, [g.exps for g in quotient.gens],
                       api.verify_witness(ideal, prime, m)))
    return {
        "gens": [g.exps for g in ideal.gens],
        "primes": [p.vars for p in primes],
        "components": [c.pairs for c in decomposition.components],
        "witnesses": witnesses,
        "uniqueness": uniqueness,
        "decoys": decoys,
    }


def ideals_check(item, out):
    n = item["n"]
    gens = inputs.minimal_exponents(item["gens"])
    wrong = []
    if sorted(out["gens"]) != gens:
        wrong.append("minimal generators differ from the reference")
    comps = out["components"]
    wrong += oracle.decomposition_errors(gens, comps)
    supports = sorted({tuple(v for v, _ in c) for c in comps})
    if out["primes"] != supports:
        wrong.append("associated primes are not the component supports")
    for c, (v, verified, back) in zip(comps, out["witnesses"]):
        support = [x for x, _ in c]
        if not oracle.is_witness(gens, n, support, v):
            wrong.append(f"witness {v} for {c} fails the colon check")
        if verified is not True or back != c:
            wrong.append(f"witness round trip for {c} gave {verified}, {back}")
    for p, (unique, ws) in zip(out["primes"], out["uniqueness"]):
        full = [c for c in comps if len(c) == n]
        expect = len(p) == n and len(full) == 1
        if unique != expect or len(ws) != (1 if expect else 2) or len(set(ws)) != len(ws):
            wrong.append(f"uniqueness for {p} is {unique} with {len(ws)} witnesses")
        if not all(oracle.is_witness(gens, n, p, w) for w in ws):
            wrong.append(f"a uniqueness witness for {p} fails the colon check")
    for (p, quotient, verified), d in zip(out["decoys"], item["decoys"]):
        if sorted(quotient) != oracle.colon(gens, d):
            wrong.append(f"colon by {d} differs from the reference")
        if verified != oracle.is_witness(gens, n, p, d):
            wrong.append(f"verify_witness({p}, {d}) = {verified} disagrees with the colon")
    return wrong


# ---------------------------------------------------------------------------
# borel-sym: one symmetric pattern and one exchange closure per op


def borel_run(api, item):
    lib = api.lib
    pattern = lib.SymmetricPattern(lib.RingContext(item["sym_n"]), tuple(item["sym_exps"]))
    sym = api.build_symmetric_ideal(pattern)
    sym_witnesses = []
    for value_index, prime_vars, b in item["sym_witnesses"]:
        prime, v = api.symmetric_witness(pattern, value_index, prime_vars, b)
        sym_witnesses.append((prime.vars, v.exps, api.verify_witness(sym, prime, v)))

    ctx = lib.RingContext(item["closure_n"])
    seed = api.MonomialIdeal(ctx, [ctx.monomial(g) for g in item["closure_seed"]])
    closure = api.exchange_closure(seed)
    report = api.is_borel_type(closure)
    by_saturation = api.is_borel_type_by_saturation(closure)
    decomposition = api.irreducible_decomposition(closure)
    borel_witnesses = []
    for prime in decomposition.primes():
        component = decomposition.components_for(prime)[0]
        v = api.borel_witness(closure, prime, component)
        borel_witnesses.append((prime.vars, v.exps, api.verify_witness(closure, prime, v)))
    return {
        "sym_gens": [g.exps for g in sym.gens],
        "sym_witnesses": sym_witnesses,
        "closure": [g.exps for g in closure.gens],
        "components": [c.pairs for c in decomposition.components],
        "exchange": report.is_borel_type,
        "saturation": by_saturation,
        "borel_witnesses": borel_witnesses,
    }


def borel_check(item, out):
    n, pattern = item["sym_n"], item["sym_exps"]
    wrong = []
    sym_gens = oracle.symmetric_gens(n, pattern)
    if len(out["sym_gens"]) != oracle.symmetric_count(n, pattern):
        wrong.append(f"symmetric ideal has {len(out['sym_gens'])} generators")
    if sorted(out["sym_gens"]) != sym_gens:
        wrong.append("symmetric generators differ from the reference")
    for p, v, verified in out["sym_witnesses"]:
        if not verified or not oracle.is_witness(sym_gens, n, p, v):
            wrong.append(f"symmetric witness {v} for {p} fails")
    cn, closure = item["closure_n"], item["closure"]
    if sorted(out["closure"]) != closure:
        wrong.append("exchange closure differs from the reference")
    wrong += oracle.decomposition_errors(closure, out["components"])
    if out["exchange"] is not True or out["saturation"] is not True:
        wrong.append(f"closure detected as exchange={out['exchange']}, saturation={out['saturation']}")
    if not out["borel_witnesses"]:
        wrong.append("a Borel-type ideal with no associated primes")
    for p, v, verified in out["borel_witnesses"]:
        if tuple(p) != tuple(range(len(p))):
            wrong.append(f"prime {p} of a Borel-type ideal is not a prefix")
        if not verified or not oracle.is_witness(closure, cn, p, v):
            wrong.append(f"Borel witness {v} for {p} fails")
        if sum(1 for i, e in enumerate(v) if e and i not in p) > 1:
            wrong.append(f"Borel witness {v} uses more than one variable outside {p}")
    return wrong


# ---------------------------------------------------------------------------
# cli: one `monowit <command> <file>` subprocess per op


class Cli:
    """Problem files written at set-up, and the command mix run over them."""

    def __init__(self, seed: int, workdir: str, src: str):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.dir = workdir
        p = inputs.cli_problems(seed)
        ideal, graph, borel, sym = p["ideal"], p["graph"], p["borel"], p["sym"]
        graph_gens = [tuple(1 if v in e else 0 for v in range(graph["n"])) for e in graph["edges"]]
        # reference generators of the ideal each file declares
        self.gens = {
            "ideal": ideal["gens"],
            "graph": graph_gens,
            "borel": borel["gens"],
            "sym": oracle.symmetric_gens(sym["n"], sym["exps"]),
        }
        files = {
            "ideal": inputs.ideal_text(ideal["n"], ideal["gens"]),
            "graph": inputs.clutter_text(graph["n"], graph["edges"]) + "ideal I = "
                     + ", ".join(inputs.monomial_text(g, "t") for g in graph_gens) + "\n",
            "borel": inputs.ideal_text(borel["n"], borel["gens"]),
            "sym": f"sym S = n:{sym['n']} exps:{','.join(map(str, sym['exps']))}\n",
        }
        self.paths = {key: os.path.join(workdir, f"{key}.txt") for key in files}
        for key, text in files.items():
            with open(self.paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)

        # arguments independent of the decomposition: a minimal vertex cover
        # is an associated prime of the edge ideal, the product of the other
        # vertices is its witness, and symmetric primes follow from the pattern
        rng = random.Random(f"cli-args:{seed}")
        order = list(range(graph["n"]))
        rng.shuffle(order)
        cover = oracle.greedy_minimal_cover(graph["edges"], graph["n"], order)
        cover_names = ",".join(f"t{v + 1}" for v in cover)
        complement = "*".join(f"t{v + 1}" for v in range(graph["n"]) if v not in cover) or "1"
        self.colon_by = tuple(rng.randint(0, 3) for _ in range(ideal["n"]))
        k = len(sym["exps"])
        values = sorted(set(sym["exps"]))
        value_index = rng.randrange(len(values))
        pos = sym["exps"].index(values[value_index])
        sym_prime = sorted(rng.sample(range(sym["n"]), sym["n"] - k + pos + 1))
        b = [t + rng.randint(0, 1) for t in sym["exps"][pos + 1:]]

        # (label, file, extra arguments, text that text output must contain)
        commands = [
            ("decompose", "ideal", [], "associated primes:"),
            ("assprimes", "ideal", [], "P_0 = "),
            ("witness", "ideal", ["--prime", "0", "--component", "0", "--seed", str(seed)], "VERIFIED"),
            ("witness-list", "ideal", ["--list"], "P_0 = "),
            ("verify", "graph", ["--prime", cover_names, "--v", complement], "VERIFIED"),
            ("colon", "ideal", ["--v", inputs.monomial_text(self.colon_by)], "(I : "),
            ("borel", "borel", ["--prime", "0", "--component", "0"], "VERIFIED"),
            ("uniqueness", "graph", ["--prime", cover_names], "VERIFIED"),
            ("clutter-base", "graph", ["--prime", cover_names], "VERIFIED"),
            ("symgen", "sym", ["--prime", ",".join(f"x{v + 1}" for v in sym_prime),
                               "--value-index", str(value_index), "--b", ",".join(map(str, b))],
             "VERIFIED"),
        ]
        self.mix = [(c, fmt) for c in commands for fmt in ("text", "json")]

    def item(self, seed: int, index: int):
        """The mix in a seeded order, reshuffled every full cycle."""
        cycle, pos = divmod(index, len(self.mix))
        order = list(range(len(self.mix)))
        random.Random(f"cli-order:{seed}:{cycle}").shuffle(order)
        return self.mix[order[pos]]

    def argv(self, item):
        (label, key, extra, _), fmt = item
        command = "witness" if label == "witness-list" else label
        return [sys.executable, "-m", "monowit.cli", command, self.paths[key],
                *extra, "--format", fmt]

    def run(self, api, item):
        proc = subprocess.run(self.argv(item), env=self.env, cwd=self.dir,
                              capture_output=True, text=True, timeout=30)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, out):
        """(kind, message) pairs; kind is wrong, error or format."""
        (label, key, _, marker), fmt = item
        code, stdout, stderr = out
        if code != 0:
            return [("error", f"{label} --format {fmt} exited {code}: {stderr.strip()[:200]}")]
        if fmt == "text":
            return [] if marker in stdout else [("error", f"{label} text output lacks {marker!r}")]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return [("format", f"{label} --format json wrote output that is not JSON")]
        return [("wrong", m) for m in self._check_json(label, key, doc)]

    def _check_json(self, label, key, doc):
        names = doc["ring"]["names"]
        gens = self.gens[key]

        def vector(powers):
            return tuple(powers.get(x, 0) for x in names)

        if label == "decompose":
            comps = [tuple(sorted((names.index(v), e) for v, e in c.items()))
                     for c in doc["components"]]
            return oracle.decomposition_errors(gens, comps)
        if label == "assprimes":
            return [] if doc["associated_primes"] else ["no associated primes"]
        if label == "colon":
            got = sorted(vector(g) for g in doc["ideal"])
            return [] if got == oracle.colon(gens, self.colon_by) else ["colon differs"]
        if label == "witness-list":
            return []
        if doc["verified"] is not True:
            return [f"{label} json reports verified={doc['verified']}"]
        prime = [names.index(v) for v in doc["associated_primes"][0]]
        if not oracle.is_witness(gens, len(names), prime, vector(doc["witness"])):
            return [f"{label} witness fails the colon check"]
        return []


WORKLOADS = {
    "graphs": (inputs.graph_item, graphs_run, graphs_check),
    "ideals": (inputs.ideal_item, ideals_run, ideals_check),
    "borel-sym": (inputs.borel_item, borel_run, borel_check),
}
