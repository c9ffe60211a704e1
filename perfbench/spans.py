"""The public calls an op makes, optionally wrapped in spans.

Ops call monowit only through an `Api` object.  Untraced, its attributes are
the library's own functions, so the timed path is the library as a user
calls it.  Traced, each attribute records a span (name, start, end, parent op)
around the call.  Nothing inside the library is patched: spans sit at the
boundary between an op and the layer it calls.
"""

from __future__ import annotations

import json
import time

# (span name, attribute path under monowit) of every traced public call
CALLS = [
    ("parsing.parse_problem_file", "parse_problem_file"),
    ("rings.MonomialIdeal", "MonomialIdeal"),
    ("rings.colon", "MonomialIdeal.colon"),
    ("decompose.irreducible_decomposition", "irreducible_decomposition"),
    ("decompose.associated_primes", "associated_primes"),
    ("witness.witness_from_component", "witness_from_component"),
    ("witness.verify_witness", "verify_witness"),
    ("witness.component_from_witness", "component_from_witness"),
    ("witness.classify_uniqueness", "classify_uniqueness"),
    ("witness.build_symmetric_ideal", "build_symmetric_ideal"),
    ("witness.symmetric_witness", "symmetric_witness"),
    ("clutters.edge_ideal", "Clutter.edge_ideal"),
    ("clutters.witness_base", "Clutter.witness_base"),
    ("clutters.maximal_stable_sets", "Clutter.maximal_stable_sets"),
    ("clutters.good_stable_sets", "Clutter.good_stable_sets"),
    ("borel.exchange_closure", "exchange_closure"),
    ("borel.is_borel_type", "is_borel_type"),
    ("borel.is_borel_type_by_saturation", "is_borel_type_by_saturation"),
    ("borel.borel_witness", "borel_witness"),
]

CLI_COMMANDS = [
    "decompose", "assprimes", "witness", "verify", "colon",
    "borel", "uniqueness", "clutter-base", "symgen",
]

DECOMPOSE = {"decompose.irreducible_decomposition", "decompose.associated_primes"}


def _resolve(monowit, path):
    obj = monowit
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Api:
    """Namespace of the library calls ops make, keyed by function name."""

    def __init__(self, monowit, tracer=None):
        self.lib = monowit
        for name, path in CALLS:
            fn = _resolve(monowit, path)
            setattr(self, name.split(".", 1)[1], fn if tracer is None else tracer.wrap(name, fn))


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        # (counter, op, seconds) of counters that add up time
        self.timed: list[tuple[str, int, float]] = []
        # ideal -> whether its decomposition's sizes have been counted
        self._seen: dict = {}

    def begin_op(self, index: int):
        self.op = index

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spans.append((name, start, end, self.op))
            self._observe(name, args, result, end - start)
            return result

        return traced

    def _observe(self, name, args, result, seconds):
        """Counters measured where the work happens: cold and warm
        decompositions, output sizes, and useful verification outcomes.

        A decomposition call is cold when it is the first one the ops make
        on that ideal.  Calls the library makes internally are not seen, so
        in borel-sym, where is_borel_type decomposes first, "cold" calls
        already find the result cached.
        """
        if name in DECOMPOSE:
            ideal = args[0]
            temperature = "warm" if ideal in self._seen else "cold"
            self._seen.setdefault(ideal, False)
            self.count(f"decompose.{temperature}_calls")
            self.timed.append((f"decompose.{temperature}_s", self.op, seconds))
            if name == "decompose.irreducible_decomposition" and not self._seen[ideal]:
                self._seen[ideal] = True
                self.count("decompose.components", len(result))
                self.count("decompose.primes", len({c.support() for c in result}))
        elif name == "borel.exchange_closure":
            self.count("borel.closure_gens", len(result.gens))
        elif name == "witness.build_symmetric_ideal":
            self.count("witness.sym_gens", len(result.gens))
        elif name == "witness.verify_witness" and result:
            self.count("witness.verify_true")

    def totals(self, factors) -> dict[str, float]:
        """Calls and seconds per public call, and the timed counters, each
        span scaled by the host-speed factor of its op."""
        out: dict[str, float] = {}
        for name, _ in CALLS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        for name, start, end, op in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) * factors[op]
        for key, op, seconds in self.timed:
            out[key] = out.get(key, 0.0) + seconds * factors[op]
        return out

    def dump(self, path):
        """Write every span, relative to the first, as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, op in self.spans:
                fh.write(json.dumps({"name": name, "op": op,
                                     "start": start - origin, "end": end - origin}) + "\n")
