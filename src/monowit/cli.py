"""Command-line front end.

Deterministic, non-interactive driver: every command reads a problem file,
delegates to the library, and reports on stdout.  Witnesses are always
re-verified before VERIFIED is printed.  Exit codes: 0 success, 1 usage or
input error or a reader that closed stdout early, 2 verification failure or
an internal error.  Each command is one `COMMANDS` entry; `_run` loads its
stanza, prints the verdict and picks the exit code for all of them.  Each
handler imports the witness and Borel functions it calls, so a command
compiles only the modules it runs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import NamedTuple

from . import __version__
from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .parsing import parse_monomial, parse_problem_file
from .rings import Monomial, MonomialIdeal, PrimeSupport

USAGE_ERROR = 1
VERIFY_ERROR = 2


def _json_document(ideal, components=None, primes=None, witness=None, verified=None):
    names = ideal.context.names

    def exponents(m: Monomial) -> dict:
        return {names[i]: e for i, e in enumerate(m.exps) if e}

    return {
        "ring": {"n": len(names), "names": list(names)},
        "ideal": [exponents(g) for g in ideal.gens],
        "components": None if components is None else [
            {names[v]: e for v, e in c.pairs} for c in components],
        "associated_primes": None if primes is None else [
            [names[i] for i in p.vars] for p in primes],
        "witness": None if witness is None else exponents(witness),
        "verified": verified,
    }


def _resolve_prime(selector: str, ideal: MonomialIdeal) -> PrimeSupport:
    decomposition = irreducible_decomposition(ideal)
    if selector.isdecimal():
        primes = decomposition.primes()
        index = int(selector)
        if index >= len(primes):
            raise ValueError(
                f"prime index {index} out of range; there are {len(primes)} primes")
        return primes[index]
    variables = [ideal.context.index_of(name.strip()) for name in selector.split(",")]
    prime = PrimeSupport(ideal.context, variables)
    decomposition.components_for(prime)
    return prime


def _resolve_component(args, ideal, prime):
    components = irreducible_decomposition(ideal).components_for(prime)
    if args.component is not None:
        if not 0 <= args.component < len(components):
            raise ValueError(f"component index {args.component} out of range; "
                             f"there are {len(components)} components for {prime}")
        return components[args.component]
    if len(components) > 1:
        listing = "".join(f"\n  Q_{i} = {q}" for i, q in enumerate(components))
        raise ValueError(f"{prime} has {len(components)} components; "
                         f"choose one with --component:{listing}")
    return components[0]


def _collect_offsets(args, ideal, prime) -> dict:
    complement = prime.complement()
    if args.seed is not None:
        if args.offset:
            raise ValueError("--seed and --offset are mutually exclusive")
        if complement and args.max_offset < 0:  # no draw, no bound needed
            raise ValueError(f"--max-offset must be non-negative, got {args.max_offset}")
        rng = random.Random(args.seed)
        return {v: rng.randint(0, args.max_offset) for v in complement}
    offsets = {}
    names = ideal.context.names
    for item in args.offset or []:
        var, _, value = item.partition("=")
        if not value or not value.isdecimal():
            raise ValueError(f"--offset expects var=<non-negative int>, got {item!r}")
        index = ideal.context.index_of(var.strip())
        if index not in complement:
            raise ValueError(f"{names[index]} is a prime variable; offsets apply outside")
        if index in offsets:
            raise ValueError(f"--offset gives {names[index]} more than once")
        offsets[index] = int(value)
    return offsets


def _decomposition_fields(ideal, decomposition) -> dict:
    return dict(ideal=ideal, components=decomposition.components,
                primes=decomposition.primes())


def _decompose(args, ideal):
    decomposition = irreducible_decomposition(ideal)
    primes = decomposition.primes()
    lines = [f"I = {ideal}", "components:"]
    lines += [f"  Q_{i} = {q}" for i, q in enumerate(decomposition.components)]
    lines += ["associated primes:"] + [f"  P_{i} = {p}" for i, p in enumerate(primes)]
    return lines, _decomposition_fields(ideal, decomposition), None


def _assprimes(args, ideal):
    primes = irreducible_decomposition(ideal).primes()
    lines = [f"P_{i} = {p}" for i, p in enumerate(primes)]
    return lines, dict(ideal=ideal, primes=primes), None


def _witness(args, ideal):
    from .witness import WitnessSpec, verify_witness, witness_from_component

    decomposition = irreducible_decomposition(ideal)
    if args.list:
        lines = []
        for i, p in enumerate(decomposition.primes()):
            lines.append(f"P_{i} = {p}")
            components = decomposition.components_for(p)
            lines += [f"  Q_{j} = {q}" for j, q in enumerate(components)]
        return lines, _decomposition_fields(ideal, decomposition), None
    if args.prime is None:
        raise ValueError("witness requires --prime (or --list to see candidates)")
    prime = _resolve_prime(args.prime, ideal)
    component = _resolve_component(args, ideal, prime)
    offsets = _collect_offsets(args, ideal, prime)
    v = witness_from_component(ideal, WitnessSpec(prime, component, offsets))
    lines = [f"P = {prime}", f"Q = {component}", f"v = {v}"]
    fields = dict(ideal=ideal, components=(component,), primes=(prime,), witness=v)
    return lines, fields, verify_witness(ideal, prime, v)


def _verify(args, ideal):
    from .witness import verify_witness

    prime = _resolve_prime(args.prime, ideal)
    v = parse_monomial(args.monomial, ideal.context)
    fields = dict(ideal=ideal, primes=(prime,), witness=v)
    return [f"(I : {v}) = {ideal.colon(v)}"], fields, verify_witness(ideal, prime, v)


def _colon(args, ideal):
    v = parse_monomial(args.monomial, ideal.context)
    quotient = ideal.colon(v)
    return [f"(I : {v}) = {quotient}"], dict(ideal=quotient, witness=v), None


def _borel(args, ideal):
    from .borel import borel_witness, is_borel_type
    from .witness import verify_witness

    report = is_borel_type(ideal)
    if not report.is_borel_type:
        if args.prime is not None:
            raise ValueError("the ideal is not of Borel type; no witness available")
        u, i, j = report.certificate
        names = ideal.context.names
        lines = ["Borel type: no",
                 f"certificate: u = {u}, i = {names[i]}, j = {names[j]}"]
        # a negative detection shows as "verified": false, yet exits 0
        return lines, dict(ideal=ideal, verified=False), None
    lines = ["Borel type: yes"] + [f"P_{i} = {p}" for i, p in enumerate(report.primes)]
    fields = dict(ideal=ideal, primes=report.primes)
    if args.prime is None:
        return lines, fields, None
    prime = _resolve_prime(args.prime, ideal)
    component = _resolve_component(args, ideal, prime)
    v = borel_witness(ideal, prime, component)
    return lines + [f"v = {v}"], dict(fields, witness=v), verify_witness(ideal, prime, v)


def _uniqueness(args, ideal):
    from .witness import classify_uniqueness, verify_witness

    prime = _resolve_prime(args.prime, ideal)
    result = classify_uniqueness(ideal, prime)
    lines = [f"unique: {'yes' if result.unique else 'no'}"]
    lines += [f"v{i + 1} = {w}" for i, w in enumerate(result.witnesses)]
    fields = dict(ideal=ideal, primes=(prime,), witness=result.witnesses[0])
    return lines, fields, all(verify_witness(ideal, prime, w) for w in result.witnesses)


def _clutter_base(args, clutter):
    from .witness import verify_witness

    ideal = clutter.edge_ideal()
    prime = _resolve_prime(args.prime, ideal)
    v = clutter.witness_base(prime)
    support = ", ".join(clutter.context.names[i] for i in v.support())
    fields = dict(ideal=ideal, primes=(prime,), witness=v)
    return [f"A = ({support})", f"v = {v}"], fields, verify_witness(ideal, prime, v)


def _symgen(args, pattern):
    from .witness import build_symmetric_ideal, symmetric_witness, verify_witness

    ideal = build_symmetric_ideal(pattern)
    lines = [f"I = {ideal}"]
    if args.prime is None:
        return lines, dict(ideal=ideal), None
    if args.value_index is None:
        raise ValueError("--prime needs --value-index for symgen")
    variables = [pattern.context.index_of(s.strip()) for s in args.prime.split(",")]
    try:
        b_choices = [int(s) for s in args.b.split(",") if s.strip()] if args.b else []
    except ValueError:
        raise ValueError(f"--b expects comma-separated integers, got {args.b!r}") from None
    prime, v = symmetric_witness(pattern, args.value_index, variables, b_choices)
    fields = dict(ideal=ideal, primes=(prime,), witness=v)
    return lines + [f"P = {prime}", f"v = {v}"], fields, verify_witness(ideal, prime, v)


class Command(NamedTuple):
    """handler(args, stanza) -> (text lines, JSON fields, verdict); the verdict
    is None when the command verified nothing."""

    handler: object
    stanza: str  # the ProblemFile field the handler reads
    help: str
    options: tuple = ()  # (flag, add_argument keywords) pairs


_PRIME_REQUIRED = ("--prime", dict(required=True))

COMMANDS = {
    "decompose": Command(_decompose, "ideal", "irredundant irreducible decomposition"),
    "assprimes": Command(_assprimes, "ideal", "associated primes"),
    "witness": Command(_witness, "ideal", "construct and verify a witness", (
        ("--prime", dict(help="prime index or comma-separated variables")),
        ("--component", dict(type=int, help="component index in canonical order")),
        ("--offset", dict(action="append", metavar="var=k",
                          help="extra exponent on a non-prime variable (repeatable)")),
        ("--seed", dict(type=int, help="seeded random offsets")),
        ("--max-offset", dict(type=int, default=8,
                              help="upper bound for seeded offsets")),
        ("--list", dict(action="store_true",
                        help="list primes and components, then exit")),
    )),
    "verify": Command(_verify, "ideal", "check a candidate witness", (
        _PRIME_REQUIRED,
        ("--v", dict(dest="monomial", required=True, help="candidate monomial")),
    )),
    "colon": Command(_colon, "ideal", "colon of the ideal by a monomial", (
        ("--v", dict(dest="monomial", required=True)),
    )),
    "borel": Command(_borel, "ideal", "Borel-type detection and witness", (
        ("--prime", {}), ("--component", dict(type=int)),
    )),
    "uniqueness": Command(
        _uniqueness, "ideal", "witness uniqueness classification", (_PRIME_REQUIRED,)),
    "clutter-base": Command(
        _clutter_base, "clutter", "witness from a stable set", (_PRIME_REQUIRED,)),
    "symgen": Command(_symgen, "pattern", "symmetric power-pattern ideal", (
        ("--prime", {}),
        ("--value-index", dict(type=int,
                               help="0-based index among the distinct exponent values")),
        ("--b", dict(help="comma-separated complement exponents")),
    )),
}


def _run(args) -> int:
    command = COMMANDS[args.command]
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            problem = parse_problem_file(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from None
    subject = getattr(problem, command.stanza)
    if subject is None:
        name = {"pattern": "sym stanza"}.get(command.stanza, command.stanza)
        raise ValueError(f"the problem file declares no {name}")
    lines, fields, verdict = command.handler(args, subject)
    if verdict is not None:
        lines.append("VERIFIED" if verdict else "FAILED")
    fields.setdefault("verified", verdict)
    if args.format == "json":
        import json  # here, so that text output does not pay for it at start-up

        lines = [json.dumps(_json_document(**fields), indent=2, sort_keys=True)]
    for line in lines:
        print(line)
    return VERIFY_ERROR if verdict is False else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monowit", description="Monomial ideal decompositions and colon witnesses.")
    parser.add_argument("--version", action="version", version=f"monowit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("file", help="problem file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, options in command.options:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for failed checks
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (say `| head`); point stdout at devnull so
        # the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
