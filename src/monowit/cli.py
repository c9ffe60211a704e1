"""Command-line front end.

Deterministic, non-interactive driver: every command reads a problem file,
delegates to the library, and reports on stdout.  Witnesses are always
re-verified before VERIFIED is printed.  Exit codes: 0 success, 1 usage or
input error or a reader that closed stdout early, 2 verification failure or
an internal error.  Each command is one `COMMANDS` entry whose handler
hands back the witnesses it names, not a verdict; `_run` loads its stanza,
re-verifies every one of them, prints the verdict and picks the exit code.
Each handler imports the witness and Borel functions it calls, so a command
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
from .parsing import _digits, _Line, parse_monomial, parse_problem_file
from .rings import Monomial, MonomialIdeal, PrimeSupport

USAGE_ERROR = 1
VERIFY_ERROR = 2


def _json_document(ideal, components=None, primes=None, witness=None, verified=None,
                   certificate=None):
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
        "certificate": None if certificate is None else {
            "u": exponents(certificate[0]), "i": names[certificate[1]],
            "j": names[certificate[2]]},
    }


def _int(text: str) -> int:  # `int` alone also reads "1_0", " 8" and other scripts' digits
    if not _digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _variables(selector: str, context) -> list[int]:
    indices = [context.index_of(name) for name in _Line(selector).comma_list(0)]
    for i in indices:
        if indices.count(i) > 1:
            raise ValueError(f"--prime gives {context.names[i]} more than once")
    return indices


def _resolve_prime(selector: str, ideal: MonomialIdeal) -> tuple[PrimeSupport, tuple]:
    """The selected prime and its components; raises if it is not associated."""
    decomposition = irreducible_decomposition(ideal)
    if _digits(selector):
        primes = decomposition.primes()
        index = int(selector)
        if index >= len(primes):
            raise ValueError(f"prime index {index} out of range; there are {len(primes)} primes")
        prime = primes[index]
    else:
        prime = PrimeSupport(ideal.context, _variables(selector, ideal.context))
    return prime, decomposition.components_for(prime)


def _resolve_component(args, prime, components):
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
        line = _Line(item)
        end = len(line.tokens) - 1
        eq = line.tokens.index("=") if "=" in line.tokens else end
        value = line.span(eq + 1, end)  # one integer, right after the first '=', ends the item
        if not (_digits(value) and item.endswith("=" + value)):
            raise ValueError(f"--offset expects var=<non-negative int>, got {item!r}")
        index = ideal.context.index_of(line.span(0, eq))
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
    from .witness import WitnessSpec, witness_from_component

    prime, components = _resolve_prime(args.prime, ideal)
    component = _resolve_component(args, prime, components)
    offsets = _collect_offsets(args, ideal, prime)
    v = witness_from_component(ideal, WitnessSpec(prime, component, offsets))
    lines = [f"P = {prime}", f"Q = {component}", f"v = {v}"]
    return lines, dict(ideal=ideal, components=(component,)), (prime, (v,))


def _verify(args, ideal):
    prime, _ = _resolve_prime(args.prime, ideal)
    v = parse_monomial(args.monomial, ideal.context)
    return [f"(I : {v}) = {ideal.colon(v)}"], dict(ideal=ideal), (prime, (v,))


def _colon(args, ideal):
    v = parse_monomial(args.monomial, ideal.context)
    quotient = ideal.colon(v)
    return [f"(I : {v}) = {quotient}"], dict(ideal=quotient, witness=v), None


def _borel(args, ideal):
    from .borel import borel_witness, is_borel_type

    report = is_borel_type(ideal)
    if not report.is_borel_type:
        if args.prime is not None:
            raise ValueError("the ideal is not of Borel type; no witness available")
        u, i, j = report.certificate
        names = ideal.context.names
        lines = ["Borel type: no",
                 f"certificate: u = {u}, i = {names[i]}, j = {names[j]}"]
        # a negative detection shows as "verified": false with its certificate, yet exits 0
        return lines, dict(ideal=ideal, verified=False, certificate=report.certificate), None
    lines = ["Borel type: yes"] + [f"P_{i} = {p}" for i, p in enumerate(report.primes)]
    fields = dict(ideal=ideal, primes=report.primes)
    if args.prime is None:
        return lines, fields, None
    prime, components = _resolve_prime(args.prime, ideal)
    component = _resolve_component(args, prime, components)
    v = borel_witness(ideal, prime, component)
    return lines + [f"v = {v}"], fields, (prime, (v,))


def _uniqueness(args, ideal):
    from .witness import classify_uniqueness

    prime, _ = _resolve_prime(args.prime, ideal)
    result = classify_uniqueness(ideal, prime)
    lines = [f"unique: {'yes' if result.unique else 'no'}"]
    lines += [f"v{i + 1} = {w}" for i, w in enumerate(result.witnesses)]
    return lines, dict(ideal=ideal), (prime, result.witnesses)


def _clutter_base(args, clutter):
    ideal = clutter.edge_ideal()
    prime, _ = _resolve_prime(args.prime, ideal)
    v = clutter.witness_base(prime)
    support = ", ".join(clutter.context.names[i] for i in v.support())
    return [f"A = ({support})", f"v = {v}"], dict(ideal=ideal), (prime, (v,))


def _symgen(args, pattern):
    from .witness import build_symmetric_ideal, symmetric_witness

    ideal = build_symmetric_ideal(pattern)
    lines = [f"I = {ideal}"]
    if args.prime is None:
        return lines, dict(ideal=ideal), None
    if args.value_index is None:
        raise ValueError("--prime needs --value-index for symgen")
    variables = _variables(args.prime, pattern.context)
    try:
        b_choices = [_int(s) for s in _Line(args.b).comma_list(0)] if args.b else []
    except argparse.ArgumentTypeError:
        raise ValueError(f"--b expects comma-separated integers, got {args.b!r}") from None
    prime, v = symmetric_witness(pattern, args.value_index, variables, b_choices)
    return lines + [f"P = {prime}", f"v = {v}"], dict(ideal=ideal), (prime, (v,))


class Command(NamedTuple):
    """handler(args, stanza) -> (text lines, JSON fields, checked); checked is
    None or (prime, witnesses), which `_run` verifies against fields["ideal"]."""

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
        ("--component", dict(type=_int, help="component index in canonical order")),
        ("--offset", dict(action="append", metavar="var=k",
                          help="extra exponent on a non-prime variable (repeatable)")),
        ("--seed", dict(type=_int, help="seeded random offsets")),
        ("--max-offset", dict(type=_int, default=8,
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
        ("--prime", {}), ("--component", dict(type=_int)),
    )),
    "uniqueness": Command(
        _uniqueness, "ideal", "witness uniqueness classification", (_PRIME_REQUIRED,)),
    "clutter-base": Command(
        _clutter_base, "clutter", "witness from a stable set", (_PRIME_REQUIRED,)),
    "symgen": Command(_symgen, "pattern", "symmetric power-pattern ideal", (
        ("--prime", {}),
        ("--value-index", dict(type=_int,
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
    lines, fields, checked = command.handler(args, subject)
    verdict = None
    if checked is not None:  # the one place a witness is verified, never trusted
        from .witness import verify_witness

        prime, witnesses = checked
        verdict = all(verify_witness(fields["ideal"], prime, v) for v in witnesses)
        lines.append("VERIFIED" if verdict else "FAILED")
        fields.setdefault("primes", (prime,))
        fields["witness"] = witnesses[0]
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
