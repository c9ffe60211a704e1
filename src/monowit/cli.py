"""Command-line front end.

Deterministic, non-interactive driver: every command reads a problem file,
delegates to the library, and reports on stdout.  Witnesses are always
re-verified before VERIFIED is printed.  Exit codes: 0 success, 1 usage or
input error or a reader that closed stdout early, 2 verification failure or
an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .borel import borel_witness, is_borel_type
from .decompose import irreducible_decomposition
from .errors import ParseError, TheoremViolationError
from .parsing import ProblemFile, parse_monomial, parse_problem_file
from .rings import Monomial, MonomialIdeal, PrimeSupport
from .witness import (
    WitnessSpec,
    build_symmetric_ideal,
    classify_uniqueness,
    symmetric_witness,
    verify_witness,
    witness_from_component,
)

USAGE_ERROR = 1
VERIFY_ERROR = 2


class CliError(Exception):
    """Input problem; message goes to stderr, exit code 1."""


def _exponent_map(m: Monomial) -> dict:
    names = m.context.names
    return {names[i]: e for i, e in enumerate(m.exps) if e}


def _json_document(context, ideal=None, components=None, primes=None,
                   witness=None, verified=None) -> dict:
    return {
        "ring": {"n": context.n, "names": list(context.names)} if context else None,
        "ideal": [_exponent_map(g) for g in ideal.gens] if ideal is not None else None,
        "components": [
            {c.context.names[v]: e for v, e in c.pairs} for c in components
        ] if components is not None else None,
        "associated_primes": [
            [p.context.names[i] for i in p.vars] for p in primes
        ] if primes is not None else None,
        "witness": _exponent_map(witness) if witness is not None else None,
        "verified": verified,
    }


def _emit(args, lines, document):
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem_file(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _need_ideal(problem) -> MonomialIdeal:
    if problem.ideal is None:
        raise CliError("the problem file declares no ideal")
    return problem.ideal


def _resolve_prime(selector: str, ideal: MonomialIdeal) -> PrimeSupport:
    primes = irreducible_decomposition(ideal).primes()
    if selector.isdigit():
        index = int(selector)
        if index >= len(primes):
            raise CliError(
                f"prime index {index} out of range; there are {len(primes)} primes"
            )
        return primes[index]
    try:
        variables = [ideal.context.index_of(name.strip()) for name in selector.split(",")]
        prime = PrimeSupport(ideal.context, variables)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if prime not in primes:
        listing = "; ".join(f"P_{i} = {p}" for i, p in enumerate(primes))
        raise CliError(f"{prime} is not an associated prime ({listing})")
    return prime


def _resolve_component(args, ideal, prime):
    components = irreducible_decomposition(ideal).components_for(prime)
    if args.component is not None:
        if not 0 <= args.component < len(components):
            raise CliError(
                f"component index {args.component} out of range; "
                f"there are {len(components)} components for {prime}"
            )
        return components[args.component]
    if len(components) > 1:
        listing = "".join(f"\n  Q_{i} = {q}" for i, q in enumerate(components))
        raise CliError(
            f"{prime} has {len(components)} components; "
            f"choose one with --component:{listing}"
        )
    return components[0]


def _collect_offsets(args, ideal, prime) -> dict:
    complement = prime.complement()
    if args.seed is not None:
        if args.offset:
            raise CliError("--seed and --offset are mutually exclusive")
        rng = random.Random(args.seed)
        return {v: rng.randint(0, args.max_offset) for v in complement}
    offsets = {}
    names = ideal.context.names
    for item in args.offset or []:
        var, _, value = item.partition("=")
        if not value or not value.isdigit():
            raise CliError(f"--offset expects var=<non-negative int>, got {item!r}")
        try:
            index = ideal.context.index_of(var.strip())
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if index not in complement:
            raise CliError(f"{names[index]} is a prime variable; offsets apply outside")
        offsets[index] = int(value)
    return offsets


def _cmd_decompose(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    decomposition = irreducible_decomposition(ideal)
    primes = decomposition.primes()
    lines = [f"I = {ideal}", "components:"]
    lines += [f"  Q_{i} = {q}" for i, q in enumerate(decomposition.components)]
    lines.append("associated primes:")
    lines += [f"  P_{i} = {p}" for i, p in enumerate(primes)]
    _emit(args, lines, _json_document(
        ideal.context, ideal, decomposition.components, primes))
    return 0


def _cmd_assprimes(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    primes = irreducible_decomposition(ideal).primes()
    lines = [f"P_{i} = {p}" for i, p in enumerate(primes)]
    _emit(args, lines, _json_document(ideal.context, ideal, primes=primes))
    return 0


def _cmd_witness(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    decomposition = irreducible_decomposition(ideal)
    if args.list:
        primes = decomposition.primes()
        lines = []
        for i, p in enumerate(primes):
            lines.append(f"P_{i} = {p}")
            components = decomposition.components_for(p)
            lines += [f"  Q_{j} = {q}" for j, q in enumerate(components)]
        _emit(args, lines, _json_document(
            ideal.context, ideal, decomposition.components, primes))
        return 0
    if args.prime is None:
        raise CliError("witness requires --prime (or --list to see candidates)")
    prime = _resolve_prime(args.prime, ideal)
    component = _resolve_component(args, ideal, prime)
    offsets = _collect_offsets(args, ideal, prime)
    v = witness_from_component(ideal, WitnessSpec(prime, component, offsets))
    verified = verify_witness(ideal, prime, v)
    lines = [f"P = {prime}", f"Q = {component}", f"v = {v}",
             "VERIFIED" if verified else "FAILED"]
    _emit(args, lines, _json_document(
        ideal.context, ideal, (component,), (prime,), v, verified))
    return 0 if verified else VERIFY_ERROR


def _cmd_verify(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    prime = _resolve_prime(args.prime, ideal)
    try:
        v = parse_monomial(args.monomial, ideal.context)
    except ParseError as exc:
        raise CliError(str(exc)) from None
    verified = verify_witness(ideal, prime, v)
    lines = [f"(I : {v}) = {ideal.colon(v)}", "VERIFIED" if verified else "FAILED"]
    _emit(args, lines, _json_document(
        ideal.context, ideal, primes=(prime,), witness=v, verified=verified))
    return 0 if verified else VERIFY_ERROR


def _cmd_colon(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    try:
        v = parse_monomial(args.monomial, ideal.context)
    except ParseError as exc:
        raise CliError(str(exc)) from None
    quotient = ideal.colon(v)
    _emit(args, [f"(I : {v}) = {quotient}"], _json_document(
        ideal.context, quotient, witness=v))
    return 0


def _cmd_borel(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    report = is_borel_type(ideal)
    if not report.is_borel_type:
        if args.prime is not None:
            raise CliError("the ideal is not of Borel type; no witness available")
        u, i, j = report.certificate
        names = ideal.context.names
        lines = ["Borel type: no",
                 f"certificate: u = {u}, i = {names[i]}, j = {names[j]}"]
        _emit(args, lines, _json_document(ideal.context, ideal, verified=False))
        return 0
    lines = ["Borel type: yes"]
    lines += [f"P_{i} = {p}" for i, p in enumerate(report.primes)]
    witness = None
    verified = None
    if args.prime is not None:
        prime = _resolve_prime(args.prime, ideal)
        component = _resolve_component(args, ideal, prime)
        witness = borel_witness(ideal, prime, component)
        verified = verify_witness(ideal, prime, witness)
        lines += [f"v = {witness}", "VERIFIED" if verified else "FAILED"]
    _emit(args, lines, _json_document(
        ideal.context, ideal, primes=report.primes,
        witness=witness, verified=verified))
    return VERIFY_ERROR if verified is False else 0


def _cmd_uniqueness(args) -> int:
    problem = _load(args.file)
    ideal = _need_ideal(problem)
    prime = _resolve_prime(args.prime, ideal)
    result = classify_uniqueness(ideal, prime)
    verified = all(verify_witness(ideal, prime, w) for w in result.witnesses)
    lines = [f"unique: {'yes' if result.unique else 'no'}"]
    lines += [f"v{i + 1} = {w}" for i, w in enumerate(result.witnesses)]
    lines.append("VERIFIED" if verified else "FAILED")
    _emit(args, lines, _json_document(
        ideal.context, ideal, primes=(prime,),
        witness=result.witnesses[0], verified=verified))
    return 0 if verified else VERIFY_ERROR


def _cmd_clutter_base(args) -> int:
    problem = _load(args.file)
    if problem.clutter is None:
        raise CliError("the problem file declares no clutter")
    clutter = problem.clutter
    ideal = clutter.edge_ideal()
    prime = _resolve_prime(args.prime, ideal)
    try:
        t_a = clutter.witness_base(prime)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    verified = verify_witness(ideal, prime, t_a)
    support = [clutter.context.names[v] for v in t_a.support()]
    lines = [f"A = ({', '.join(support)})", f"v = {t_a}",
             "VERIFIED" if verified else "FAILED"]
    _emit(args, lines, _json_document(
        clutter.context, ideal, primes=(prime,), witness=t_a, verified=verified))
    return 0 if verified else VERIFY_ERROR


def _cmd_symgen(args) -> int:
    problem = _load(args.file)
    if problem.pattern is None:
        raise CliError("the problem file declares no sym stanza")
    pattern = problem.pattern
    ideal = build_symmetric_ideal(pattern)
    lines = [f"I = {ideal}"]
    witness = None
    verified = None
    primes = None
    if args.prime is not None:
        if args.value_index is None:
            raise CliError("--prime needs --value-index for symgen")
        try:
            variables = [
                pattern.context.index_of(s.strip()) for s in args.prime.split(",")
            ]
            b_choices = (
                [int(s) for s in args.b.split(",") if s.strip()] if args.b else []
            )
            prime, witness = symmetric_witness(
                pattern, args.value_index, variables, b_choices
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
        primes = (prime,)
        verified = verify_witness(ideal, prime, witness)
        lines += [f"P = {prime}", f"v = {witness}",
                  "VERIFIED" if verified else "FAILED"]
    _emit(args, lines, _json_document(
        pattern.context, ideal, primes=primes, witness=witness, verified=verified))
    return VERIFY_ERROR if verified is False else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monowit",
        description="Monomial ideal decompositions and colon witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="problem file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    add("decompose", _cmd_decompose, help="irredundant irreducible decomposition")
    add("assprimes", _cmd_assprimes, help="associated primes")

    w = add("witness", _cmd_witness, help="construct and verify a witness")
    w.add_argument("--prime", help="prime index or comma-separated variables")
    w.add_argument("--component", type=int, help="component index in canonical order")
    w.add_argument("--offset", action="append", metavar="var=k",
                   help="extra exponent on a non-prime variable (repeatable)")
    w.add_argument("--seed", type=int, help="seeded random offsets")
    w.add_argument("--max-offset", type=int, default=8,
                   help="upper bound for seeded offsets")
    w.add_argument("--list", action="store_true",
                   help="list primes and components, then exit")

    v = add("verify", _cmd_verify, help="check a candidate witness")
    v.add_argument("--prime", required=True)
    v.add_argument("--v", dest="monomial", required=True, help="candidate monomial")

    c = add("colon", _cmd_colon, help="colon of the ideal by a monomial")
    c.add_argument("--v", dest="monomial", required=True)

    b = add("borel", _cmd_borel, help="Borel-type detection and witness")
    b.add_argument("--prime")
    b.add_argument("--component", type=int)

    u = add("uniqueness", _cmd_uniqueness, help="witness uniqueness classification")
    u.add_argument("--prime", required=True)

    cb = add("clutter-base", _cmd_clutter_base, help="witness from a stable set")
    cb.add_argument("--prime", required=True)

    s = add("symgen", _cmd_symgen, help="symmetric power-pattern ideal")
    s.add_argument("--prime")
    s.add_argument("--value-index", type=int,
                   help="0-based index among the distinct exponent values")
    s.add_argument("--b", help="comma-separated complement exponents")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for
        # verification failures
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (say `| head`); point stdout at devnull so
        # the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except (CliError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
