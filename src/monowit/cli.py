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

Each `COMMANDS` entry also declares its options, once, as `Option` rows, and
one small reader, `_read_argv`, reads argv from that table and prints help
from it; start-up loads neither argparse nor gettext.  The reader takes the
forms the argparse parser it replaced took (the one of CPython 3.11):
`--flag value` and `--flag=value`, unique prefixes (`--comp 0`; an exact flag
wins), options before the file, `--` before the file, repeated `--offset`
kept in order (any other repeated option keeps its last value), and a value
that starts with `-` only when it is a negative integer or holds a space.
Any other form is a usage error.  A usage error prints a usage line and
`<prog>: error: <message>` on stderr, with argparse's prog and message, and
exits 1.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .decompose import irreducible_decomposition
from .errors import TheoremViolationError
from .parsing import _digits, _entries, parse_monomial, parse_problem_file
from .rings import Monomial, MonomialIdeal, PrimeSupport, verify_witness

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
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _variables(selector: str, context) -> list[int]:
    indices = [context.index_of(name) for name in _entries(selector)]
    counts = Counter(indices)
    for i in indices:
        if counts[i] > 1:
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
        name, _, value = item.partition("=")  # one integer, with no blank, ends the item
        if not _digits(value):
            raise ValueError(f"--offset expects var=<non-negative int>, got {item!r}")
        index = ideal.context.index_of(name.strip(" \t"))
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
    v = parse_monomial(args.v, ideal.context)
    return [f"(I : {v}) = {ideal.colon(v)}"], dict(ideal=ideal), (prime, (v,))


def _colon(args, ideal):
    v = parse_monomial(args.v, ideal.context)
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
        b_choices = [_int(s) for s in _entries(args.b)] if args.b else []
    except ValueError:
        raise ValueError(f"--b expects comma-separated integers, got {args.b!r}") from None
    prime, v = symmetric_witness(pattern, args.value_index, variables, b_choices)
    return lines + [f"P = {prime}", f"v = {v}"], dict(ideal=ideal), (prime, (v,))


class Option(NamedTuple):
    """One flag of a command.  kind is "str", "int" (read by `_int`), "flag"
    (no value; True when given), "append" (repeatable, kept in order) or the
    tuple of the values it accepts; the value lands on args.<flag name>."""

    flag: str
    kind: object = "str"
    help: str = ""
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def metavar(self) -> str:
        if isinstance(self.kind, tuple):
            return "{" + ",".join(self.kind) + "}"
        return self.dest.upper()


class Command(NamedTuple):
    """handler(args, stanza) -> (text lines, JSON fields, checked); checked is
    None or (prime, witnesses), which `_run` verifies against fields["ideal"]."""

    handler: object
    stanza: str  # the ProblemFile field the handler reads
    help: str
    options: tuple = ()  # Option rows, besides the --format every command takes


_FORMAT = Option("--format", ("text", "json"), "output format", default="text")
_PRIME = Option("--prime", help="prime index or comma-separated variables")
_PRIME_REQUIRED = _PRIME._replace(required=True)
_COMPONENT = Option("--component", "int", "component index in canonical order")

COMMANDS = {
    "decompose": Command(_decompose, "ideal", "irredundant irreducible decomposition"),
    "assprimes": Command(_assprimes, "ideal", "associated primes"),
    "witness": Command(_witness, "ideal", "construct and verify a witness", (
        _PRIME,
        _COMPONENT,
        Option("--offset", "append", "extra exponent var=k on a non-prime variable (repeatable)"),
        Option("--seed", "int", "seeded random offsets"),
        Option("--max-offset", "int", "upper bound for seeded offsets", default=8),
        Option("--list", "flag", "list primes and components, then exit"),
    )),
    "verify": Command(_verify, "ideal", "check a candidate witness", (
        _PRIME_REQUIRED, Option("--v", help="candidate monomial", required=True),
    )),
    "colon": Command(_colon, "ideal", "colon of the ideal by a monomial", (
        Option("--v", help="monomial to take the colon by", required=True),
    )),
    "borel": Command(_borel, "ideal", "Borel-type detection and witness", (
        _PRIME, _COMPONENT,
    )),
    "uniqueness": Command(
        _uniqueness, "ideal", "witness uniqueness classification", (_PRIME_REQUIRED,)),
    "clutter-base": Command(
        _clutter_base, "clutter", "witness from a stable set", (_PRIME_REQUIRED,)),
    "symgen": Command(_symgen, "pattern", "symmetric power-pattern ideal", (
        Option("--prime", help="comma-separated prime variables"),
        Option("--value-index", "int", "0-based index among the distinct exponent values"),
        Option("--b", help="comma-separated complement exponents"),
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


class _Stop(Exception):
    """The reader is done: help or version printed (0), or a usage error (1)."""


def _fail(name: str, message: str):
    """A usage error of command `name` ("" before the command is known)."""
    prog = f"monowit {name}" if name else "monowit"
    print(_usage(name), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise _Stop(USAGE_ERROR)


def _usage(name: str = "") -> str:
    if not name:
        return "usage: monowit [-h] [--version] <command> <file> [options]"
    required = (f"{o.flag} {o.metavar}" for o in COMMANDS[name].options if o.required)
    return " ".join(["usage: monowit", name, "[-h]", "<file>", *required, "[options]"])


def _help(name: str = "") -> str:
    options = [("-h, --help", "show this help message and exit")]
    if name:
        title = COMMANDS[name].help
        sections = {"arguments": [("<file>", "problem file")], "options": options}
        for o in (_FORMAT, *COMMANDS[name].options):
            text = o.help + ("" if o.default is None else f" (default: {o.default})")
            options.append((o.flag if o.kind == "flag" else f"{o.flag} {o.metavar}", text))
    else:
        title = "Monomial ideal decompositions and colon witnesses."
        sections = {"commands": [(n, c.help) for n, c in COMMANDS.items()], "options": options}
        options.append(("--version", "show the program's version and exit"))
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [_usage(name), "", title]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:", *(f"  {left:<{width}}{text}" for left, text in rows)]
    return "\n".join(lines)


def _match(arg: str, flags):
    """What `arg` is among the option strings `flags`: None for a value, else
    (flag, the text after its '=' or None); an unknown or ambiguous flag is
    (None, None)."""
    if not arg.startswith("-") or arg == "-":
        return None
    head, eq, explicit = arg.partition("=")
    matches = [f for f in flags if f == head] or [  # else a unique prefix of a long flag
        f for f in flags if len(head) > 2 and head.startswith("--") and f.startswith(head)]
    if len(matches) == 1:
        return matches[0], explicit if eq else None
    if _digits(arg[1:]) or " " in arg:  # a negative integer, or a value with a blank
        return None
    return None, None


def _switch(flag: str, explicit, name: str) -> None:
    """Rejects a value given to a flag that takes none."""
    if explicit is not None:
        _fail(name, f"argument {flag}: ignored explicit argument {explicit!r}")


def _read_argv(argv: list) -> SimpleNamespace:
    """The parsed command line; raises _Stop after help, --version or a usage error."""
    extras = []
    for i, arg in enumerate(argv):  # the top-level flags, up to the command
        kind = _match(arg, ("-h", "--help", "--version"))
        if kind is None:
            break
        flag, explicit = kind
        if flag is None:
            extras.append(arg)
            continue
        _switch(flag, explicit, "")
        print(f"monowit {__version__}" if flag == "--version" else _help())
        raise _Stop(0)
    else:
        _fail("", "the following arguments are required: command")
    name = argv[i]
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail("", f"argument command: invalid choice: {name!r} (choose from {choices})")
    args = _read_command(name, argv[i + 1:], extras)
    if extras:
        _fail("", "unrecognized arguments: " + " ".join(extras))
    return args


def _read_command(name: str, argv: list, extras: list) -> SimpleNamespace:
    """The file and options of one command; unread arguments go to `extras`."""
    options = {o.flag: o for o in (_FORMAT, *COMMANDS[name].options)}
    flags = ("-h", "--help", *options)
    values = {o.dest: False if o.kind == "flag" else o.default for o in options.values()}
    file, dashes, i = None, False, 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--" and not dashes:  # every argument after it is a value
            dashes = True
            continue
        kind = None if dashes else _match(arg, flags)
        if kind is None:
            if file is None:
                file = arg
            else:
                extras.append(arg)
            continue
        flag, explicit = kind
        option = options.get(flag)
        if flag is None:
            extras.append(arg)
        elif option is None or option.kind == "flag":  # -h, --help or a switch
            _switch(flag, explicit, name)
            if option is None:
                print(_help(name))
                raise _Stop(0)
            values[option.dest] = True
        else:
            if explicit is None:
                if i == len(argv) or _match(argv[i], flags) is not None:
                    _fail(name, f"argument {flag}: expected one argument")
                explicit, i = argv[i], i + 1
            value = _value(option, explicit, name)
            if option.kind == "append":
                value = [*(values[option.dest] or ()), value]
            values[option.dest] = value
    missing = ["file"] * (file is None)
    missing += [o.flag for o in options.values() if o.required and values[o.dest] is None]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(command=name, file=file, **values)


def _value(option: Option, text: str, name: str):
    if option.kind == "int":
        try:
            return _int(text)
        except ValueError as exc:
            _fail(name, f"argument {option.flag}: {exc}")
    if isinstance(option.kind, tuple) and text not in option.kind:
        choices = ", ".join(map(repr, option.kind))
        _fail(name, f"argument {option.flag}: invalid choice: {text!r} (choose from {choices})")
    return text


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        return stop.args[0]
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
