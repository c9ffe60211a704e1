"""Text formats: monomial expressions and line-oriented problem files.

Monomial grammar (whitespace ignored, "1" is the unit monomial):

    monomial := '1' | term ('*' term)*
    term     := var ('^' posint)?
    var      := declared ring name, [A-Za-z_][A-Za-z0-9_]*

Problem files hold one construct per stanza, after a ring declaration:

    ring n=8                  (names default to x1..xn)
    ring vars=t1,t2,t3        (explicit names, each matching var's pattern)
    ideal I = x1^4, x2^7*x4
    clutter C = {t1,t2},{t2,t3}
    sym S = n:3 exps:1,3,3

Between an ideal, clutter or sym keyword and its '=' stands exactly one
name, matching var's pattern; anything else there is an error.

A clutter stanza lists its edges over the ring's names; only spaces and
tabs may surround its tokens, and nothing may follow the last edge:

    clutter := edge (',' edge)*
    edge    := '{' var (',' var)* '}'

The declared ring owns every name: monomials and clutter vertices resolve
through its one name table, and a sym pattern is placed in that ring
whichever stanza comes first (a file with no ring gives the pattern the
ring x1..xn of its own size).  Blank lines and '#' comments are skipped.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ParseError
from .rings import Monomial, MonomialIdeal, RingContext

if TYPE_CHECKING:  # imported where a stanza needs them, so an ideal file loads neither
    from .clutters import Clutter
    from .witness import SymmetricPattern

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text: str, line: int = 1, column: int = 1):
        self.text = text
        self.pos = 0
        self.line = line
        self.base_column = column

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        pos = self.pos if at is None else at
        return ParseError(message, self.line, self.base_column + pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, pattern: re.Pattern) -> Optional[str]:
        m = pattern.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group()

    def expect_char(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.text)


def _scan_monomial(scanner: _Scanner, context: RingContext) -> Monomial:
    scanner.skip_ws()
    if scanner.peek() == "1":
        scanner.pos += 1
        return context.one
    exps = [0] * context.n
    while True:
        scanner.skip_ws()
        start = scanner.pos
        name = scanner.take(_NAME)
        if name is None:
            raise scanner.error("expected a variable name")
        try:
            index = context.index_of(name)
        except ValueError:
            raise scanner.error(f"unknown variable {name!r}", at=start) from None
        power = 1
        scanner.skip_ws()
        if scanner.peek() == "^":
            scanner.pos += 1
            scanner.skip_ws()
            digit_start = scanner.pos
            digits = scanner.take(_INT)
            if digits is None:
                raise scanner.error("expected an exponent")
            power = int(digits)
            if power < 1:
                raise scanner.error("exponents must be positive", at=digit_start)
        exps[index] += power
        scanner.skip_ws()
        if scanner.peek() != "*":
            return Monomial(context, tuple(exps))
        scanner.pos += 1


def parse_monomial(
    text: str, context: RingContext, line: int = 1, column: int = 1
) -> Monomial:
    scanner = _Scanner(text, line, column)
    m = _scan_monomial(scanner, context)
    scanner.skip_ws()
    if not scanner.exhausted:
        raise scanner.error(f"unexpected trailing input {scanner.peek()!r}")
    return m


def parse_ideal_gens(
    text: str, context: RingContext, line: int = 1, column: int = 1
) -> MonomialIdeal:
    """Comma-separated generator list; an empty list is the zero ideal."""
    if not text.strip():
        return MonomialIdeal(context, ())
    scanner = _Scanner(text, line, column)
    gens = [_scan_monomial(scanner, context)]
    while True:
        scanner.skip_ws()
        if scanner.exhausted:
            return MonomialIdeal(context, gens)
        scanner.expect_char(",")
        gens.append(_scan_monomial(scanner, context))


class ProblemFile(NamedTuple):
    context: Optional[RingContext]
    ideal: Optional[MonomialIdeal]
    clutter: Optional[Clutter]
    pattern: Optional[SymmetricPattern]


def _parse_ring(rhs: str, line: int) -> RingContext:
    rhs = rhs.strip()
    if rhs.startswith("n="):
        digits = rhs[2:].strip()
        if not _INT.fullmatch(digits) or int(digits) < 1:
            raise ParseError("ring size must be a positive integer", line)
        return RingContext(int(digits))
    if rhs.startswith("vars="):
        names = [s.strip() for s in rhs[5:].split(",")]
        if names == [""]:
            raise ParseError("ring declaration lists no variables", line)
        if "" in names:
            raise ParseError("ring declaration has an empty variable name", line)
        try:  # the constructor checks the name grammar and distinctness
            return RingContext(names)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError("ring declaration must be 'ring n=<k>' or 'ring vars=a,b,...'", line)


# Kept as strings: re compiles and caches the pattern on the first clutter
# stanza, so importing this module for an ideal file compiles nothing more.
_EDGE = r"\{[ \t]*%s(?:[ \t]*,[ \t]*%s)*[ \t]*\}" % (_NAME.pattern, _NAME.pattern)
_CLUTTER = r"[ \t]*%s(?:[ \t]*,[ \t]*%s)*[ \t]*" % (_EDGE, _EDGE)


def _parse_clutter(rhs: str, context: RingContext, line: int, column: int) -> Clutter:
    """One match of `_CLUTTER` checks the stanza's grammar, and then each
    vertex costs a lookup in the ring's name table and a bit set.  A stanza
    the pattern rejects, or one naming an unknown vertex, is walked token by
    token to report the error."""
    from .clutters import Clutter

    index = context._index
    if re.fullmatch(_CLUTTER, rhs) is None:
        _raise_clutter_error(rhs, index, line, column)
    masks = []
    try:
        for body in re.findall(r"\{([^}]*)\}", rhs):
            mask = 0
            for name in body.split(","):
                mask |= 1 << index[name.strip(" \t")]
            masks.append(mask)
    except KeyError:
        _raise_clutter_error(rhs, index, line, column)
    try:
        return Clutter._from_masks(context, masks)
    except ValueError as exc:  # at the first '{'
        raise ParseError(str(exc), line, column + len(rhs) - len(rhs.lstrip(" \t"))) from None


def _raise_clutter_error(rhs: str, index: dict, line: int, column: int):
    """Walk the stanza token by token and raise at the first token that does
    not fit the grammar, or at the first vertex not in index.  A blank
    stanza lists no edges, and a comma must be followed by an edge."""
    scanner = _Scanner(rhs, line, column)
    scanner.skip_ws()
    if scanner.exhausted:
        raise ParseError("clutter declaration lists no edges", line)
    while True:
        scanner.expect_char("{")
        while True:
            scanner.skip_ws()
            start = scanner.pos
            name = scanner.take(_NAME)
            if name is None:
                raise scanner.error("expected a vertex name")
            if name not in index:
                raise scanner.error(f"unknown variable {name!r}", at=start)
            scanner.skip_ws()
            if scanner.peek() == "}":
                scanner.pos += 1
                break
            scanner.expect_char(",")
        scanner.skip_ws()
        scanner.expect_char(",")
        scanner.skip_ws()


def _parse_sym(rhs: str, line: int, column: int) -> SymmetricPattern:
    from .witness import SymmetricPattern

    m = re.fullmatch(r"\s*n:([0-9]+)\s+exps:([0-9,\s]+)", rhs)
    if not m:
        raise ParseError("sym declaration must be 'sym <name> = n:<k> exps:a,b,...'", line)
    n = int(m.group(1))
    if n < 1:
        raise ParseError("sym ring size must be positive", line)
    column += len(rhs) - len(rhs.lstrip())  # of 'n:'
    entries = m.group(2).split(",")
    if not all(s.strip() for s in entries):
        raise ParseError("sym exps list has an empty entry", line, column)
    try:
        return SymmetricPattern(RingContext(n), tuple(map(int, entries)))
    except ValueError as exc:
        raise ParseError(str(exc), line, column) from None


_STANZA = re.compile(r"(ring|ideal|clutter|sym)\b\s*(.*)")
_HEAD = re.compile(r"(?:%s[ \t]*)?" % _NAME.pattern)  # the one name before an '='


def parse_problem_file(text: str) -> ProblemFile:
    stanzas = {}  # kind -> its parsed value; each kind appears at most once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _STANZA.fullmatch(stripped)
        if not m:
            raise ParseError(f"unrecognized stanza {stripped.split()[0]!r}", lineno)
        kind, rest = m.group(1), m.group(2)
        head, eq, rhs = rest.partition("=")
        start = len(raw) - len(raw.lstrip()) + len(stripped) - len(rest) + 1  # of rest in raw
        column = start + len(head) + len(eq)  # of rhs in raw
        context = stanzas.get("ring")
        if kind in ("ideal", "clutter"):
            if context is None:
                raise ParseError(f"{kind} stanza before any ring declaration", lineno)
            if not eq:
                raise ParseError(f"{kind} stanza needs '= ...'", lineno)
        if kind in stanzas:
            noun = "declaration" if kind == "ring" else "stanza"
            raise ParseError(f"duplicate {kind} {noun}", lineno)
        if eq and kind != "ring":
            end = _HEAD.match(head).end()  # of the name and the blanks after it
            if not head or end < len(head):
                raise ParseError(f"{kind} stanza needs one name before '='", lineno, start + end)
        if kind == "ring":
            stanzas[kind] = _parse_ring(rest, lineno)
        elif kind == "ideal":
            stanzas[kind] = parse_ideal_gens(rhs, context, lineno, column)
        elif kind == "clutter":
            stanzas[kind] = _parse_clutter(rhs, context, lineno, column)
        else:
            stanzas[kind], sym_line = _parse_sym(rhs, lineno, column), lineno
    context, pattern = stanzas.get("ring"), stanzas.get("sym")
    if pattern is not None and context is not None:
        if pattern.context.n != context.n:
            raise ParseError("sym stanza size disagrees with the ring declaration", sym_line)
        pattern = type(pattern)(context, pattern.exps)  # into the declared ring
    return ProblemFile(context, stanzas.get("ideal"), stanzas.get("clutter"), pattern)
