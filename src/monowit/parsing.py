"""Text formats: monomial expressions and line-oriented problem files.

Monomial grammar (whitespace ignored, "1" is the unit monomial):

    monomial := '1' | term ('*' term)*
    term     := var ('^' posint)?
    var      := declared ring name

Problem files hold one construct per stanza, after a ring declaration:

    ring n=8                  (names default to x1..xn)
    ring vars=t1,t2,t3        (explicit names)
    ideal I = x1^4, x2^7*x4
    clutter C = {t1,t2},{t2,t3}
    sym S = n:3 exps:1,3,3

Blank lines and '#' comments are skipped.
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
        if not digits.isdecimal() or int(digits) < 1:
            raise ParseError("ring size must be a positive integer", line)
        return RingContext(int(digits))
    if rhs.startswith("vars="):
        names = [s.strip() for s in rhs[5:].split(",") if s.strip()]
        if not names:
            raise ParseError("ring declaration lists no variables", line)
        try:
            return RingContext(names)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError("ring declaration must be 'ring n=<k>' or 'ring vars=a,b,...'", line)


def _parse_clutter(rhs: str, context: RingContext, line: int, column: int) -> Clutter:
    from .clutters import Clutter

    edges = []
    scanner = _Scanner(rhs, line, column)
    while True:
        scanner.skip_ws()
        if scanner.exhausted:
            break
        scanner.expect_char("{")
        edge = []
        while True:
            scanner.skip_ws()
            start = scanner.pos
            name = scanner.take(_NAME)
            if name is None:
                raise scanner.error("expected a vertex name")
            try:
                edge.append(context.index_of(name))
            except ValueError as exc:
                raise scanner.error(str(exc), at=start) from None
            scanner.skip_ws()
            if scanner.peek() == "}":
                scanner.pos += 1
                break
            scanner.expect_char(",")
        edges.append(edge)
        scanner.skip_ws()
        if scanner.exhausted:
            break
        scanner.expect_char(",")
    if not edges:
        raise ParseError("clutter declaration lists no edges", line)
    try:
        return Clutter(context.names, edges)
    except ValueError as exc:  # at the first '{'
        raise scanner.error(str(exc), at=len(rhs) - len(rhs.lstrip(" \t"))) from None


def _parse_sym(rhs: str, line: int, column: int) -> SymmetricPattern:
    from .witness import SymmetricPattern

    m = re.fullmatch(r"\s*n:(\d+)\s+exps:([0-9,\s]+)", rhs)
    if not m:
        raise ParseError("sym declaration must be 'sym <name> = n:<k> exps:a,b,...'", line)
    n = int(m.group(1))
    if n < 1:
        raise ParseError("sym ring size must be positive", line)
    try:
        exps = tuple(int(s) for s in m.group(2).split(",") if s.strip())
        return SymmetricPattern(RingContext(n), exps)
    except ValueError as exc:  # at 'n:'
        raise ParseError(str(exc), line, column + len(rhs) - len(rhs.lstrip())) from None


_STANZA = re.compile(r"(ring|ideal|clutter|sym)\b\s*(.*)")


def parse_problem_file(text: str) -> ProblemFile:
    context = None
    ideal = None
    clutter = None
    pattern = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _STANZA.fullmatch(stripped)
        if not m:
            raise ParseError(f"unrecognized stanza {stripped.split()[0]!r}", lineno)
        kind, rest = m.group(1), m.group(2)
        if kind == "ring":
            if context is not None:
                raise ParseError("duplicate ring declaration", lineno)
            context = _parse_ring(rest, lineno)
            continue
        _, eq, rhs = rest.partition("=")
        column = len(raw) - len(raw.lstrip()) + len(stripped) - len(rhs) + 1  # of rhs in raw
        if kind == "sym":
            if pattern is not None:
                raise ParseError("duplicate sym stanza", lineno)
            pattern, sym_line = _parse_sym(rhs, lineno, column), lineno
            continue
        if context is None:
            raise ParseError(f"{kind} stanza before any ring declaration", lineno)
        if not eq:
            raise ParseError(f"{kind} stanza needs '= ...'", lineno)
        if kind == "ideal":
            if ideal is not None:
                raise ParseError("duplicate ideal stanza", lineno)
            ideal = parse_ideal_gens(rhs, context, lineno, column)
        else:
            if clutter is not None:
                raise ParseError("duplicate clutter stanza", lineno)
            clutter = _parse_clutter(rhs, context, lineno, column)
    if pattern is not None and context is not None and pattern.context.n != context.n:
        raise ParseError("sym stanza size disagrees with the ring declaration", sym_line)
    return ProblemFile(context, ideal, clutter, pattern)
