"""Text formats: monomial expressions and line-oriented problem files.

Lexical rule, for problem files and command-line values alike: a line
breaks at '\\n' only (one '\\r' before it is dropped), and a line is a
sequence of tokens, each a name [A-Za-z_][A-Za-z0-9_]*, a decimal integer
[0-9]+, or any other single character.  Blanks, spaces or tabs, may stand
between tokens and are otherwise ignored.  Any other whitespace or control
character is a token that no grammar below accepts, so it is an error on
its own line.  A ',' is always a token of its own, so a comma list (ring
names, sym exponents, the CLI's --prime and --b) is split at each ','
and an --offset item at its first '=', and each part, with the blanks
around it dropped, is then read by the same token rule.

Monomial grammar ("1" is the unit monomial):

    monomial := '1' | term ('*' term)*
    term     := var ('^' posint)?
    var      := declared ring name

Problem files hold one construct per stanza, after a ring declaration:

    ring n=8                  (names default to x1..xn)
    ring vars=t1,t2,t3        (explicit names, each a name token)
    ideal I = x1^4, x2^7*x4
    clutter C = {t1,t2},{t2,t3}
    sym S = n:3 exps:1,3,3

Between an ideal, clutter or sym keyword and its '=' stands exactly one
name; anything else there is an error.  Nothing may follow the last edge
of a clutter:

    clutter := edge (',' edge)*
    edge    := '{' var (',' var)* '}'

Where blanks matter they are as shown above: 'n=', 'vars=', 'n:', 'exps:'
and the size after 'n:' are written without blanks, and a blank separates
the size from 'exps'.

The declared ring owns every name: monomials and clutter vertices resolve
through its one name table, and a sym pattern is placed in that ring
whichever stanza comes first (a file with no ring gives the pattern the
ring x1..xn of its own size).  Blank lines and '#' comments are skipped.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ParseError
from .rings import Monomial, MonomialIdeal, RingContext, _trusted_monomial

if TYPE_CHECKING:  # imported where a stanza needs them, so an ideal file loads neither
    from .clutters import Clutter
    from .witness import SymmetricPattern

_TOKEN = re.compile(r"[ \t]*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|.)", re.S)


def _is_int(token: str) -> bool:  # tokens that start with an ASCII digit are [0-9]+
    return "0" <= token[:1] <= "9"


def _is_name(token: str) -> bool:
    return token.isascii() and token.isidentifier()


def _digits(text: str) -> bool:
    """Whether text is one integer token, with no blank around it."""
    return _is_int(text) and _TOKEN.findall(text) == [text]


class _Line:
    """The tokens of one line of text, ended by "", and where each one
    stands in it.  Positions are found again by the token pattern only when
    a token's column is asked for, so reading costs one `findall`.  Comma
    lists are not walked here: `_entries` splits their text at ',', and
    each entry is read by the token rule where it is used."""

    __slots__ = ("text", "tokens", "line")

    def __init__(self, text: str, line: int = 1):
        self.text, self.line = text, line
        self.tokens = _TOKEN.findall(text.rstrip(" \t"))
        self.tokens.append("")

    def _starts(self) -> list[int]:
        # a token a reader has cut short to its tail ends where its match ends
        return [m.end(1) - len(t) for m, t in zip(_TOKEN.finditer(self.text), self.tokens)]

    def error(self, message: str, k: int) -> ParseError:
        """A ParseError at tokens[k], or at the end of the text for ""."""
        at = self._starts()[k] if k < len(self.tokens) - 1 else len(self.text)
        return ParseError(message, self.line, at + 1)


def _entries(text: str) -> list[str]:
    """The entries of a comma list, without the blanks around each; a ','
    is always a token of its own, so no token spans two entries."""
    return [entry.strip(" \t") for entry in text.split(",")]


def _monomial(line: _Line, i: int, context: RingContext) -> tuple[tuple[int, ...], int]:
    """The exponents of the monomial starting at tokens[i], and the index after it."""
    tokens, index = line.tokens, context._index
    if tokens[i][:1] == "1":
        if tokens[i] == "1":
            return (0,) * context.n, i + 1
        tokens[i] = tokens[i][1:]  # "12" is the unit, then a stray "2"
        return (0,) * context.n, i
    exps = [0] * context.n
    while True:
        name = tokens[i]
        k = index.get(name)
        if k is None:
            raise line.error(
                f"unknown variable {name!r}" if _is_name(name) else "expected a variable name", i)
        power = 1
        if tokens[i + 1] == "^":
            i += 2
            if not _is_int(tokens[i]):
                raise line.error("expected an exponent", i)
            power = int(tokens[i])
            if power < 1:
                raise line.error("exponents must be positive", i)
        exps[k] += power
        if tokens[i + 1] != "*":
            return tuple(exps), i + 1
        i += 2


def _ideal(line: _Line, i: int, context: RingContext) -> MonomialIdeal:
    tokens, gens = line.tokens, []
    while tokens[i]:
        if gens:
            if tokens[i] != ",":
                raise line.error("expected ','", i)
            i += 1
        exps, i = _monomial(line, i, context)
        gens.append(exps)
    return MonomialIdeal._from_exps(context, gens)


def parse_monomial(text: str, context: RingContext) -> Monomial:
    source = _Line(text)
    exps, i = _monomial(source, 0, context)
    if source.tokens[i]:
        raise source.error(f"unexpected trailing input {source.tokens[i][0]!r}", i)
    return _trusted_monomial(context, exps)


def parse_ideal_gens(text: str, context: RingContext) -> MonomialIdeal:
    """Comma-separated generator list; an empty list is the zero ideal."""
    return _ideal(_Line(text), 0, context)


class ProblemFile(NamedTuple):
    context: Optional[RingContext]
    ideal: Optional[MonomialIdeal]
    clutter: Optional[Clutter]
    pattern: Optional[SymmetricPattern]


def _ring(line: _Line) -> RingContext:
    tokens, lineno = line.tokens, line.line
    key = tokens[1]
    if key not in ("n", "vars") or tokens[2] != "=" or not line.text.partition("=")[0].endswith(key):
        raise ParseError("ring declaration must be 'ring n=<k>' or 'ring vars=a,b,...'", lineno)
    if key == "n":
        size = tokens[3]
        if not _is_int(size) or tokens[4] or int(size) < 1:
            raise ParseError("ring size must be a positive integer", lineno)
        return RingContext(int(size))
    names = _entries(line.text.partition("=")[2])
    if names == [""]:
        raise ParseError("ring declaration lists no variables", lineno)
    if "" in names:
        raise ParseError("ring declaration has an empty variable name", lineno)
    try:  # the constructor checks the name grammar and distinctness
        return RingContext(names)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _clutter(line: _Line, i: int, context: RingContext) -> Clutter:
    """Each vertex costs a lookup in the ring's name table and a bit set."""
    from .clutters import Clutter

    tokens, index = line.tokens, context._index
    if not tokens[i]:
        raise ParseError("clutter declaration lists no edges", line.line)
    first, masks = i, []
    while True:
        if tokens[i] != "{":
            raise line.error("expected '{'", i)
        mask = 0
        while True:
            i += 1
            k = index.get(tokens[i])
            if k is None:
                name = tokens[i]
                raise line.error(
                    f"unknown variable {name!r}" if _is_name(name) else "expected a vertex name", i)
            mask |= 1 << k
            i += 1
            if tokens[i] != ",":
                break
        if tokens[i] != "}":
            raise line.error("expected ','", i)
        masks.append(mask)
        i += 1
        if not tokens[i]:
            break
        if tokens[i] != ",":
            raise line.error("expected ','", i)
        i += 1
    try:
        return Clutter._from_masks(context, masks)
    except ValueError as exc:  # at the first '{'
        raise line.error(str(exc), first) from None


def _sym(line: _Line, i: int) -> SymmetricPattern:
    from .witness import SymmetricPattern

    t = line.tokens[i:-1]
    rest = line.text.partition("=")[2]
    words = rest.split()  # once the tokens pass, only blanks split
    if not (len(t) > 5 and t[:2] == ["n", ":"] and _is_int(t[2]) and t[3:5] == ["exps", ":"]
            and all(s == "," or _is_int(s) for s in t[5:])
            and words[0] == "n:" + t[2] and words[1].startswith("exps:")):
        raise ParseError("sym declaration must be 'sym <name> = n:<k> exps:a,b,...'", line.line)
    n = int(t[2])
    if n < 1:
        raise ParseError("sym ring size must be positive", line.line)
    entries = _entries(rest.partition("exps:")[2])
    if "" in entries:
        raise line.error("sym exps list has an empty entry", i)  # at 'n:'
    try:  # an entry of two integers fails int()
        return SymmetricPattern(RingContext(n), tuple(map(int, entries)))
    except ValueError as exc:
        raise line.error(str(exc), i) from None


def parse_problem_file(text: str) -> ProblemFile:
    stanzas = {}  # kind -> its parsed value; each kind appears at most once
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _Line(raw.removesuffix("\r").partition("#")[0].rstrip(" \t"), lineno)
        tokens = line.tokens
        kind = tokens[0]
        if not kind:
            continue
        if kind not in ("ring", "ideal", "clutter", "sym"):
            word = line.text.lstrip(" \t").replace("\t", " ").partition(" ")[0]
            raise ParseError(f"unrecognized stanza {word!r}", lineno)
        eq = "=" in tokens
        context = stanzas.get("ring")
        if kind in ("ideal", "clutter"):
            if context is None:
                raise ParseError(f"{kind} stanza before any ring declaration", lineno)
            if not eq:
                raise ParseError(f"{kind} stanza needs '= ...'", lineno)
        if kind in stanzas:
            noun = "declaration" if kind == "ring" else "stanza"
            raise ParseError(f"duplicate {kind} {noun}", lineno)
        if eq and kind != "ring" and not (_is_name(tokens[1]) and tokens[2] == "="):
            at = 2 if _is_name(tokens[1]) else 1
            raise line.error(f"{kind} stanza needs one name before '='", at)
        if kind == "ring":
            stanzas[kind] = _ring(line)
        elif kind == "ideal":
            stanzas[kind] = _ideal(line, 3, context)
        elif kind == "clutter":
            stanzas[kind] = _clutter(line, 3, context)
        else:
            start = 3 if eq else len(tokens) - 1  # no '=', no pattern: an empty one fails
            stanzas[kind], sym_line = _sym(line, start), lineno
    context, pattern = stanzas.get("ring"), stanzas.get("sym")
    if pattern is not None and context is not None:
        if pattern.context.n != context.n:
            raise ParseError("sym stanza size disagrees with the ring declaration", sym_line)
        pattern = type(pattern)(context, pattern.exps)  # into the declared ring
    return ProblemFile(context, stanzas.get("ideal"), stanzas.get("clutter"), pattern)
