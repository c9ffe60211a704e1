"""Monomial grammar, problem files, and print/parse round-trips."""

import re
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from monowit import (
    Clutter,
    MonomialIdeal,
    ParseError,
    RingContext,
    parse_ideal_gens,
    parse_monomial,
    parse_problem_file,
)
from util import ctx, ideal, ideals, monomials


class TestParseMonomial:
    def test_single_power(self):
        assert parse_monomial("x1^4", ctx(3)).exps == (4, 0, 0)

    def test_two_factors(self):
        m = parse_monomial("x4^2*x8^2", ctx(8))
        assert m.exps == (0, 0, 0, 2, 0, 0, 0, 2)

    def test_unit(self):
        assert parse_monomial("1", ctx(2)) == ctx(2).one

    def test_whitespace_ignored(self):
        assert parse_monomial("  x1 ^ 2 * x2 ", ctx(2)).exps == (2, 1)

    def test_repeats_accumulate(self):
        assert parse_monomial("x1^2*x1", ctx(1)).exps == (3,)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_monomial("x1^0", ctx(2))

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as info:
            parse_monomial("x1*y", ctx(2))
        assert "unknown variable" in str(info.value)
        assert info.value.column == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_monomial("x1 x2", ctx(2))

    def test_dangling_caret(self):
        with pytest.raises(ParseError):
            parse_monomial("x1^", ctx(2))

    def test_dangling_star(self):
        with pytest.raises(ParseError):
            parse_monomial("x1*", ctx(2))


class TestParseIdealGens:
    def test_list(self):
        assert parse_ideal_gens("x1^2, x2", ctx(2)) == ideal(ctx(2), "x1^2", "x2")

    def test_empty_is_zero(self):
        assert parse_ideal_gens("   ", ctx(2)).is_zero

    def test_unit_generator(self):
        assert parse_ideal_gens("1", ctx(2)).is_unit

    def test_missing_comma(self):
        with pytest.raises(ParseError):
            parse_ideal_gens("x1 x2", ctx(2))


class TestRoundTrip:
    @given(data=st.data())
    def test_monomials(self, data):
        c = ctx(data.draw(st.integers(1, 5)))
        m = data.draw(monomials(c, max_exp=6))
        assert parse_monomial(str(m), c) == m

    @given(I=ideals(proper=False))
    def test_ideals(self, I):
        assert parse_ideal_gens(", ".join(map(str, I)), I.context) == I

    def test_zero_ideal(self):
        z = MonomialIdeal(ctx(2), ())
        text = ", ".join(map(str, z))
        assert text == ""
        assert parse_ideal_gens(text, ctx(2)) == z

    def test_named_context(self):
        c = RingContext(["alpha", "beta"])
        m = parse_monomial("alpha^2*beta", c)
        assert str(m) == "alpha^2*beta"


class TestProblemFile:
    def test_ring_and_ideal(self):
        text = "# demo\nring n=3\nideal I = x1^2, x2*x3\n"
        problem = parse_problem_file(text)
        assert problem.context.n == 3
        assert problem.ideal == ideal(ctx(3), "x1^2", "x2*x3")

    def test_named_ring_and_clutter(self):
        text = "ring vars=t1,t2,t3\nclutter C = {t1,t2},{t2,t3}\n"
        problem = parse_problem_file(text)
        assert problem.clutter.edges == (frozenset({0, 1}), frozenset({1, 2}))

    def test_isolated_vertices_come_from_the_ring(self):
        text = "ring vars=t1,t2,t3\nclutter C = {t1,t2}\n"
        problem = parse_problem_file(text)
        assert problem.clutter.n == 3

    def test_sym_stanza(self):
        problem = parse_problem_file("sym S = n:3 exps:1,3,3\n")
        assert problem.pattern.exps == (1, 3, 3)
        assert problem.pattern.context.n == 3

    def test_sym_size_conflict(self):
        with pytest.raises(ParseError):
            parse_problem_file("ring n=2\nsym S = n:3 exps:1,1\n")

    def test_duplicate_stanzas_rejected(self):
        with pytest.raises(ParseError):
            parse_problem_file("ring n=2\nring n=3\n")
        with pytest.raises(ParseError):
            parse_problem_file("ring n=2\nideal I = x1\nideal J = x2\n")

    def test_construct_before_ring_rejected(self):
        with pytest.raises(ParseError):
            parse_problem_file("ideal I = x1\n")

    def test_unknown_stanza(self):
        with pytest.raises(ParseError) as info:
            parse_problem_file("ring n=2\nmodule M = x1\n")
        assert info.value.line == 2

    def test_bad_ring_declaration(self):
        with pytest.raises(ParseError):
            parse_problem_file("ring m=2\n")
        with pytest.raises(ParseError):
            parse_problem_file("ring n=0\n")

    @pytest.mark.parametrize("text", ["ring n=0\n", "ring n=x\n", "ring n=\u00b2\n"],
                             ids=["zero", "letter", "superscript-two"])
    def test_ring_size_must_be_a_decimal_integer(self, text):
        # str.isdigit() accepts a superscript two, which int() then rejects
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert str(info.value) == "ring size must be a positive integer (line 1, column 1)"

    @pytest.mark.parametrize("text, name", [
        ("ring vars=a b,c\nideal I = c\n", "a b"),
        ("ring vars=c-d,e\nideal I = e\n", "c-d"),
        ("ring vars=e,1x\nideal I = e\n", "1x"),
        ("ring vars=\u00e9,b\nideal I = b\n", "\u00e9"),
        ("ring vars= a ,\tb\tc \nideal I = a\n", "b\tc"),
    ], ids=["space", "hyphen", "leading-digit", "non-ascii", "tab-inside-padded-entry"])
    def test_ring_names_must_be_identifiers(self, text, name):
        # a name the monomial grammar cannot read could never be referred to
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert str(info.value) == f"invalid variable name {name!r} (line 1, column 1)"

    @pytest.mark.parametrize("text, message", [
        ("ring vars=a,,b\nideal I = a\n",
         "ring declaration has an empty variable name (line 1, column 1)"),
        ("ring vars=a,b,\nideal I = a\n",
         "ring declaration has an empty variable name (line 1, column 1)"),
        ("ring vars=,a\n", "ring declaration has an empty variable name (line 1, column 1)"),
        ("# names\nring vars=a, ,b\n",
         "ring declaration has an empty variable name (line 2, column 1)"),
        ("ring vars=\n", "ring declaration lists no variables (line 1, column 1)"),
        ("sym S = n:3 exps:1,,3\n", "sym exps list has an empty entry (line 1, column 9)"),
        ("ring n=3\n sym S = n:3 exps:1,3,\n",
         "sym exps list has an empty entry (line 2, column 10)"),
    ], ids=["ring-double-comma", "ring-trailing-comma", "ring-leading-comma",
            "ring-blank-name", "ring-no-names", "sym-double-comma", "sym-trailing-comma"])
    def test_empty_list_entries_rejected(self, text, message):
        # a missing entry is more likely a typo than an intent
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, line, column, message", [
        ("ring n=2\nideal I = x1*y\n", 2, 14, "unknown variable 'y'"),
        ("ring n=2\nideal I=x1^0\n", 2, 12, "exponents must be positive"),
        ("ring vars=a,b\n\tideal I = a ,  b*c  # c\n", 2, 19, "unknown variable 'c'"),
        ("ring vars=a,b\n  clutter C = {a,b},{a,c}\n", 2, 24, "unknown variable 'c'"),
        ("ring vars=a,b\nclutter C = {a,b}x\n", 2, 18, "expected ','"),
        ("ring n=2\nsym S = n:3 exps:1,1\n", 2, 1,
         "sym stanza size disagrees with the ring declaration"),
        ("# sym first\nsym S = n:3 exps:1,1\nring n=2\n", 2, 1,
         "sym stanza size disagrees with the ring declaration"),
        ("ring vars=a,b\nclutter C = {a},{a,b}\n", 2, 13,
         "edges {a} and {a,b} are nested; a clutter's edges must form an antichain"),
        ("ring vars=a,b\n  clutter C = \t{a,b},{b}\n", 2, 16,
         "edges {a,b} and {b} are nested; a clutter's edges must form an antichain"),
        ("sym S = n:2 exps:0,1\n", 1, 9, "exponents must be positive"),
        ("ring n=2\n sym S =  n:2 exps:1,0  # c\n", 2, 11, "exponents must be positive"),
        ("ring n=\u00b2\nideal I = x1\n", 1, 1, "ring size must be a positive integer"),
        ("ring n=\uff13\nideal I = x1\n", 1, 1, "ring size must be a positive integer"),
        ("sym S = n:\uff13 exps:1,2\n", 1, 1,
         "sym declaration must be 'sym <name> = n:<k> exps:a,b,...'"),
        ("ring n=2\nideal I = x1^   \n", 2, 14, "expected an exponent"),
        ("ring n=2\nideal I = 12\n", 2, 12, "expected ','"),
        ("ring n=2\nideal I = x1*\u00e9\n", 2, 14, "expected a variable name"),
        ("ring n=2\nideal I = x1\t*\tx2\t*\ty\n", 2, 21, "unknown variable 'y'"),
        ("ring vars=a,b\nclutter C = {a, b,}\n", 2, 19, "expected a vertex name"),
        ("ring vars=a,b\n clutter C = {}\n", 2, 15, "expected a vertex name"),
        ("ring vars=a,b\nclutter C = {a,b\n", 2, 17, "expected ','"),
        ("ring vars=a,b\nclutter C = {a,b}{b}\n", 2, 18, "expected ','"),
        ("ring vars=a,b\nclutter C =\t{,a}\n", 2, 14, "expected a vertex name"),
        ("ring vars=a,b\nclutter C = {a,\u00e9}\n", 2, 16, "expected a vertex name"),
        ("ring vars=a,b,c\nclutter C = {a,b}, {b,c},\t{c, z}\n", 2, 31,
         "unknown variable 'z'"),
        ("ring vars=a,b,c\nclutter C = {a,b},{b,c},\n", 2, 25, "expected '{'"),
        ("ring vars=a,b\nclutter C =\n", 2, 1, "clutter declaration lists no edges"),
        ("ring vars=a,b\nclutter C = \t # none\n", 2, 1, "clutter declaration lists no edges"),
        ("sym S = n:3\n", 1, 1, "sym declaration must be 'sym <name> = n:<k> exps:a,b,...'"),
        ("sym S = n:0 exps:1\n", 1, 1, "sym ring size must be positive"),
        ("ring n=2\nring n=2\n", 2, 1, "duplicate ring declaration"),
        ("ring n=2\nideal I = x1\n\nideal J = x2\n", 4, 1, "duplicate ideal stanza"),
        ("ring n=2\nclutter C = {x1}\nclutter D = {x2}\n", 3, 1, "duplicate clutter stanza"),
        ("sym S = n:2 exps:1\nring n=2\nsym T = n:2 exps:2\n", 3, 1, "duplicate sym stanza"),
        ("ring n=2\nideal I\n", 2, 1, "ideal stanza needs '= ...'"),
        ("ring n=2\nideal I = x1\nideal J\n", 3, 1, "ideal stanza needs '= ...'"),
        ("clutter C = {x1}\n", 1, 1, "clutter stanza before any ring declaration"),
        ("ring n=2\nideal x1^2, = x2\n", 2, 9, "ideal stanza needs one name before '='"),
        ("ring n=2\nideal = x2\n", 2, 7, "ideal stanza needs one name before '='"),
        ("ring n=2\nideal I J = x1\n", 2, 9, "ideal stanza needs one name before '='"),
        ("ring n=2\nclutter {x1} = {x2}\n", 2, 9, "clutter stanza needs one name before '='"),
        ("ring n=2\nsym = n:2 exps:1\n", 2, 5, "sym stanza needs one name before '='"),
        # where a walk over tokens alone would drift: blanks that the grammar
        # forbids, and a unit that a digit follows with no blank
        ("ring n=2\nideal I = 10\n", 2, 12, "expected ','"),
        ("sym S = n:3exps:1,2\n", 1, 1, "sym declaration must be 'sym <name> = n:<k> exps:a,b,...'"),
        ("sym S = n: 3 exps:1,2\n", 1, 1,
         "sym declaration must be 'sym <name> = n:<k> exps:a,b,...'"),
        ("sym S = n:3 exps :1,2\n", 1, 1,
         "sym declaration must be 'sym <name> = n:<k> exps:a,b,...'"),
        ("ring n =2\n", 1, 1, "ring declaration must be 'ring n=<k>' or 'ring vars=a,b,...'"),
        ("ring vars =a\n", 1, 1, "ring declaration must be 'ring n=<k>' or 'ring vars=a,b,...'"),
        ("sym S = n:3 exps: 1 , 2\t3\n", 1, 9, "invalid literal for int() with base 10: '2\\t3'"),
    ], ids=["ideal-name", "ideal-exponent", "ideal-indented", "clutter-vertex",
            "clutter-syntax", "sym-after-ring", "sym-before-ring", "clutter-nested",
            "clutter-nested-indented", "sym-exponent", "sym-exponent-indented",
            "ring-superscript-size", "ring-fullwidth-size", "sym-fullwidth-size",
            "ideal-caret-then-spaces",
            "ideal-unit-then-digit", "ideal-non-ascii-name", "ideal-tabs",
            "clutter-trailing-comma-in-edge", "clutter-empty-edge", "clutter-unclosed-edge",
            "clutter-missing-comma", "clutter-leading-comma-in-edge",
            "clutter-non-ascii-vertex", "clutter-later-unknown-vertex",
            "clutter-comma-after-the-last-edge", "clutter-blank", "clutter-blank-commented",
            "sym-no-exps", "sym-size-zero", "duplicate-ring", "duplicate-ideal",
            "duplicate-clutter", "duplicate-sym", "ideal-no-equals",
            "duplicate-ideal-no-equals", "clutter-before-ring", "ideal-head-not-a-name",
            "ideal-head-nameless", "ideal-head-two-names", "clutter-head-edge",
            "sym-head-nameless", "ideal-unit-then-zero", "sym-exps-unspaced",
            "sym-size-spaced", "sym-exps-key-spaced", "ring-size-key-spaced",
            "ring-vars-key-spaced", "sym-tab-inside-padded-entry"])
    def test_error_positions_count_from_the_line_start(self, text, line, column, message):
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"{message} (line {line}, column {column})"

    def test_comma_after_the_last_edge_is_rejected(self):
        # like `ring vars=a,b,` and `exps:1,3,`: an empty list entry is an error
        text = "ring vars=a,b,c\nclutter C = {a,b},{b,c}"
        with pytest.raises(ParseError) as info:
            parse_problem_file(text + ", \t\n")
        assert str(info.value) == "expected '{' (line 2, column 25)"
        assert parse_problem_file(text + " \t\n").clutter.edges == (
            frozenset({0, 1}), frozenset({1, 2}))

    @pytest.mark.parametrize("text", [
        "ring vars=a,b,c\nsym S = n:3 exps:1,3,3\n",
        "sym S = n:3 exps:1,3,3\nring vars=a,b,c\n",
    ], ids=["ring-first", "sym-first"])
    def test_sym_pattern_lives_in_the_declared_ring(self, text):
        problem = parse_problem_file(text)
        assert problem.pattern.context == problem.context
        assert problem.pattern.exps == (1, 3, 3)

    @pytest.mark.parametrize("text, message", [
        ("ring vars=" + ",".join(["a b"] * 4000) + "\n",
         "invalid variable name 'a b' (line 1, column 1)"),
        ("sym S = n:5 exps:" + ",".join(["1 2"] * 4000) + "\n",
         "invalid literal for int() with base 10: '1 2' (line 1, column 9)"),
    ], ids=["ring-names", "sym-exps"])
    def test_long_comma_lists_fail_fast(self, text, message):
        # the cost of an entry of two tokens must not grow with the line
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert time.perf_counter() - start < 1
        assert str(info.value) == message

    def test_nested_clutter_edges_rejected(self):
        with pytest.raises(ParseError, match=r"^edges \{a\} and \{a,b\} are nested"):
            parse_problem_file("ring vars=a,b\nclutter C = {a,b},{a}\n")


class TestLineBreaks:
    def test_a_form_feed_is_an_error_at_its_column(self):
        # str.splitlines() broke the line here and reported a third line
        with pytest.raises(ParseError) as info:
            parse_problem_file("ring n=2\nideal I = x1\x0c, x2\n")
        assert str(info.value) == "expected ',' (line 2, column 13)"

    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                                      "\u2028", "\u2029", "\x00", "\x7f"])
    def test_only_newline_ends_a_line(self, char):
        with pytest.raises(ParseError) as info:
            parse_problem_file(f"ring n=2\nideal I = x1{char}, x2\n")
        assert (info.value.line, info.value.column) == (2, 13)

    def test_one_carriage_return_before_a_newline_is_dropped(self):
        crlf = "# demo\r\nring n=2\r\nideal I = x1, x2  # c\r\n\r\n"
        assert parse_problem_file(crlf) == parse_problem_file(crlf.replace("\r", ""))
        with pytest.raises(ParseError) as info:
            parse_problem_file("ring n=2\nideal I = x1\r\r\n")
        assert (info.value.line, info.value.column) == (2, 13)


def joined(items, sep=","):
    """The tokens of items with sep between them; an item is a token or a list of them."""
    tokens = []
    for k, item in enumerate(items):
        tokens += ([sep] if k else []) + (item if isinstance(item, list) else [item])
    return tokens


@st.composite
def padded_problem_files(draw):
    """A valid problem file twice: with a blank only where two names or
    integers would run together, and with random spaces and tabs added in
    every gap between tokens.  'n=', 'vars=', 'n:<k>' and 'exps:' stay
    whole, as the grammar asks."""
    identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        names, ring = [f"x{i + 1}" for i in range(n)], ["ring", "n=", str(n)]
    else:
        names = draw(st.lists(identifiers, min_size=n, max_size=n, unique=True))
        ring = ["ring", "vars=", *joined(names)]
    kind = draw(st.sampled_from(["ideal", "clutter", "sym"]))
    if kind == "ideal":
        def term():
            name = draw(st.sampled_from(names))
            return [name, "^", str(draw(st.integers(1, 12)))] if draw(st.booleans()) else [name]

        def generator():
            if draw(st.booleans()):
                return ["1"]
            return joined([term() for _ in range(draw(st.integers(1, 4)))], "*")

        body = joined([generator() for _ in range(draw(st.integers(0, 4)))])
    elif kind == "clutter":
        size = draw(st.integers(1, n))
        edges = draw(st.lists(st.permutations(names), min_size=1, max_size=4))
        body = joined([["{", *joined(e[:size]), "}"] for e in edges])
    else:
        exps = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=n)))
        body = [f"n:{n}", "exps:", *joined([str(e) for e in exps])]
    lines = [ring, [kind, draw(identifiers), "=", *body]]
    blanks = st.from_regex(r"[ \t]*", fullmatch=True)

    def text(pad):
        out = ""
        for tokens in lines:
            for before, token in zip([""] + tokens, tokens):
                out += pad(re.fullmatch(r"\w\w", before[-1:] + token[:1]) is not None) + token
            out += pad(False) + "\n"
        return out

    return text(lambda needed: " " * needed), text(lambda needed: " " * needed + draw(blanks))


class TestBlanks:
    @given(case=padded_problem_files())
    def test_blanks_between_tokens_change_nothing(self, case):
        tight, padded = case
        assert parse_problem_file(padded) == parse_problem_file(tight)


@st.composite
def clutter_texts(draw):
    """A clutter stanza over random names, with spaces and tabs around every
    token, repeated edges, and each edge's vertices in any order, some of
    them twice; returns the text, the names and the edges as name lists."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                          min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.frozensets(st.integers(0, len(names) - 1), min_size=1, max_size=4),
                        min_size=1, max_size=8))
    antichain = sorted({e for e in raw if not any(f < e for f in raw)}, key=sorted)
    edges = []
    for e in draw(st.lists(st.sampled_from(antichain), min_size=1, max_size=12)):
        repeats = draw(st.lists(st.sampled_from(sorted(e)), max_size=2))
        edges.append([names[v] for v in draw(st.permutations(sorted(e) + repeats))])
    ws = st.sampled_from(["", " ", "\t", "  ", " \t "])

    def listed(items, opening="", closing=""):
        inner = "".join((draw(ws) + "," + draw(ws) if k else "") + item
                        for k, item in enumerate(items))
        return opening + draw(ws) + inner + draw(ws) + closing

    body = listed([listed(edge, "{", "}") for edge in edges])
    text = f"ring vars={','.join(names)}\nclutter C ={body}\n"
    return text, names, edges


class TestClutterStanza:
    @given(case=clutter_texts())
    def test_parses_as_the_constructor_builds(self, case):
        text, names, edges = case
        parsed = parse_problem_file(text).clutter
        built = Clutter(names, edges)
        assert parsed == built
        assert parsed._masks == built._masks
