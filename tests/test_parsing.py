"""Monomial grammar, problem files, and print/parse round-trips."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from monowit import (
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
        assert parse_monomial("1", ctx(2)).is_one

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

    def test_line_reported(self):
        with pytest.raises(ParseError) as info:
            parse_monomial("x9", ctx(2), line=7)
        assert info.value.line == 7


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

    @pytest.mark.parametrize("text, line, column", [
        ("ring n=2\nideal I = x1*y\n", 2, 14),
        ("ring n=2\nideal I=x1^0\n", 2, 12),
        ("ring vars=a,b\n\tideal I = a ,  b*c  # c\n", 2, 19),
        ("ring vars=a,b\n  clutter C = {a,b},{a,c}\n", 2, 24),
        ("ring vars=a,b\nclutter C = {a,b}x\n", 2, 18),
        ("ring n=2\nsym S = n:3 exps:1,1\n", 2, 1),
        ("# sym first\nsym S = n:3 exps:1,1\nring n=2\n", 2, 1),
        ("ring vars=a,b\nclutter C = {a},{a,b}\n", 2, 13),
        ("ring vars=a,b\n  clutter C = \t{a,b},{b}\n", 2, 16),
        ("sym S = n:2 exps:0,1\n", 1, 9),
        ("ring n=2\n sym S =  n:2 exps:1,0  # c\n", 2, 11),
    ], ids=["ideal-name", "ideal-exponent", "ideal-indented", "clutter-vertex",
            "clutter-syntax", "sym-after-ring", "sym-before-ring", "clutter-nested",
            "clutter-nested-indented", "sym-exponent", "sym-exponent-indented"])
    def test_error_positions_count_from_the_line_start(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_nested_clutter_edges_rejected(self):
        with pytest.raises(ParseError, match=r"^edges \{a\} and \{a,b\} are nested"):
            parse_problem_file("ring vars=a,b\nclutter C = {a,b},{a}\n")
