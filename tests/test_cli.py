"""End-to-end CLI behavior: output text, JSON schema, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

import monowit.cli
from monowit import TheoremViolationError, irreducible_decomposition, parse_monomial
from monowit.cli import main
from util import fresh_interpreter

SESSION = """\
ring n=8
ideal I = x1^4, x2^7, x3^5, x1^3*x4^2, x2^4*x4^2, x3*x4^2, x4^5, x4^2*x8^2, x1*x8^8
"""

SIX_VAR = """\
ring n=6
ideal I = x1*x3^5, x2*x5^3, x2*x4^4, x1^5*x4^2, x1*x6^8
"""

PATH_GRAPH = """\
ring vars=t1,t2,t3
clutter C = {t1,t2},{t2,t3}
"""

SYM = "sym S = n:3 exps:1,3,3\n"

NAMED_SYM = "ring vars=a,b,c\n" + SYM

BOREL = "ring n=2\nideal I = x1^2, x1*x2\n"

NOT_BOREL = "ring n=2\nideal I = x2\n"

SCHEMA = {"ring", "ideal", "components", "associated_primes", "witness", "verified"}


@pytest.fixture
def problem(tmp_path):
    def write(text):
        path = tmp_path / "problem.txt"
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAssprimes:
    def test_session_golden(self, problem, capsys):
        code, out, _ = run(capsys, ["assprimes", problem(SESSION)])
        assert code == 0
        assert out == "P_0 = (x1, x2, x3, x4)\nP_1 = (x1, x2, x3, x4, x8)\n"

    def test_deterministic_output(self, problem, capsys):
        path = problem(SESSION)
        _, first, _ = run(capsys, ["assprimes", path])
        _, second, _ = run(capsys, ["assprimes", path])
        assert first == second

    def test_deterministic_json(self, problem, capsys):
        path = problem(SESSION)
        _, first, _ = run(capsys, ["decompose", path, "--format", "json"])
        _, second, _ = run(capsys, ["decompose", path, "--format", "json"])
        assert first == second


class TestDecompose:
    def test_session_components(self, problem, capsys):
        code, out, _ = run(capsys, ["decompose", problem(SESSION)])
        assert code == 0
        assert "  Q_0 = (x1, x2^7, x3^5, x4^2)" in out
        assert "  Q_1 = (x1^3, x2^4, x3, x4^5, x8^2)" in out
        assert "  Q_2 = (x1^4, x2^7, x3^5, x4^2, x8^8)" in out
        assert "  P_1 = (x1, x2, x3, x4, x8)" in out

    def test_json_schema(self, problem, capsys):
        code, out, _ = run(capsys, ["decompose", problem(SESSION), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "ring", "ideal", "components", "associated_primes", "witness", "verified",
        }
        assert doc["ring"]["n"] == 8
        assert {"x1": 1, "x2": 7, "x3": 5, "x4": 2} in doc["components"]
        assert ["x1", "x2", "x3", "x4"] in doc["associated_primes"]
        assert doc["witness"] is None and doc["verified"] is None


class TestWitness:
    def test_session_with_offsets(self, problem, capsys):
        code, out, _ = run(capsys, [
            "witness", problem(SESSION), "--prime", "x1,x2,x3,x4",
            "--offset", "x5=5", "--offset", "x6=5",
            "--offset", "x7=2", "--offset", "x8=5",
        ])
        assert code == 0
        assert "v = x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13" in out
        assert out.rstrip().endswith("VERIFIED")

    def test_second_prime_by_index_needs_component(self, problem, capsys):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, [
                "witness", problem(SESSION), "--prime", "1", "--format", fmt,
            ])
            assert code == 1
            assert out == ""
            assert "Q_0 = (x1^3, x2^4, x3, x4^5, x8^2)" in err
            assert "--component" in err

    def test_second_prime_with_component(self, problem, capsys):
        code, out, _ = run(capsys, [
            "witness", problem(SESSION), "--prime", "1", "--component", "0",
            "--offset", "x5=2", "--offset", "x7=8",
        ])
        assert code == 0
        assert "v = x1^2*x2^3*x4^4*x5^2*x7^8*x8" in out

    def test_list_mode(self, problem, capsys):
        code, out, _ = run(capsys, ["witness", problem(SESSION), "--list"])
        assert code == 0
        assert "P_0 = (x1, x2, x3, x4)" in out
        assert "  Q_0 = (x1, x2^7, x3^5, x4^2)" in out

    def test_list_json_is_the_decompose_document(self, problem, capsys):
        path = problem(SESSION)
        code, listed, _ = run(capsys, ["witness", path, "--list", "--format", "json"])
        assert code == 0
        _, decomposed, _ = run(capsys, ["decompose", path, "--format", "json"])
        doc = json.loads(listed)
        assert doc == json.loads(decomposed)
        assert len(doc["components"]) == 3
        assert doc["witness"] is None and doc["verified"] is None

    def test_seeded_offsets_reproduce(self, problem, capsys):
        path = problem(SESSION)
        args = ["witness", path, "--prime", "0", "--seed", "12"]
        code, first, _ = run(capsys, args)
        assert code == 0 and "VERIFIED" in first
        _, second, _ = run(capsys, args)
        assert first == second

    def test_seed_and_offset_conflict(self, problem, capsys):
        code, _, err = run(capsys, [
            "witness", problem(SESSION), "--prime", "0",
            "--seed", "1", "--offset", "x5=1",
        ])
        assert code == 1 and "mutually exclusive" in err

    def test_json_includes_witness(self, problem, capsys):
        code, out, _ = run(capsys, [
            "witness", problem(SESSION), "--prime", "0", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["witness"] == {"x2": 6, "x3": 4, "x4": 1, "x8": 8}

    def test_unknown_prime(self, problem, capsys):
        code, _, err = run(capsys, ["witness", problem(SESSION), "--prime", "x5"])
        assert code == 1 and "not an associated prime" in err

    def test_offset_on_prime_variable(self, problem, capsys):
        code, _, err = run(capsys, [
            "witness", problem(SESSION), "--prime", "0", "--offset", "x1=1",
        ])
        assert code == 1 and "prime variable" in err

    def test_repeated_offset_names_the_variable(self, problem, capsys):
        code, out, err = run(capsys, [
            "witness", problem(SESSION), "--prime", "0",
            "--offset", "x5=3", "--offset", "x5=4",
        ])
        assert (code, out) == (1, "")
        assert err == "error: --offset gives x5 more than once\n"


class TestVerify:
    def test_failing_candidate_exits_two(self, problem, capsys):
        code, out, _ = run(capsys, [
            "verify", problem(SIX_VAR), "--prime", "x1,x2", "--v", "x3^5*x5^2",
        ])
        assert code == 2
        assert out.rstrip().endswith("FAILED")

    def test_passing_candidates(self, problem, capsys):
        path = problem(SIX_VAR)
        for candidate in ("x3^5*x4^4", "x3^5*x5^3", "x6^8*x4^4", "x6^8*x5^3"):
            code, out, _ = run(capsys, [
                "verify", path, "--prime", "x1,x2", "--v", candidate,
            ])
            assert code == 0
            assert "(I : " in out and "VERIFIED" in out

    def test_bad_monomial_is_usage_error(self, problem, capsys):
        code, _, err = run(capsys, [
            "verify", problem(SIX_VAR), "--prime", "x1,x2", "--v", "x1^0",
        ])
        assert code == 1 and "positive" in err


class TestColon:
    def test_session_colon(self, problem, capsys):
        code, out, _ = run(capsys, [
            "colon", problem(SESSION),
            "--v", "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13",
        ])
        assert code == 0
        assert out == "(I : x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13) = (x1, x2, x3, x4)\n"


class TestBorel:
    def test_positive_with_witness(self, problem, capsys):
        text = "ring n=2\nideal I = x1^2, x1*x2\n"
        code, out, _ = run(capsys, [
            "borel", problem(text), "--prime", "x1",
        ])
        assert code == 0
        assert "Borel type: yes" in out
        assert "P_0 = (x1)" in out
        assert "v = x2" in out and "VERIFIED" in out

    def test_negative_certificate(self, problem, capsys):
        text = "ring n=2\nideal I = x2\n"
        code, out, _ = run(capsys, ["borel", problem(text)])
        assert code == 0
        assert "Borel type: no" in out
        assert "certificate: u = x2, i = x2, j = x1" in out

    def test_witness_request_on_non_borel_ideal(self, problem, capsys):
        text = "ring n=2\nideal I = x2\n"
        code, _, err = run(capsys, ["borel", problem(text), "--prime", "x2"])
        assert code == 1 and "not of Borel type" in err


class TestUniqueness:
    def test_six_var_not_unique(self, problem, capsys):
        code, out, _ = run(capsys, [
            "uniqueness", problem(SIX_VAR), "--prime", "x1,x2",
        ])
        assert code == 0
        assert "unique: no" in out
        assert "v1 = " in out and "v2 = " in out
        assert "VERIFIED" in out

    def test_unique_case(self, problem, capsys):
        text = "ring n=2\nideal I = x1^2, x2^3\n"
        code, out, _ = run(capsys, [
            "uniqueness", problem(text), "--prime", "x1,x2",
        ])
        assert code == 0
        assert "unique: yes" in out and "v1 = x1*x2^2" in out


class TestClutterBase:
    def test_path_graph(self, problem, capsys):
        code, out, _ = run(capsys, [
            "clutter-base", problem(PATH_GRAPH), "--prime", "t2",
        ])
        assert code == 0
        assert "A = (t1, t3)" in out
        assert "v = t1*t3" in out
        assert "VERIFIED" in out

    def test_non_cover_prime(self, problem, capsys):
        code, _, err = run(capsys, [
            "clutter-base", problem(PATH_GRAPH), "--prime", "t1",
        ])
        assert code == 1 and "not an associated prime" in err

    def test_non_cover_prime_names_only_the_prime(self, problem, capsys):
        edges = ",".join(f"{{x{i + 1},x{(i + 1) % 24 + 1}}}" for i in range(24))
        path = problem(f"ring n=24\nclutter C = {edges}\n")
        code, out, err = run(capsys, ["clutter-base", path, "--prime", "x1"])
        assert (code, out, err) == (1, "", "error: (x1) is not an associated prime\n")
        code, out, _ = run(capsys, ["clutter-base", path, "--prime", "0"])
        assert code == 0 and out.endswith("VERIFIED\n")


class TestSymgen:
    def test_generators(self, problem, capsys):
        code, out, _ = run(capsys, ["symgen", problem(SYM)])
        assert code == 0
        assert out == "I = (x1^3*x2^3*x3, x1^3*x2*x3^3, x1*x2^3*x3^3)\n"

    def test_with_witness(self, problem, capsys):
        code, out, _ = run(capsys, [
            "symgen", problem(SYM), "--prime", "x1,x2",
            "--value-index", "1", "--b", "3",
        ])
        assert code == 0
        assert "P = (x1, x2)" in out
        assert "v = x1^2*x2^2*x3^3" in out
        assert "VERIFIED" in out

    def test_pattern_without_a_ring_keeps_its_x_names(self, problem, capsys):
        args = ["symgen", problem(SYM), "--prime", "x1,x2", "--value-index", "1", "--b", "3"]
        assert run(capsys, args) == (0, "I = (x1^3*x2^3*x3, x1^3*x2*x3^3, x1*x2^3*x3^3)\n"
                                        "P = (x1, x2)\nv = x1^2*x2^2*x3^3\nVERIFIED\n", "")
        code, out, _ = run(capsys, args + ["--format", "json"])
        assert code == 0 and json.loads(out)["ring"] == {"n": 3, "names": ["x1", "x2", "x3"]}

    @pytest.mark.parametrize("text", [NAMED_SYM, SYM + "ring vars=a,b,c\n"],
                             ids=["ring-first", "sym-first"])
    def test_pattern_in_a_named_ring_prints_its_names(self, problem, capsys, text):
        path = problem(text)
        assert run(capsys, ["symgen", path]) == (0, "I = (a^3*b^3*c, a^3*b*c^3, a*b^3*c^3)\n", "")
        code, out, err = run(capsys, [
            "symgen", path, "--prime", "a,b", "--value-index", "1", "--b", "3"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["P = (a, b)", "v = a^2*b^2*c^3", "VERIFIED"]

    def test_pattern_in_a_named_ring_reports_its_names_in_json(self, problem, capsys):
        code, out, _ = run(capsys, [
            "symgen", problem(NAMED_SYM), "--prime", "a,b", "--value-index", "1", "--b", "3",
            "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["verified"] is True
        assert doc["ring"] == {"n": 3, "names": ["a", "b", "c"]}
        assert doc["witness"] == {"a": 2, "b": 2, "c": 3}

    def test_pattern_in_a_named_ring_rejects_undeclared_names(self, problem, capsys):
        code, out, err = run(capsys, [
            "symgen", problem(NAMED_SYM), "--prime", "x1,x2", "--value-index", "1", "--b", "3"])
        assert (code, out, err) == (1, "", "error: unknown variable 'x1'\n")


# (command, problem text, extra arguments, exit code, JSON "verified", last
# text line when the command has a verdict); a non-Borel ideal reports
# "verified": false, yet has no verdict line and exits 0
MATRIX = [
    ("decompose", SESSION, [], 0, None, None),
    ("assprimes", SESSION, [], 0, None, None),
    ("witness", SESSION, ["--list"], 0, None, None),
    ("witness", SESSION, ["--prime", "0"], 0, True, "VERIFIED"),
    ("verify", SIX_VAR, ["--prime", "x1,x2", "--v", "x3^5*x4^4"], 0, True, "VERIFIED"),
    ("verify", SIX_VAR, ["--prime", "x1,x2", "--v", "x3^5*x5^2"], 2, False, "FAILED"),
    ("colon", SESSION, ["--v", "x2^6*x3^4*x4"], 0, None, None),
    ("borel", BOREL, [], 0, None, None),
    ("borel", BOREL, ["--prime", "x1"], 0, True, "VERIFIED"),
    ("borel", NOT_BOREL, [], 0, False, None),
    ("uniqueness", SIX_VAR, ["--prime", "x1,x2"], 0, True, "VERIFIED"),
    ("clutter-base", PATH_GRAPH, ["--prime", "t2"], 0, True, "VERIFIED"),
    ("symgen", SYM, [], 0, None, None),
    ("symgen", SYM, ["--prime", "x1,x2", "--value-index", "1", "--b", "3"], 0, True,
     "VERIFIED"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, text, extra, exit_code, verified, verdict_line", MATRIX,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(MATRIX)],
)
def test_command_matrix(
    problem, capsys, fmt, command, text, extra, exit_code, verified, verdict_line
):
    code, out, err = run(capsys, [command, problem(text), "--format", fmt] + extra)
    assert code == exit_code and err == ""
    if fmt == "json":
        doc = json.loads(out)
        assert set(doc) == SCHEMA
        assert doc["verified"] is verified
    else:
        last = out.splitlines()[-1]
        if verdict_line is None:
            assert last not in ("VERIFIED", "FAILED")
        else:
            assert last == verdict_line


def _text_witness(out):
    """The first witness a text report names, as the JSON's exponent map."""
    lines = (re.fullmatch(r"v1? = (.*)|\(I : (.*?)\) = .*", line) for line in out.splitlines())
    text = next(m.group(1) or m.group(2) for m in lines if m)
    if text == "1":
        return {}
    terms = (term.partition("^") for term in text.split("*"))
    return {name: int(power or 1) for name, _, power in terms}


WITNESS_ROWS = [case[:4] for case in MATRIX if case[5] is not None]


@pytest.mark.parametrize("command, text, extra, exit_code", WITNESS_ROWS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(WITNESS_ROWS)])
def test_text_and_json_report_the_same_checked_witness(
    problem, capsys, command, text, extra, exit_code
):
    path = problem(text)
    code, out, err = run(capsys, [command, path] + extra)
    json_code, document, json_err = run(capsys, [command, path, "--format", "json"] + extra)
    doc = json.loads(document)
    assert code == json_code == exit_code and err == json_err == ""
    assert (out.splitlines()[-1] == "VERIFIED") == (doc["verified"] is True)
    assert doc["witness"] == _text_witness(out)


@pytest.mark.parametrize("witnesses", [["1"], ["x2^6*x3^4*x4*x8^8", "1"]],
                         ids=["non-witness", "witness-then-non-witness"])
def test_run_verifies_every_witness_a_handler_names(problem, capsys, monkeypatch, witnesses):
    # a handler hands back witnesses, never a verdict: one non-witness among
    # them fails the command, and the JSON names the first of them
    def handler(args, ideal):
        prime = irreducible_decomposition(ideal).primes()[0]  # (x1, x2, x3, x4)
        named = tuple(parse_monomial(w, ideal.context) for w in witnesses)
        return [f"v = {named[0]}"], dict(ideal=ideal), (prime, named)

    monkeypatch.setitem(monowit.cli.COMMANDS, "non-witness",
                        monowit.cli.Command(handler, "ideal", "names a non-witness"))
    path = problem(SESSION)
    assert run(capsys, ["non-witness", path]) == (2, f"v = {witnesses[0]}\nFAILED\n", "")
    code, out, err = run(capsys, ["non-witness", path, "--format", "json"])
    doc = json.loads(out)
    assert (code, err) == (2, "") and doc["verified"] is False
    assert doc["associated_primes"] == [["x1", "x2", "x3", "x4"]]
    assert doc["witness"] == _text_witness(f"v = {witnesses[0]}")


class TestErrorPaths:
    def test_negative_max_offset_names_the_flag(self, problem, capsys):
        code, out, err = run(capsys, [
            "witness", problem(SESSION), "--prime", "0", "--seed", "1", "--max-offset", "-1",
        ])
        assert code == 1 and out == ""
        assert err == "error: --max-offset must be non-negative, got -1\n"

    def test_non_integer_b_names_the_flag(self, problem, capsys):
        code, out, err = run(capsys, [
            "symgen", problem(SYM), "--prime", "x1,x2", "--value-index", "1", "--b", "a",
        ])
        assert code == 1 and out == ""
        assert err == "error: --b expects comma-separated integers, got 'a'\n"

    @pytest.mark.parametrize("b", [",,2,", "2,", ",2", "1,,2", " "])
    def test_empty_b_entry_rejected(self, problem, capsys, b):
        code, out, err = run(capsys, [
            "symgen", problem(SYM), "--prime", "x1,x2", "--value-index", "1", "--b", b,
        ])
        assert code == 1 and out == ""
        assert err == f"error: --b expects comma-separated integers, got {b!r}\n"

    def test_empty_b_means_no_exponents(self, problem, capsys):
        # the last pattern position has no complement exponents to choose
        args = ["symgen", problem("sym S = n:3 exps:1,2,3\n"), "--prime", "x1,x2,x3",
                "--value-index", "2"]
        code, out, err = run(capsys, args + ["--b", ""])
        assert (code, err) == (0, "") and out.endswith("VERIFIED\n")
        assert run(capsys, args) == (code, out, err)

    @pytest.mark.parametrize("command, text, extra, message", [
        ("decompose", "ring n=\u00b2\nideal I = x1\n", [],
         "ring size must be a positive integer (line 1, column 1)"),
        ("verify", SIX_VAR, ["--prime", "\u00b2", "--v", "x1"], "unknown variable '\u00b2'"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x8=\u00b2"],
         "--offset expects var=<non-negative int>, got 'x8=\u00b2'"),
    ], ids=["ring-size", "prime-selector", "offset-value"])
    def test_non_decimal_digits_keep_their_messages(
        self, problem, capsys, command, text, extra, message
    ):
        # a superscript two passes str.isdigit() but not int()
        code, out, err = run(capsys, [command, problem(text)] + extra)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command, text, extra, message", [
        ("witness", SESSION, ["--prime", "9"], "prime index 9 out of range; there are 2 primes"),
        ("witness", SESSION, ["--prime", "0", "--component", "9"],
         "component index 9 out of range; there are 1 components for (x1, x2, x3, x4)"),
        ("witness", SESSION, [], "witness requires --prime (or --list to see candidates)"),
        ("symgen", SYM, ["--prime", "x1,x2"], "--prime needs --value-index for symgen"),
        # only ASCII digits are read as integers, as in problem files
        ("witness", SESSION, ["--prime", "\uff10"], "unknown variable '\uff10'"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x8=\u0663"],
         "--offset expects var=<non-negative int>, got 'x8=\u0663'"),
        ("symgen", SYM, ["--prime", "x1,x2", "--value-index", "1", "--b", "1_0"],
         "--b expects comma-separated integers, got '1_0'"),
        ("uniqueness", SIX_VAR, ["--prime", "x1,x2,x1"], "--prime gives x1 more than once"),
    ], ids=["prime-index", "component-index", "witness-without-prime", "symgen-without-value",
            "fullwidth-prime-index", "arabic-indic-offset", "underscored-b",
            "repeated-prime-name"])
    def test_selector_errors_exit_one(self, problem, capsys, command, text, extra, message):
        assert run(capsys, [command, problem(text)] + extra) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, text, extra", [
        ("witness", SESSION, ["--prime", "0", "--component", "\u0660"]),
        ("witness", SESSION, ["--prime", "0", "--seed", "1_0"]),
        ("witness", SESSION, ["--prime", "0", "--seed", "1", "--max-offset", " 8"]),
        ("symgen", SYM, ["--prime", "x1,x2", "--b", "3", "--value-index", "\u0661"]),
    ], ids=["component", "seed", "max-offset", "value-index"])
    def test_integer_flags_take_only_ascii_digits(self, problem, capsys, command, text, extra):
        flag, value = extra[-2:]  # the last flag is the one with the bad integer
        code, out, err = run(capsys, [command, problem(text)] + extra)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["assprimes", "/nonexistent/problem.txt"])
        assert code == 1 and "cannot read" in err

    def test_parse_error_in_file(self, problem, capsys):
        code, _, err = run(capsys, ["assprimes", problem("ring n=2\nideal I = y\n")])
        assert code == 1 and "unknown variable" in err

    def test_missing_stanza(self, problem, capsys):
        code, _, err = run(capsys, ["assprimes", problem("ring n=2\n")])
        assert code == 1 and "declares no ideal" in err

    def test_usage_error_maps_to_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["witness"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_internal_error_exits_two_without_traceback(
        self, problem, capsys, monkeypatch
    ):
        def broken(ideal):
            raise TheoremViolationError("complement is not a maximal stable set")

        monkeypatch.setattr(monowit.cli, "irreducible_decomposition", broken)
        code, out, err = run(capsys, ["assprimes", problem(SESSION)])
        assert code == 2
        assert out == ""
        assert err == "internal error: complement is not a maximal stable set\n"

    def test_closed_stdout_exits_one_without_traceback(self, problem):
        # the C24 decomposition prints about 130 kB, more than a pipe buffers,
        # so the writer is still printing when the reader goes away
        n = 24
        edges = ", ".join(f"x{i + 1}*x{(i + 1) % n + 1}" for i in range(n))
        path = problem(f"ring n={n}\nideal I = {edges}\n")
        src = os.path.dirname(os.path.dirname(monowit.cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "monowit.cli", "decompose", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline().startswith(b"I = ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_version(self, capsys):
        code, out, err = run(capsys, ["--version"])
        assert code == 0
        assert out == f"monowit {monowit.__version__}\n" == "monowit 0.1.0\n"
        assert err == ""


def test_import_leaves_out_heavy_stdlib_modules():
    # the CLI pays for every import on every call; these three are only
    # needed by record generation (dataclasses, inspect) or JSON output
    probe = ("import sys, monowit.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    assert fresh_interpreter(probe) == "[]\n"


UNUSED_BY_DECOMPOSE = "{'monowit.borel', 'monowit.clutters', 'monowit.witness'}"


def test_import_leaves_out_the_witness_borel_and_clutter_modules():
    probe = f"import sys, monowit.cli; print(sorted({UNUSED_BY_DECOMPOSE} & set(sys.modules)))"
    assert fresh_interpreter(probe) == "[]\n"


def test_decompose_loads_no_witness_borel_or_clutter_module(problem):
    # nor does `witness --list`, which names no witness to verify
    path = problem(SESSION)
    probe = ("import contextlib, io, sys\n"
             "from monowit.cli import main\n"
             f"for argv in [['decompose', {path!r}], ['witness', {path!r}, '--list']]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = main(argv)\n"
             f"    print(code, sorted({UNUSED_BY_DECOMPOSE} & set(sys.modules)))")
    assert fresh_interpreter(probe) == "0 []\n0 []\n"
