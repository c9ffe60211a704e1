"""End-to-end CLI behavior: output text, JSON schema, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monowit.cli
from monowit import (PrimeSupport, TheoremViolationError, irreducible_decomposition,
                     parse_monomial, parse_problem_file, verify_witness)
from monowit.cli import COMMANDS, _FORMAT, _read_argv, _Stop, main
from util import argparse_oracle, fresh_interpreter, golden_stdout, run_cli

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

SCHEMA = {"ring", "ideal", "components", "associated_primes", "witness", "verified",
          "certificate", "witness_prime", "witnesses"}


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
        assert set(doc) == SCHEMA
        assert doc["ring"]["n"] == 8
        assert {"x1": 1, "x2": 7, "x3": 5, "x4": 2} in doc["components"]
        assert ["x1", "x2", "x3", "x4"] in doc["associated_primes"]
        assert doc["witness"] is None and doc["verified"] is None and doc["certificate"] is None
        assert doc["witness_prime"] is None and doc["witnesses"] is None


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

    # a quotient with generators of degrees 1, 4 and 9, in the canonical order
    def test_mixed_degree_quotient_in_text(self, problem, capsys):
        code, out, err = run(capsys, ["colon", problem(SESSION), "--v", "x2^6*x3^4*x4"])
        assert (code, err) == (0, "")
        assert out == "(I : x2^6*x3^4*x4) = (x1^4, x1*x8^8, x2, x3, x4)\n"

    def test_mixed_degree_quotient_in_json(self, problem, capsys):
        code, out, err = run(capsys, [
            "colon", problem(SESSION), "--v", "x2^6*x3^4*x4", "--format", "json",
        ])
        assert (code, err) == (0, "")
        assert out == """\
{
  "associated_primes": null,
  "certificate": null,
  "components": null,
  "ideal": [
    {
      "x1": 4
    },
    {
      "x1": 1,
      "x8": 8
    },
    {
      "x2": 1
    },
    {
      "x3": 1
    },
    {
      "x4": 1
    }
  ],
  "ring": {
    "n": 8,
    "names": [
      "x1",
      "x2",
      "x3",
      "x4",
      "x5",
      "x6",
      "x7",
      "x8"
    ]
  },
  "verified": null,
  "witness": {
    "x2": 6,
    "x3": 4,
    "x4": 1
  },
  "witness_prime": null,
  "witnesses": null
}
"""

    def test_colon_by_a_member_is_the_unit_ideal(self, problem, capsys):
        path = problem(SESSION)
        assert run(capsys, ["colon", path, "--v", "x1^4*x5"]) == (
            0, "(I : x1^4*x5) = (1)\n", "")
        code, out, _ = run(capsys, ["colon", path, "--v", "x1^4*x5", "--format", "json"])
        assert code == 0 and json.loads(out)["ideal"] == [{}]

    def test_verify_prints_the_colon(self, problem, capsys):
        path = problem(SESSION)
        assert run(capsys, [
            "verify", path, "--prime", "x1,x2,x3,x4", "--v", "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13",
        ]) == (0, "(I : x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13) = (x1, x2, x3, x4)\nVERIFIED\n", "")
        assert run(capsys, [
            "verify", path, "--prime", "x1,x2,x3,x4", "--v", "x2^6*x3^4*x4",
        ]) == (2, "(I : x2^6*x3^4*x4) = (x1^4, x1*x8^8, x2, x3, x4)\nFAILED\n", "")


class TestBorel:
    def test_positive_with_witness(self, problem, capsys):
        text = "ring n=2\nideal I = x1^2, x1*x2\n"
        code, out, _ = run(capsys, [
            "borel", problem(text), "--prime", "x1",
        ])
        assert code == 0
        assert "Borel type: yes" in out
        assert "P_0 = (x1)" in out
        assert out.endswith("P = (x1)\nv = x2\nVERIFIED\n")

    def test_negative_certificate(self, problem, capsys):
        text = "ring n=2\nideal I = x2\n"
        code, out, _ = run(capsys, ["borel", problem(text)])
        assert code == 0
        assert "Borel type: no" in out
        assert "certificate: u = x2, i = x2, j = x1" in out

    def test_negative_certificate_in_json(self, problem, capsys):
        text = "ring n=2\nideal I = x2\n"
        code, out, _ = run(capsys, ["borel", problem(text), "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["verified"] is False
        assert doc["certificate"] == {"u": {"x2": 1}, "i": "x2", "j": "x1"}

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
        # only a negative Borel detection has a certificate
        assert (doc["certificate"] is None) == (command != "borel" or verified is not False)
        # only a verdict names the prime and the witnesses it verified
        assert (doc["witness_prime"] is None) == (doc["witnesses"] is None) == (
            verdict_line is None)
    else:
        last = out.splitlines()[-1]
        if verdict_line is None:
            assert last not in ("VERIFIED", "FAILED")
        else:
            assert last == verdict_line


class TestJsonNamesWhatItVerified:
    """`witness_prime` and `witnesses` name the prime `_run` verified against
    and every witness it verified, in order; `witness` stays the first."""

    def verified(self, problem, capsys, text, argv):
        path = problem(text)
        code, out, err = run(capsys, [argv[0], path, "--format", "json", *argv[1:]])
        doc = json.loads(out)
        assert (code, err) == (0, "") and doc["verified"] is True
        assert doc["witness"] == doc["witnesses"][0]
        ideal = parse_problem_file(text).ideal
        ctx = ideal.context
        prime = PrimeSupport(ctx, map(ctx.index_of, doc["witness_prime"]))
        for w in doc["witnesses"]:
            v = ctx.monomial_from_powers({ctx.index_of(x): e for x, e in w.items()})
            assert verify_witness(ideal, prime, v)
        return doc

    def test_non_unique_prime_lists_both_witnesses(self, problem, capsys):
        doc = self.verified(problem, capsys, SIX_VAR, ["uniqueness", "--prime", "x1,x2"])
        assert doc["witness_prime"] == ["x1", "x2"] and len(doc["witnesses"]) == 2
        assert doc["witnesses"][0] != doc["witnesses"][1]

    def test_unique_prime_lists_one_witness(self, problem, capsys):
        doc = self.verified(problem, capsys, "ring n=2\nideal I = x1^2, x2^3\n",
                            ["uniqueness", "--prime", "x1,x2"])
        assert doc["witness_prime"] == ["x1", "x2"] and doc["witnesses"] == [{"x1": 1, "x2": 2}]

    def test_borel_names_the_prime_it_verified(self, problem, capsys):
        text = "ring n=3\nideal I = x1^2, x1*x2\n"
        doc = self.verified(problem, capsys, text, ["borel", "--prime", "1"])
        assert doc["associated_primes"][0] == ["x1"]  # every prime, as before
        assert doc["witness_prime"] == ["x1", "x2"] and doc["witnesses"] == [{"x1": 1}]
        code, out, _ = run(capsys, ["borel", problem(text), "--prime", "1"])
        assert code == 0 and out.endswith("P = (x1, x2)\nv = x1\nVERIFIED\n")


# The golden CLI contract, written by `make_cli_golden.py`: per case, the
# argv, the exit code, stderr and stdout (a long one as its SHA-256 and
# byte count), over the problem files it names.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def test_golden_cli_contract(tmp_path, monkeypatch):
    """Every golden case gives the same bytes and exit code, run in process
    in a directory holding the problem files under relative names.  Over
    all of them, the exit code is 0, 1 or 2, exit 1 leaves stdout empty, a
    JSON stdout parses, and a JSON document exits 2 exactly when it names
    witnesses and is not verified."""
    for name, text in GOLDEN["problems"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names = [case["name"] for case in GOLDEN["cases"]]
    assert len(set(names)) == len(names) > 100
    changed = []
    for case in GOLDEN["cases"]:
        argv, name = case["argv"], case["name"]
        code, out, err = run_cli(argv)
        expected = {k: v for k, v in case.items() if k not in ("name", "argv")}
        if {"exit": code, "stderr": err, **golden_stdout(out)} != expected:
            changed.append(name)
        assert code in (0, 1, 2), name
        assert code != 1 or out == "", name
        if code != 1 and any(a == "--format" and b == "json" for a, b in zip(argv, argv[1:])):
            doc = json.loads(out)
            assert (code == 2) == (doc["witnesses"] is not None and doc["verified"] is False), name
    assert not changed, f"output changed in {len(changed)} golden cases: {changed}"


# Each MATRIX row's JSON document as it was before `witness_prime` and
# `witnesses` were added, keyed by the row's index: with those two keys
# removed, every document is unchanged.
DOCUMENTS = json.loads((Path(__file__).parent / "cli_documents.json").read_text())


@pytest.mark.parametrize("k", range(len(MATRIX)), ids=[
    f"{case[0]}-{k}" for k, case in enumerate(MATRIX)])
def test_json_documents_only_gain_the_two_keys(problem, capsys, k):
    command, text, extra, exit_code, *_ = MATRIX[k]
    code, out, _ = run(capsys, [command, problem(text), "--format", "json"] + extra)
    doc = json.loads(out)
    del doc["witness_prime"], doc["witnesses"]
    assert code == exit_code and doc == DOCUMENTS[str(k)]


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

    @pytest.mark.parametrize("command, outcome", [
        ("decompose", "has no irreducible decomposition"),
        ("assprimes", "has no irreducible decomposition"),
        ("borel", "is not classified"),
    ])
    @pytest.mark.parametrize("name, gens", [("unit", " 1"), ("zero", "")])
    def test_zero_and_unit_ideals_name_the_guard(self, problem, capsys, command, outcome,
                                                name, gens):
        code, out, err = run(capsys, [command, problem(f"ring n=2\nideal I ={gens}\n")])
        assert (code, out) == (1, "")
        assert err == f"error: the {name} ideal {outcome}\n"

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
        # an index, an offset's value and a negative sign stand without blanks
        ("witness", SESSION, ["--prime", " 0"], "unknown variable '0'"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x5= 1"],
         "--offset expects var=<non-negative int>, got 'x5= 1'"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x5=1 "],
         "--offset expects var=<non-negative int>, got 'x5=1 '"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x5 x6=1"], "unknown variable 'x5 x6'"),
        ("symgen", SYM, ["--prime", "x1,x2", "--value-index", "1", "--b", "- 3"],
         "--b expects comma-separated integers, got '- 3'"),
        # the first name, in order, that repeats
        ("uniqueness", SIX_VAR, ["--prime", "x1,x2,x2,x1"], "--prime gives x1 more than once"),
        # an --offset item splits at its first '='
        ("witness", SESSION, ["--prime", "0", "--offset", "x5==1"],
         "--offset expects var=<non-negative int>, got 'x5==1'"),
        ("witness", SESSION, ["--prime", "0", "--offset", "=1"], "unknown variable ''"),
        ("witness", SESSION, ["--prime", "0", "--offset", "x5=1=2"],
         "--offset expects var=<non-negative int>, got 'x5=1=2'"),
    ], ids=["prime-index", "component-index", "witness-without-prime", "symgen-without-value",
            "fullwidth-prime-index", "arabic-indic-offset", "underscored-b",
            "repeated-prime-name", "spaced-prime-index", "spaced-offset-value",
            "offset-value-then-space", "two-offset-names", "spaced-negative-b",
            "prime-names-repeat-in-order", "offset-two-equals", "offset-without-name",
            "offset-two-values"])
    def test_selector_errors_exit_one(self, problem, capsys, command, text, extra, message):
        assert run(capsys, [command, problem(text)] + extra) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("space", ["\u3000", "\u00a0"], ids=["ideographic", "no-break"])
    @pytest.mark.parametrize("command, text, extra", [
        ("decompose", "ring n=~3\nideal I = x1\n", []),
        ("decompose", "ring vars=a,~b\nideal I = a\n", []),
        ("decompose", "ring n=2\nideal~I = x1\n", []),
        ("decompose", "ring n=2\nideal I = x1~*x2\n", []),
        ("clutter-base", "ring n=2\nclutter C = {x1,~x2}\n", ["--prime", "x2"]),
        ("symgen", "sym S = n:3~exps:1,2\n", []),
        ("uniqueness", SIX_VAR, ["--prime", "x2,~x1"]),
        ("witness", SESSION, ["--prime", "0", "--offset", "~x5=1"]),
        ("symgen", SYM, ["--prime", "x1,x2", "--value-index", "1", "--b", "~3"]),
        ("decompose", "ring vars=~a~,~b\nideal I = a\n", []),
        ("verify", "ring n=3\nideal I = x1^2, x1*x2, x3^2\n",
         ["--prime", "~x1~,~x3~", "--v", "x2*x3"]),
        ("witness", SESSION, ["--prime", "0", "--offset", "x5~=1"]),
    ], ids=["ring-size", "ring-names", "stanza-head", "ideal", "clutter", "sym", "prime",
            "offset", "b", "ring-names-padded", "prime-padded", "offset-name-padded"])
    def test_only_spaces_and_tabs_are_blanks(self, problem, capsys, space, command, text, extra):
        # str.strip() and the regex \s read these as blanks in some places only
        argv = [command, problem(text.replace("~", space))] + [a.replace("~", space) for a in extra]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "") and err.startswith("error: ")
        code, _, _ = run(capsys, [command, problem(text.replace("~", " "))] + [
            a.replace("~", " ") for a in extra])
        assert code == 0

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
    # the CLI pays for every import on every call; dataclasses and inspect are
    # only needed by record generation, json by JSON output, and argparse and
    # gettext by nothing
    probe = ("import sys, monowit.cli; print(sorted({'argparse', 'dataclasses', 'gettext', "
             "'inspect', 'json'} & set(sys.modules)))")
    assert fresh_interpreter(probe) == "[]\n"


UNUSED_BY_DECOMPOSE = "{'monowit.borel', 'monowit.clutters', 'monowit.witness'}"


def test_import_leaves_out_the_witness_borel_and_clutter_modules():
    probe = f"import sys, monowit.cli; print(sorted({UNUSED_BY_DECOMPOSE} & set(sys.modules)))"
    assert fresh_interpreter(probe) == "[]\n"


def test_decompose_loads_no_witness_borel_or_clutter_module(problem):
    # nor does `witness --list`, which names no witness to verify; a witness
    # loads its own module, and no command loads argparse or gettext
    path = problem(SESSION)
    probe = ("import contextlib, io, sys\n"
             "from monowit.cli import main\n"
             f"for argv in [['decompose', {path!r}], ['witness', {path!r}, '--list'],\n"
             f"             ['witness', {path!r}, '--prime', '0', '--component', '0']]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = main(argv)\n"
             f"    print(code, sorted({UNUSED_BY_DECOMPOSE} & set(sys.modules)),\n"
             "          sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert fresh_interpreter(probe) == "0 [] []\n0 [] []\n0 ['monowit.witness'] []\n"


def test_verdicts_that_build_no_witness_load_no_witness_module(tmp_path):
    # every verdict comes from rings.verify_witness, which the CLI imports with
    # it, so verify, clutter-base and borel print VERIFIED without monowit.witness
    runs = []
    for name, text, extra in [("verify", SIX_VAR, ["--prime", "x1,x2", "--v", "x3^5*x4^4"]),
                              ("clutter-base", PATH_GRAPH, ["--prime", "t2"]),
                              ("borel", BOREL, ["--prime", "0", "--component", "0"])]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        runs.append([name, str(path), *extra])
    probe = ("import contextlib, io, sys\n"
             "from monowit.cli import main\n"
             f"for argv in {runs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "        code = main(argv)\n"
             "    print(code, out.getvalue().split()[-1], 'monowit.witness' in sys.modules)")
    assert fresh_interpreter(probe) == "0 VERIFIED False\n" * 3


class TestHelp:
    def test_top_level_help_names_every_command_with_its_help(self, capsys):
        assert main(["-h"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: monowit ")
        for name, command in COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(command.help)}$", out, re.M)
        assert main(["--help"]) == 0 and capsys.readouterr().out == out

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help_names_every_flag(self, capsys, name):
        assert main([name, "-h"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: monowit {name} ")
        for option in (_FORMAT, *COMMANDS[name].options):
            assert option.help
            assert re.search(rf"^  {option.flag}( \S+)? +{re.escape(option.help)}", out, re.M)


# argv parity: the argv reader against the argparse parser it replaced, the one
# of CPython 3.11.  Each line below carries what that parser read: the values of
# an accepted line, or the last stderr line of a rejected one (exit 1).  The
# reader must read the same on every interpreter; on 3.11 the live parser,
# `argparse_oracle()`, must still read the same too.  Later argparse releases
# changed how they treat "--" and ambiguous prefixes, so it is not consulted there.
ORACLE = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                            reason="the reader copies the argparse of CPython 3.11")


def oracle_reads(parser, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after help
            return 0 if exc.code == 0 else 1, err.getvalue().splitlines()[-1:]


def reader_reads(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(_read_argv(list(argv)))
        except _Stop as stop:
            code = stop.args[0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == code  # main stops where the reader does
    return code, err.getvalue().splitlines()[-1:]


# the values argparse gave each command's options when a line left them out
DEFAULTS = {
    "decompose": {}, "assprimes": {},
    "witness": dict(prime=None, component=None, offset=None, seed=None, max_offset=8,
                    list=False),
    "verify": dict(prime=None, v=None), "colon": dict(v=None),
    "borel": dict(prime=None, component=None), "uniqueness": dict(prime=None),
    "clutter-base": dict(prime=None), "symgen": dict(prime=None, value_index=None, b=None),
}


def parsed(command, file="p.txt", **given):
    return {"command": command, "file": file, "format": "text", **DEFAULTS[command], **given}


# what argparse read from the extra arguments of each MATRIX row
MATRIX_VALUES = [
    {}, {}, dict(list=True), dict(prime="0"),
    dict(prime="x1,x2", v="x3^5*x4^4"), dict(prime="x1,x2", v="x3^5*x5^2"),
    dict(v="x2^6*x3^4*x4"), {}, dict(prime="x1"), {}, dict(prime="x1,x2"), dict(prime="t2"),
    {}, dict(prime="x1,x2", value_index=1, b="3"),
]

# the benchmark's cli mix for seed 611, after `python -m monowit.cli`, with the
# problem files by name; `test_benchmark_lines_are_its_cli_mix` keeps it current
COVER = "t1,t2,t4,t5,t8,t9,t10"
BENCHMARK_ROWS = [
    (["decompose", "ideal.txt"], {}),
    (["assprimes", "ideal.txt"], {}),
    (["witness", "ideal.txt", "--prime", "0", "--component", "0", "--seed", "611"],
     dict(prime="0", component=0, seed=611)),
    (["witness", "ideal.txt", "--list"], dict(list=True)),
    (["verify", "graph.txt", "--prime", COVER, "--v", "t3*t6*t7"], dict(prime=COVER, v="t3*t6*t7")),
    (["colon", "ideal.txt", "--v", "x1*x2*x3^3*x4*x5*x6^2"], dict(v="x1*x2*x3^3*x4*x5*x6^2")),
    (["borel", "borel.txt", "--prime", "0", "--component", "0"], dict(prime="0", component=0)),
    (["uniqueness", "graph.txt", "--prime", COVER], dict(prime=COVER)),
    (["clutter-base", "graph.txt", "--prime", COVER], dict(prime=COVER)),
    (["symgen", "sym.txt", "--prime", "x1,x2,x4,x5", "--value-index", "1", "--b", "4"],
     dict(prime="x1,x2,x4,x5", value_index=1, b="4")),
]


def shortest_prefix(flag, flags):
    return next(flag[:k] for k in range(3, len(flag) + 1)
                if sum(f.startswith(flag[:k]) for f in flags) == 1)


def option_forms():
    """Each option of each command as `--flag value`, `--flag=value`, a unique
    prefix with its value apart and joined, after and before the file; with the
    command's other required options, so that every line is accepted."""
    samples = {"str": ("x1,x2", "x1,x2"), "int": ("3", 3), "append": ("x5=1", ["x5=1"]),
               "flag": (None, True)}
    for name, command in COMMANDS.items():
        options = (_FORMAT, *command.options)
        flags = ["--help", *(o.flag for o in options)]
        for option in options:
            others = [o for o in command.options if o.required and o is not option]
            rest = [part for o in others for part in (o.flag, samples[o.kind][0])]
            value, read = ("json", "json") if option is _FORMAT else samples[option.kind]
            expected = parsed(name, **{option.dest: read},
                              **{o.dest: samples[o.kind][1] for o in others})
            prefix = shortest_prefix(option.flag, flags)
            if value is None:  # a flag takes no value
                forms = [[option.flag], [prefix]]
            else:
                forms = [[option.flag, value], [f"{option.flag}={value}"],
                         [prefix, value], [f"{prefix}={value}"]]
            for form in forms:
                yield [name, "p.txt", *form, *rest], expected
                yield [name, *form, "p.txt", *rest], expected


ACCEPTED = [
    (["decompose", "--", "p.txt"], parsed("decompose")),
    (["decompose", "p.txt", "--"], parsed("decompose")),
    (["decompose", "--format", "json", "p.txt", "--"], parsed("decompose", format="json")),
    (["decompose", "--format", "json", "--", "p.txt"], parsed("decompose", format="json")),
    (["decompose", "--", "--format"], parsed("decompose", file="--format")),
    (["witness", "--prime", "0", "p.txt", "--comp", "0"],
     parsed("witness", prime="0", component=0)),
    (["witness", "p.txt", "--offset", "x5=1", "--offset=x6=2", "--off", "x7=3"],
     parsed("witness", offset=["x5=1", "x6=2", "x7=3"])),
    (["witness", "p.txt", "--prime", "0", "--prime", "1", "--format", "json", "--format", "text"],
     parsed("witness", prime="1")),
    (["witness", "p.txt", "--prime", "0", "--seed", "1", "--max-offset", "-1"],
     parsed("witness", prime="0", seed=1, max_offset=-1)),
    (["witness", "p.txt", "--m", "3", "--list", "--list"],
     parsed("witness", max_offset=3, list=True)),
    (["symgen", "p.txt", "--prime", "x1,x2", "--value-index", "1", "--b", "- 3"],
     parsed("symgen", prime="x1,x2", value_index=1, b="- 3")),
    (["symgen", "p.txt", "--b", "-3", "--v", "-2"], parsed("symgen", b="-3", value_index=-2)),
]

PARITY = {
    "matrix": [([command, "p.txt", "--format", fmt, *extra], parsed(command, format=fmt, **given))
               for (command, _, extra, *_), given in zip(MATRIX, MATRIX_VALUES, strict=True)
               for fmt in ("text", "json")],
    "benchmark": [([command, file, *extra, "--format", fmt],
                   parsed(command, file, format=fmt, **given))
                  for (command, file, *extra), given in BENCHMARK_ROWS for fmt in ("text", "json")],
    "option-forms": list(option_forms()),
    "accepted": ACCEPTED,
}

# (argv, the last stderr line argparse printed)
REJECTED = [
    ([], "monowit: error: the following arguments are required: command"),
    (["bogus", "p.txt"], "monowit: error: argument command: invalid choice: 'bogus' (choose "
     "from 'decompose', 'assprimes', 'witness', 'verify', 'colon', 'borel', 'uniqueness', "
     "'clutter-base', 'symgen')"),
    (["verify", "p.txt"], "monowit verify: error: the following arguments are required: "
     "--prime, --v"),
    (["decompose"], "monowit decompose: error: the following arguments are required: file"),
    (["decompose", "p.txt", "extra"], "monowit: error: unrecognized arguments: extra"),
    (["decompose", "p.txt", "--bogus"], "monowit: error: unrecognized arguments: --bogus"),
    (["decompose", "p.txt", "--version"], "monowit: error: unrecognized arguments: --version"),
    (["witness", "p.txt", "--prime"],
     "monowit witness: error: argument --prime: expected one argument"),
    (["witness", "p.txt", "--list=1"],
     "monowit witness: error: argument --list: ignored explicit argument '1'"),
    (["decompose", "p.txt", "--format", "xml"], "monowit decompose: error: argument --format: "
     "invalid choice: 'xml' (choose from 'text', 'json')"),
    (["witness", "p.txt", "--prime", "0", "--component", "\u0660"],
     "monowit witness: error: argument --component: invalid int value: '\u0660'"),
    (["witness", "p.txt", "--prime", "0", "--seed", "1_0"],
     "monowit witness: error: argument --seed: invalid int value: '1_0'"),
    (["witness", "p.txt", "--prime", "0", "--seed", "1", "--max-offset", " 8"],
     "monowit witness: error: argument --max-offset: invalid int value: ' 8'"),
    (["symgen", "p.txt", "--prime", "x1,x2", "--b", "3", "--value-index", "\u0661"],
     "monowit symgen: error: argument --value-index: invalid int value: '\u0661'"),
    (["witness", "p.txt", "--component", "x"],
     "monowit witness: error: argument --component: invalid int value: 'x'"),
    (["witness", "p.txt", "--prime", "-x"],
     "monowit witness: error: argument --prime: expected one argument"),
    (["--help=1"], "monowit: error: argument -h/--help: ignored explicit argument '1'"),
    (["-h=1"], "monowit: error: argument -h/--help: ignored explicit argument '1'"),
    (["decompose", "p.txt", "--help=1"],
     "monowit decompose: error: argument -h/--help: ignored explicit argument '1'"),
    (["--bogus", "decompose", "p.txt"], "monowit: error: unrecognized arguments: --bogus"),
    (["-x", "witness", "p.txt", "--prime", "0"], "monowit: error: unrecognized arguments: -x"),
    (["--bogus", "decompose"],  # a missing file is reported before an unknown flag
     "monowit decompose: error: the following arguments are required: file"),
    # a "--" is dropped only before the file or right after it
    (["decompose", "p.txt", "--format=json", "--"], "monowit: error: unrecognized arguments: --"),
    (["borel", "p.txt", "--component=-1", "--", "--format=text"],
     "monowit: error: unrecognized arguments: -- --format=text"),
    # before the command, a "--" followed by anything is taken as the command
    (["--", "decompose", "p.txt"], "monowit: error: argument command: invalid choice: '--' "
     "(choose from 'decompose', 'assprimes', 'witness', 'verify', 'colon', 'borel', "
     "'uniqueness', 'clutter-base', 'symgen')"),
    (["--bogus", "--"], "monowit: error: the following arguments are required: command"),
]
REJECTED_IDS = [" ".join(argv) or "empty" for argv, _ in REJECTED]


def combined_forms(seed, count):
    """Lines with a command's required options and up to three more, in
    random order, each written as its full flag or shortest unique prefix,
    with '=' or a separate value; the file stands among the options or
    after a final '--'."""
    rng = random.Random(seed)
    samples = {"str": ["x1,x2", "-1", "-3", "- 3"], "append": ["x5=1", "- 3"],
               "int": ["3", "-1", "-3"], "flag": [None]}
    for _ in range(count):
        name = rng.choice(list(COMMANDS))
        options = (_FORMAT, *COMMANDS[name].options)
        flags = ["--help", *(o.flag for o in options)]
        chosen = [o for o in options if o.required] + rng.choices(options, k=rng.randint(0, 3))
        rng.shuffle(chosen)
        parts = []
        for option in chosen:
            flag = rng.choice([option.flag, shortest_prefix(option.flag, flags)])
            value = rng.choice(option.kind if option is _FORMAT else samples[option.kind])
            if value is None:
                parts.append([flag])
            else:
                parts.append(rng.choice([[flag, value], [f"{flag}={value}"]]))
        if rng.random() < 0.5:
            parts.insert(rng.randint(0, len(parts)), ["p.txt"])
        else:
            parts.append(["--", "p.txt"])
        yield [name, *(arg for part in parts for arg in part)]


class TestArgvParity:
    @pytest.mark.parametrize("corpus", PARITY)
    def test_reader_reads_what_argparse_read(self, corpus):
        assert [(argv, reader_reads(argv)) for argv, _ in PARITY[corpus]] == PARITY[corpus]

    @ORACLE
    @pytest.mark.parametrize("corpus", PARITY)
    def test_argparse_read_the_recorded_values(self, corpus):
        parser = argparse_oracle()
        assert [(argv, oracle_reads(parser, argv)) for argv, _ in PARITY[corpus]] == PARITY[corpus]

    @pytest.mark.parametrize("argv, last_line", REJECTED, ids=REJECTED_IDS)
    def test_rejections(self, argv, last_line):
        assert reader_reads(argv) == (1, [last_line])

    @ORACLE
    @pytest.mark.parametrize("argv, last_line", REJECTED, ids=REJECTED_IDS)
    def test_argparse_rejected_with_the_recorded_line(self, argv, last_line):
        assert oracle_reads(argparse_oracle(), argv) == (1, [last_line])

    @ORACLE
    def test_combined_option_forms_read_as_argparse_reads(self):
        parser = argparse_oracle()
        lines = list(combined_forms(3611, 2000))
        read = [(argv, reader_reads(argv)) for argv in lines]
        assert all(isinstance(values, dict) for _, values in read)  # every line is accepted
        assert read == [(argv, oracle_reads(parser, argv)) for argv in lines]

    def test_benchmark_lines_are_its_cli_mix(self, tmp_path):
        # the benchmark's cli workload builds its command lines in perfbench/ops.py;
        # a fresh interpreter loads it, so its modules stay out of this session
        bench = str(Path(__file__).resolve().parent.parent / "perfbench")
        probe = ("import json, os, sys\n"
                 f"sys.path.insert(0, {bench!r})\n"
                 "import ops\n"
                 f"cli = ops.Cli(611, {str(tmp_path)!r}, {bench!r})\n"
                 "print(json.dumps([[a[3], os.path.basename(a[4]), *a[5:]]\n"
                 "                  for a in map(cli.argv, cli.mix)]))")
        assert json.loads(fresh_interpreter(probe)) == [argv for argv, _ in PARITY["benchmark"]]
