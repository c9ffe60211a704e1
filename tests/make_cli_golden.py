"""Regenerate `cli_golden.json`, the golden CLI contract, from the current tree.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_golden.py

Each case is one command line, run through `monowit.cli.main` in process in
a temporary directory that holds the problem files under relative names, so
no path reaches a message.  The manifest keeps the problem files and, per
case, the argv, the exit code, stderr and stdout; a stdout longer than
`util.GOLDEN_LARGE` bytes is kept as its SHA-256 and byte count.
`test_cli.py::test_golden_cli_contract` replays every case.  A change that
alters output on purpose regenerates the manifest in the same commit and
lists each changed case.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from pathlib import Path

from monowit import MonomialIdeal, RingContext, exchange_closure
from test_cli import BOREL, MATRIX, NOT_BOREL, PATH_GRAPH, SESSION, SIX_VAR, SYM
from util import golden_stdout, run_cli

MANIFEST = Path(__file__).with_name("cli_golden.json")


def random_ideal(seed=8, n=8, count=16):
    """A random ideal on n variables: count generators, each on three or
    four variables with exponents 1 to 4."""
    rng = random.Random(seed)
    gens = []
    for _ in range(count):
        support = sorted(rng.sample(range(n), rng.randint(3, 4)))
        gens.append("*".join(f"x{v + 1}^{rng.randint(1, 4)}" for v in support))
    return f"ring n={n}\nideal I = " + ", ".join(gens) + "\n"


def closure():
    """The exchange closure of x4^2*x5^3 in five variables: 121 generators."""
    c = RingContext(5)
    gens = exchange_closure(MonomialIdeal(c, [c.monomial((0, 0, 0, 2, 3))])).gens
    return "ring n=5\nideal I = " + ", ".join(map(str, gens)) + "\n"


def cycle_clutter(n=24):
    return f"ring n={n}\nclutter C = " + ",".join(
        f"{{x{i + 1},x{(i + 1) % n + 1}}}" for i in range(n)) + "\n"


PROBLEMS = {
    "session.txt": SESSION,
    "six.txt": SIX_VAR,
    "path.txt": PATH_GRAPH,
    "sym.txt": SYM,
    "borel.txt": BOREL,
    "notborel.txt": NOT_BOREL,
    "zero.txt": "ring n=2\nideal I =\n",
    "malformed.txt": "ring n=2\nideal I = x1*y\n",
    "badsym.txt": "sym S = n:3 exps:1,x\n",
    "random8.txt": random_ideal(),
    "closure.txt": closure(),
    "c24.txt": cycle_clutter(),
    "sym10.txt": "sym S = n:10 exps:1,1,2,3,4\n",
}

FORMATS = ("text", "json")


def cases():
    """(name, argv) of every case, in manifest order."""
    file_of = {text: name for name, text in PROBLEMS.items()}
    out = []
    # the nine commands on the command matrix's problems, in both formats
    for k, (command, text, extra, *_) in enumerate(MATRIX):
        for fmt in FORMATS:
            out.append((f"matrix-{k}-{command}-{fmt}",
                        [command, file_of[text], "--format", fmt, *extra]))
    both = [
        ("witness-list-six", ["witness", "six.txt", "--list"]),
        ("witness-seed", ["witness", "session.txt", "--prime", "0", "--seed", "12"]),
        ("witness-seed-max-offset", ["witness", "session.txt", "--prime", "1", "--component",
                                     "0", "--seed", "3", "--max-offset", "9"]),
        ("witness-offset", ["witness", "session.txt", "--prime", "x1,x2,x3,x4",
                            "--offset", "x5=5", "--offset", "x6=5", "--offset", "x7=2",
                            "--offset", "x8=5"]),
        ("witness-component-offset", ["witness", "session.txt", "--prime", "1",
                                      "--component", "0", "--offset", "x5=2", "--offset",
                                      "x7=8"]),
        # the error paths
        ("missing-ideal", ["decompose", "path.txt"]),
        ("missing-clutter", ["clutter-base", "session.txt", "--prime", "0"]),
        ("missing-sym", ["symgen", "session.txt"]),
        ("missing-file", ["assprimes", "absent.txt"]),
        ("zero-ideal", ["decompose", "zero.txt"]),
        ("parse-error", ["decompose", "malformed.txt"]),
        ("parse-error-sym", ["symgen", "badsym.txt"]),
        ("prime-not-associated", ["witness", "session.txt", "--prime", "x5"]),
        ("prime-not-associated-verify", ["verify", "six.txt", "--prime", "x1", "--v", "x3"]),
        ("prime-index-out-of-range", ["witness", "session.txt", "--prime", "9"]),
        ("component-index-out-of-range", ["witness", "session.txt", "--prime", "0",
                                          "--component", "9"]),
        ("ambiguous-component", ["witness", "session.txt", "--prime", "1"]),
        ("offset-inside-prime", ["witness", "session.txt", "--prime", "0", "--offset",
                                 "x1=1"]),
        ("borel-witness-not-borel", ["borel", "notborel.txt", "--prime", "x2"]),
        ("sym-prime-size", ["symgen", "sym10.txt", "--prime", "x1,x2", "--value-index",
                            "1"]),
        # one mid-size input per stanza kind
        ("random8-decompose", ["decompose", "random8.txt"]),
        ("random8-assprimes", ["assprimes", "random8.txt"]),
        ("random8-witness-list", ["witness", "random8.txt", "--list"]),
        ("random8-witness", ["witness", "random8.txt", "--prime", "0", "--component", "0"]),
        ("random8-uniqueness", ["uniqueness", "random8.txt", "--prime", "0"]),
        ("random8-borel", ["borel", "random8.txt"]),
        ("random8-colon", ["colon", "random8.txt", "--v", "x1^2*x3*x5^3*x8"]),
        ("closure-borel", ["borel", "closure.txt"]),
        ("closure-borel-witness", ["borel", "closure.txt", "--prime", "0", "--component",
                                   "0"]),
        ("closure-decompose", ["decompose", "closure.txt"]),
        ("c24-clutter-base", ["clutter-base", "c24.txt", "--prime", "0"]),
        ("c24-clutter-base-by-index", ["clutter-base", "c24.txt", "--prime", "40"]),
        ("c24-not-associated", ["clutter-base", "c24.txt", "--prime", "x1"]),
        ("sym10-symgen", ["symgen", "sym10.txt"]),
        ("sym10-symgen-witness", ["symgen", "sym10.txt", "--prime",
                                  "x1,x2,x3,x4,x5,x6,x7,x8", "--value-index", "1",
                                  "--b", "3,4"]),
    ]
    for name, argv in both:
        for fmt in FORMATS:
            out.append((f"{name}-{fmt}", [*argv, "--format", fmt]))
    # the argv reader: help, version and usage errors print no document
    out += [
        ("help", ["-h"]),
        ("help-witness", ["witness", "--help"]),
        ("version", ["--version"]),
        ("usage-no-command", []),
        ("usage-unknown-command", ["factor", "session.txt"]),
        ("usage-no-file", ["decompose"]),
        ("usage-missing-option", ["verify", "six.txt", "--prime", "x1,x2"]),
        ("usage-bad-int", ["witness", "session.txt", "--prime", "0", "--component=x"]),
        ("usage-bad-format", ["decompose", "session.txt", "--format", "xml"]),
        ("usage-unrecognized", ["decompose", "session.txt", "extra.txt"]),
    ]
    return out


def main():
    records = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in PROBLEMS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            for name, argv in cases():
                code, out, err = run_cli(argv)
                records.append({"name": name, "argv": argv, "exit": code, "stderr": err,
                                **golden_stdout(out)})
        finally:
            os.chdir(start)
    manifest = {"problems": PROBLEMS, "cases": records}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {MANIFEST.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
