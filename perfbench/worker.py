"""Runs one workload in a fresh interpreter and reports raw measurements.

    python3 perfbench/worker.py --root R --workload W --seed N --ops K
                                [--max-seconds S] [--trace] [--setup-only]

Prints READY once monowit is imported and the inputs exist, then runs the
first K ops of the seed's stream in a closed loop (one client, the next op
starts when the previous one has been checked), and prints one JSON line.
Only the op itself is timed; checks run with the clock stopped, and so does
the host-speed kernel that is sampled after every op.  A run on a host so
slow that it passes S seconds stops early.  Memo state that the library
carries from one op to the next is kept, as a long-lived user process would
see it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import hostspeed
import ops
from spans import Api, Tracer

# An op that fails counts once, under the first of its kinds in this order: a
# wrong answer, an error (an exception, an unexpected exit code or missing
# output), or output in another format than the one asked for.
FAILURE_KINDS = ("wrong", "error", "format")

# Inputs generated before the first timed op; later items are generated
# between ops, with the clock stopped.  Borel-sym stops before the first
# four-variable closure: drawing those (redrawn past 40 generators) takes 10
# to 70 ms depending on the seed, which would swamp set-up time.
POOL = {"graphs": 60, "ideals": 400, "borel-sym": 18}


def import_monowit(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import monowit

    if not os.path.abspath(monowit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"monowit was imported from {monowit.__file__}, not from {src}")
    return monowit, src


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=[*ops.WORKLOADS, "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--max-seconds", type=float, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    monowit, src = import_monowit(args.root)
    workdir = os.path.join(args.root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "cli":
            cli = ops.Cli(args.seed, workdir, src)
            make = cli.item
            run, check = cli.run, cli.check
            pool = [make(args.seed, i) for i in range(len(cli.mix))]
        else:
            make, run, check_answer = ops.WORKLOADS[args.workload]

            def check(item, out):
                return [("wrong", m) for m in check_answer(item, out)]

            pool = [make(args.seed, i) for i in range(POOL[args.workload])]
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        api = Api(monowit, tracer)
        extra = cli_probes(src) if args.trace and args.workload == "cli" else {}
        result = loop(args, pool, make, run, check, api, tracer)
        result.update(extra)
        if tracer is not None:
            tracer.dump(os.path.join(args.root, "perfbench", "out",
                                     f"spans-{args.workload}-{args.seed}.jsonl"))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def loop(args, pool, make, run, check, api, tracer) -> dict:
    latencies = []
    starts = []
    kernels = []
    labels = []
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    messages = []
    for _ in range(3):  # the kernel's first calls run slower
        hostspeed.kernel()
    origin = time.perf_counter()
    for index in range(args.ops):
        if args.max_seconds and time.perf_counter() - origin > args.max_seconds:
            break
        item = pool[index] if index < len(pool) else make(args.seed, index)
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            out = run(api, item)
        except Exception:  # an op that raises is a failed op, not a crash
            out = None
            problems = [("error", traceback.format_exc(limit=3))]
        latencies.append(time.perf_counter() - start)
        starts.append(start - origin)
        kernels.append(hostspeed.kernel())
        labels.append(item[0][0] if args.workload == "cli" else None)
        if out is not None:
            problems = check(item, out)
        if problems:
            kinds = {kind for kind, _ in problems}
            failures[next(k for k in FAILURE_KINDS if k in kinds)] += 1
            messages.extend(m for _, m in problems)

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "latencies": latencies,
        "starts": starts,
        "kernels": kernels,
        "failures": failures,
        "messages": sorted(set(messages))[:20],
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }
    if args.workload == "cli":
        result["labels"] = labels
    if tracer is not None:
        result["layers"] = tracer.totals(hostspeed.scale_factors(starts, kernels))
        result["counts"] = tracer.counts
    return result


def cli_probes(src: str, repeats: int = 7) -> dict:
    """Median scaled wall time of a bare interpreter and of importing the CLI,
    taken in turns so that both see the same host."""
    import statistics
    import subprocess

    env = dict(os.environ, PYTHONPATH=src)

    def timed(code):
        before = hostspeed.speed_sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        seconds = time.perf_counter() - start
        return 1000 * hostspeed.scaled_once(seconds, before, hostspeed.speed_sample())

    bare, imported = [], []
    for _ in range(repeats):
        bare.append(timed("pass"))
        imported.append(timed("import monowit.cli"))
    interpreter = statistics.median(bare)
    return {"interpreter_ms": interpreter, "import_ms": statistics.median(imported) - interpreter}


if __name__ == "__main__":
    sys.exit(main())
