"""Seeded benchmark for monowit: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload graphs|ideals|borel-sym|cli|all \\
                             --seed N --seconds S --trace 0|1

Run from anywhere; monowit is imported from `src/` next to this directory,
never from an installed copy, and the run fails without printing a result
when that source is missing.

A run does a fixed number of ops: S seconds' worth at the rate the workload
runs on a 2-vCPU host (OPS_PER_SECOND), rounded to whole cycles of the
workload's input mix.  The same seed and S therefore give the same ops, the
same checks and the same failure count on every run, however fast the host
is that day.  A host so slow that a run passes three times S stops early.

--trace 0 measures the end-to-end metrics.  Set-up is timed in fresh
interpreters (spawn until the workload is ready to run its first op), several
times, and reported as the median.  Then one fresh interpreter runs the ops.
Every time is scaled to a reference host speed (see hostspeed.py) measured
next to it; the raw times are printed on the '#' lines.

--trace 1 runs half the ops untraced and the same half traced, reports
per-layer metrics from the spans of the traced run, and reports the tracing
overhead as the difference of their throughputs.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `failed` counts every failed op: a wrong answer, an
error (an exception, an unexpected exit code, missing output), or output in
another format than the one asked for.  `correct` is false when any op gave a
wrong answer or an error.  A format failure alone leaves it true: the one
known case, `monowit witness --list --format json` printing text, is counted
in `failed` and in failed_ratio on every run of the cli workload.  Lines before it, starting with
'#', show every metric with its unit and sample count, the failure ratio,
and the stamp (Python version, cores, git revision, source hash, seed); the
same is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
from spans import CALLS, CLI_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ["graphs", "ideals", "borel-sym", "cli"]

SETUP_PROBES = 7
# Ops per second of --seconds.  A run's ops follow from these and --seconds,
# not from how fast the host is.  They share out the time the runs may take:
# each workload gets roughly what a 2-vCPU host gets through in its share,
# checks included, and the shares lean towards the workloads whose metrics
# spread most from one seed to the next (op_p90_ms of graphs and cli, the
# large exchange closures behind borel-sym's throughput) and away from
# ideals, which spreads least.
OPS_PER_SECOND = {"graphs": 18, "ideals": 100, "borel-sym": 72, "cli": 12}
# Length of each workload's input cycle (graph kinds, ideal and symmetric
# size strata, the cli command mix); a run does whole cycles.
CYCLE = {"graphs": 4, "ideals": 24, "borel-sym": 27, "cli": 20}
# A run stops early once it has taken this many times --seconds ...
SLOW_HOST = 3
# ... and a worker that overruns that by this much is killed.
GRACE_SECONDS = 30

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# worker processes


def op_count(workload: str, seconds: float) -> int:
    cycle = CYCLE[workload]
    return cycle * max(1, round(seconds * OPS_PER_SECOND[workload] / cycle))


def start_worker(workload: str, seed: int, ops=0, max_seconds=0.0, trace=False,
                 setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--workload", workload, "--seed", str(seed), "--ops", str(ops),
            "--max-seconds", repr(max_seconds)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    try:
        rest, _ = proc.communicate(timeout=max_seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker overran {max_seconds} s by {GRACE_SECONDS} s")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if not setup_only else None)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of SETUP_PROBES fresh workers."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.speed_sample()
        setup = start_worker(workload, seed, setup_only=True)[0]
        after = hostspeed.speed_sample()
        raw.append(setup)
        scaled.append(hostspeed.scaled_once(setup, before, after))
    return raw, scaled


# ---------------------------------------------------------------------------
# metrics


def p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def timing_metrics(lat) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * p90(lat),
    }


def scaled_latencies(raw) -> list[float]:
    return hostspeed.scaled(raw["latencies"], raw["starts"], raw["kernels"])


def end_to_end(setups, raw) -> tuple[dict, dict, dict]:
    """Scaled metrics, the raw ones they came from, and their sample counts."""
    raw_setups, scaled_setups = setups
    lat = scaled_latencies(raw)
    memory = raw["peak_rss_kb"] / 1024
    values = {"setup_s": statistics.median(scaled_setups), **timing_metrics(lat),
              "peak_rss_mb": memory}
    unscaled = {"setup_s": statistics.median(raw_setups),
                **timing_metrics(raw["latencies"]), "peak_rss_mb": memory}
    samples = {
        "setup_s": f"median of {len(scaled_setups)} set-ups",
        "ops_per_s": f"{len(lat)} ops in {sum(lat):.3f} s timed",
        "op_p50_ms": f"n={len(lat)}, {len(lat) // 2} beyond",
        "op_p90_ms": f"n={len(lat)}, {sum(t > p90(lat) for t in lat)} beyond"
                     + ("" if len(lat) >= 100 else "; fewer than 100 ops"),
        "peak_rss_mb": ("largest cli subprocess" if "labels" in raw else "worker process")
                       + f" over {len(lat)} ops",
    }
    return values, unscaled, samples


def per_command_ms(raw) -> dict[str, float]:
    """Median scaled latency of each CLI command over both output formats."""
    lat = scaled_latencies(raw)
    out = {}
    for command in CLI_COMMANDS:
        xs = [t for label, t in zip(raw["labels"], lat) if label == command]
        out[command] = 1000 * statistics.median(xs) if xs else 0.0
    return out


# per-layer metrics beyond <layer>.<function>.calls and .s, with their units
COUNTERS = [
    ("decompose.cold_calls", "count"), ("decompose.cold_s", "s"),
    ("decompose.warm_calls", "count"), ("decompose.warm_s", "s"),
    ("decompose.components", "count"), ("decompose.primes", "count"),
    ("borel.closure_gens", "count"), ("witness.sym_gens", "count"),
]


def per_layer(plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run, and the tracing overhead."""
    values, units = {}, {}

    def put(key, value, unit):
        values[key], units[key] = value, unit

    for name, _ in CALLS:
        put(f"{name}.calls", traced["layers"][f"{name}.calls"], "count")
        put(f"{name}.s", traced["layers"][f"{name}.s"], "s")
    counts = {**traced["counts"], **traced["layers"]}
    for key, unit in COUNTERS:
        put(key, counts.get(key, 0), unit)
    verifies = traced["layers"]["witness.verify_witness.calls"]
    put("witness.verify_true_ratio",
        counts.get("witness.verify_true", 0) / verifies if verifies else 0, "ratio")
    put("cli.interpreter_ms", traced.get("interpreter_ms", 0), "ms")
    put("cli.import_ms", traced.get("import_ms", 0), "ms")
    commands = per_command_ms(traced) if "labels" in traced else {}
    for command in CLI_COMMANDS:
        put(f"cli.{command}.ms", commands.get(command, 0), "ms")
    plain_rate = timing_metrics(scaled_latencies(plain))["ops_per_s"]
    traced_rate = timing_metrics(scaled_latencies(traced))["ops_per_s"]
    put("trace.untraced_ops_per_s", plain_rate, "1/s")
    put("trace.traced_ops_per_s", traced_rate, "1/s")
    put("trace.overhead_pct", 100 * (plain_rate - traced_rate) / plain_rate, "%")
    return values, units


# ---------------------------------------------------------------------------
# stamp


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_hash() -> str:
    src = os.path.join(ROOT, "src", "monowit")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def stamp(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git": git_revision(), "src_sha256": source_hash(),
    }


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        ops, limit = op_count(workload, seconds / 2), SLOW_HOST * seconds / 2
        _, plain = start_worker(workload, seed, ops, limit)
        _, traced = start_worker(workload, seed, ops, limit, trace=True)
        values, units = per_layer(plain, traced)
        unscaled, samples = {}, {}
        runs = [plain, traced]
    else:
        setups = setup_seconds(workload, seed)
        _, raw = start_worker(workload, seed, op_count(workload, seconds), SLOW_HOST * seconds)
        values, unscaled, samples = end_to_end(setups, raw)
        units = END_TO_END
        runs = [raw]
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = {kind: sum(r["failures"][kind] for r in runs) for kind in runs[0]["failures"]}
    messages = sorted({m for r in runs for m in r["messages"]})
    failed = sum(failures.values())
    meta = stamp(workload, seed, seconds, int(trace))
    report = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": units[k], "raw": unscaled.get(k),
                        "samples": samples.get(k)}
                    for k, v in values.items()},
        "failed_ratio": failed / attempted,
        "failures": failures,
        "messages": messages,
        # per-op latencies, start times and kernel samples of every worker
        "raw": [{k: r[k] for k in ("latencies", "starts", "kernels")} for r in runs],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}-{seed}-{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key, m in report["metrics"].items():
        notes = ([f"raw {m['raw']:.6g}"] if m["raw"] is not None else []) \
            + ([m["samples"]] if m["samples"] else [])
        extra = f"  ({'; '.join(notes)})" if notes else ""
        print(f"# {workload:9} {key:42} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"# {workload:9} {'failed_ratio':42} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} ops: "
          + ", ".join(f"{n} {kind}" for kind, n in failures.items()) + ")")
    for message in messages:
        print(f"# failure: {message.strip().splitlines()[-1][:300]}")
    return {
        "correct": failures["wrong"] == 0 and failures["error"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "monowit", "__init__.py")):
        print(f"error: no monowit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
