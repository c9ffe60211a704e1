"""Host speed, sampled next to every op, and times scaled by it.

The benchmark runs on shared cores whose speed drifts.  On the 2-vCPU host
it was written on, a fixed stretch of pure-Python work took up to 40% longer
from one second to the next, and twice as long from one quarter hour to the
next, in CPU time as well as in wall time.  That drift moves every wall-clock metric more than most changes to
the library would.

So next to every op, with the op's clock stopped, the worker times `kernel`,
a fixed piece of pure-Python work on tuples, lists and dicts that does not
touch monowit.  Each op's latency is then multiplied by
(REFERENCE_KERNEL_S / kernel time around it) ** ELASTICITY.  A scaled
millisecond is a millisecond on a host that runs the kernel in
REFERENCE_KERNEL_S; a change to the library moves the scaled times as much
as the raw ones, while a change in host speed moves the kernel with them and
largely cancels out.  Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# The unit of scaled time: about what the kernel takes on a quiet 2-vCPU
# host.  It is fixed, never re-measured, so that scaled times from different
# runs, days and commits compare.
REFERENCE_KERNEL_S = 0.0002

# How much of the kernel's slowdown the ops share.  Ops slow down somewhat
# less than the kernel when the host does: over 50 runs of the four
# workloads on that host, scaling by the kernel's full slowdown (1.0)
# over-corrected, and 0.85 left the least spread between runs (ideals
# op_p50_ms 9% at 1.0, 4% at 0.85; graphs op_p90_ms 6% and 4%).  Fixed, like
# the unit.
ELASTICITY = 0.85

# Kernel samples within this many seconds of an op's start scale that op
# (at least MIN_SAMPLES of the nearest are used).
WINDOW_S = 0.25
MIN_SAMPLES = 5

# Size of the kernel's input: about 0.2 ms of work on that host.
VECTORS = 100

_RNG = random.Random(20210503)
_VECTORS = [tuple(_RNG.randrange(5) for _ in range(6)) for _ in range(VECTORS)]
_EXPECTED = None


def _work() -> int:
    """Divisibility-minimal vectors and a tally of their supports."""
    keep = []
    for v in sorted(set(_VECTORS), key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(k, v)) for k in keep):
            keep.append(v)
    tally: dict[tuple[int, ...], int] = {}
    for v in keep:
        support = tuple(i for i, e in enumerate(v) if e)
        tally[support] = tally.get(support, 0) + sum(v)
    return len(keep) * 1000 + sum(tally.values())


def kernel() -> float:
    """Seconds the kernel takes now.

    It runs twice and only the second run is timed, so that what the op
    before it left in the caches does not count; the garbage collector is
    held off, so that the library's heap does not count either.
    """
    global _EXPECTED
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        result = _work()
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if _EXPECTED is None:
        _EXPECTED = result
    elif result != _EXPECTED:
        raise RuntimeError("the host-speed kernel gave a different result")
    return seconds


def speed_sample(repeats: int = 5) -> float:
    """Median of a few kernel runs: the host's speed around a one-off timing."""
    return statistics.median(kernel() for _ in range(repeats))


def scaled_once(seconds: float, before: float, after: float) -> float:
    """A one-off timing scaled by speed samples taken just before and after."""
    return seconds * (REFERENCE_KERNEL_S / ((before + after) / 2)) ** ELASTICITY


def scale_factors(starts, kernels) -> list[float]:
    """The factor that scales each op: REFERENCE_KERNEL_S over the median
    kernel time near its start, to the power ELASTICITY.

    `starts[i]` is when sample i was taken (op i started just before it);
    both lists are in time order.
    """
    factors = []
    n = len(starts)
    for i, t in enumerate(starts):
        lo = bisect.bisect_left(starts, t - WINDOW_S)
        hi = bisect.bisect_right(starts, t + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, n):
            # widen towards whichever neighbour is nearer in time
            if lo > 0 and (hi == n or t - starts[lo - 1] <= starts[hi] - t):
                lo -= 1
            else:
                hi += 1
        factors.append((REFERENCE_KERNEL_S / statistics.median(kernels[lo:hi])) ** ELASTICITY)
    return factors


def scaled(latencies, starts, kernels) -> list[float]:
    return [t * f for t, f in zip(latencies, scale_factors(starts, kernels))]
