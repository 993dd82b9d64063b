"""The host-speed reference that the benchmark's times are scaled to.

The benchmark runs on a shared host whose CPU changes speed by up to 2x,
within a run and between runs, for minutes at a time.  No estimator over a
run's own case times removes that: a whole run can fall in a slow spell.
So the worker runs a fixed reference kernel between its cases, outside the
timed region, and every case time is scaled by the kernel's time measured
next to it:

    reported = measured * (REFERENCE_S / local) ** ELASTICITY

where `local` is the median of the kernel times nearest to the case.  A
reported millisecond is a millisecond on a host where the kernel takes
`REFERENCE_S`.  The kernel is the benchmark's own, frozen code, the kind of
work the library does (dicts keyed by exponent tuples, tuple arithmetic,
small-integer products), so it speeds up and slows down with the host
much as the library does, and a change to the library cannot change it.

The kernel is held in the CPU's caches, so it follows the host's speed
more strongly than the library's larger polynomials, which also wait on
memory.  With cases and kernel interleaved through the host's fast and slow
spells, log(case time) moved by 0.6 (combinatorial cases) to 1 (bijection
cases) times log(kernel time).  `ELASTICITY` is that factor; 0.85 gave the
smallest spread between runs over all three workloads.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The kernel's time on the reference host, in seconds.  It sets the scale
# of every reported time; the kernel takes 6.5-13 ms on the 2-vCPU host
# the benchmark was tuned on, depending on the host's speed at the moment.
REFERENCE_S = 0.010
# How strongly case times follow the kernel's time, in log terms.
ELASTICITY = 0.85
# A case's scale is the median of this many kernel times nearest to it.
NEAREST = 5

_A = {(i, j, k): i + j + k + 1 for i in range(6) for j in range(6) for k in range(5)}
_B = {(i, j, k): i * j - k for i in range(3) for j in range(4) for k in range(3)}


def kernel() -> dict:
    """Multiply two sparse polynomials held as dicts of exponent tuples."""
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def time_kernel(clock=time.perf_counter) -> tuple[float, float]:
    """Run the kernel once; returns (start time, seconds it took)."""
    t0 = clock()
    kernel()
    return t0, clock() - t0


def scale(times: list[tuple[float, float]], starts: list[float], seconds: list[float]) -> list[float]:
    """Scale each measured time to the reference host.

    `times` holds (start, seconds) of the kernel runs in order of start;
    `starts` and `seconds` describe the measured items.  Each item is scaled
    by the median of the `NEAREST` kernel times that started nearest to it.
    """
    at = [t for t, _ in times]
    out = []
    for start, s in zip(starts, seconds):
        i = bisect.bisect_left(at, start)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(at)):
            if lo > 0 and (hi == len(at) or start - at[lo - 1] <= at[hi] - start):
                lo -= 1
            else:
                hi += 1
        local = statistics.median(k for _, k in times[lo:hi])
        out.append(s * (REFERENCE_S / local) ** ELASTICITY)
    return out
