"""A fixed pure-Python reference task that measures the host's speed.

On a shared host the same call of the program can take 1.8x longer from
one minute to the next, almost all of it user time: other tenants slow
the CPU down. The benchmark runs `reference_task` before and after every
timed call and scales the call's time by REFERENCE_S over the mean of
those two reference times, so that times are stated at one fixed host
speed and a slow stretch of the host does not read as a slower program.

The task does the kinds of work the program does, in code of its own
that no change to the program can alter: continued-fraction recurrences
on exact integers that grow to about a hundred digits, many small tuples
and lists kept alive at once, dictionary inserts and a sort.
"""

from __future__ import annotations

from time import perf_counter

#: seconds `reference_task` takes at the speed the metrics are stated at
#: (the median on an idle 2-vCPU Xeon VM with Python 3.11)
REFERENCE_S = 0.05


def reference_task() -> int:
    """The reference work; returns a checksum so the work is not dead."""
    table: dict[tuple[int, int], list[int]] = {}
    for d in range(2, 300):
        a0 = int(d ** 0.5)
        if a0 * a0 == d:
            continue
        p0, q0, p1, q1 = 0, 1, 1, 0
        m, den, a = 0, 1, a0
        for i in range(120):
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
            m = den * a - m
            den = (d - m * m) // den
            a = (a0 + m) // den
            table[d, i] = [p1, q1, p1 * q0 - p0 * q1]
    ordered = sorted(table.values(), key=lambda v: v[0] % 104729)
    return len(ordered) + ordered[0][2]


def time_reference() -> float:
    """Wall seconds of one `reference_task`."""
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def at_reference_speed(wall: float, before: float, after: float) -> float:
    """`wall` seconds scaled to the host speed at which `reference_task`
    takes REFERENCE_S, given its times just before and just after."""
    return wall * 2 * REFERENCE_S / (before + after)


def scaled_times(fn, repeats: int) -> list[float]:
    """The seconds each of `repeats` calls of fn() returns, scaled like
    `at_reference_speed`; the reference task runs between the calls."""
    times = []
    before = time_reference()
    for _ in range(repeats):
        seconds = fn()
        after = time_reference()
        times.append(at_reference_speed(seconds, before, after))
        before = after
    return times
