"""Host-speed sampling: a fixed probe timed while the operations run.

On a shared host the same pass can take up to about 1.7x longer from one
minute to the next, and the speed changes within a second. A fixed probe
that does the kind of work the package does (dict updates keyed by small
tuples, pure-Python calls) slows down with it. While a Sampler is active, a
SIGALRM handler runs the probe every INTERVAL_S, so even a call of several
seconds is sampled throughout. An operation's time is then scaled by the
mean probe time around it: the result is its time at the reference speed,
on a host where one probe takes REFERENCE_S seconds. The probe does not
touch surfcluster, so a change to the package moves the scaled times and
leaves the probe alone. Time spent in the handler is not counted: the
Sampler's clock stops while it probes.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter, perf_counter_ns

REFERENCE_S = 0.001  # about the probe's time on an idle 2-vCPU VM with Python 3.11
INTERVAL_S = 0.05
WINDOW_S = 0.25      # probes this close to an operation describe its speed
EDGE_PROBES = 8      # probes taken when sampling starts and stops


def probe_seconds() -> float:
    """Time one run of the fixed probe, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        rng = random.Random(1)
        counts: dict[tuple[int, int], int] = {}
        for i in range(1000):
            key = (rng.randrange(5000), rng.randrange(50))
            counts[key] = counts.get(key, 0) + i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` measured while the probe took `probes`, at the reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Runs the probe every INTERVAL_S of wall time while active.

    `clock()` and `clock_ns()` are perf_counter less the time spent probing,
    so whatever is timed with them leaves the probes out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock() at the probe, probe seconds)
        self._paused_ns = 0
        self._previous = None

    def clock_ns(self) -> int:
        return perf_counter_ns() - self._paused_ns

    def clock(self) -> float:
        return self.clock_ns() / 1e9

    def _probe(self, *_signal) -> None:
        t0 = perf_counter_ns()
        self.samples.append(((t0 - self._paused_ns) / 1e9, probe_seconds()))
        self._paused_ns += perf_counter_ns() - t0

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self._probe()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` of work that ran from clock() `start` to `end`, at the reference speed."""
        near = [p for t, p in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # a C call can hold the signal back
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return scale(seconds, near)
