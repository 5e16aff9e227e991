"""Speed probe: scales measured times to one reference machine speed.

The reference machine is a shared VM whose CPU speed drifts by up to about
1.8x, in phases of seconds to minutes, with user CPU time drifting as much
as wall time.  A raw time therefore says as much about the host's other
tenants as about fraclap.  The benchmark times `probe`, a fixed piece of
interpreter work (dict stores, list, tuple and str allocation) that imports
nothing from fraclap, next to the work it measures, and reports each time
as `raw * speed(durations)`: the time the work would have taken at the
speed where `probe` takes REF_PROBE_S.  A change to fraclap moves the raw
time and leaves the probe alone, so it moves the scaled time by the same
share.  Set-up is scaled by the probes made just before the child is
spawned and just after its set-up ends.

During a timed repetition `Sampler` runs the probe from a SIGALRM handler
every PERIOD_S of wall time, and the repetition's speed is the mean of
REF_PROBE_S / duration over its probes, each weighted by the wall time
since the probe before it, so slow phases count for as long as they
lasted.  The probes' own time is taken out of the raw time.  The handler
runs between Python bytecodes of the main thread, so a probe due during a
long C call (an LU factorization) runs when the call returns, and its
weight covers the call.
"""

from __future__ import annotations

import gc
import signal
import time

REF_PROBE_S = 0.6e-3  # probe duration at the reference speed
PERIOD_S = 0.05  # wall time between probes inside a timed repetition
SETUP_PROBES = 5  # probes before spawning a child and again after its set-up


def _work() -> int:
    table: dict = {}
    for i in range(3000):
        table[i % 97] = [i, (i, str(i % 10))]
    return len(table)


def probe() -> float:
    """Duration of one fixed unit of work, in seconds.

    The cyclic garbage collector is off during the work: a collection there
    would cost time in proportion to fraclap's heap, coupling the probe to
    the program it measures.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _work()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


def probes(n: int) -> list[float]:
    """Durations of n probes after one discarded warm-up probe."""
    probe()
    return [probe() for _ in range(n)]


def speed(durations: list[float], weights: list[float] | None = None) -> float:
    """Weighted mean speed relative to the reference (equal weights by default)."""
    weights = weights or [1.0] * len(durations)
    return sum(w * REF_PROBE_S / d for w, d in zip(weights, durations)) / sum(weights)


class Sampler:
    """Context manager that probes every PERIOD_S seconds of wall time.

    `durations` holds each probe's duration and `weights` the wall time
    from the end of the previous probe (or from entry) to its start.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.weights: list[float] = []
        self._last = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.weights.append(start - self._last)
        self.durations.append(probe())
        self._last = time.perf_counter()

    def __enter__(self) -> "Sampler":
        probe()  # warm-up, so the first sample is not a cold call
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
