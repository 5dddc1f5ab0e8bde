"""Fixed reference kernel: how fast this machine runs at the moment.

The benchmark's host is a small shared VM whose speed changes by a
fifth or more over seconds and minutes, for every kind of code at once.
Wall times of the workload are therefore divided by the time of this
kernel, timed in short reps interleaved with the workload in the same
process, and reported as seconds at the nominal speed ``REP_S``:

    reported = wall time * REP_S / (mean time of one rep during the run)

A ``Sampler`` interleaves the reps from a timer signal, so that they
sample the machine evenly in time even inside a command that runs for
many seconds, and keeps a clock that leaves their time out.

The kernel mixes the two kinds of work magspec does: pure-Python set
and integer work (like the spanning-tree scan) and small batched numpy
eigensolves and array assembly (like the torus sweep). It uses numpy
only, never magspec, so a change to magspec cannot move it.
"""

from __future__ import annotations

import signal
import time
from itertools import combinations

import numpy as np

REP_S = 0.01  # nominal seconds of one rep: about its time on the 2-vCPU Xeon VM it was tuned on
GAP_S = 0.03  # workload seconds between two sampled reps: reps take about a quarter of the time

_SETS = [frozenset(c) for c in combinations(range(10), 3)]  # 120 three-element sets
_RNG = np.random.default_rng(20250811)
_A = _RNG.standard_normal((48, 12, 12)) + 1j * _RNG.standard_normal((48, 12, 12))
_PHASES = np.exp(1j * np.linspace(0.0, np.pi, 48))


def _python_part() -> int:
    seen: set[frozenset] = set()
    acc = 0
    for a, b in combinations(_SETS, 2):
        u = a | b
        if len(u) == 5:
            seen.add(u)
        acc += sum(u) % 7
    return acc + len(seen)


def _numpy_part() -> float:
    total = 0.0
    for _ in range(6):
        h = _A * _PHASES[:, None, None]
        h = h + np.conj(np.swapaxes(h, 1, 2))
        total += float(np.linalg.eigvalsh(h).sum())
    return total


def rep() -> float:
    """Run the kernel once; returns its wall seconds."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def reps(seconds: float) -> list[float]:
    """Run whole reps until they add up to at least the given seconds (at least one)."""
    times = [rep()]
    while sum(times) < seconds:
        times.append(rep())
    return times


class Sampler:
    """Runs one rep every GAP_S seconds of other work, from SIGALRM, while active.

    The timer is one-shot and re-armed after each rep, so reps never nest.
    ``clock()`` is ``time.perf_counter()`` minus the time spent in reps.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._busy = 0.0
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self._busy

    def _tick(self, signum, frame) -> None:
        took = rep()
        self.times.append(took)
        self._busy += took
        signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
