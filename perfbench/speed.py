"""CPU speed probing, so host times do not drift with the neighbours.

On a shared virtual machine each CPU flips between a fast state and one
about 1.6x slower, several times a second, and the share of slow time
changes over minutes with other tenants' load.  A pure-Python loop slows
by the same factor as the simulator.  So while a repetition runs, a
timer signal samples the loop's rate every :data:`PROBE_INTERVAL_S`, and
the benchmark reports host times scaled to :data:`REFERENCE_RATE`:
seconds on a CPU that runs the probe loop at that rate.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Probe-loop iterations per second of the reference CPU.
REFERENCE_RATE = 25e6

PROBE_ITERATIONS = 10_000
PROBE_INTERVAL_S = 0.02


def loop_seconds(iterations: int) -> float:
    """Wall seconds for ``iterations`` turns of the probe loop."""
    started = time.perf_counter()
    counter = 0
    for value in range(iterations):
        counter += value
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the probe loop's rate from ``SIGALRM`` while started."""

    def __init__(self) -> None:
        #: (start, duration) of each probe, in ``perf_counter`` seconds.
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append((started, loop_seconds(PROBE_ITERATIONS)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(
            signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
        )

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mean_rate(self, begin: float, end: float) -> float:
        """Mean probe-loop rate over ``[begin, end]`` (all samples if
        none fell inside)."""
        durations = [
            duration for started, duration in self.samples
            if begin <= started <= end
        ] or [duration for _, duration in self.samples]
        return sum(PROBE_ITERATIONS / d for d in durations) / len(durations)

    def reference_seconds(self, begin: float, end: float) -> float:
        """Wall seconds in ``[begin, end]``, less the probes' own time,
        scaled to :data:`REFERENCE_RATE`."""
        probing = sum(
            duration for started, duration in self.samples
            if begin <= started <= end
        )
        return (
            (end - begin - probing) * self.mean_rate(begin, end)
            / REFERENCE_RATE
        )
