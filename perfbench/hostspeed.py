"""Host speed: how fast this machine runs a fixed pure-Python kernel,
sampled while the simulator runs.

The benchmark runs on a share of a machine whose cores slow down and
speed up with its other tenants' load: the simulator's speed swings by
a quarter within a minute, with the process's CPU time equal to its wall
time (no time is stolen; the core itself is slower).  The same swings
slow a fixed kernel alike, so the benchmark samples the kernel's rate
during every untraced pass and states host times at a reference host
speed::

    time at reference speed = wall time * host rate / REFERENCE_RATE

A :class:`HostSampler` takes a short sample every ``SAMPLE_EVERY_S``
seconds from a ``SIGALRM`` handler, which runs in the main thread between
two bytecodes of the simulation, and adds up the time its samples took,
so a caller subtracts that from the wall time it measured.  Nothing of
the simulation is patched or wrapped.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Reference host speed, in kernel operations per second: about the rate
#: of an uncontended core of the 2-vCPU x86-64 VM (Python 3.11) that
#: measured the first baseline.  A fixed convention: it scales the
#: host metrics and never changes between commits.
REFERENCE_RATE = 5.0e6
#: Seconds between two samples during a pass.
SAMPLE_EVERY_S = 0.25
#: Length of one sample, in seconds.
SAMPLE_S = 0.01


def kernel_rate(duration: float) -> float:
    """Operations per second of a fixed pure-Python kernel (integer
    mixing and dict updates) run for about ``duration`` seconds."""
    ops = 2000
    table: dict = {}
    calls = 0
    start = time.perf_counter()
    while True:
        value = calls
        for i in range(ops):
            value = (value * 1103515245 + i) & 0xFFFFFFFF
            table[value & 1023] = i
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration:
            return calls * ops / elapsed


class HostSampler:
    """Samples the host's speed periodically while it is entered.

    ``rates`` holds one kernel rate per sample, in the order taken; one
    sample is taken on entry and one on exit, so every interval measured
    inside has a sample before and after it.  ``paused`` is the total
    time the samples took.
    """

    def __init__(self, every: float = SAMPLE_EVERY_S,
                 length: float = SAMPLE_S):
        self.every = every
        self.length = length
        self.rates: List[float] = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.rates.append(kernel_rate(self.length))
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "HostSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self) -> Tuple[int, float]:
        """A point in the sampling: samples taken and time paused so far."""
        return len(self.rates), self.paused

    def rate_over(self, span: Tuple[int, int]) -> float:
        """Mean rate over the samples an interval spans: the last one
        before it, those taken during it, and the first one after it.
        ``span`` is ``(samples taken at its start, samples taken at its
        end)``; call after the sampler has exited."""
        start, end = span
        window = self.rates[start - 1:end + 1]
        return sum(window) / len(window)
