"""Host-speed meter: report times at one reference speed.

The benchmark runs on a few cores of a shared host whose speed swings
by 2-3x over minutes as the neighbours' load comes and goes, and not by
the same amount on every core.  The process is not descheduled while it
is slow (its CPU time moves with its wall time), so no choice of clock
removes the swing, and no run short enough to fit the time budget
outlasts it.

A fixed piece of interpreter work measures a core's speed: a sample is
one run of a fixed loop, and the slowdown is a sample's mean time over
``REFERENCE_S``.  Every time a repetition reports is divided by the
slowdown measured over that repetition, so it reads as seconds on the
host at its quiet speed.

The program's processes are pinned to cores, and threads of the
benchmark process pinned to the same cores sample them all the while
(a sample every 20 ms, ~1% of a core): the speed that matters is the
one of the cores the program runs on, during the run, and it changes
within seconds and differs from core to core.  A sample is shorter
than a scheduler time slice, so it rarely waits on the program.  Where
the program spreads over cores on its own (a process pool), the meter
probes right before and right after instead.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

#: One sample's time on the quiet 2-vCPU Xeon host the benchmark was
#: calibrated on (CPython 3.11).  Only a unit: any constant would do,
#: as long as both sides of a comparison use the same one.
REFERENCE_S = 0.00018
LOOPS = 5_000
#: Samples in a probe (~55 ms at the reference speed).
PROBE_SAMPLES = 300
#: Pause between samples taken alongside a run.
INTERVAL_S = 0.02


def sample_s() -> float:
    """The time of one run of the fixed loop (well under a scheduler
    time slice, so a sample sharing a core is rarely cut in two)."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i
    return time.perf_counter() - start


def probe_s() -> float:
    """The median of ``PROBE_SAMPLES`` back-to-back samples."""
    return statistics.median(sample_s() for _ in range(PROBE_SAMPLES))


@contextmanager
def pinned(core: int):
    """Pin the calling thread, and so every thread and process it starts
    meanwhile, to one core."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def cores() -> tuple[int, int]:
    """Two cores to pin to: the same one twice on a one-core machine."""
    cpus = os.sched_getaffinity(0)
    return max(cpus), min(cpus)


class Meter:
    """The host's slowdown over a ``with`` block.

    With ``on`` cores, a thread pinned to each samples it every
    ``INTERVAL_S`` while the block runs (the block's own Python code
    must be mostly waiting, as on a child process or on sockets); the
    slowdown is the samples' mean.  Without, it is the mean of one
    probe before and one after.
    """

    def __init__(self, on: tuple[int, ...] = ()) -> None:
        self.on = on
        self.slowdown = 1.0
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(core,),
                                          daemon=True) for core in on]

    def _sample(self, core: int) -> None:
        os.sched_setaffinity(0, {core})
        while True:
            self._samples.append(sample_s())
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "Meter":
        for thread in self._threads:
            thread.start()
        if not self.on:
            self._samples.append(probe_s())
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        if not self.on:
            self._samples.append(probe_s())
        self.slowdown = statistics.mean(self._samples) / REFERENCE_S
