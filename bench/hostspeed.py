"""How fast the host is right now, and times corrected for it.

The sandbox this benchmark runs on is a few cores of a shared host
whose speed for one and the same Python code wanders by a factor of up
to two, over seconds and over minutes (a fixed loop that takes 8 ms in
one ten-second stretch takes 15 ms in the next).  A wall-clock rate
measured there says as much about the neighbours as about the program:
two sets of runs of the same code disagree by more than any bound a
regression check could use.

So every workload takes a *probe* next to each thing it times, on the
CPU the timed work runs on: a fixed pure-Python kernel (object
allocation, list and dict traffic, attribute access — the mix the
simulator itself is made of) that belongs to the benchmark, touches
nothing of ``src/repro`` and never changes.  A duration is then
reported in *reference seconds*: host seconds times ``REFERENCE_S``
over the seconds the probe took at that moment, that is, the time the
work would have taken on a host that runs the kernel in ``REFERENCE_S``.
A change to the program moves its reference seconds exactly as it moves
its host seconds, because the kernel does not run the program; the
host's mood moves both the work and the probe, and mostly cancels.

The host-second figures stay in every result record (its ``raw``
section, and the probes under ``detail``), so nothing is hidden by the
correction.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: Seconds one kernel pass takes on an uncontended core of the host the
#: benchmark was written on.  Only a unit: it keeps reference seconds
#: close to host seconds of a quiet machine.
REFERENCE_S = 0.008
#: Objects a kernel pass allocates.
KERNEL_OBJECTS = 20_000
#: Kernel passes per probe; the probe is their median.
PASSES = 5


class _Node:
    __slots__ = ("value", "previous")

    def __init__(self, value: int, previous: "_Node | None") -> None:
        self.value = value
        self.previous = previous


def kernel(objects: int = KERNEL_OBJECTS) -> int:
    """The fixed work: a chain of small objects kept in a list and a
    dict, with a third of the dict entries removed again."""
    table: dict[int, _Node] = {}
    chain: list[_Node] = []
    previous = None
    for index in range(objects):
        previous = _Node(index, previous)
        chain.append(previous)
        table[index] = previous
        if index % 3 == 0:
            table.pop(index // 2, None)
    return len(table)


def probe(passes: int = PASSES, cpu: int | None = None) -> float:
    """Median host seconds of ``passes`` kernel passes, on ``cpu`` if
    one is given (this process moves there and back).

    The cycle collector is held off meanwhile: when it would run
    depends on everything the process allocated before, which is the
    workload's business and not the host's.
    """
    if cpu is not None:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return probe(passes)
        finally:
            os.sched_setaffinity(0, home)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(passes):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def factor(probe_s: float) -> float:
    """What a host duration measured next to ``probe_s`` is multiplied
    by to give reference seconds."""
    return REFERENCE_S / probe_s


class Bracket:
    """Probes on either side of consecutive timed stretches.

    :meth:`close` ends a stretch with a probe (which also opens the
    next one) and returns the stretch's number; :meth:`factor` gives a
    stretch's correction once the run is over, from the probes around
    it.  A single probe is a 40 ms glimpse of a host whose speed also
    flickers from one tenth of a second to the next, so a stretch takes
    the median of the ``SPAN`` probes nearest to it on either side:
    wide enough to smooth the flicker, narrow enough to follow the
    drifts that last seconds.
    """

    #: Probes taken into account on each side of a stretch.
    SPAN = 3

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.probes = [probe(cpu=cpu)]

    def close(self) -> int:
        self.probes.append(probe(cpu=self.cpu))
        return len(self.probes) - 2

    def factor(self, stretch: int) -> float:
        nearby = self.probes[
            max(0, stretch + 1 - self.SPAN) : stretch + 1 + self.SPAN
        ]
        return factor(statistics.median(nearby))
