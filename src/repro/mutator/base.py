"""Lifetime-driven synthetic mutators.

The analytical experiments (Table 1, Figure 1, the equilibrium check,
the anti-prediction demonstration) need workloads whose object
lifetimes follow a prescribed distribution exactly.  A
:class:`LifetimeDrivenMutator` allocates plain (pointer-free) objects
through a collector, holds each in a root slot, and clears the slot
when the object's scheduled death time arrives — the object then
becomes garbage for the collector to discover.  Each run is planned
ahead and allocated through bump windows (:mod:`repro.perf.plan`).

Pointer-free objects are faithful to the radioactive decay model's
Assumption 2 ("live objects have no other distinguishing
characteristics"): the collector can observe nothing about an object
except where it resides.
"""

from __future__ import annotations

import heapq
from typing import Protocol

from repro.gc.collector import Collector
from repro.heap.roots import Frame, RootSet
from repro.perf.plan import plan_objects, replay_plan

__all__ = ["LifetimeDrivenMutator", "LifetimeSchedule"]


class LifetimeSchedule(Protocol):
    """Assigns a lifetime (in clock words) to each allocated object."""

    def lifetime_for(self, clock: int, index: int) -> int:
        """Lifetime of the object allocated at ``clock`` (``index``-th).

        Returned lifetimes are measured in allocation-clock words from
        the moment of allocation; they must be positive.
        """
        ...


class LifetimeDrivenMutator:
    """Drives a collector with a scheduled-lifetime workload.

    A mutator is spent once a run raises ``HeapExhausted`` (or
    ``ValueError`` for a non-positive lifetime); ``held_ids`` is then
    what per-object allocation would hold at the failing allocation.

    Args:
        collector: the collector under test (its ``roots`` must be the
            same object as ``roots``).
        roots: the machine root set; the mutator pushes one frame and
            keeps every live object in a slot of it.
        schedule: the lifetime assignment.
        object_words: size of each allocated object.
    """

    def __init__(
        self,
        collector: Collector,
        roots: RootSet,
        schedule: LifetimeSchedule,
        *,
        object_words: int = 1,
    ) -> None:
        if object_words < 1:
            raise ValueError(
                f"object size must be at least 1 word, got {object_words!r}"
            )
        self.collector = collector
        self.schedule = schedule
        self.object_words = object_words
        self._frame: Frame = roots.push_frame()
        self._free_slots: list[int] = []
        #: (death clock, slot) min-heap of scheduled deaths.
        self._deaths: list[tuple[int, int]] = []
        self._allocated = 0

    @property
    def live_objects(self) -> int:
        """Objects currently held live by the mutator."""
        return len(self._deaths)

    def run(self, words: int) -> None:
        """Allocate at least ``words`` words of objects."""
        if words > 0:
            self.run_objects(-(-words // self.object_words))

    def run_objects(self, count: int) -> None:
        """Allocate exactly ``count`` objects."""
        if count <= 0:
            return
        plan = plan_objects(
            self.schedule,
            count,
            self.object_words,
            self.collector.heap.clock,
            self._allocated,
            self._deaths,
            self._free_slots,
            len(self._frame),  # the slot high-water mark
        )
        self._allocated += count
        replay_plan(self.collector, self._frame, plan)

    def release_due(self) -> None:
        """Release objects whose death time has arrived.

        A run does this before each allocation; the Table 1 experiment
        calls it explicitly so that live storage can be sampled exactly
        *at* a cohort boundary.
        """
        self._release(self.collector.heap.clock)

    def release_all(self) -> None:
        """Drop every live object (end-of-run cleanup)."""
        self._release(float("inf"))

    def _release(self, clock: float) -> None:
        deaths = self._deaths
        while deaths and deaths[0][0] <= clock:
            _, slot = heapq.heappop(deaths)
            self._frame.set(slot, None)
            self._free_slots.append(slot)

    def held_ids(self) -> list[int]:
        """Ids of the objects the mutator currently keeps live."""
        return list(self._frame.ids())
