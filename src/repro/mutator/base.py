"""Lifetime-driven synthetic mutators.

The analytical experiments (Table 1, Figure 1, the equilibrium check,
the anti-prediction demonstration) need workloads whose object
lifetimes follow a prescribed distribution exactly.  A
:class:`LifetimeDrivenMutator` allocates plain (pointer-free) objects
through a collector, holds each in a root slot, and clears the slot
when the object's scheduled death time arrives — the object then
becomes garbage for the collector to discover.

Pointer-free objects are faithful to the radioactive decay model's
Assumption 2 ("live objects have no other distinguishing
characteristics"): the collector can observe nothing about an object
except where it resides.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro.gc.collector import Collector
from repro.heap.roots import Frame, RootSet

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
        self.roots = roots
        self.schedule = schedule
        self.object_words = object_words
        self._frame: Frame = roots.push_frame()
        self._free_slots: list[int] = []
        #: (death clock, slot) min-heap of scheduled deaths.
        self._deaths: list[tuple[int, int]] = []
        self._allocated = 0
        #: Observer invoked after every allocation with the current clock.
        self.on_step: Callable[[int], None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_objects(self) -> int:
        """Objects currently held live by the mutator."""
        return len(self._deaths)

    @property
    def live_words(self) -> int:
        return self.live_objects * self.object_words

    @property
    def allocations(self) -> int:
        return self._allocated

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Release due objects, then allocate one object.

        This is the inner loop of every synthetic experiment, so the
        release and the slot reuse are inlined with direct access to
        the frame's slot list.
        """
        collector = self.collector
        clock = collector.heap.clock
        deaths = self._deaths
        slots = self._frame._cells
        free_slots = self._free_slots
        while deaths and deaths[0][0] <= clock:
            _, slot = heapq.heappop(deaths)
            slots[slot] = None
            free_slots.append(slot)
        words = self.object_words
        obj_id = collector.allocate_id(words)
        if free_slots:
            slot = free_slots.pop()
            slots[slot] = obj_id
        else:
            slots.append(obj_id)
            slot = len(slots) - 1
        lifetime = self.schedule.lifetime_for(clock, self._allocated)
        if lifetime <= 0:
            raise ValueError(
                f"schedule produced non-positive lifetime {lifetime!r}"
            )
        heapq.heappush(deaths, (clock + words + lifetime, slot))
        self._allocated += 1
        if self.on_step is not None:
            self.on_step(collector.heap.clock)

    def run(self, words: int) -> None:
        """Allocate at least ``words`` words of objects."""
        heap = self.collector.heap
        target = heap.clock + words
        step = self.step
        while heap.clock < target:
            step()

    def run_objects(self, count: int) -> None:
        """Allocate exactly ``count`` objects."""
        step = self.step
        for _ in range(count):
            step()

    def release_due(self) -> None:
        """Release objects whose death time has arrived.

        ``step`` does this automatically before each allocation; the
        Table 1 experiment calls it explicitly so that live storage can
        be sampled exactly *at* a cohort boundary.
        """
        clock = self.collector.heap.clock
        while self._deaths and self._deaths[0][0] <= clock:
            _, slot = heapq.heappop(self._deaths)
            self._frame.set(slot, None)
            self._free_slots.append(slot)

    def held_ids(self) -> list[int]:
        """Ids of the objects the mutator currently keeps live."""
        return list(self._frame.ids())

    def release_all(self) -> None:
        """Drop every live object (end-of-run cleanup)."""
        while self._deaths:
            _, slot = heapq.heappop(self._deaths)
            self._frame.set(slot, None)
            self._free_slots.append(slot)
