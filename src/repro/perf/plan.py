"""Allocation plans: the one driver of every lifetime-driven run.

The clock moves only on allocation and a lifetime is drawn at birth,
so a lifetime-driven run's choreography — each death clock, which root
slot frees before which allocation — is fixed before it starts.
:func:`plan_objects` computes it from the state a run carries, and
:func:`replay_plan` drives a collector through it with nothing in the
loop but allocation windows
(:meth:`~repro.gc.collector.Collector.reserve_window`) and root-slot
stores.  :class:`~repro.mutator.base.LifetimeDrivenMutator` allocates
only this way; the benchmark's ``alloc-decay`` times
:func:`execute_plan` on a whole run from :func:`build_allocation_plan`.
``tests/perf/test_plan.py`` pins both against a per-object reference
loop for every collector.  Two facts carry that equivalence:

* A window never outlives its reservation: ``reserve_window`` caps the
  window at the reserved space's free room, so no collection can fall
  *inside* a window — collections happen between windows, at exactly
  the clocks where per-object allocation would have triggered them.
* Releasing a root slot is invisible to the heap until the next
  collection, so releases due mid-window may be applied at the
  per-object points inside the window loop (as they are here) or at
  any point before the next reservation — the collector cannot tell.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.gc.collector import Collector
from repro.heap.roots import Frame

if TYPE_CHECKING:
    from repro.mutator.base import LifetimeSchedule

__all__ = [
    "AllocationPlan",
    "build_allocation_plan",
    "execute_plan",
    "plan_objects",
    "replay_plan",
]


@dataclass(frozen=True)
class AllocationPlan:
    """The precomputed choreography of one lifetime-driven run.

    Attributes:
        object_words: size of every allocated object.
        total_objects: number of allocations in the run.
        releases: per allocation, the root slots to clear immediately
            before it (objects whose scheduled death clock has
            arrived); almost always empty or a single slot.
        store_slots: per allocation, the root slot that holds the new
            object (LIFO reuse of released slots).
        slot_count: total slots the frame needs (its high-water mark).
    """

    object_words: int
    total_objects: int
    releases: tuple[tuple[int, ...], ...]
    store_slots: tuple[int, ...]
    slot_count: int

    @property
    def total_words(self) -> int:
        return self.total_objects * self.object_words


def plan_objects(
    schedule: LifetimeSchedule,
    count: int,
    object_words: int,
    clock: int,
    index: int,
    deaths: list[tuple[int, int]],
    free_slots: list[int],
    slot_count: int,
) -> AllocationPlan:
    """Plan ``count`` allocations, the first at ``clock`` with ordinal
    ``index``, advancing a run's ``deaths`` (``(death clock, slot)``
    min-heap) and ``free_slots`` (reused LIFO) in place.  Raises
    ``ValueError`` for a non-positive lifetime."""
    lifetime_for = schedule.lifetime_for
    releases: list[tuple[int, ...]] = []
    store_slots: list[int] = []
    for index in range(index, index + count):
        if deaths and deaths[0][0] <= clock:
            due = []
            while deaths and deaths[0][0] <= clock:
                due.append(heapq.heappop(deaths)[1])
            free_slots.extend(due)
            releases.append(tuple(due))
        else:
            releases.append(())
        if free_slots:
            slot = free_slots.pop()
        else:
            slot = slot_count
            slot_count += 1
        store_slots.append(slot)
        lifetime = lifetime_for(clock, index)
        if lifetime <= 0:
            raise ValueError(
                f"schedule produced non-positive lifetime {lifetime!r}"
            )
        clock += object_words
        heapq.heappush(deaths, (clock + lifetime, slot))
    return AllocationPlan(
        object_words, count, tuple(releases), tuple(store_slots), slot_count
    )


def build_allocation_plan(
    schedule: LifetimeSchedule,
    alloc_words: int,
    *,
    object_words: int = 1,
    start_clock: int = 0,
) -> AllocationPlan:
    """Plan a whole run: ``LifetimeDrivenMutator.run(alloc_words)`` on
    a fresh mutator at clock ``start_clock``, with the same
    ``lifetime_for`` calls in the same order."""
    if alloc_words < 1:
        raise ValueError(
            f"allocation budget must be positive, got {alloc_words!r}"
        )
    if object_words < 1:
        raise ValueError(
            f"object size must be at least 1 word, got {object_words!r}"
        )
    objects = -(-alloc_words // object_words)
    return plan_objects(
        schedule, objects, object_words, start_clock, 0, [], [], 0
    )


def replay_plan(
    collector: Collector, frame: Frame, plan: AllocationPlan
) -> None:
    """Allocate ``plan`` through bump windows, holding it in ``frame``
    (grown to the plan's slot high-water mark; empty slots are not
    roots).  On ``HeapExhausted`` the frame holds what per-object
    allocation would hold at that point."""
    slots = frame._cells
    slots.extend([None] * (plan.slot_count - len(slots)))
    releases = plan.releases
    store = plan.store_slots
    words = plan.object_words
    total = plan.total_objects
    reserve = collector.reserve_window
    done = 0
    while done < total:
        # The reservation may collect, so the releases due before the
        # window's first allocation land first; those due inside the
        # window land at their per-object points.
        for slot in releases[done]:
            slots[slot] = None
        first, end = reserve(total - done, words)
        count = end - first
        slots[store[done]] = first
        for index in range(done + 1, done + count):
            first += 1
            for slot in releases[index]:
                slots[slot] = None
            slots[store[index]] = first
        done += count


def execute_plan(collector: Collector, plan: AllocationPlan) -> Frame:
    """Push a frame and replay a whole-run plan into it; return the
    frame, still holding the plan's end-of-run live set.

    This is the benchmark's timed region: keep it free of anything
    that is not collector work or the minimal root bookkeeping.
    """
    frame = collector.roots.push_frame()
    replay_plan(collector, frame, plan)
    return frame
