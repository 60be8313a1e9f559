"""Plan-driven benchmark workloads: the decay mutator, choreographed.

The allocation-throughput benchmark wants to time the *collector* —
reservation, collection, copying — not the synthetic workload driving
it.  Most of a :class:`~repro.mutator.base.LifetimeDrivenMutator`
step is bookkeeping whose outcome is fully deterministic before the
run starts: the lifetime drawn for allocation *i*, its death clock,
which root slot frees before which allocation.  None of it depends on
collector state, because the simulated clock advances only on
allocation — exactly ``object_words`` per object — so allocation *i*
always happens at clock ``start + i * object_words``.

:func:`build_allocation_plan` replays that choreography once, untimed,
into flat tuples; :func:`execute_plan` then drives a collector through
the identical workload with nothing in the timed loop but allocation
windows (:meth:`~repro.gc.collector.Collector.reserve_window`, which
the heap materializes at C speed) and root-slot stores.
Observable collector state afterwards — collections, pause log,
GcStats, heap fingerprint — is identical to driving
``LifetimeDrivenMutator.run`` over the same schedule, which
``tests/perf/test_plan.py`` pins for every collector.

Two facts carry the equivalence argument:

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

from repro.gc.collector import Collector
from repro.heap.roots import Frame
from repro.mutator.base import LifetimeSchedule

__all__ = ["AllocationPlan", "build_allocation_plan", "execute_plan"]


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
            object — the same LIFO free-slot reuse the mutator does.
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


def build_allocation_plan(
    schedule: LifetimeSchedule,
    alloc_words: int,
    *,
    object_words: int = 1,
    start_clock: int = 0,
) -> AllocationPlan:
    """Precompute the death/slot choreography of a mutator run.

    Replicates ``LifetimeDrivenMutator.run(alloc_words)`` step for
    step — the same clock reads, the same ``lifetime_for`` call order
    (so the schedule's RNG stream is untouched), the same min-heap of
    deaths and LIFO slot reuse — without touching any heap.
    """
    if alloc_words < 1:
        raise ValueError(
            f"allocation budget must be positive, got {alloc_words!r}"
        )
    if object_words < 1:
        raise ValueError(
            f"object size must be at least 1 word, got {object_words!r}"
        )
    total = -(-alloc_words // object_words)
    releases: list[tuple[int, ...]] = []
    store_slots: list[int] = []
    deaths: list[tuple[int, int]] = []
    free_slots: list[int] = []
    slot_count = 0
    clock = start_clock
    for index in range(total):
        due: list[int] = []
        while deaths and deaths[0][0] <= clock:
            _, slot = heapq.heappop(deaths)
            free_slots.append(slot)
            due.append(slot)
        releases.append(tuple(due))
        if free_slots:
            slot = free_slots.pop()
        else:
            slot = slot_count
            slot_count += 1
        store_slots.append(slot)
        lifetime = schedule.lifetime_for(clock, index)
        if lifetime <= 0:
            raise ValueError(
                f"schedule produced non-positive lifetime {lifetime!r}"
            )
        heapq.heappush(deaths, (clock + object_words + lifetime, slot))
        clock += object_words
    return AllocationPlan(
        object_words=object_words,
        total_objects=total,
        releases=tuple(releases),
        store_slots=tuple(store_slots),
        slot_count=slot_count,
    )


def execute_plan(collector: Collector, plan: AllocationPlan) -> Frame:
    """Drive ``collector`` through a precomputed plan, windowed.

    Pushes one frame on the collector's root set (pre-sized to the
    plan's slot high-water mark; empty slots are invisible to root
    enumeration) and allocates the whole plan through bump windows.
    Returns the frame, still holding the plan's end-of-run live set —
    callers wanting the equilibrium graph for latency probes use it
    as-is, then clear it.

    This is the benchmark's timed region: keep it free of anything
    that is not collector work or the minimal root bookkeeping.
    """
    frame = collector.roots.push_frame()
    slots = frame._cells
    slots.extend([None] * plan.slot_count)
    releases = plan.releases
    store = plan.store_slots
    words = plan.object_words
    total = plan.total_objects
    reserve = collector.reserve_window
    done = 0
    while done < total:
        # The reservation below may collect, so the releases due before
        # the window's first allocation must land first — exactly where
        # the per-object mutator applies them.  Releases due *inside*
        # the window are invisible to the heap until the next
        # collection, so applying them at their per-object points in
        # the loop below preserves equivalence.
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
    return frame
