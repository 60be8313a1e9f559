"""Incremental tri-color mark/sweep with bounded pauses.

The stop-the-world mark/sweep collector pays one pause proportional to
the live storage; under the paper's decay model the long-lived tail
makes that pause arbitrarily expensive.  This collector splits the
same mark work into *slices* bounded by a configurable word budget,
run at allocation safepoints, so every mutator-visible pause is
``O(budget)`` instead of ``O(live)``.

The algorithm is snapshot-at-the-beginning (SATB) tri-color marking:

* **Cycle open** (a safepoint where occupancy crosses
  ``trigger_fraction`` of capacity): reset every color to white via
  :meth:`~repro.heap.flat.FlatHeap.begin_mark_epoch`, record the
  epoch clock, and gray every root id.  The collection's obligation is
  fixed here: everything reachable *at this instant* will be marked.
* **Slices** (every later allocation safepoint while the cycle is
  open): pop gray objects, scan their current fields, gray white
  in-space targets, stop after ``slice_budget`` words of scanning.
  Each slice records a ``"slice"`` pause and emits a ``slice`` event.
* **Write barrier** (SATB deletion barrier): before any mutator store
  overwrites a slot, :meth:`remember_store_id` grays the slot's *old*
  referent if it is still white — a deleted edge can never hide a
  snapshot-reachable object from the wavefront.  The barrier fires for
  every store, including overwrites with non-pointers.
* **Allocate-black**: objects born while a cycle is open are
  classified by birth clock (``birth >= epoch``) and survive the
  cycle's sweep unconditionally; they are never pushed, scanned, or
  recolored, so allocation stays barrier-free.
* **Cycle close** (an explicit ``collect()`` or an allocation that no
  longer fits): drain the remaining wavefront, then sweep the space,
  freeing exactly the objects that are white *and* pre-epoch.

Because marking always drains before sweeping, the set of objects
scanned in one cycle is exactly the set reachable at the cycle's open
— independent of the slice budget and of how mutation interleaves
with the slices.  Every :class:`~repro.gc.stats.GcStats` counter is
therefore *budget-invariant*: replaying one script at budgets 1, 7,
64 and unbounded produces identical stats, survivor sets, and final
graphs (the ``budgets`` suite of :mod:`repro.verify.differential` is
the oracle).  Only the pause *log* differs — which is the point.

SATB keeps objects that die mid-cycle ("floating garbage") until the
next cycle, so when a finished cycle still cannot satisfy an
allocation the collector runs a second, now-precise collection from
the quiescent heap before expanding — the same degradation ladder as
mark-sweep, one rung longer.

This class is the only tri-color cycle: :mod:`repro.gc.concurrent`
inherits it whole and overrides only where the mark runs (the class
attributes below ``name`` and the hooks beside ``_open_cycle``).
"""

from __future__ import annotations

from typing import Collection

from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet

__all__ = ["BLACK", "GRAY", "WHITE", "IncrementalCollector"]

#: Tri-color mark states as stored in the heap's color word.
WHITE, GRAY, BLACK = 0, 1, 2


class IncrementalCollector(Collector):
    """Tri-color incremental mark/sweep over one bounded space.

    Args:
        heap: the simulated heap (the collector registers one space).
        roots: the machine root set.
        heap_words: initial capacity of the heap space in words.
        slice_budget: words of marking per slice; ``None`` drains the
            whole wavefront in one pause (stop-the-world behaviour
            with incremental bookkeeping).
        trigger_fraction: occupancy fraction at which a mark cycle
            opens, in ``(0, 1]``.
        auto_expand / load_factor / max_heap_words: the mark-sweep
            expansion policy, unchanged.
    """

    name = "incremental"
    state_fields = (
        "space_capacity",
        "slice_budget",
        "trigger_fraction",
        "auto_expand",
        "load_factor",
        "max_heap_words",
        "cycle_open",
        "epoch_clock",
        "gray_stack",
        "cycles_opened",
        "slices_run",
        "satb_grays",
    )

    #: Kind of the pause that closes a cycle.
    close_pause_kind = "full"
    #: Safepoints do mark work, so a live wavefront bounds a bump window.
    marks_at_safepoints = True
    #: The close marks from the gray stack alone (the auditor's
    #: prediction of that close follows suit).
    close_rescans_roots = False

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        heap_words: int,
        *,
        slice_budget: int | None = 64,
        trigger_fraction: float = 0.5,
        auto_expand: bool = True,
        load_factor: float = 2.0,
        max_heap_words: int | None = None,
    ) -> None:
        super().__init__(heap, roots)
        self._init_sizing(heap_words, auto_expand, load_factor, max_heap_words)
        if slice_budget is not None and slice_budget < 1:
            raise ValueError(
                f"slice budget must be >= 1 word or None, got {slice_budget!r}"
            )
        if not 0.0 < trigger_fraction <= 1.0:
            raise ValueError(
                f"trigger fraction must be in (0, 1], got {trigger_fraction!r}"
            )
        self.space = heap.add_space("inc-heap", heap_words)
        self.slice_budget = slice_budget
        self.trigger_fraction = trigger_fraction
        self.max_heap_words = max_heap_words
        #: True while a mark cycle is in progress (the heap is then an
        #: "in-cycle" snapshot: some garbage may be resident, and the
        #: auditor switches to the tri-color invariant checks).
        self.cycle_open = False
        #: Heap clock at the current cycle's open; objects with
        #: ``birth >= epoch_clock`` are allocate-black.
        self.epoch_clock = 0
        #: Gray wavefront: ids graying-marked but not yet scanned.
        self.gray_stack: list[int] = []
        #: Collector-side telemetry (deliberately *not* GcStats fields:
        #: slice/barrier activity depends on the budget, and GcStats
        #: must stay budget-invariant).
        self.cycles_opened = 0
        self.slices_run = 0
        self.satb_grays = 0

    def managed_spaces(self) -> frozenset:
        return frozenset((self.space,))

    def _export_structure(self) -> dict:
        # The color arena travels with the heap snapshot; the gray
        # stack is ordered (drain order is observable) and serialized
        # verbatim.
        return {
            "space_capacity": self.space.capacity,
            "gray_stack": list(self.gray_stack),
        }

    def _import_structure(self, state: dict) -> None:
        self.space.capacity = state["space_capacity"]
        self.gray_stack = [int(oid) for oid in state["gray_stack"]]

    # ------------------------------------------------------------------
    # Allocation (every call is a safepoint)
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        space = self.space
        capacity = space.capacity
        if capacity is not None and space.used + size > capacity:
            was_open = self.cycle_open
            self.collect()
            if was_open and not space.fits(size):
                # The finished cycle swept only to its snapshot, so
                # SATB floating garbage survived; a second collection
                # from the now-quiescent heap is precise.
                self.collect()
            self._expand_or_fail(space, size, self.max_heap_words)
        elif self.cycle_open:
            self._mark_slice()
        elif capacity is not None and space.used + size > int(
            capacity * self.trigger_fraction
        ):
            self._open_cycle(self.name)
            self._mark_slice()
        return space

    def _reserve_bump(self, size: int) -> FlatSpace:
        """Cycle closed: the limit is the mark trigger, past which
        ``_reserve`` opens a cycle.  Cycle open: 0 — every allocation is
        a safepoint that runs (or polls) a slice.  (Written out rather
        than layered on the base method: with a cycle open, which is
        most of the time, every allocation comes through here.)"""
        space = self._reserve(size)
        self.bump_space = space
        if self.cycle_open:
            self.bump_limit = 0
        else:
            capacity = space.capacity or 0
            self.bump_limit = min(
                capacity, int(capacity * self.trigger_fraction)
            )
        return space

    def reserve_window(self, max_objects: int, size: int = 1) -> tuple[int, int]:
        """Bump windows, capped so no per-object safepoint is skipped.

        The base window covers the space's whole free room, which
        would silently jump over the allocation that crosses the mark
        trigger and over every slice a per-object run would have
        paused for.  Three regimes keep windowed allocation
        observably identical to ``max_objects`` individual
        :meth:`allocate_id` calls (the plan-equivalence pin):

        * cycle open, wavefront live, ``marks_at_safepoints`` — every
          later allocation would run its own slice, so the window is one
          object (a safepoint that only polls is free: full window);
        * cycle open, wavefront drained — later safepoints are no-ops
          (nothing between window allocations can re-gray: there are
          no heap stores inside a window), so the full window is safe;
        * cycle closed — the window stops at the last object that
          keeps occupancy at or under the trigger (``bump_limit``); the
          next reservation then opens the cycle exactly where a
          per-object run would have.
        """
        if max_objects <= 0:
            raise ValueError(
                f"window must cover >= 1 object, got {max_objects!r}"
            )
        space = self._reserve_bump(size)
        count = space.free // size
        if count > max_objects:
            count = max_objects
        if self.cycle_open:
            if self.gray_stack and self.marks_at_safepoints:
                count = 1
        elif space.capacity is not None:
            room = (self.bump_limit - space.used) // size
            if room < count:
                # _reserve just declined to open a cycle, so this
                # first object fits under the trigger: room >= 1.
                count = max(1, room)
        first, end = self.heap.bulk_allocate(count, size, space)
        stats = self.stats
        stats.words_allocated += count * size
        stats.objects_allocated += count
        return first, end

    # ------------------------------------------------------------------
    # The tri-color cycle
    # ------------------------------------------------------------------

    def _open_cycle(self, kind: str) -> None:
        """Begin a new mark epoch and start marking its snapshot."""
        heap = self.heap
        heap.begin_mark_epoch()
        self.epoch_clock = heap.clock
        self.cycle_open = True
        self.cycles_opened += 1
        self.gray_stack.clear()
        self._start_collection(kind)
        self._begin_mark()

    def _begin_mark(self) -> None:
        """Gray every root: the wavefront starts on the color arena."""
        heap = self.heap
        gray = self.gray_stack
        space = self.space
        for rid in self._root_ids():
            if (
                heap.space_if_live(rid) is space
                and heap.color_of(rid) == WHITE
            ):
                heap.set_color(rid, GRAY)
                gray.append(rid)

    def _finish_mark(self) -> tuple[int, Collection[int]]:
        """Complete the open cycle's mark.  Returns the words marked
        inside this pause and the marks kept off the color arena (none:
        draining the wavefront blackens in place)."""
        return self._scan(None), ()

    def _cycle_closed(self, work: int, reclaimed: int, live: int) -> None:
        """After the sweep, before resizing and the pause record."""

    def pending_marked_ids(self) -> frozenset[int]:
        """Marks the open cycle holds off the color arena: none here."""
        return frozenset()

    def _scan(self, limit: int | None) -> int:
        """Scan gray objects until the wavefront drains or ``limit``
        words have been examined; returns the words scanned.

        The loop lives in the heap (``drain_gray``) so it can hoist
        its arena lookups — per-ref method calls here would cost every
        mark slice a call per reference.
        """
        work = self.heap.drain_gray(
            self.gray_stack, self.space, self.epoch_clock, limit
        )
        self.stats.words_marked += work
        return work

    def _mark_slice(self) -> None:
        """One budgeted mark increment at an allocation safepoint."""
        if not self.gray_stack:
            return  # wavefront drained; the cycle awaits its sweep
        work = self._scan(self.slice_budget)
        self.slices_run += 1
        if self.metrics is not None:
            self.metrics.event(
                "slice",
                clock=self.heap.clock,
                budget=self.slice_budget,
                work=work,
                backlog=len(self.gray_stack),
                live=self.space.used,
            )
        self._end_pause("slice", work, 0, self.space.used, count=None)

    # ------------------------------------------------------------------
    # Write barrier (SATB deletion barrier)
    # ------------------------------------------------------------------

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        """Gray the overwritten slot's old referent while marking.

        ``target_id`` (the new value) is irrelevant to SATB — only the
        edge being *deleted* can hide a snapshot-reachable object.
        """
        if not self.cycle_open:
            return
        heap = self.heap
        entry = heap.slot_ref(src_id, slot)
        if entry is None:
            return  # old value was not a pointer
        old_ref = entry[1]
        if (
            heap.space_if_live(old_ref) is self.space
            and heap.birth_of(old_ref) < self.epoch_clock
            and heap.color_of(old_ref) == WHITE
        ):
            heap.set_color(old_ref, GRAY)
            self.gray_stack.append(old_ref)
            self.satb_grays += 1

    # ------------------------------------------------------------------
    # Collection (cycle close)
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Finish the open cycle (or run a whole one) and sweep."""
        heap = self.heap
        space = self.space
        if not self.cycle_open:
            self._open_cycle("full")
        work, marked_ids = self._finish_mark()

        self.stats.words_swept += space.used
        reclaimed = heap.sweep_epoch(space, self.epoch_clock, marked_ids)
        live = space.used

        self._cycle_closed(work, reclaimed, live)
        self.cycle_open = False
        self.gray_stack.clear()
        self._keep_sized(space, live, self.max_heap_words)
        self._end_pause(self.close_pause_kind, work, reclaimed, live)

    def on_static_promotion(self) -> None:
        """A full static promotion moved/freed everything under us;
        abandon any in-progress cycle (its snapshot is meaningless)."""
        super().on_static_promotion()
        self.cycle_open = False
        self.gray_stack.clear()

    def describe(self) -> str:
        return (
            f"{self.name} tri-color mark-sweep, heap "
            f"{self.space.capacity} words, {self._describe_marking()}, "
            f"trigger {self.trigger_fraction}"
        )

    def _describe_marking(self) -> str:
        if self.slice_budget is None:
            return "slice budget unbounded"
        return f"slice budget {self.slice_budget}w"
