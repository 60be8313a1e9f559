"""Non-generational mark/sweep collection.

This is the paper's analytical baseline: Section 5 derives its
mark/cons ratio as ``1 / (L - 1)`` for inverse load factor ``L``.  The
collector manages a single bounded space; when an allocation does not
fit it marks everything reachable from the roots, sweeps the space,
and retries.

Sizing follows the paper's experimental setup: either a fixed heap
size, or (the default) automatic sizing that keeps the heap at
``load_factor`` times the live storage after each collection, which is
how Larceny's collectors "chose" their heap sizes in Table 3.
"""

from __future__ import annotations

from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet

__all__ = ["MarkSweepCollector"]


class MarkSweepCollector(Collector):
    """A classic stop-the-world, non-generational mark/sweep collector.

    Args:
        heap: the simulated heap (the collector registers one space).
        roots: the machine root set.
        heap_words: capacity of the heap space in words.
        auto_expand: when true, the heap grows after a collection if
            the surviving live storage exceeds ``capacity /
            load_factor``, keeping the inverse load factor at least
            ``load_factor``.
        load_factor: target inverse load factor ``L`` for auto
            expansion (heap size as a multiple of live storage).
        max_heap_words: optional hard cap on expansion.  When growth
            would exceed it the heap grows only up to the cap, and an
            allocation that still does not fit raises a structured
            :class:`~repro.gc.collector.HeapExhausted` instead of
            expanding without bound.
    """

    name = "mark-sweep"
    state_fields = (
        "space_capacity",
        "auto_expand",
        "load_factor",
        "max_heap_words",
    )

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        heap_words: int,
        *,
        auto_expand: bool = True,
        load_factor: float = 2.0,
        max_heap_words: int | None = None,
    ) -> None:
        super().__init__(heap, roots)
        self._init_sizing(heap_words, auto_expand, load_factor, max_heap_words)
        self.space = heap.add_space("ms-heap", heap_words)
        self.max_heap_words = max_heap_words

    def managed_spaces(self) -> frozenset:
        return frozenset((self.space,))

    def _export_structure(self) -> dict:
        return {"space_capacity": self.space.capacity}

    def _import_structure(self, state: dict) -> None:
        self.space.capacity = state["space_capacity"]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        # Hot path: inline FlatSpace.fits.
        space = self.space
        capacity = space.capacity
        if capacity is not None and space.used + size > capacity:
            # The collection is the emergency step; what is left of the
            # policy is bounded expansion, then a structured failure
            # with occupancy diagnostics.
            self.collect()
            self._expand_or_fail(space, size, self.max_heap_words)
        return space

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Mark everything reachable from the roots, then sweep."""
        self._start_collection("full")
        work_before = self.stats.words_marked
        marked = self._trace_region({self.space}, self._root_ids())

        # Sweep: walk every resident object; dead ones are freed.  The
        # sweep examines the whole used portion of the heap, which we
        # account separately from marking (sweeping is cheap per word
        # but not free; the mark/cons ratio deliberately excludes it,
        # as in the paper).
        self.stats.words_swept += self.space.used
        _, reclaimed = self.heap.partition_space(self.space, marked)
        live = self.space.used
        self._keep_sized(self.space, live, self.max_heap_words)
        self._end_pause(
            "full", self.stats.words_marked - work_before, reclaimed, live
        )

    def describe(self) -> str:
        return (
            f"mark-sweep, heap {self.space.capacity} words, "
            f"L>={self.load_factor if self.auto_expand else 'fixed'}"
        )
