"""Non-generational semispace stop-and-copy collection (Cheney scan).

This is Larceny's baseline collector in Table 3: the heap is two
semispaces; allocation fills the active one; when it is full, every
object reachable from the roots is copied to the other semispace in
breadth-first (Cheney) order and the roles flip.  Collection work is
proportional to *live* storage only — dead objects are abandoned, never
touched — which is the property that makes stop-and-copy attractive for
young generations (Section 7).

The simulator "copies" by moving objects between spaces; object ids
are stable, so there are no forwarding pointers to chase, but the scan
order and the work accounting (one copy per live object, one scan per
copied word) follow Cheney's algorithm exactly.
"""

from __future__ import annotations

from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet

__all__ = ["StopAndCopyCollector"]


class StopAndCopyCollector(Collector):
    """A classic two-semispace stop-and-copy collector.

    Args:
        heap: the simulated heap (the collector registers two spaces).
        roots: the machine root set.
        semispace_words: capacity of each semispace in words.  The
            paper's "semiheap size" column of Table 3 is this quantity.
        auto_expand: grow both semispaces when, after a collection,
            live storage exceeds ``semispace capacity / load_factor``.
        load_factor: target ratio of semispace size to live storage
            when auto-expanding.  Larceny's stop-and-copy collector
            sized its semiheaps this way for Table 3.
        max_semispace_words: optional hard cap on each semispace's
            expansion; when growth hits the cap an unsatisfiable
            allocation raises a structured
            :class:`~repro.gc.collector.HeapExhausted`.
    """

    name = "stop-and-copy"
    state_fields = (
        "semispace_capacity",
        "active",
        "auto_expand",
        "load_factor",
        "max_semispace_words",
        "peak_semispace_words",
    )

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        semispace_words: int,
        *,
        auto_expand: bool = True,
        load_factor: float = 2.0,
        max_semispace_words: int | None = None,
    ) -> None:
        super().__init__(heap, roots)
        self._init_sizing(
            semispace_words,
            auto_expand,
            load_factor,
            max_semispace_words,
            unit="semispace",
        )
        self.max_semispace_words = max_semispace_words
        self._semispaces = (
            heap.add_space("sc-semispace-A", semispace_words),
            heap.add_space("sc-semispace-B", semispace_words),
        )
        #: Index of the semispace allocation happens in.
        self.active = 0
        #: Semispace size high-water mark, for Table 3's semiheap column.
        self.peak_semispace_words = semispace_words

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def tospace(self) -> FlatSpace:
        """The active semispace (where allocation happens)."""
        return self._semispaces[self.active]

    @property
    def fromspace(self) -> FlatSpace:
        """The idle semispace (empty between collections)."""
        return self._semispaces[1 - self.active]

    @property
    def semispace_words(self) -> int:
        return self.tospace.capacity or 0

    def managed_spaces(self) -> frozenset:
        return frozenset(self._semispaces)

    def _export_structure(self) -> dict:
        return {"semispace_capacity": self._semispaces[0].capacity}

    def _import_structure(self, state: dict) -> None:
        for space in self._semispaces:
            space.capacity = state["semispace_capacity"]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        # Hot path: hoist the tospace property and inline FlatSpace.fits.
        # collect() flips the semispaces, so tospace is re-read after it.
        tospace = self._semispaces[self.active]
        capacity = tospace.capacity
        if capacity is not None and tospace.used + size > capacity:
            self.collect()
            tospace = self._semispaces[self.active]
            self._expand_or_fail(tospace, size, self.max_semispace_words)
        return tospace

    def _set_capacity(self, space: FlatSpace, words: int) -> None:
        """The semispaces are sized as a pair."""
        super()._set_capacity(space, words)
        for semispace in self._semispaces:
            semispace.capacity = words
        if words > self.peak_semispace_words:
            self.peak_semispace_words = words

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Flip semispaces, Cheney-copying the live objects."""
        self._start_collection("full")
        old_from, old_to = self.fromspace, self.tospace
        used_before = old_to.used

        # Cheney scan: copy roots, then scan copied objects in FIFO
        # order, copying anything they reference that is still in
        # fromspace.  "Copying" is a move between spaces; ids persist.
        # The destination always fits (equal semispaces, live <= used),
        # so the kernel bypasses the heap's capacity-checked slow path.
        # Everything left behind is unreachable and abandoned.
        work, reclaimed = self.heap.cheney_evacuate(
            old_to, old_from, self._root_ids()
        )
        self.stats.words_copied += work

        self.active = 1 - self.active
        live = used_before - reclaimed
        self._keep_sized(self.tospace, live, self.max_semispace_words)
        self._end_pause("full", work, reclaimed, live)

    def describe(self) -> str:
        return (
            f"stop-and-copy, semispaces of {self.semispace_words} words"
        )
