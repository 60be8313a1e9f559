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

from repro.gc.collector import Collector, HeapExhausted
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
        if semispace_words <= 0:
            raise ValueError(
                f"semispace size must be positive, got {semispace_words!r}"
            )
        if load_factor <= 1.0:
            raise ValueError(f"load factor must exceed 1, got {load_factor!r}")
        if (
            max_semispace_words is not None
            and max_semispace_words < semispace_words
        ):
            raise ValueError(
                f"expansion cap {max_semispace_words} is below the "
                f"initial semispace size {semispace_words}"
            )
        self.max_semispace_words = max_semispace_words
        self._semispaces = (
            heap.add_space("sc-semispace-A", semispace_words),
            heap.add_space("sc-semispace-B", semispace_words),
        )
        self._active = 0
        self.auto_expand = auto_expand
        self.load_factor = load_factor
        #: Semispace size high-water mark, for Table 3's semiheap column.
        self.peak_semispace_words = semispace_words

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def tospace(self) -> FlatSpace:
        """The active semispace (where allocation happens)."""
        return self._semispaces[self._active]

    @property
    def fromspace(self) -> FlatSpace:
        """The idle semispace (empty between collections)."""
        return self._semispaces[1 - self._active]

    @property
    def semispace_words(self) -> int:
        return self.tospace.capacity or 0

    def managed_spaces(self) -> frozenset:
        return frozenset(self._semispaces)

    def export_state(self) -> dict:
        return {
            "semispace_capacity": self._semispaces[0].capacity,
            "active": self._active,
            "auto_expand": self.auto_expand,
            "load_factor": self.load_factor,
            "max_semispace_words": self.max_semispace_words,
            "peak_semispace_words": self.peak_semispace_words,
        }

    def import_state(self, state: dict) -> None:
        self.bump_limit = 0
        for space in self._semispaces:
            space.capacity = state["semispace_capacity"]
        self._active = state["active"]
        self.auto_expand = state["auto_expand"]
        self.load_factor = state["load_factor"]
        self.max_semispace_words = state["max_semispace_words"]
        self.peak_semispace_words = state["peak_semispace_words"]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        # Hot path: hoist the tospace property and inline FlatSpace.fits.
        # collect() flips the semispaces, so tospace is re-read after it.
        tospace = self._semispaces[self._active]
        capacity = tospace.capacity
        if capacity is not None and tospace.used + size > capacity:
            self.collect()
            tospace = self._semispaces[self._active]
            capacity = tospace.capacity
            if capacity is not None and tospace.used + size > capacity:
                # Post-collection policy: bounded expansion, then a
                # structured failure with occupancy diagnostics.
                if self.auto_expand:
                    self._grow_to_fit(
                        tospace,
                        size,
                        self.load_factor,
                        self.max_semispace_words,
                    )
                capacity = tospace.capacity
                if capacity is not None and tospace.used + size > capacity:
                    raise HeapExhausted(self, size)
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
        if self.metrics is not None:
            self.metrics.event(
                "collection-start", kind="full", clock=self.heap.clock
            )
        heap = self.heap
        old_from, old_to = self.fromspace, self.tospace
        used_before = old_to.used

        # Cheney scan: copy roots, then scan copied objects in FIFO
        # order, copying anything they reference that is still in
        # fromspace.  "Copying" is a move between spaces; ids persist.
        # The destination always fits (equal semispaces, live <= used),
        # so the kernel bypasses the heap's capacity-checked slow path.
        # Everything left behind is unreachable and abandoned.
        work, reclaimed = heap.cheney_evacuate(
            old_to, old_from, self._root_ids()
        )
        self.stats.words_copied += work

        self._active = 1 - self._active
        live = used_before - reclaimed
        self.stats.words_reclaimed += reclaimed
        self.stats.collections += 1
        self.stats.major_collections += 1
        self.stats.record_pause(
            clock=heap.clock,
            kind="full",
            work=work,
            reclaimed=reclaimed,
            live=live,
        )
        if self.auto_expand:
            self._keep_load_factor(
                self.tospace, live, self.load_factor, self.max_semispace_words
            )
        self._finish_collection()

    def describe(self) -> str:
        return (
            f"stop-and-copy, semispaces of {self.semispace_words} words"
        )
