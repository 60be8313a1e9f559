"""The non-predictive generational collector (Section 4 of the paper).

The step machine — ``k`` equal steps, ``1..j`` protected, collect
``j+1..k``, renumber, choose a new ``j`` — and its remembered-set
discipline are :mod:`repro.gc.steps`.  This leaf is the paper's plain
Section 4 collector: the mutator allocates directly into the steps.

Allocation always occurs in the highest-numbered step that has free
space, so the heap fills from step ``k`` downward; a collection runs
when every step is full.  Table 1 of the paper steps through exactly
this machinery and the ``table1`` experiment reproduces it with this
class.

Two ways of finding the protected steps' pointers into the collectable
steps are provided:

* ``use_remset=True`` (default) — the machine's remembered set, fed by
  this class's write barrier;
* ``use_remset=False`` — every object in the protected steps is
  scanned as a root (the expensive alternative §8.6 mentions); useful
  as an ablation baseline.
"""

from __future__ import annotations

from repro.core.policy import TuningPolicy
from repro.gc.collector import HeapExhausted
from repro.gc.steps import StepCollector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet

__all__ = ["NonPredictiveCollector"]


class NonPredictiveCollector(StepCollector):
    """The 2-generation non-predictive step collector of Section 4.

    Args (the first six as for :class:`~repro.gc.steps.StepCollector`):
        use_remset: trace protected-step roots from the remembered set
            (default) or by scanning the protected steps wholesale.
        algorithm: the basic algorithm used on the collectable steps —
            "stop-and-copy" (the prototype's) packs survivors into the
            highest renumbered steps; "mark-sweep" frees the dead in
            place and compacts only occasionally, the alternative §8
            says the authors intended to add ("a mark/sweep algorithm
            with occasional compaction").
        compaction_threshold: mark-sweep only — compact when fewer
            than this many leading renumbered steps are empty (the
            j-selection rule needs an empty prefix to protect).
    """

    name = "non-predictive"
    step_space_prefix = "np-step"
    steps_remset_name = "np-steps"
    state_fields = StepCollector.state_fields + (
        "use_remset",
        "algorithm",
        "compaction_threshold",
        "compactions",
        "alloc_index",
        "remset",
    )

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        step_count: int,
        step_words: int,
        *,
        policy: TuningPolicy | None = None,
        initial_j: int = 0,
        use_remset: bool = True,
        algorithm: str = "stop-and-copy",
        compaction_threshold: int | None = None,
    ) -> None:
        if algorithm not in ("stop-and-copy", "mark-sweep"):
            raise ValueError(
                f"algorithm must be 'stop-and-copy' or 'mark-sweep', "
                f"got {algorithm!r}"
            )
        super().__init__(
            heap, roots, step_count, step_words,
            policy=policy, initial_j=initial_j,
        )
        #: The machine's remembered set, under this collector's name
        #: for it.
        self.remset = self.remset_steps
        self.use_remset = use_remset
        self.algorithm = algorithm
        self.compaction_threshold = (
            max(1, step_count // 4)
            if compaction_threshold is None
            else compaction_threshold
        )
        #: Compactions performed (mark-sweep mode only).
        self.compactions = 0
        # Allocation proceeds from the highest-numbered step downward;
        # steps above the cursor are closed until the next collection.
        self.alloc_index = step_count - 1

    def _export_structure(self) -> dict:
        return {
            **super()._export_structure(),
            "remset": self.remset.export_state(),
        }

    def _import_structure(self, state: dict) -> None:
        super()._import_structure(state)
        self.remset.import_state(state["remset"])

    def _remember_crossings(self, obj_ids, j: int, record) -> None:
        if self.use_remset:  # scan mode keeps no remembered set
            super()._remember_crossings(obj_ids, j, record)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        if size > self.step_words:
            raise ValueError(
                f"object of {size} words exceeds the step size "
                f"{self.step_words}"
            )
        # Hot path: the stop-and-copy bump cursor from _allocation_step,
        # inlined with FlatSpace.fits expanded (steps always have a
        # capacity).  The mark-sweep by-number search stays out of line.
        space = None
        if self.algorithm == "mark-sweep":
            space = self._allocation_step(size)
        else:
            steps = self.steps
            alloc_index = self.alloc_index
            while alloc_index >= 0:
                candidate = steps[alloc_index]
                if candidate.used + size <= candidate.capacity:
                    space = candidate
                    break
                alloc_index -= 1
            self.alloc_index = alloc_index
        if space is None:
            self.collect()
            space = self._allocation_step(size)
            if space is None and self.j > 0:
                # Emergency: protect nothing and collect every step —
                # the most memory a non-predictive collection can ever
                # free — before reporting exhaustion.
                self.reduce_j(0)
                self.collect()
                space = self._allocation_step(size)
            if space is None:
                raise HeapExhausted(self, size)
        return space

    def _reserve_bump(self, size: int) -> FlatSpace:
        """The cursor step and its capacity in bump-cursor mode.  The
        mark-sweep search is by size — a smaller request may fit a
        higher step than the one just chosen — so that mode publishes
        no fast path."""
        space = super()._reserve_bump(size)
        if self.algorithm == "mark-sweep":
            self.bump_limit = 0
        return space

    def _allocation_step(self, size: int) -> FlatSpace | None:
        """The highest-numbered step with room.

        Stop-and-copy mode uses a bump cursor: a step that cannot fit
        the request is closed and its sliver wasted until the next
        collection.  Mark-sweep mode allocates from free lists, so a
        sweep reopens holes anywhere and the search is by number, not
        by cursor.
        """
        if self.algorithm == "mark-sweep":
            for index in range(self.step_count - 1, -1, -1):
                if self.steps[index].fits(size):
                    return self.steps[index]
            return None
        while self.alloc_index >= 0:
            space = self.steps[self.alloc_index]
            if space.fits(size):
                return space
            self.alloc_index -= 1
        return None

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        """Remember protected-to-collectable stores (situation 6 of §8.4).

        The paper notes the remembered set "does not have to contain
        objects in steps j+1..k that point into steps 1..j", so only
        stores crossing the boundary in the young-to-old direction are
        recorded.
        """
        if target_id is None or not self.use_remset:
            return
        index_of = self._step_index_of
        src_space = self.heap.space_if_live(src_id)
        dst_space = self.heap.space_if_live(target_id)
        if src_space is None or dst_space is None:
            return
        src = index_of.get(src_space)
        dst = index_of.get(dst_space)
        if src is None or dst is None:
            return
        # 0-based equivalent of "src <= j < dst" on 1-based step numbers.
        if src < self.j <= dst:
            self.remset.record_barrier(src_id, slot)
            self.stats.remset_entries_created += 1

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def _protected_seeds(
        self, protected: list[FlatSpace], region: set[FlatSpace]
    ) -> list[int]:
        if self.use_remset:
            return super()._protected_seeds(protected, region)
        # Scan mode: every protected object's pointers into the region.
        heap = self.heap
        seeds: list[int] = []
        for space in protected:
            for obj_id in space.object_ids():
                self.stats.roots_traced += heap.size_of(obj_id)
                for _, ref in heap.ref_slots(obj_id):
                    if heap.space_of(ref) in region:
                        seeds.append(ref)
        return seeds

    def _reclaim(
        self,
        condemned: list[FlatSpace],
        protected: list[FlatSpace],
        marked: set[int],
    ) -> tuple[int, int]:
        if self.algorithm == "mark-sweep":
            outcome = self._sweep_in_place(condemned, protected, marked)
        else:
            outcome = self._evacuate_survivors(condemned, protected, marked)
        # Allocation restarts at the highest step the survivors left
        # room in.
        self.alloc_index = self._highest_free_index()
        return outcome

    def on_static_promotion(self) -> None:
        super().on_static_promotion()
        self.alloc_index = self._highest_free_index()

    def _evacuate_survivors(
        self,
        collectable: list[FlatSpace],
        protected: list[FlatSpace],
        marked: set[int],
    ) -> tuple[int, int]:
        """Stop-and-copy survivor phase: detach, renumber, repack."""
        heap = self.heap
        survivors, reclaimed = self._extract_survivors(collectable, marked)
        self._renumber(collectable + protected)

        # Pack survivors into the highest-numbered renumbered steps
        # with free space (they all fit: survivors occupy at most the
        # collectable capacity they came from).
        top = len(collectable) - 1
        live, placed = self._pack_survivors(survivors, top)
        # Bump-pointer slivers can strand a large survivor even though
        # total capacity suffices; it and everything after it fall back
        # to first fit over the renumbered steps.
        steps = self.steps
        for oid in survivors[placed:]:
            size = heap.size_of(oid)
            for index in range(top, -1, -1):
                space = steps[index]
                if space.used + size <= space.capacity:
                    heap.place_id(oid, space, size)
                    break
            else:
                raise RuntimeError(
                    "survivors overflow the renumbered steps; "
                    "step accounting is corrupt"
                )
            live += size
        self.stats.words_copied += live
        return live, reclaimed

    def _sweep_in_place(
        self,
        collectable: list[FlatSpace],
        protected: list[FlatSpace],
        marked: set[int],
    ) -> tuple[int, int]:
        """Mark/sweep survivor phase: free the dead where they lie.

        Marking is charged per live word, sweeping per examined word.
        Survivors stay in their steps; if too few leading renumbered
        steps are empty for the j-selection rule to protect anything,
        an occasional compaction packs survivors toward the highest
        steps (charged as copying).
        """
        heap = self.heap
        live = 0
        reclaimed = 0
        for space in collectable:
            self.stats.words_swept += space.used
            reclaimed += heap.partition_space(space, marked)[1]
            live += space.used
            self.stats.words_marked += space.used

        self._renumber(collectable + protected)

        empty = 0
        for space in self.steps:
            if not space.is_empty():
                break
            empty += 1
        if empty < self.compaction_threshold:
            self._compact(len(protected))
        return live, reclaimed

    def _compact(self, j: int) -> None:
        """Empty the leading steps by sliding their survivors upward.

        Only the objects in the first ``compaction_threshold`` steps
        move (into the highest steps with room), so the compaction
        cost is a fraction of the live storage — "occasional
        compaction", not a full slide.
        """
        heap = self.heap
        prefix = min(self.compaction_threshold, self.step_count - j)
        movers: list[int] = []
        for space in self.steps[:prefix]:
            movers.extend(heap.extract_all(space))
        if not movers:
            return
        copied, placed = self._pack_survivors(
            movers, self.step_count - j - 1, floor=prefix
        )
        self.stats.words_copied += copied
        # No room above: put the stragglers back (first fit in the
        # prefix); the empty prefix is simply shorter this cycle.
        for straggler in movers[placed:]:
            size = heap.size_of(straggler)
            for space in self.steps[:prefix]:
                if space.fits(size):
                    heap.place_id(straggler, space, size)
                    break
            else:
                raise RuntimeError(
                    "compaction overflow; step accounting is corrupt"
                )
        self.compactions += 1

    def _highest_free_index(self) -> int:
        for index in range(self.step_count - 1, -1, -1):
            if self.steps[index].free > 0:
                return index
        return -1

    def describe(self) -> str:
        return (
            f"non-predictive ({self.step_count} steps x {self.step_words} "
            f"words, j={self.j})"
        )
