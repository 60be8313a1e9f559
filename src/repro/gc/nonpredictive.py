"""The non-predictive generational collector (Section 4 of the paper).

The collector divides its heap into ``k`` steps of equal size.  Step 1
is the youngest, step ``k`` the oldest.  A tuning parameter ``j``
determines how many of the youngest steps are *protected* from the
next collection: the collector simply assumes everything in steps
1..j is live.

Allocation always occurs in the highest-numbered step that has free
space, so the heap fills from step ``k`` downward.  When every step is
full:

1. steps ``j+1..k`` are collected as a single generation, survivors
   being packed into the highest-numbered steps that have free space;
2. steps ``j+1..k`` are renumbered as the new steps ``1..k-j`` and the
   original steps ``1..j`` become steps ``k-j+1..k``;
3. a new ``j`` is chosen (Section 8.1 recommends one that leaves steps
   1..j empty and satisfies ``j <= k/2``).

The collector never examines object ages and never predicts lifetimes;
its entire policy is *where* free space sits in the step order.  Table
1 of the paper steps through exactly this machinery and the
``table1`` experiment reproduces it with this class.

Root discipline (Sections 8.3/8.6): pointers from protected steps into
collectable steps must be treated as roots.  Two modes are provided:

* ``use_remset=True`` (default) — the write barrier records stores of
  a pointer from a currently protected step into a currently
  collectable step (situation 6 of §8.4).  This is complete because
  after every collection the protected steps are empty (objects can
  only enter them by allocation, whose initializing stores the barrier
  sees), so the remembered set can simply be cleared at the end of
  each collection.  The one hole is mid-cycle *reduction* of ``j``
  (§8.1 allows it at any time): pointers created while both ends were
  protected become protected-to-collectable when the boundary moves,
  so :meth:`reduce_j` rescans the remaining protected steps to restore
  the invariant.
* ``use_remset=False`` — every object in the protected steps is
  scanned as a root (the expensive alternative §8.6 mentions); useful
  as an ablation baseline.
"""

from __future__ import annotations

from repro.core.policy import HalfEmptyPolicy, StepSnapshot, TuningPolicy
from repro.gc.collector import Collector, HeapExhausted
from repro.heap.heap import SimulatedHeap
from repro.heap.object_model import HeapObject
from repro.heap.remset import RememberedSet
from repro.heap.roots import RootSet
from repro.heap.space import Space

__all__ = ["NonPredictiveCollector"]


class NonPredictiveCollector(Collector):
    """The 2-generation non-predictive step collector of Section 4.

    Args:
        heap: the simulated heap (registers ``step_count`` spaces).
        roots: the machine root set.
        step_count: ``k``, the number of equal-size steps.
        step_words: capacity of each step in words.
        policy: how to choose ``j`` after each collection; defaults to
            the paper's ``j = floor(l/2)`` rule (Section 8.1).
        initial_j: ``j`` to use before the first collection.
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

    def __init__(
        self,
        heap: SimulatedHeap,
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
        super().__init__(heap, roots)
        if algorithm not in ("stop-and-copy", "mark-sweep"):
            raise ValueError(
                f"algorithm must be 'stop-and-copy' or 'mark-sweep', "
                f"got {algorithm!r}"
            )
        if step_count < 2:
            raise ValueError(f"need at least 2 steps, got {step_count!r}")
        if step_words <= 0:
            raise ValueError(
                f"step size must be positive, got {step_words!r}"
            )
        if not 0 <= initial_j <= step_count // 2:
            raise ValueError(
                f"initial j must be in [0, k/2] = [0, {step_count // 2}], "
                f"got {initial_j!r}"
            )
        #: Steps in logical order: index 0 is step 1 (youngest).
        self.steps: list[Space] = [
            heap.add_space(f"np-step-{index}", step_words)
            for index in range(step_count)
        ]
        self.step_words = step_words
        self.policy = policy if policy is not None else HalfEmptyPolicy()
        self._j = 0
        self.j = initial_j
        self.use_remset = use_remset
        self.algorithm = algorithm
        self.compaction_threshold = (
            max(1, step_count // 4)
            if compaction_threshold is None
            else compaction_threshold
        )
        #: Compactions performed (mark-sweep mode only).
        self.compactions = 0
        self.remset = RememberedSet("np-steps")
        # Allocation proceeds from the highest-numbered step downward;
        # steps above the cursor are closed until the next collection.
        self._alloc_index = step_count - 1
        # Step lookup keyed by space identity: consulted on every
        # barrier store, rebuilt only at renumbering time.  (Keying by
        # name would pay a string hash per store for a map that cannot
        # change between renumberings.)
        self._step_index_of: dict[Space, int] = {
            space: index for index, space in enumerate(self.steps)
        }

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def j(self) -> int:
        """The tuning parameter: steps 1..j are protected."""
        return self._j

    @j.setter
    def j(self, value: int) -> None:
        self._j = value
        self._refresh_partition()

    def _refresh_partition(self) -> None:
        """Rebuild the cached protected/collectable split.

        Invalidated whenever ``j`` changes or the steps are renumbered;
        between those events the partition is immutable, so per-
        collection consumers read the cache instead of re-slicing and
        re-summing the step list.
        """
        j = self._j
        self._protected_list = self.steps[:j]
        self._collectable_list = self.steps[j:]
        self._protected_set = set(self._protected_list)

    def step_number(self, obj: HeapObject) -> int | None:
        """The 1-based step number an object resides in, or None."""
        space = obj.space
        if space is None:
            return None
        index = self._step_index_of.get(space)
        return None if index is None else index + 1

    def step_used(self) -> list[int]:
        """Words used per step, youngest first (Table 1's columns)."""
        return [space.used for space in self.steps]

    def managed_spaces(self) -> frozenset[Space]:
        return frozenset(self.steps)

    def export_state(self) -> dict:
        # Renumbering reorders ``steps`` without renaming the spaces,
        # so the logical order is recoverable from the name list alone.
        return {
            "step_order": [space.name for space in self.steps],
            "step_words": self.step_words,
            "j": self._j,
            "use_remset": self.use_remset,
            "algorithm": self.algorithm,
            "compaction_threshold": self.compaction_threshold,
            "compactions": self.compactions,
            "alloc_index": self._alloc_index,
            "remset": self.remset.export_state(),
        }

    def import_state(self, state: dict) -> None:
        if sorted(state["step_order"]) != sorted(
            space.name for space in self.steps
        ):
            raise ValueError(
                f"snapshot steps {state['step_order']} do not match "
                f"collector steps {[s.name for s in self.steps]}"
            )
        heap_space = self.heap.space
        self.steps = [heap_space(name) for name in state["step_order"]]
        self._step_index_of = {
            space: index for index, space in enumerate(self.steps)
        }
        self.step_words = state["step_words"]
        self.use_remset = state["use_remset"]
        self.algorithm = state["algorithm"]
        self.compaction_threshold = state["compaction_threshold"]
        self.compactions = state["compactions"]
        self._alloc_index = state["alloc_index"]
        self.remset.import_state(state["remset"])
        # Through the setter: rebuilds the partition caches over the
        # restored order.
        self.j = state["j"]

    def protected_spaces(self) -> set[Space]:
        return set(self._protected_list)

    def collectable_spaces(self) -> set[Space]:
        return set(self._collectable_list)

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------

    def reduce_j(self, new_j: int) -> None:
        """Decrease the tuning parameter mid-cycle (§8.1 allows this).

        Steps ``new_j+1..j`` become collectable, so pointers into them
        from the still-protected steps ``1..new_j`` — invisible to the
        barrier while both ends were protected — are recorded now by
        scanning the remaining protected steps.
        """
        if new_j > self.j:
            raise ValueError(
                f"j can only be decreased between collections "
                f"(current {self.j}, requested {new_j})"
            )
        if new_j < 0:
            raise ValueError(f"j must be non-negative, got {new_j!r}")
        if new_j < self.j and self.use_remset:
            heap = self.heap
            for space in self.steps[:new_j]:
                for obj_id in space.object_ids():
                    for slot, ref in heap.ref_slots(obj_id):
                        dst = self.step_number(heap.get(ref))
                        if dst is not None and dst > new_j:
                            self.remset.record_barrier(obj_id, slot)
                            self.stats.remset_entries_created += 1
        self.j = new_j

    def _snapshot(self, projected_growth: int = 0) -> StepSnapshot:
        return StepSnapshot(
            step_used=self.step_used(),
            step_capacity=[self.step_words] * self.step_count,
            remset_size=len(self.remset),
            projected_remset_growth=projected_growth,
        )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> Space:
        if size > self.step_words:
            raise ValueError(
                f"object of {size} words exceeds the step size "
                f"{self.step_words}"
            )
        # Hot path: the stop-and-copy bump cursor from _allocation_step,
        # inlined with Space.fits expanded (steps always have a
        # capacity).  The mark-sweep by-number search stays out of line.
        space = None
        if self.algorithm == "mark-sweep":
            space = self._allocation_step(size)
        else:
            steps = self.steps
            alloc_index = self._alloc_index
            while alloc_index >= 0:
                candidate = steps[alloc_index]
                if candidate.used + size <= candidate.capacity:
                    space = candidate
                    break
                alloc_index -= 1
            self._alloc_index = alloc_index
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

    def _allocation_step(self, size: int) -> Space | None:
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
        while self._alloc_index >= 0:
            space = self.steps[self._alloc_index]
            if space.fits(size):
                return space
            self._alloc_index -= 1
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

    def collect(self) -> None:
        """Collect steps j+1..k, renumber, and choose a new ``j``."""
        heap = self.heap
        j = self.j
        k = self.step_count
        if j >= k:
            raise RuntimeError("tuning parameter j leaves nothing to collect")
        protected = self._protected_list
        collectable = self._collectable_list
        region = set(collectable)
        used_before = sum(space.used for space in region)
        if self.metrics is not None:
            self.metrics.event(
                "collection-start",
                kind="non-predictive",
                clock=heap.clock,
                j=j,
                collectable_steps=len(collectable),
            )

        seeds = self._root_ids()
        if self.use_remset:
            seeds.extend(self._remset_seeds(region))
        else:
            seeds.extend(self._scan_protected(protected, region))

        marked = self._trace_region(region, seeds, count_work=False)

        if self.algorithm == "mark-sweep":
            live, reclaimed = self._sweep_in_place(
                collectable, protected, marked
            )
        else:
            live, reclaimed = self._evacuate_survivors(
                collectable, protected, marked
            )

        # After the collection the (new) protected steps are empty, so
        # no protected-to-collectable pointers exist and the remembered
        # set can be emptied wholesale.
        self.remset.clear()

        self.stats.words_reclaimed += reclaimed
        self.stats.collections += 1
        self.stats.major_collections += 1
        self.stats.record_pause(
            clock=heap.clock,
            kind="non-predictive",
            work=live,
            reclaimed=reclaimed,
            live=live,
        )

        self.j = self.policy.choose_j(self._snapshot())
        self._alloc_index = self._highest_free_index()
        self._finish_collection()

    def on_static_promotion(self) -> None:
        self.remset.clear()
        self._alloc_index = self._highest_free_index()
        self.j = self.policy.choose_j(self._snapshot())

    def _evacuate_survivors(
        self,
        collectable: list[Space],
        protected: list[Space],
        marked: set[int],
    ) -> tuple[int, int]:
        """Stop-and-copy survivor phase: detach, renumber, repack."""
        heap = self.heap
        k = self.step_count
        j = len(protected)
        survivors: list[int] = []
        reclaimed = 0
        for space in collectable:
            ids, freed = heap.extract_live(space, marked)
            survivors.extend(ids)
            reclaimed += freed

        # Renumber: old steps j+1..k become 1..k-j; old 1..j become
        # k-j+1..k (they are exchanged, not collected — Table 1's "*").
        self._renumber(collectable + protected)

        # Pack survivors into the highest-numbered renumbered steps
        # with free space (they all fit: survivors occupy at most the
        # collectable capacity they came from).  Steps are always
        # bounded, so the inlined placement checks capacity directly.
        live = 0
        steps = self.steps
        size_of = heap.size_of
        place = heap.place_id
        target_index = k - j - 1
        for oid in survivors:
            size = size_of(oid)
            while target_index >= 0:
                space = steps[target_index]
                if space.used + size <= space.capacity:
                    break
                target_index -= 1
            if target_index >= 0:
                place(oid, space, size)
            else:
                # Bump-pointer slivers can strand a large survivor even
                # though total capacity suffices; fall back to first
                # fit over the renumbered steps.
                for index in range(k - j - 1, -1, -1):
                    space = steps[index]
                    if space.used + size <= space.capacity:
                        place(oid, space, size)
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
        collectable: list[Space],
        protected: list[Space],
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
            reclaimed += heap.free_unmarked(space, marked)
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
        size_of = heap.size_of
        place = heap.place_id
        k = self.step_count
        prefix = min(self.compaction_threshold, k - j)
        movers: list[int] = []
        for space in self.steps[:prefix]:
            movers.extend(heap.extract_all(space))
        if not movers:
            return
        target_index = k - j - 1
        for position, oid in enumerate(movers):
            size = size_of(oid)
            while (
                target_index >= prefix
                and not self.steps[target_index].fits(size)
            ):
                target_index -= 1
            if target_index < prefix:
                # No room above: put the stragglers back (first fit in
                # the prefix) and stop; the empty prefix is simply
                # shorter this cycle.
                for straggler in movers[position:]:
                    straggler_size = size_of(straggler)
                    for space in self.steps[:prefix]:
                        if space.fits(straggler_size):
                            place(straggler, space, straggler_size)
                            break
                    else:
                        raise RuntimeError(
                            "compaction overflow; step accounting is "
                            "corrupt"
                        )
                break
            place(oid, self.steps[target_index], size)
            self.stats.words_copied += size
        self.compactions += 1

    def _renumber(self, new_order: list[Space]) -> None:
        if self.metrics is not None:
            self.metrics.event(
                "renumbering", order=[space.name for space in new_order]
            )
        self.steps = new_order
        self._step_index_of = {
            space: index for index, space in enumerate(new_order)
        }
        self._refresh_partition()

    def _highest_free_index(self) -> int:
        for index in range(self.step_count - 1, -1, -1):
            if self.steps[index].free > 0:
                return index
        return -1

    def _remset_seeds(self, region: set[Space]) -> list[int]:
        """Seed ids from remembered slots pointing into the region.

        Only entries whose source currently resides in a *protected*
        step contribute; entries between two collectable steps are
        redundant (the trace reaches their targets if live) and are
        skipped.
        """
        seeds: list[int] = []
        heap = self.heap
        slot_ref = heap.slot_ref
        space_if_live = heap.space_if_live
        protected = self._protected_set
        for obj_id, slot in list(self.remset.entries()):
            self.stats.roots_traced += 1
            probe = slot_ref(obj_id, slot)
            if probe is None or probe[0] not in protected:
                continue
            ref = probe[1]
            if space_if_live(ref) in region:
                seeds.append(ref)
        return seeds

    def _scan_protected(
        self, protected: list[Space], region: set[Space]
    ) -> list[int]:
        """Scan every protected object for pointers into the region."""
        seeds: list[int] = []
        for space in protected:
            for obj in space.objects():
                self.stats.roots_traced += obj.size
                for ref in obj.references():
                    if self.heap.get(ref).space in region:
                        seeds.append(ref)
        return seeds

    # ------------------------------------------------------------------
    # Invariants (used by tests)
    # ------------------------------------------------------------------

    def check_step_invariants(self) -> None:
        """Raise AssertionError if the step structure is inconsistent."""
        assert len(self.steps) == len(self._step_index_of)
        for index, space in enumerate(self.steps):
            assert self._step_index_of[space] == index
            assert space.capacity == self.step_words
            assert 0 <= space.used <= self.step_words
        assert 0 <= self.j <= self.step_count // 2

    def describe(self) -> str:
        return (
            f"non-predictive ({self.step_count} steps x {self.step_words} "
            f"words, j={self.j})"
        )
