"""Larceny's hybrid design (Section 8): ephemeral area + non-predictive heap.

The hybrid collector reproduces the prototype the paper describes for
Larceny: a conventional stop-and-copy *ephemeral area* (the nursery)
in which all allocation occurs, feeding a *non-predictive* step-
structured dynamic area that manages the long-lived objects.

Collections come in two flavors:

* **promoting (ephemeral) collection** — when the nursery fills, its
  live objects are traced (rooted in the machine roots plus the
  remembered set of dynamic-area slots that point into the nursery)
  and *all* of them are promoted into the non-predictive heap.
  Because everything live leaves the ephemeral area, §8.4's situations
  1 and 2 never arise.  Larceny decides *before* the collection
  whether the promotion targets steps j+1..k (the normal case) or
  steps 1..j; it never splits a promotion across the boundary.  When a
  promotion into j+1..k spills below the boundary, ``j`` is decreased
  afterwards — the "flexibility to decrease j" the paper relies on.
  A promotion into steps 1..j scans each promoted object for pointers
  into steps j+1..k and records them (situation 5).
* **non-predictive collection** — when the dynamic area cannot accept
  a promotion, steps j+1..k are collected together with the ephemeral
  area (a non-predictive collection "always promotes all live objects
  out of the ephemeral area into the non-predictive heap"), the steps
  are renumbered exactly as in
  :class:`~repro.gc.nonpredictive.NonPredictiveCollector`, and a new
  ``j`` is chosen by the tuning policy.

Section 8.3's remembered-set pressure valve is implemented: the
ephemeral collection counts pointers from surviving nursery objects
into the non-predictive heap (the paper notes the ephemeral collector
"must recognize those pointers anyway") and, if promoting under the
current ``j`` would push the steps remembered set past ``max_remset``,
``j`` is reduced before the objects are promoted.
"""

from __future__ import annotations

from repro.core.policy import HalfEmptyPolicy, StepSnapshot, TuningPolicy
from repro.gc.collector import Collector, HeapExhausted
from repro.heap.heap import SimulatedHeap
from repro.heap.object_model import HeapObject
from repro.heap.remset import RememberedSet
from repro.heap.roots import RootSet
from repro.heap.space import Space

__all__ = ["HybridCollector"]


class HybridCollector(Collector):
    """Ephemeral stop-and-copy nursery over a non-predictive old area.

    Args:
        heap: the simulated heap.
        roots: the machine root set.
        nursery_words: capacity of the ephemeral area.
        step_count: ``k``, number of steps in the non-predictive area.
        step_words: capacity of each step.
        policy: tuning policy choosing ``j`` after each non-predictive
            collection (defaults to the paper's §8.1 rule).
        initial_j: ``j`` before the first non-predictive collection.
        max_remset: §8.3 pressure valve — reduce ``j`` before a
            promotion that would grow the steps remembered set past
            this size (``None`` disables the valve).
        allow_promotion_into_protected: permit promotions that target
            steps 1..j when steps j+1..k lack room (exercises §8.4's
            situation 5).  When false the collector prefers a
            non-predictive collection instead.
    """

    name = "hybrid-non-predictive"

    def __init__(
        self,
        heap: SimulatedHeap,
        roots: RootSet,
        nursery_words: int,
        step_count: int,
        step_words: int,
        *,
        policy: TuningPolicy | None = None,
        initial_j: int = 0,
        max_remset: int | None = None,
        allow_promotion_into_protected: bool = True,
    ) -> None:
        super().__init__(heap, roots)
        if nursery_words <= 0:
            raise ValueError(
                f"nursery size must be positive, got {nursery_words!r}"
            )
        if step_count < 2:
            raise ValueError(f"need at least 2 steps, got {step_count!r}")
        if step_words <= 0:
            raise ValueError(f"step size must be positive, got {step_words!r}")
        if not 0 <= initial_j <= step_count // 2:
            raise ValueError(
                f"initial j must be in [0, {step_count // 2}], got {initial_j!r}"
            )
        self.nursery = heap.add_space("hybrid-nursery", nursery_words)
        self.steps: list[Space] = [
            heap.add_space(f"hybrid-step-{index}", step_words)
            for index in range(step_count)
        ]
        self.step_words = step_words
        self.policy = policy if policy is not None else HalfEmptyPolicy()
        self._j = 0
        self.j = initial_j
        self.max_remset = max_remset
        self.allow_promotion_into_protected = allow_promotion_into_protected
        #: Dynamic-area slots that may point into the nursery (§8.4
        #: situation 3; conventional old-to-young remembering).
        self.remset_young = RememberedSet("hybrid-young")
        #: Protected-step slots that may point into collectable steps
        #: (§8.4 situations 5 and 6).
        self.remset_steps = RememberedSet("hybrid-steps")
        # Step lookup keyed by space identity (hit on every barrier
        # store); rebuilt only when the steps are renumbered.
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
        """Rebuild the cached protected/collectable split; invalidated
        whenever ``j`` changes or the steps are renumbered."""
        j = self._j
        self._protected_list = self.steps[:j]
        self._collectable_list = self.steps[j:]
        self._protected_set = set(self._protected_list)

    def step_number(self, obj: HeapObject) -> int | None:
        space = obj.space
        if space is None:
            return None
        index = self._step_index_of.get(space)
        return None if index is None else index + 1

    def in_nursery(self, obj: HeapObject) -> bool:
        return obj.space is self.nursery

    def managed_spaces(self) -> frozenset[Space]:
        return frozenset((self.nursery, *self.steps))

    def step_used(self) -> list[int]:
        return [space.used for space in self.steps]

    def export_state(self) -> dict:
        # Renumbering reorders ``steps`` without renaming the spaces,
        # so the logical order is recoverable from the name list alone.
        return {
            "nursery_capacity": self.nursery.capacity,
            "step_order": [space.name for space in self.steps],
            "step_words": self.step_words,
            "j": self._j,
            "max_remset": self.max_remset,
            "allow_promotion_into_protected": (
                self.allow_promotion_into_protected
            ),
            "remset_young": self.remset_young.export_state(),
            "remset_steps": self.remset_steps.export_state(),
        }

    def import_state(self, state: dict) -> None:
        if sorted(state["step_order"]) != sorted(
            space.name for space in self.steps
        ):
            raise ValueError(
                f"snapshot steps {state['step_order']} do not match "
                f"collector steps {[s.name for s in self.steps]}"
            )
        self.nursery.capacity = state["nursery_capacity"]
        heap_space = self.heap.space
        self.steps = [heap_space(name) for name in state["step_order"]]
        self._step_index_of = {
            space: index for index, space in enumerate(self.steps)
        }
        self.step_words = state["step_words"]
        self.max_remset = state["max_remset"]
        self.allow_promotion_into_protected = state[
            "allow_promotion_into_protected"
        ]
        self.remset_young.import_state(state["remset_young"])
        self.remset_steps.import_state(state["remset_steps"])
        # Through the setter: rebuilds the partition caches over the
        # restored order.
        self.j = state["j"]

    def _dynamic_free(self) -> int:
        return sum(space.free for space in self.steps)

    def _protected_free(self) -> int:
        return sum(space.free for space in self._protected_list)

    def _collectable_free(self) -> int:
        return sum(space.free for space in self._collectable_list)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> Space:
        # Hot path: hoist the nursery attribute and inline Space.fits.
        nursery = self.nursery
        capacity = nursery.capacity
        if size > (capacity or 0):
            raise ValueError(
                f"object of {size} words exceeds the nursery size "
                f"{capacity}"
            )
        if capacity is not None and nursery.used + size > capacity:
            self.collect_nursery()
            if (
                nursery.capacity is not None
                and nursery.used + size > nursery.capacity
            ):
                # Emergency full collection: condemn the dynamic area
                # as well before reporting exhaustion.
                self.collect()
                if (
                    nursery.capacity is not None
                    and nursery.used + size > nursery.capacity
                ):
                    raise HeapExhausted(self, size)
        return nursery

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        if target_id is None:
            return
        space_if_live = self.heap.space_if_live
        src_space = space_if_live(src_id)
        if src_space is None:
            return
        index_of = self._step_index_of
        src = index_of.get(src_space)
        if src is None:
            return  # nursery (or unmanaged) sources are always traced
        dst_space = space_if_live(target_id)
        if dst_space is self.nursery:
            # Situation 3: dynamic-area object now points at the nursery.
            self.remset_young.record_barrier(src_id, slot)
            self.stats.remset_entries_created += 1
            return
        dst = None if dst_space is None else index_of.get(dst_space)
        # 0-based equivalent of "src <= j < dst" on 1-based step numbers.
        if dst is not None and src < self._j <= dst:
            # Situation 6: protected step points into a collectable step.
            self.remset_steps.record_barrier(src_id, slot)
            self.stats.remset_entries_created += 1

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------

    def reduce_j(self, new_j: int) -> None:
        """Decrease ``j`` mid-cycle, rescanning for newly exposed pointers.

        See :meth:`repro.gc.nonpredictive.NonPredictiveCollector.reduce_j`
        for why the rescan is required.
        """
        if new_j > self.j:
            raise ValueError(
                f"j can only be decreased between collections "
                f"(current {self.j}, requested {new_j})"
            )
        if new_j < 0:
            raise ValueError(f"j must be non-negative, got {new_j!r}")
        if new_j < self.j:
            heap = self.heap
            for space in self.steps[:new_j]:
                for obj_id in list(space.object_ids()):
                    for slot, ref in heap.ref_slots(obj_id):
                        dst = self.step_number(heap.get(ref))
                        if dst is not None and dst > new_j:
                            self.remset_steps.record_barrier(obj_id, slot)
                            self.stats.remset_entries_created += 1
        self.j = new_j

    def _snapshot(self, projected_growth: int = 0) -> StepSnapshot:
        return StepSnapshot(
            step_used=self.step_used(),
            step_capacity=[self.step_words] * self.step_count,
            remset_size=len(self.remset_steps),
            projected_remset_growth=projected_growth,
        )

    # ------------------------------------------------------------------
    # Ephemeral (promoting) collection
    # ------------------------------------------------------------------

    def collect_nursery(self) -> None:
        """Trace the nursery and promote every live object out of it.

        Runs a full non-predictive collection instead when the dynamic
        area cannot be guaranteed to absorb the promotion.
        """
        if self._dynamic_free() < self.nursery.used:
            # Not enough headroom for the worst case; collect the old
            # area (which also empties the nursery) instead.
            self.collect()
            return

        heap = self.heap
        region = {self.nursery}
        if self.metrics is not None:
            self.metrics.event(
                "collection-start", kind="promote", clock=heap.clock
            )

        seeds = self._root_ids()
        seeds.extend(self._young_remset_seeds())
        marked = self._trace_region(region, seeds, count_work=False)

        index_of = self._step_index_of
        survivors, reclaimed = heap.partition_space(self.nursery, marked)
        # §8.3: count pointers leaving the ephemeral area; the
        # collector must recognize them anyway, and the count
        # estimates the remembered-set growth of the promotion.
        outbound_pointers = heap.count_slot_refs_into(
            survivors, set(index_of)
        )

        size_of = heap.size_of
        survivor_sizes = [size_of(oid) for oid in survivors]
        survivor_words = sum(survivor_sizes)

        # §8.3 pressure valve: shrink j before promoting if the
        # remembered set would grow unacceptably.
        if self.max_remset is not None and self.j > 0:
            projected = len(self.remset_steps) + outbound_pointers
            if projected > self.max_remset:
                scale = self.max_remset / projected
                self.reduce_j(int(self.j * scale))

        # Decide the promotion target region before moving anything;
        # a promotion never straddles the j boundary by *decision*,
        # only by spill (which then lowers j).
        into_protected = False
        if survivor_words > self._collectable_free():
            if (
                self.allow_promotion_into_protected
                and survivor_words <= self._protected_free()
            ):
                into_protected = True
            elif survivor_words > self._dynamic_free():
                raise HeapExhausted(self, survivor_words, phase="promotion")

        promoted = list(zip(survivors, survivor_sizes))
        if into_protected:
            self._promote_into_protected(promoted)
        else:
            self._promote_into_collectable(promoted)

        self.stats.words_copied += survivor_words
        self.stats.words_promoted += survivor_words
        if self.metrics is not None and survivor_words:
            self.metrics.event(
                "promotion",
                target="steps" if not into_protected else "protected-steps",
                words=survivor_words,
                objects=len(survivors),
            )

        # A remembered dynamic-to-nursery slot whose source is protected
        # and whose target was just promoted past the j boundary is now
        # a protected-to-collectable pointer (the promotion-entered case
        # of §8.4); migrate it to the steps remembered set before the
        # nursery entries are discarded.  (j may have been reduced by
        # the valve or a spill above, so reread it.)
        j = self._j
        for obj_id, slot in list(self.remset_young.entries()):
            probe = heap.slot_ref(obj_id, slot)
            if probe is None:
                continue
            src_index = index_of.get(probe[0])
            if src_index is None or src_index >= j:
                continue
            target_space = heap.space_if_live(probe[1])
            if target_space is None:
                continue
            dst_index = index_of.get(target_space)
            if dst_index is not None and dst_index >= j:
                self.remset_steps.record_promotion(obj_id, slot)
                self.stats.remset_entries_created += 1

        # The nursery is empty, so no dynamic-to-nursery pointers exist.
        self.remset_young.clear()

        self.stats.words_reclaimed += reclaimed
        self.stats.collections += 1
        self.stats.minor_collections += 1
        self.stats.record_pause(
            clock=heap.clock,
            kind="promote",
            work=survivor_words,
            reclaimed=reclaimed,
            live=survivor_words,
        )
        self._finish_collection()

    def _promote_into_collectable(
        self, promoted: list[tuple[int, int]]
    ) -> None:
        """Pack survivors into the highest-numbered free steps.

        If packing spills below the j boundary, ``j`` is decreased so
        the spilled steps become collectable (the promoted objects are
        then *not* in the protected generation, and no situation-5
        entries are needed for them).
        """
        lowest = self._place_all(promoted, self.step_count - 1)
        if promoted and lowest < self.j:
            # Spill below the boundary: decrease j. reduce_j rescans
            # steps 1..new_j, conservatively restoring the remset
            # invariant for pointers into the newly collectable steps.
            self.reduce_j(lowest)

    def _promote_into_protected(
        self, promoted: list[tuple[int, int]]
    ) -> None:
        """Pack survivors into steps 1..j, recording situation-5 entries."""
        heap = self.heap
        self._place_all(promoted, self.j - 1)
        # Scan the promoted objects for pointers into steps j+1..k
        # (§8.4: detected "when the object is traced, after it has been
        # copied into the non-predictive heap").
        for oid, _ in promoted:
            for slot, ref in heap.ref_slots(oid):
                dst = self.step_number(heap.get(ref))
                if dst is not None and dst > self.j:
                    self.remset_steps.record_promotion(oid, slot)
                    self.stats.remset_entries_created += 1

    def _place_all(
        self, promoted: list[tuple[int, int]], cursor: int
    ) -> int:
        """Pack survivors step-wise: each into the highest free step at
        or below the moving cursor, falling back to first fit from the
        top on sliver fragmentation.

        Placement decisions are per object, but contiguous runs landing
        in the same step move in one ``move_ids`` call; queued-but-not-
        yet-moved words are charged against that step's room so the
        decisions match one-move-per-object exactly.  Returns the
        lowest step index used (``step_count`` when nothing moved).
        """
        steps = self.steps
        move = self.heap.move_ids
        lowest = self.step_count
        batch: list[int] = []
        append = batch.append
        batch_index = -1
        unbounded = 1 << 62
        # Words still free in the batch step after everything queued;
        # the common case — next survivor lands in the same step —
        # is then a single compare.
        room = 0

        def step_room(index: int) -> int:
            if index == batch_index:
                return room
            step = steps[index]
            capacity = step.capacity
            if capacity is None:
                return unbounded
            return capacity - step.used

        for oid, size in promoted:
            if size <= room:
                append(oid)
                room -= size
                continue
            index = cursor
            while index >= 0 and step_room(index) < size:
                index -= 1
            if index < 0:
                # Sliver fragmentation; fall back to first fit anywhere.
                for alt in range(self.step_count - 1, -1, -1):
                    if step_room(alt) >= size:
                        index = alt
                        break
                else:
                    if batch:
                        move(batch, steps[batch_index])
                    raise HeapExhausted(self, size, phase="promotion")
            if index != batch_index:
                if batch:
                    move(batch, steps[batch_index])
                    batch = []
                    append = batch.append
                batch_index = index
                step = steps[index]
                capacity = step.capacity
                room = unbounded if capacity is None else capacity - step.used
            append(oid)
            room -= size
            cursor = index
            if index < lowest:
                lowest = index
        if batch:
            move(batch, steps[batch_index])
        return lowest

    def _young_remset_seeds(self) -> list[int]:
        """Seeds from dynamic-area slots that still point into the nursery."""
        seeds: list[int] = []
        heap = self.heap
        nursery = self.nursery
        for obj_id, slot in list(self.remset_young.entries()):
            self.stats.roots_traced += 1
            probe = heap.slot_ref(obj_id, slot)
            if probe is None:
                continue
            ref = probe[1]
            if heap.space_if_live(ref) is nursery:
                seeds.append(ref)
        return seeds

    # ------------------------------------------------------------------
    # Non-predictive collection
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Collect steps j+1..k together with the ephemeral area."""
        heap = self.heap
        k = self.step_count
        protected = self._protected_list
        collectable = self._collectable_list
        region = set(collectable)
        region.add(self.nursery)
        if self.metrics is not None:
            self.metrics.event(
                "collection-start",
                kind="non-predictive",
                clock=heap.clock,
                j=self._j,
                collectable_steps=len(collectable),
            )

        seeds = self._root_ids()
        seeds.extend(self._steps_remset_seeds(region))
        marked = self._trace_region(region, seeds, count_work=False)

        survivors: list[int] = []
        reclaimed = 0
        for space in [self.nursery, *collectable]:
            space_survivors, space_reclaimed = heap.extract_live(
                space, marked
            )
            survivors.extend(space_survivors)
            reclaimed += space_reclaimed

        size_of = heap.size_of
        survivor_words = sum(size_of(oid) for oid in survivors)
        free_after = sum(space.free for space in self.steps)
        if survivor_words > free_after:
            raise HeapExhausted(self, survivor_words, phase="collection")

        # Renumber: old j+1..k become 1..k-j, old 1..j become k-j+1..k.
        steps = collectable + protected
        if self.metrics is not None:
            self.metrics.event(
                "renumbering", order=[space.name for space in steps]
            )
        self.steps = steps
        self._step_index_of = {
            space: index for index, space in enumerate(steps)
        }
        self._refresh_partition()

        # Survivors go "to the highest-numbered step that contains free
        # space" — which after renumbering may be an old protected step
        # with room left (the nursery's survivors can exceed the
        # collectable capacity they came from).  Steps are bounded, so
        # the inlined placement checks capacity directly.
        cursor = k - 1
        live = 0
        place = heap.place_id
        for oid in survivors:
            size = size_of(oid)
            index = cursor
            while index >= 0:
                space = steps[index]
                if space.used + size <= space.capacity:
                    break
                index -= 1
            if index < 0:
                raise HeapExhausted(self, size, phase="collection")
            place(oid, space, size)
            cursor = index
            live += size
        self.stats.words_copied += live

        # Protected steps are empty after renumbering + policy choice,
        # the nursery is empty, so both remembered sets start afresh.
        self.remset_steps.clear()
        self.remset_young.clear()

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
        self._finish_collection()

    def on_static_promotion(self) -> None:
        self.remset_steps.clear()
        self.remset_young.clear()
        self.j = self.policy.choose_j(self._snapshot())

    def _steps_remset_seeds(self, region: set[Space]) -> list[int]:
        """Seeds from protected-step slots pointing into the region.

        Both remembered sets can contribute: ``remset_steps`` holds
        protected-to-collectable pointers, and ``remset_young`` may
        hold protected-step slots pointing into the nursery (which is
        part of the region for a non-predictive collection).
        """
        seeds: list[int] = []
        heap = self.heap
        protected = self._protected_set
        for remset in (self.remset_steps, self.remset_young):
            for obj_id, slot in list(remset.entries()):
                self.stats.roots_traced += 1
                probe = heap.slot_ref(obj_id, slot)
                if probe is None or probe[0] not in protected:
                    continue
                ref = probe[1]
                if heap.space_if_live(ref) in region:
                    seeds.append(ref)
        return seeds

    # ------------------------------------------------------------------
    # Invariants (used by the heap auditor)
    # ------------------------------------------------------------------

    def check_step_invariants(self) -> None:
        """Raise AssertionError if the step structure is inconsistent."""
        assert len(self.steps) == len(self._step_index_of)
        for index, space in enumerate(self.steps):
            assert self._step_index_of[space] == index
            assert space.capacity == self.step_words
            assert 0 <= space.used <= self.step_words
        assert 0 <= self.j <= self.step_count
        assert self._protected_list == self.steps[: self.j]
        assert self._collectable_list == self.steps[self.j:]

    def describe(self) -> str:
        return (
            f"hybrid (nursery {self.nursery.capacity} words + "
            f"{self.step_count} steps x {self.step_words} words, j={self.j})"
        )
