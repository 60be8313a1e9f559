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
  are renumbered and a new ``j`` is chosen by the tuning policy —
  :meth:`repro.gc.steps.StepCollector.collect`, the same code the
  plain non-predictive collector runs, with the ephemeral area added
  to the condemned region.

Section 8.3's remembered-set pressure valve is implemented: the
ephemeral collection counts pointers from surviving nursery objects
into the non-predictive heap (the paper notes the ephemeral collector
"must recognize those pointers anyway") and, if promoting under the
current ``j`` would push the steps remembered set past ``max_remset``,
``j`` is reduced before the objects are promoted.
"""

from __future__ import annotations

from repro.core.policy import TuningPolicy
from repro.gc.collector import HeapExhausted
from repro.gc.steps import StepCollector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.remset import RememberedSet
from repro.heap.roots import RootSet

__all__ = ["HybridCollector"]


class HybridCollector(StepCollector):
    """Ephemeral stop-and-copy nursery over a non-predictive old area.

    Args (the others as for :class:`~repro.gc.steps.StepCollector`,
    describing the non-predictive area):
        nursery_words: capacity of the ephemeral area.
        max_remset: §8.3 pressure valve — reduce ``j`` before a
            promotion that would grow the steps remembered set past
            this size (``None`` disables the valve).
        allow_promotion_into_protected: permit promotions that target
            steps 1..j when steps j+1..k lack room (exercises §8.4's
            situation 5).  When false the collector prefers a
            non-predictive collection instead.
    """

    name = "hybrid-non-predictive"
    step_space_prefix = "hybrid-step"
    steps_remset_name = "hybrid-steps"
    state_fields = (
        "nursery_capacity",
        *StepCollector.state_fields,
        "max_remset",
        "allow_promotion_into_protected",
        "remset_young",
        "remset_steps",
    )

    def __init__(
        self,
        heap: FlatHeap,
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
        if nursery_words <= 0:
            raise ValueError(
                f"nursery size must be positive, got {nursery_words!r}"
            )
        # The ephemeral area is registered ahead of the steps (the heap
        # enumerates and snapshots spaces in that order), so the step
        # geometry is checked first: a rejected one registers nothing.
        self._check_geometry(step_count, step_words, initial_j)
        self.nursery = heap.add_space("hybrid-nursery", nursery_words)
        super().__init__(
            heap, roots, step_count, step_words,
            policy=policy, initial_j=initial_j,
        )
        self.max_remset = max_remset
        self.allow_promotion_into_protected = allow_promotion_into_protected
        #: Dynamic-area slots that may point into the nursery (§8.4
        #: situation 3; conventional old-to-young remembering).  Its
        #: protected-step entries root a non-predictive collection too:
        #: the nursery is part of that collection's region.
        self.remset_young = RememberedSet("hybrid-young")
        self._remsets = (self.remset_steps, self.remset_young)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def in_nursery(self, obj_id: int) -> bool:
        return self.heap.space_of(obj_id) is self.nursery

    def managed_spaces(self) -> frozenset[FlatSpace]:
        return frozenset((self.nursery, *self.steps))

    def _export_structure(self) -> dict:
        return {
            **super()._export_structure(),
            "nursery_capacity": self.nursery.capacity,
            "remset_young": self.remset_young.export_state(),
            "remset_steps": self.remset_steps.export_state(),
        }

    def _import_structure(self, state: dict) -> None:
        super()._import_structure(state)
        self.nursery.capacity = state["nursery_capacity"]
        self.remset_young.import_state(state["remset_young"])
        self.remset_steps.import_state(state["remset_steps"])

    def _dynamic_free(self) -> int:
        return sum(space.free for space in self.steps)

    def _collectable_free(self) -> int:
        return sum(space.free for space in self._collectable_list)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        # Hot path: hoist the nursery attribute and inline FlatSpace.fits.
        nursery = self.nursery
        capacity = nursery.capacity
        if size > (capacity or 0):
            raise ValueError(
                f"object of {size} words exceeds the nursery size "
                f"{capacity}"
            )
        if capacity is not None and nursery.used + size > capacity:
            self.collect_nursery()
            if not nursery.fits(size):
                # Emergency full collection: condemn the dynamic area
                # as well before reporting exhaustion.
                self.collect()
                if not nursery.fits(size):
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
        self._start_collection("promote")

        seeds = self._root_ids()
        # Dynamic-area slots that still point into the nursery.
        seeds.extend(self._remset_seeds((self.remset_young,), region))
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
                and survivor_words
                <= sum(space.free for space in self._protected_list)
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
        self._end_pause(
            "promote", survivor_words, reclaimed, survivor_words, count="minor"
        )

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
        self._place_all(promoted, self.j - 1)
        # Scan the promoted objects for pointers into steps j+1..k
        # (§8.4: detected "when the object is traced, after it has been
        # copied into the non-predictive heap").
        self._remember_crossings(
            (oid for oid, _ in promoted),
            self.j,
            self.remset_steps.record_promotion,
        )

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

    # ------------------------------------------------------------------
    # Non-predictive collection
    # ------------------------------------------------------------------

    def _condemned(self, collectable: list[FlatSpace]) -> list[FlatSpace]:
        """Steps j+1..k together with the ephemeral area."""
        return [self.nursery, *collectable]

    def _reclaim(
        self,
        condemned: list[FlatSpace],
        protected: list[FlatSpace],
        marked: set[int],
    ) -> tuple[int, int]:
        survivors, reclaimed = self._extract_survivors(condemned, marked)
        size_of = self.heap.size_of
        survivor_words = sum(size_of(oid) for oid in survivors)
        if survivor_words > self._dynamic_free():
            raise HeapExhausted(self, survivor_words, phase="collection")
        self._renumber(self._collectable_list + protected)

        # Survivors go "to the highest-numbered step that contains free
        # space" — which after renumbering may be an old protected step
        # with room left (the nursery's survivors can exceed the
        # collectable capacity they came from), so packing starts at
        # step k, and a survivor no step can take is exhaustion, not
        # corrupt accounting.
        live, placed = self._pack_survivors(survivors, self.step_count - 1)
        if placed < len(survivors):
            raise HeapExhausted(
                self, size_of(survivors[placed]), phase="collection"
            )
        self.stats.words_copied += live
        return live, reclaimed

    def describe(self) -> str:
        return (
            f"hybrid (nursery {self.nursery.capacity} words + "
            f"{self.step_count} steps x {self.step_words} words, j={self.j})"
        )
