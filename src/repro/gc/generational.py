"""A conventional generational collector (Section 3, Section 7.1).

This is the reproduction of Larceny's "conventional multi-generation
collector that uses the stop-and-copy code for its basic algorithm":

* generation 0 is the nursery (the *ephemeral area*); all allocation
  happens there;
* a collection of generations 0..i promotes every survivor into
  generation i+1 (Larceny's promoting collections promote *all* live
  objects, which is why §8.4's situations 1 and 2 never arise);
* the oldest generation is collected in place, stop-and-copy style,
  and may grow to maintain a target inverse load factor (this is the
  "dynamic area" whose size Table 3's experiment adjusted);
* each generation keeps a remembered set of slots in that generation
  that may point into younger generations, fed by the write barrier;
  a collection of generations 0..i seeds its trace with the entries of
  the remembered sets of generations i+1.. whose slots still point
  into the condemned region, pruning the stale ones (§8.4).

The collector embodies the conventional heuristic the paper critiques:
it always condemns the *youngest* generations, betting that they hold
the most garbage.  Under the radioactive decay model that bet is
systematically wrong, which the ``antiprediction`` experiment
demonstrates.
"""

from __future__ import annotations

from typing import Sequence

from repro.gc.collector import Collector, HeapExhausted
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.remset import RememberedSet
from repro.heap.roots import RootSet

__all__ = ["GenerationalCollector"]


class GenerationalCollector(Collector):
    """A conventional N-generation stop-and-copy collector.

    Args:
        heap: the simulated heap.
        roots: the machine root set.
        generation_words: capacity of each generation, youngest first.
            At least two generations are required.
        auto_expand_oldest: allow the oldest generation (the dynamic
            area) to grow so that it is at least ``oldest_load_factor``
            times its live storage after a full collection.
        oldest_load_factor: target inverse load factor for the oldest
            generation.
        promotion_threshold: collections an object must survive in its
            generation before being promoted.  1 (the default) is
            Larceny's promote-all policy; higher values give the
            tenuring policies of Ungar-style scavengers (the paper's
            §9 cites the promotion-policy literature) at the cost of
            re-copying under-age survivors within their generation.
        tenuring_overflow_fraction: if under-age survivors would
            occupy more than this fraction of their generation, they
            are promoted anyway (Ungar & Jackson's tenuring overflow),
            so tenuring cannot wedge the nursery.
    """

    name = "generational"
    state_fields = (
        "generation_capacities",
        "remsets",
        "auto_expand_oldest",
        "oldest_load_factor",
        "promotion_threshold",
        "tenuring_overflow_fraction",
        "survival_counts",
    )

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        generation_words: Sequence[int],
        *,
        auto_expand_oldest: bool = True,
        oldest_load_factor: float = 2.0,
        promotion_threshold: int = 1,
        tenuring_overflow_fraction: float = 0.5,
    ) -> None:
        super().__init__(heap, roots)
        if promotion_threshold < 1:
            raise ValueError(
                f"promotion threshold must be at least 1, got "
                f"{promotion_threshold!r}"
            )
        if not 0.0 < tenuring_overflow_fraction <= 1.0:
            raise ValueError(
                f"tenuring overflow fraction must be in (0, 1], got "
                f"{tenuring_overflow_fraction!r}"
            )
        if len(generation_words) < 2:
            raise ValueError(
                f"need at least 2 generations, got {len(generation_words)}"
            )
        if any(words <= 0 for words in generation_words):
            raise ValueError(
                f"generation sizes must be positive, got {generation_words!r}"
            )
        self._check_load_factor(oldest_load_factor)
        self.spaces: list[FlatSpace] = [
            heap.add_space(f"gen-{index}", words)
            for index, words in enumerate(generation_words)
        ]
        self.remsets: list[RememberedSet] = [
            RememberedSet(f"remset-gen-{index}")
            for index in range(len(generation_words))
        ]
        self._generation_of: dict[str, int] = {
            space.name: index for index, space in enumerate(self.spaces)
        }
        self.auto_expand_oldest = auto_expand_oldest
        self.oldest_load_factor = oldest_load_factor
        self.promotion_threshold = promotion_threshold
        self.tenuring_overflow_fraction = tenuring_overflow_fraction
        #: Collections survived in the current generation, per object.
        #: Only consulted when promotion_threshold > 1.
        self._survival_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def generation_count(self) -> int:
        return len(self.spaces)

    @property
    def nursery(self) -> FlatSpace:
        return self.spaces[0]

    @property
    def oldest(self) -> FlatSpace:
        return self.spaces[-1]

    def generation_index(self, obj_id: int) -> int | None:
        """The generation an object resides in, or None if unmanaged."""
        space = self.heap.space_of(obj_id)
        if space is None:
            return None
        return self._generation_of.get(space.name)

    def managed_spaces(self) -> frozenset[FlatSpace]:
        return frozenset(self.spaces)

    def _export_structure(self) -> dict:
        return {
            "generation_capacities": [
                space.capacity for space in self.spaces
            ],
            "remsets": [remset.export_state() for remset in self.remsets],
            "survival_counts": sorted(
                [oid, count] for oid, count in self._survival_counts.items()
            ),
        }

    def _import_structure(self, state: dict) -> None:
        for space, capacity in zip(
            self.spaces, state["generation_capacities"]
        ):
            space.capacity = capacity
        for remset, remset_state in zip(self.remsets, state["remsets"]):
            remset.import_state(remset_state)
        self._survival_counts = {
            int(oid): int(count) for oid, count in state["survival_counts"]
        }

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _reserve(self, size: int) -> FlatSpace:
        # Hot path: hoist the nursery property and inline FlatSpace.fits.
        nursery = self.spaces[0]
        capacity = nursery.capacity
        if capacity is not None and nursery.used + size > capacity:
            upto = self._collect_for(size)
            if not nursery.fits(size):
                # Emergency full collection: promote everything out of
                # the nursery (tenuring stayers included) before giving
                # up.  Skipped when the collection above already was
                # full — repeating it cannot free more.
                if upto < self.generation_count - 1:
                    self.collect()
                if not nursery.fits(size):
                    raise HeapExhausted(self, size)
        return nursery

    def _collect_for(self, pending: int) -> int:
        """Collect enough generations that the nursery can satisfy a
        ``pending``-word allocation; returns the condemned prefix index.

        The condemned prefix 0..i is the smallest for which generation
        i+1 is guaranteed to have room for every possible survivor
        (conservatively, everything currently resident in 0..i); if no
        prefix qualifies, a full collection runs.
        """
        spaces = self.spaces
        last = len(spaces) - 1
        worst_case = 0
        for i in range(last):
            worst_case += spaces[i].used
            if spaces[i + 1].free >= worst_case:
                self.collect_generations(i)
                return i
        self.collect_generations(last)
        return last

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        """Remember old-to-young pointer stores (situation 3 of §8.4)."""
        if target_id is None:
            return
        space_if_live = self.heap.space_if_live
        src_space = space_if_live(src_id)
        if src_space is None or src_space is self.spaces[0]:
            return  # nothing is younger than a nursery source
        dst_space = space_if_live(target_id)
        if dst_space is None:
            return
        src_gen = self._generation_of.get(src_space.name)
        dst_gen = self._generation_of.get(dst_space.name)
        if src_gen is None or dst_gen is None:
            return
        if src_gen > dst_gen:
            self.remsets[src_gen].record_barrier(src_id, slot)
            self.stats.remset_entries_created += 1

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """A full collection of every generation."""
        self.collect_generations(self.generation_count - 1)

    def collect_generations(self, upto: int) -> None:
        """Collect generations 0..upto, promoting survivors to upto+1.

        The oldest generation, when included, is collected in place.
        """
        if not 0 <= upto < self.generation_count:
            raise ValueError(
                f"generation index out of range: {upto} of "
                f"{self.generation_count}"
            )
        heap = self.heap
        region_list = self.spaces[:upto + 1]
        region = set(region_list)
        full = upto == self.generation_count - 1
        kind = "full" if full else f"minor-0..{upto}"
        self._start_collection(kind, upto=upto)

        seeds = self._root_ids()
        seeds.extend(self._remset_seeds(upto, region))

        # Trace without charging mark work: this collector's work is the
        # copying below, and the paper's single "marked (or copied, or
        # whatever)" measure must not double-count.
        marked = self._trace_region(region, seeds, count_work=False)

        # Free the dead first so a full collection makes room in the
        # oldest generation before younger survivors move into it.
        # The partition kernel classifies each space in residence order.
        # Survivors are promoted (copied) to generation upto+1; the
        # oldest generation's survivors are "copied" in place.  Either
        # way the copy cost is the survivor's size, as in Larceny's
        # uniform stop-and-copy implementation.  With a promotion
        # threshold above 1, under-age survivors stay in (are
        # re-copied within) their generation, subject to tenuring
        # overflow.
        target = self.oldest if full else self.spaces[upto + 1]
        promote_all = full or self.promotion_threshold == 1
        reclaimed = 0
        if promote_all:
            # Promote-all needs no per-object age or size: survivor
            # words per space are exactly the space's post-partition
            # occupancy, and every survivor outside the target moves.
            # (A minor target lies outside the condemned region, so
            # there are no stayers; a full collection clears the
            # remembered sets wholesale below, ages moot either way.)
            mover_ids: list[int] = []
            live = 0
            for space in region_list:
                ids, dead_words = heap.partition_space(space, marked)
                reclaimed += dead_words
                live += space.used
                if space is not target:
                    mover_ids.extend(ids)
            incoming = live - (target.used if full else 0)
            has_stayers = False
        else:
            size_of = heap.size_of
            survivors: list[tuple[int, int, FlatSpace]] = []
            for space in region_list:
                ids, dead_words = heap.partition_space(space, marked)
                survivors.extend((oid, size_of(oid), space) for oid in ids)
                reclaimed += dead_words
            if self._survival_counts:
                # Objects only die in a collection of their own region,
                # so dropping every dead id restores exactly the
                # invariant the per-object classification maintained:
                # counts never name dead objects.
                contains = heap.contains_id
                counts = self._survival_counts
                for oid in [oid for oid in counts if not contains(oid)]:
                    del counts[oid]
            movers, stayers = self._partition_survivors(survivors)
            incoming = sum(size for _, size, _ in movers)
            live = sum(size for _, size, _ in survivors)
            mover_ids = [oid for oid, _, _ in movers]
            has_stayers = bool(stayers)
        if incoming > target.free:
            if full and self.auto_expand_oldest:
                # Promotion overflow grows by exactly the shortfall —
                # not the load-factor rule, which runs after the pause.
                self._set_capacity(
                    target, (target.capacity or 0) + incoming - target.free
                )
            else:
                raise HeapExhausted(self, incoming, phase="promotion")
        self.stats.words_copied += live
        moved_words = heap.move_ids(mover_ids, target)
        survival_counts = self._survival_counts
        if survival_counts:
            for oid in mover_ids:
                survival_counts.pop(oid, None)
        self.stats.words_promoted += moved_words
        if self.metrics is not None and moved_words:
            self.metrics.event(
                "promotion",
                target=target.name,
                words=moved_words,
                objects=len(mover_ids),
            )

        if full:
            # §8.4: a full collection empties the remembered set; every
            # survivor is now in the oldest generation, ages moot.
            for remset in self.remsets:
                remset.clear()
            self._survival_counts.clear()
        else:
            self._maintain_remsets_after_minor(upto, mover_ids, has_stayers)

        if full and self.auto_expand_oldest:
            self._keep_load_factor(
                self.oldest, live, self.oldest_load_factor, None
            )
        self._end_pause(
            kind, live, reclaimed, live, count="major" if full else "minor"
        )

    def on_static_promotion(self) -> None:
        super().on_static_promotion()
        for remset in self.remsets:
            remset.clear()
        self._survival_counts.clear()

    def _partition_survivors(
        self, survivors: list[tuple[int, int, FlatSpace]]
    ) -> tuple[
        list[tuple[int, int, FlatSpace]], list[tuple[int, int, FlatSpace]]
    ]:
        """Split a minor collection's ``(id, size, space)`` survivors
        into movers and stayers under a promotion threshold above 1.

        An object moves once it has survived ``promotion_threshold``
        collections of its generation, or when its cohort of under-age
        survivors would occupy too much of the generation (tenuring
        overflow).  (The target generation lies outside the condemned
        region, so no survivor is already there.)
        """
        movers: list[tuple[int, int, FlatSpace]] = []
        stayers: list[tuple[int, int, FlatSpace]] = []
        stayer_words: dict[str, int] = {}
        undecided: list[tuple[int, int, FlatSpace]] = []
        for entry in survivors:
            oid, size, space = entry
            count = self._survival_counts.get(oid, 0) + 1
            if count >= self.promotion_threshold:
                movers.append(entry)
            else:
                self._survival_counts[oid] = count
                undecided.append(entry)
                stayer_words[space.name] = (
                    stayer_words.get(space.name, 0) + size
                )
        # Tenuring overflow, per source generation.
        overflowing = {
            name
            for name, words in stayer_words.items()
            if words
            > self.tenuring_overflow_fraction
            * (self.heap.space(name).capacity or words)
        }
        for entry in undecided:
            if entry[2].name in overflowing:
                movers.append(entry)
            else:
                stayers.append(entry)
        return movers, stayers

    def _maintain_remsets_after_minor(
        self, upto: int, mover_ids: list[int], has_stayers: bool
    ) -> None:
        """Restore remembered-set completeness after a minor collection.

        With promote-all, generations 0..upto are empty afterwards and
        their remembered sets can simply be cleared.  With tenuring,
        stayers keep their generation populated: their existing
        entries are pruned (not dropped), and each *promoted* object is
        scanned for pointers into still-younger generations — the
        situation-2 analogue that promote-all never needs.
        """
        heap = self.heap
        generation_of = self._generation_of
        if not has_stayers:
            for index in range(upto + 1):
                self.remsets[index].clear()
            return
        for index in range(upto + 1):

            def source_still_here(entry: tuple[int, int]) -> bool:
                space = heap.space_if_live(entry[0])
                return (
                    space is not None
                    and generation_of.get(space.name) == index
                )

            pruned = self.remsets[index].prune(source_still_here)
            self.stats.remset_entries_pruned += pruned
        # Every mover now resides in generation upto+1 (minor target).
        gen = upto + 1
        remset = self.remsets[gen]
        for oid in mover_ids:
            for slot, ref in heap.ref_slots(oid):
                space = heap.space_if_live(ref)
                if space is None:
                    continue
                target_gen = generation_of.get(space.name)
                if target_gen is not None and target_gen < gen:
                    remset.record_promotion(oid, slot)
                    self.stats.remset_entries_created += 1

    def _remset_seeds(self, upto: int, region: set[FlatSpace]) -> list[int]:
        """Seed ids from older generations' remembered sets.

        Each entry is re-examined (§8.4): if the slot still points into
        the condemned region the target is a seed; otherwise the entry
        is pruned.
        """
        seeds: list[int] = []
        heap = self.heap
        slot_ref = heap.slot_ref
        space_if_live = heap.space_if_live
        for index in range(upto + 1, self.generation_count):
            remset = self.remsets[index]
            if not len(remset):
                continue
            keep: set[tuple[int, int]] = set()
            for entry in list(remset.entries()):
                self.stats.roots_traced += 1
                probe = slot_ref(entry[0], entry[1])
                if probe is None:
                    continue
                ref = probe[1]
                target_space = space_if_live(ref)
                if target_space is None or target_space not in region:
                    continue
                seeds.append(ref)
                keep.add(entry)
            pruned = remset.prune(keep.__contains__)
            self.stats.remset_entries_pruned += pruned
        return seeds

    def describe(self) -> str:
        sizes = ", ".join(str(space.capacity) for space in self.spaces)
        return f"generational ({self.generation_count} gens: {sizes} words)"
