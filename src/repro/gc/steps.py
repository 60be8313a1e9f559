"""The step machine of Section 4, shared by the two collectors built on it.

The machine divides its heap into ``k`` steps of equal size.  Step 1
is the youngest, step ``k`` the oldest.  A tuning parameter ``j``
determines how many of the youngest steps are *protected* from the
next collection: the collector simply assumes everything in steps
1..j is live.  A collection

1. collects steps ``j+1..k`` as a single generation, survivors being
   packed into the highest-numbered steps that have free space;
2. renumbers steps ``j+1..k`` as the new steps ``1..k-j``, the original
   steps ``1..j`` becoming steps ``k-j+1..k``;
3. chooses a new ``j`` (Section 8.1 recommends one that leaves steps
   1..j empty and satisfies ``j <= k/2``).

The machine never examines object ages and never predicts lifetimes;
its entire policy is *where* free space sits in the step order.

Root discipline (Sections 8.3/8.6): pointers from protected steps into
collectable steps must be treated as roots.  The write barrier of each
leaf records stores of a pointer from a currently protected step into
a currently collectable step (situation 6 of §8.4) in
:attr:`StepCollector.remset_steps`.  This is complete because after
every collection the protected steps are empty (objects can only enter
them by allocation or promotion, whose initializing stores the barrier
or the promotion scan sees), so the remembered set can simply be
cleared at the end of each collection.  The one hole is mid-cycle
*reduction* of ``j`` (§8.1 allows it at any time): pointers created
while both ends were protected become protected-to-collectable when
the boundary moves, so :meth:`StepCollector.reduce_j` rescans the
remaining protected steps to restore the invariant.

:class:`StepCollector` is that machine, once.  Its two leaves add what
is their own: :class:`~repro.gc.nonpredictive.NonPredictiveCollector`
allocates into the steps directly;
:class:`~repro.gc.hybrid.HybridCollector` puts §8's ephemeral area in
front.  ``_reserve`` and ``remember_store_id`` run on every allocation
and store, so they stay in the leaves and read the machine's attributes
directly.
"""

from __future__ import annotations

import abc

from repro.core.policy import HalfEmptyPolicy, StepSnapshot, TuningPolicy
from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.remset import RememberedSet
from repro.heap.roots import RootSet

__all__ = ["StepCollector"]


class StepCollector(Collector):
    """``k`` equal steps, the youngest ``j`` of them protected.

    Abstract: a leaf names its spaces, allocates (``_reserve``), keeps
    the barrier (``remember_store_id``) and says what a collection does
    with its survivors (:meth:`_reclaim`).

    Args:
        heap: the simulated heap (registers ``step_count`` spaces).
        roots: the machine root set.
        step_count: ``k``, the number of equal-size steps.
        step_words: capacity of each step in words.
        policy: how to choose ``j`` after each collection; defaults to
            the paper's ``j = floor(l/2)`` rule (Section 8.1).
        initial_j: ``j`` to use before the first collection.
    """

    #: Step spaces are named ``{step_space_prefix}-{index}``.
    step_space_prefix: str
    steps_remset_name: str
    #: The step half of the snapshot; leaves add their own keys.
    state_fields = ("step_order", "step_words", "j")

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        step_count: int,
        step_words: int,
        *,
        policy: TuningPolicy | None = None,
        initial_j: int = 0,
    ) -> None:
        self._check_geometry(step_count, step_words, initial_j)
        super().__init__(heap, roots)
        #: Steps in logical order: index 0 is step 1 (youngest).
        self.steps: list[FlatSpace] = [
            heap.add_space(f"{self.step_space_prefix}-{index}", step_words)
            for index in range(step_count)
        ]
        self.step_words = step_words
        self.policy = policy if policy is not None else HalfEmptyPolicy()
        #: Protected-step slots that may point into collectable steps
        #: (§8.4 situations 5 and 6).
        self.remset_steps = RememberedSet(self.steps_remset_name)
        #: Every remembered set whose protected-source entries root a
        #: collection of the steps; all are emptied when one completes.
        self._remsets: tuple[RememberedSet, ...] = (self.remset_steps,)
        # Step lookup keyed by space identity: consulted on every
        # barrier store, rebuilt only at renumbering time.  (Keying by
        # name would pay a string hash per store for a map that cannot
        # change between renumberings.)
        self._step_index_of: dict[FlatSpace, int] = {
            space: index for index, space in enumerate(self.steps)
        }
        self._j = 0
        self.j = initial_j

    @staticmethod
    def _check_geometry(
        step_count: int, step_words: int, initial_j: int
    ) -> None:
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

    def step_number(self, obj_id: int) -> int | None:
        """The 1-based step number an object resides in, or None."""
        space = self.heap.space_of(obj_id)
        if space is None:
            return None
        index = self._step_index_of.get(space)
        return None if index is None else index + 1

    def step_used(self) -> list[int]:
        """Words used per step, youngest first (Table 1's columns)."""
        return [space.used for space in self.steps]

    def managed_spaces(self) -> frozenset[FlatSpace]:
        return frozenset(self.steps)

    def _export_structure(self) -> dict:
        # Renumbering reorders ``steps`` without renaming the spaces,
        # so the logical order is recoverable from the name list alone.
        return {"step_order": [space.name for space in self.steps]}

    def _import_structure(self, state: dict) -> None:
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
        if new_j < self.j:
            # Recording touches no space: the id lists are walked in
            # place.
            record = self.remset_steps.record_barrier
            for space in self.steps[:new_j]:
                self._remember_crossings(space.object_ids(), new_j, record)
        self.j = new_j

    def _remember_crossings(self, obj_ids, j: int, record) -> None:
        """``record(obj_id, slot)`` every slot of ``obj_ids`` that
        points into a step above ``j``."""
        heap = self.heap
        for obj_id in obj_ids:
            for slot, ref in heap.ref_slots(obj_id):
                dst = self.step_number(ref)
                if dst is not None and dst > j:
                    record(obj_id, slot)
                    self.stats.remset_entries_created += 1

    def _reset_boundary(self) -> None:
        """The protected steps are empty (after a collection or a static
        promotion), so no protected-to-collectable pointer exists: empty
        the remembered sets wholesale and choose a new ``j``."""
        for remset in self._remsets:
            remset.clear()
        self.j = self.policy.choose_j(
            StepSnapshot(
                step_used=self.step_used(),
                step_capacity=[self.step_words] * self.step_count,
                remset_size=len(self.remset_steps),
                projected_remset_growth=0,
            )
        )

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Collect steps j+1..k, renumber, and choose a new ``j``."""
        protected = self._protected_list
        collectable = self._collectable_list
        condemned = self._condemned(collectable)
        region = set(condemned)
        self._start_collection(
            "non-predictive", j=self._j, collectable_steps=len(collectable)
        )

        seeds = self._root_ids()
        seeds.extend(self._protected_seeds(protected, region))
        marked = self._trace_region(region, seeds, count_work=False)
        live, reclaimed = self._reclaim(condemned, protected, marked)
        self._reset_boundary()
        self._end_pause("non-predictive", live, reclaimed, live)

    def on_static_promotion(self) -> None:
        super().on_static_promotion()
        self._reset_boundary()

    def _condemned(self, collectable: list[FlatSpace]) -> list[FlatSpace]:
        """The spaces a collection traces and empties, in the order
        their survivors are extracted: steps ``j+1..k``."""
        return collectable

    def _protected_seeds(
        self, protected: list[FlatSpace], region: set[FlatSpace]
    ) -> list[int]:
        """Ids in the region that the protected steps point at."""
        return self._remset_seeds(
            self._remsets, region, sources=self._protected_set
        )

    @abc.abstractmethod
    def _reclaim(
        self,
        condemned: list[FlatSpace],
        protected: list[FlatSpace],
        marked: set[int],
    ) -> tuple[int, int]:
        """Free the unmarked objects of ``condemned``, renumber the
        collectable steps ahead of ``protected`` and settle the
        survivors; returns ``(live words, reclaimed words)``."""

    def _extract_survivors(
        self, condemned: list[FlatSpace], marked: set[int]
    ) -> tuple[list[int], int]:
        """Detach the marked objects of ``condemned``, space by space,
        and free the rest; returns ``(survivor ids, words freed)``."""
        survivors: list[int] = []
        reclaimed = 0
        for space in condemned:
            ids, freed = self.heap.extract_live(space, marked)
            survivors.extend(ids)
            reclaimed += freed
        return survivors, reclaimed

    def _renumber(self, new_order: list[FlatSpace]) -> None:
        """Old steps j+1..k become 1..k-j; old 1..j become k-j+1..k
        (they are exchanged, not collected — Table 1's "*")."""
        if self.metrics is not None:
            self.metrics.event(
                "renumbering", order=[space.name for space in new_order]
            )
        self.steps = new_order
        self._step_index_of = {
            space: index for index, space in enumerate(new_order)
        }
        self._refresh_partition()

    def _pack_survivors(
        self, survivors: list[int], cursor: int, floor: int = 0
    ) -> tuple[int, int]:
        """Place already-extracted survivors top-down: each "to the
        highest-numbered step that contains free space" at or below
        the moving cursor (0-based; it never moves back up) and not
        below ``floor``.

        Steps are always bounded, so the inlined placement checks
        capacity directly.  Returns ``(words placed, survivors
        placed)``; packing stops at the first survivor that fits no
        such step, and what becomes of it and the rest is the caller's
        decision.
        """
        steps = self.steps
        size_of = self.heap.size_of
        place = self.heap.place_id
        live = 0
        for position, oid in enumerate(survivors):
            size = size_of(oid)
            while cursor >= floor:
                space = steps[cursor]
                if space.used + size <= space.capacity:
                    break
                cursor -= 1
            else:
                return live, position
            place(oid, space, size)
            live += size
        return live, len(survivors)

    def _remset_seeds(
        self,
        remsets,
        region: set[FlatSpace],
        sources: set[FlatSpace] | None = None,
    ) -> list[int]:
        """Seed ids from remembered slots pointing into the region.

        With ``sources`` (the protected steps) only entries whose
        source currently resides there contribute; entries between two
        collectable steps are redundant (the trace reaches their
        targets if live) and are skipped.  Without, any source counts.
        """
        seeds: list[int] = []
        heap = self.heap
        slot_ref = heap.slot_ref
        space_if_live = heap.space_if_live
        for remset in remsets:
            for obj_id, slot in list(remset.entries()):
                self.stats.roots_traced += 1
                probe = slot_ref(obj_id, slot)
                if probe is None:
                    continue
                if sources is not None and probe[0] not in sources:
                    continue
                if space_if_live(probe[1]) in region:
                    seeds.append(probe[1])
        return seeds

    # ------------------------------------------------------------------
    # Invariants (used by tests and the heap auditor)
    # ------------------------------------------------------------------

    def check_step_invariants(self) -> None:
        """Raise AssertionError if the step structure is inconsistent."""
        steps, j = self.steps, self._j
        assert len(steps) == len(self._step_index_of)
        for index, space in enumerate(steps):
            assert self._step_index_of[space] == index
            assert space.capacity == self.step_words
            assert 0 <= space.used <= self.step_words
        assert 0 <= j <= self.step_count // 2
        assert self._protected_list == steps[:j]
        assert self._collectable_list == steps[j:]
        assert self._protected_set == set(steps[:j])
