"""Tests for the mark/sweep non-predictive variant (paper §8).

"If the prototype works well, we intend to add an alternative
2-generation non-predictive collector based on a mark/sweep algorithm
with occasional compaction."  This variant frees dead collectable
objects in place and compacts only when the renumbered steps lack the
empty prefix the j-selection rule needs.
"""

from __future__ import annotations

import pytest

from repro.core.policy import FixedJPolicy
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule


def setup(step_count=6, step_words=20, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap, roots, step_count, step_words, algorithm="mark-sweep", **kwargs
    )
    return heap, roots, collector


class TestMarkSweepMode:
    def test_rejects_unknown_algorithm(self):
        heap, roots = FlatHeap(), RootSet()
        with pytest.raises(ValueError):
            NonPredictiveCollector(heap, roots, 4, 10, algorithm="compact")

    def test_survivors_stay_in_place_without_compaction(self):
        heap, roots, collector = setup(
            step_count=4, step_words=8, compaction_threshold=0
        )
        frame = roots.push_frame()
        kept = collector.allocate_id(8)  # fills step 4 entirely
        frame.push(kept)
        for _ in range(3):
            collector.allocate_id(8)  # garbage fills 3..1
        space_before = heap.space_if_live(kept)
        collector.collect()
        # Swept in place, not moved.
        assert heap.space_if_live(kept) is space_before
        assert collector.stats.words_copied == 0
        assert collector.stats.words_marked == 8
        assert collector.stats.words_swept == 32

    def test_dead_objects_freed_in_place(self):
        heap, roots, collector = setup(step_count=4, step_words=8)
        doomed = [collector.allocate_id(8) for _ in range(4)]
        collector.allocate_id(8)  # triggers the collection
        for obj in doomed:
            assert not heap.contains_id(obj)

    def test_sweep_reopens_holes_for_allocation(self):
        heap, roots, collector = setup(
            step_count=4, step_words=8, compaction_threshold=0
        )
        frame = roots.push_frame()
        # Alternate live/dead within steps.
        for index in range(8):
            obj = collector.allocate_id(4)
            if index % 2 == 0:
                frame.push(obj)
        collector.collect()
        # Half of each step is free again; allocation reuses holes.
        obj = collector.allocate_id(4)
        assert heap.contains_id(obj)
        heap.check_integrity()

    def test_compaction_restores_empty_prefix(self):
        heap, roots, collector = setup(
            step_count=8, step_words=8, compaction_threshold=2
        )
        frame = roots.push_frame()
        # Scatter live objects across all steps.
        for index in range(8):
            obj = collector.allocate_id(8)
            if index % 2 == 0:
                frame.push(obj)
        collector.collect()
        assert collector.compactions >= 1
        # After compaction the leading steps are empty again.
        leading_empty = 0
        for space in collector.steps:
            if not space.is_empty():
                break
            leading_empty += 1
        assert leading_empty >= 2
        assert collector.stats.words_copied > 0
        heap.check_integrity()
        collector.check_step_invariants()

    def test_reachability_safety_under_churn(self):
        heap, roots, collector = setup(step_count=8, step_words=40)
        frame = roots.push_frame()
        window = []
        for index in range(300):
            obj = collector.allocate_id(2, field_count=1)
            if window:
                heap.store_slot(window[-1][1], 0, obj)
                collector.remember_store_id(window[-1][1], 0, obj)
            slot = frame.push(obj)
            window.append((slot, obj))
            if len(window) > 10:
                old_slot, _ = window.pop(0)
                frame.set(old_slot, None)
        heap.check_integrity()
        for _, obj in window:
            assert heap.contains_id(obj)

    def test_mark_cons_between_copy_mode_and_baseline_under_decay(self):
        # §4 says the non-predictive policy works over "any of those
        # basic algorithms".  Measured trade-off: the mark/sweep
        # variant still beats the non-generational baseline 1/(L-1)
        # but by less than the copying prototype, because its
        # partial compactions cannot sustain as large an empty prefix
        # (hence as large a protected fraction g) as evacuation does.
        results = {}
        for algorithm in ("stop-and-copy", "mark-sweep"):
            heap = FlatHeap()
            roots = RootSet()
            collector = NonPredictiveCollector(
                heap,
                roots,
                16,
                631,
                algorithm=algorithm,
                compaction_threshold=8,
            )
            mutator = LifetimeDrivenMutator(
                collector, roots, DecaySchedule(2_000.0, seed=8)
            )
            mutator.run(150_000)
            results[algorithm] = collector.stats.mark_cons
        baseline = 0.4  # 1/(L-1) at L=3.5
        assert results["stop-and-copy"] < results["mark-sweep"] < baseline

    def test_protected_steps_untouched_by_sweep(self):
        heap, roots, collector = setup(
            step_count=4,
            step_words=8,
            policy=FixedJPolicy(1),
            initial_j=1,
        )
        for _ in range(3):
            collector.allocate_id(8)
        unrooted_protected = collector.allocate_id(8)  # step 1
        assert collector.step_number(unrooted_protected) == 1
        collector.collect()
        assert heap.contains_id(unrooted_protected)
