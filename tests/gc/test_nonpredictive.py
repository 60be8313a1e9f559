"""Tests for the non-predictive collector (paper Section 4 and 8).

What it shares with the hybrid — the step machine's geometry checks,
``reduce_j``, the renumbering, the snapshot's step half — is tested on
both kinds in ``test_steps.py``; the cases here are this collector's
own: allocation into the steps, its barrier and the scan ablation.
"""

from __future__ import annotations

import pytest

from repro.core.policy import FixedJPolicy, HalfEmptyPolicy
from repro.gc.collector import HeapExhausted
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


def setup(step_count=6, step_words=10, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap, roots, step_count, step_words, **kwargs
    )
    return heap, roots, collector


class TestAllocationOrder:
    def test_fills_highest_numbered_step_first(self):
        heap, _, collector = setup()
        obj = collector.allocate_id(4)
        assert collector.step_number(obj) == 6

    def test_descends_when_step_fills(self):
        heap, _, collector = setup(step_count=3, step_words=4)
        first = collector.allocate_id(4)
        second = collector.allocate_id(4)
        assert collector.step_number(first) == 3
        assert collector.step_number(second) == 2

    def test_oversized_object_rejected(self):
        _, _, collector = setup(step_words=4)
        with pytest.raises(ValueError):
            collector.allocate_id(5)

    def test_bump_pointer_closes_slivers(self):
        # A step with a sliver too small for the request is closed;
        # later smaller objects do not reopen it.
        heap, _, collector = setup(step_count=3, step_words=5)
        collector.allocate_id(4)  # step 3, 1 word sliver
        big = collector.allocate_id(2)  # closes step 3, goes to step 2
        small = collector.allocate_id(1)  # still step 2
        assert collector.step_number(big) == 2
        assert collector.step_number(small) == 2


class TestCollection:
    def test_collection_triggered_when_all_steps_full(self):
        heap, roots, collector = setup(step_count=3, step_words=4)
        for _ in range(3):
            collector.allocate_id(4)  # garbage
        collector.allocate_id(4)
        assert collector.stats.collections == 1

    def test_protected_objects_survive_even_if_garbage(self):
        # "The collector essentially assumes that all objects in steps
        # 1 through j are live."
        heap, roots, collector = setup(
            step_count=4, step_words=4, policy=FixedJPolicy(1), initial_j=1
        )
        for _ in range(3):
            collector.allocate_id(4)
        doomed = collector.allocate_id(4)  # lands in step 1, unrooted
        assert collector.step_number(doomed) == 1
        collector.collect()
        assert heap.contains_id(doomed)

    def test_collectable_garbage_reclaimed(self):
        heap, roots, collector = setup(step_count=4, step_words=4, initial_j=1)
        doomed = [collector.allocate_id(4) for _ in range(3)]
        collector.allocate_id(4)
        collector.collect()
        for obj in doomed:
            assert not heap.contains_id(obj)

    def test_survivors_packed_into_highest_free_steps(self):
        heap, roots, collector = setup(
            step_count=4, step_words=4, policy=FixedJPolicy(0), initial_j=0
        )
        frame = roots.push_frame()
        survivors = []
        for _ in range(4):
            obj = collector.allocate_id(4)
            survivors.append(obj)
            frame.push(obj)
        collector.collect()
        # Everything lives: survivors should occupy the top steps.
        numbers = sorted(collector.step_number(obj) for obj in survivors)
        assert numbers == [1, 2, 3, 4]
        collector.check_step_invariants()

    def test_copy_work_counts_survivors_only(self):
        heap, roots, collector = setup(step_count=4, step_words=4, initial_j=0)
        frame = roots.push_frame()
        frame.push(collector.allocate_id(4))
        for _ in range(3):
            collector.allocate_id(4)
        collector.collect()
        assert collector.stats.words_copied == 4
        assert collector.stats.words_reclaimed == 12

    def test_policy_chooses_new_j_after_collection(self):
        heap, roots, collector = setup(
            step_count=8, step_words=4, policy=HalfEmptyPolicy(), initial_j=0
        )
        for _ in range(8):
            collector.allocate_id(4)  # all garbage
        collector.collect()
        # Everything died: all 8 steps empty, so j = min(8//2, 8//2) = 4.
        assert collector.j == 4

    def test_exhaustion_when_everything_lives(self):
        heap, roots, collector = setup(step_count=4, step_words=4, initial_j=0)
        frame = roots.push_frame()
        with pytest.raises(HeapExhausted):
            for _ in range(10):
                frame.push(collector.allocate_id(4))


class TestRememberedSet:
    def _fill_protected(self, collector, roots, frame):
        """Run one collection so there is a protected region to use."""
        for _ in range(collector.step_count):
            collector.allocate_id(4)
        collector.collect()

    def test_barrier_records_protected_to_collectable(self):
        heap, roots, collector = setup(step_count=4, step_words=8, initial_j=2)
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)  # step 4 (collectable)
        frame.push(old)
        # Descend into the protected region (fill steps 4 and 3).
        for _ in range(7):
            collector.allocate_id(2)
        young = collector.allocate_id(2, field_count=1)
        frame.push(young)
        assert collector.step_number(young) <= 2  # protected
        collector.remember_store_id(young, 0, old)
        assert (young, 0) in collector.remset

    def test_barrier_ignores_collectable_sources(self):
        heap, roots, collector = setup(step_count=4, step_words=8, initial_j=1)
        frame = roots.push_frame()
        a = collector.allocate_id(2, field_count=1)  # step 4
        b = collector.allocate_id(2, field_count=1)  # step 4
        frame.push(a)
        frame.push(b)
        collector.remember_store_id(a, 0, b)
        assert len(collector.remset) == 0

    def test_remset_keeps_collectable_target_alive(self):
        # An object reachable ONLY from a protected-step slot must
        # survive the collection of the collectable steps.
        heap, roots, collector = setup(step_count=4, step_words=4, initial_j=1)
        target = collector.allocate_id(4, field_count=0)  # step 4, unrooted
        collector.allocate_id(4)  # step 3, garbage
        collector.allocate_id(4)  # step 2, garbage
        holder = collector.allocate_id(4, field_count=1)  # step 1, protected
        heap.store_slot(holder, 0, target)
        collector.remember_store_id(holder, 0, target)
        collector.collect()
        assert heap.contains_id(target)
        assert heap.contains_id(holder)
        heap.check_integrity()

    def test_remset_cleared_after_collection(self):
        heap, roots, collector = setup(step_count=4, step_words=4, initial_j=1)
        target = collector.allocate_id(4)
        collector.allocate_id(4)
        collector.allocate_id(4)
        holder = collector.allocate_id(4, field_count=1)
        heap.store_slot(holder, 0, target)
        collector.remember_store_id(holder, 0, target)
        collector.collect()
        assert len(collector.remset) == 0

    def test_scan_protected_mode(self):
        # use_remset=False scans the protected steps wholesale (§8.6's
        # costly alternative) and must be equally safe.
        heap, roots, collector = setup(
            step_count=4, step_words=4, initial_j=1, use_remset=False
        )
        target = collector.allocate_id(4)
        collector.allocate_id(4)
        collector.allocate_id(4)
        holder = collector.allocate_id(4, field_count=1)
        heap.store_slot(holder, 0, target)
        collector.collect()
        assert heap.contains_id(target)


class TestReduceJ:
    def test_reduce_to_same_value_is_noop(self):
        _, _, collector = setup(initial_j=1)
        collector.reduce_j(1)
        assert collector.j == 1


class TestValidation:
    def test_describe(self):
        _, _, collector = setup()
        assert "non-predictive" in collector.describe()
