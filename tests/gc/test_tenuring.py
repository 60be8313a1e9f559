"""Tests for the tenuring (promotion-threshold) policy.

The paper's §9 points at the promotion-policy literature (Ungar &
Jackson's adaptive tenuring among others); the generational collector
supports survive-N-collections tenuring with tenuring overflow, and
these tests pin its semantics.
"""

from __future__ import annotations

import pytest

from repro.gc.generational import GenerationalCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum


def setup(generation_words=(40, 200), **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = GenerationalCollector(
        heap, roots, list(generation_words), **kwargs
    )
    return heap, roots, collector


class TestTenuring:
    def test_threshold_one_promotes_immediately(self):
        heap, roots, collector = setup(promotion_threshold=1)
        frame = roots.push_frame()
        obj = collector.allocate_id(4)
        frame.push(obj)
        collector.collect_generations(0)
        assert collector.generation_index(obj) == 1

    def test_underage_survivor_stays(self):
        heap, roots, collector = setup(promotion_threshold=2)
        frame = roots.push_frame()
        obj = collector.allocate_id(4)
        frame.push(obj)
        collector.collect_generations(0)
        assert collector.generation_index(obj) == 0  # one survival: stays
        collector.collect_generations(0)
        assert collector.generation_index(obj) == 1  # second: promoted

    def test_stayer_still_charged_copy_work(self):
        heap, roots, collector = setup(promotion_threshold=2)
        frame = roots.push_frame()
        frame.push(collector.allocate_id(4))
        collector.collect_generations(0)
        assert collector.stats.words_copied == 4
        assert collector.stats.words_promoted == 0

    def test_tenuring_overflow_promotes_early(self):
        heap, roots, collector = setup(
            generation_words=(40, 200),
            promotion_threshold=5,
            tenuring_overflow_fraction=0.25,
        )
        frame = roots.push_frame()
        # 24 words of survivors > 25% of the 40-word nursery.
        kept = [collector.allocate_id(8) for _ in range(3)]
        for obj in kept:
            frame.push(obj)
        collector.collect_generations(0)
        for obj in kept:
            assert collector.generation_index(obj) == 1

    def test_full_collection_ignores_threshold(self):
        heap, roots, collector = setup(promotion_threshold=10)
        frame = roots.push_frame()
        obj = collector.allocate_id(4)
        frame.push(obj)
        collector.collect()
        assert collector.generation_index(obj) == 1

    def test_counts_reset_on_promotion(self):
        heap, roots, collector = setup(promotion_threshold=2)
        frame = roots.push_frame()
        obj = collector.allocate_id(4)
        frame.push(obj)
        collector.collect_generations(0)
        collector.collect_generations(0)
        assert collector.generation_index(obj) == 1
        assert obj not in collector._survival_counts

    def test_counts_dropped_for_the_dead(self):
        heap, roots, collector = setup(promotion_threshold=3)
        frame = roots.push_frame()
        obj = collector.allocate_id(4)
        slot = frame.push(obj)
        collector.collect_generations(0)
        assert obj in collector._survival_counts
        frame.set(slot, None)
        collector.collect_generations(0)
        assert obj not in collector._survival_counts

    def test_validation(self):
        with pytest.raises(ValueError):
            setup(promotion_threshold=0)
        with pytest.raises(ValueError):
            setup(tenuring_overflow_fraction=0.0)
        with pytest.raises(ValueError):
            setup(tenuring_overflow_fraction=1.5)


class TestTenuringRemsetCompleteness:
    def test_promoted_object_pointing_at_stayer_is_remembered(self):
        # The situation-2 analogue tenuring introduces: a promoted
        # object may point at an under-age stayer in the nursery; that
        # pointer must be a root for the next minor collection.
        machine = Machine(
            lambda heap, roots: GenerationalCollector(
                heap, roots, [200, 800], promotion_threshold=2
            )
        )
        collector = machine.collector
        heap = machine.heap
        young = machine.cons(Fixnum(1), None)  # will stay (age 1)
        old = machine.cons(young, None)  # same age...
        # Age `old` once more so its count passes the threshold while
        # `young` is freshly re-created.
        collector.collect_generations(0)  # both stay (age 1)
        collector.collect_generations(0)  # both promoted (age 2)
        fresh = machine.cons(Fixnum(2), None)  # brand new in nursery
        machine.set_cdr(old, fresh)  # old (gen 1) -> fresh (gen 0): barrier
        fresh_id = fresh.obj_id
        del fresh  # reachable only through `old`
        import gc as python_gc

        python_gc.collect()
        collector.collect_generations(0)
        assert heap.contains_id(fresh_id)
        # And the structure reads back correctly.
        assert machine.car(machine.cdr(old)) == Fixnum(2)

    def test_stayer_entries_survive_minor_collection(self):
        # A stayer's remembered-set entry (it points into a younger
        # generation) must not be wiped by the clear-on-minor path.
        machine = Machine(
            lambda heap, roots: GenerationalCollector(
                heap, roots, [200, 800, 1600], promotion_threshold=2
            )
        )
        collector = machine.collector
        heap = machine.heap
        # Promote a holder to generation 1.
        holder = machine.cons(None, None)
        collector.collect_generations(0)
        collector.collect_generations(0)
        assert collector.generation_index(holder.obj_id) == 1
        # Point it at a nursery object; entry lands in remset[1].
        young = machine.cons(Fixnum(7), None)
        machine.set_car(holder, young)
        assert len(collector.remsets[1]) == 1
        young_id = young.obj_id
        del young
        import gc as python_gc

        python_gc.collect()
        # Minor collection of gen 0 only: holder's entry is consumed as
        # a seed; the young object is promoted and stays reachable.
        collector.collect_generations(0)
        assert heap.contains_id(young_id)
        assert machine.car(machine.car(holder)) == Fixnum(7)
