"""Tests for the lifetime-driven mutator engine."""

from __future__ import annotations

import pytest

from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.synthetic import FixedLifetimeSchedule


def setup(schedule, heap_words=10_000, object_words=1):
    heap = FlatHeap()
    roots = RootSet()
    collector = MarkSweepCollector(heap, roots, heap_words)
    mutator = LifetimeDrivenMutator(
        collector, roots, schedule, object_words=object_words
    )
    return heap, roots, collector, mutator


class TestDriving:
    def test_step_allocates_one_object(self):
        heap, _, collector, mutator = setup(FixedLifetimeSchedule(5))
        mutator.run_objects(1)
        assert collector.stats.objects_allocated == 1
        assert heap.clock == 1
        assert mutator.live_objects == 1

    def test_run_allocates_requested_words(self):
        heap, _, collector, mutator = setup(
            FixedLifetimeSchedule(5), object_words=3
        )
        mutator.run(30)
        assert heap.clock == 30
        assert collector.stats.objects_allocated == 10

    def test_run_rounds_up_to_whole_objects(self):
        heap, _, collector, mutator = setup(
            FixedLifetimeSchedule(5), object_words=3
        )
        mutator.run(31)
        assert heap.clock == 33
        assert collector.stats.objects_allocated == 11

    def test_non_positive_runs_are_no_ops(self):
        heap, _, _, mutator = setup(FixedLifetimeSchedule(5))
        for amount in (0, -3):
            mutator.run(amount)
            mutator.run_objects(amount)
        assert heap.clock == 0
        assert mutator.held_ids() == []

    def test_runs_carry_the_choreography(self):
        # Deaths scheduled in one run fall due in the next, and the
        # freed slots are reused.
        _, _, _, mutator = setup(FixedLifetimeSchedule(4))
        for _ in range(10):
            mutator.run(3)
        mutator.release_due()
        assert mutator.live_objects == 4
        assert len(mutator.held_ids()) == 4

    def test_run_objects(self):
        heap, _, collector, mutator = setup(FixedLifetimeSchedule(5))
        mutator.run_objects(7)
        assert collector.stats.objects_allocated == 7
        assert heap.clock == 7


class TestLifetimes:
    def test_fixed_lifetime_population(self):
        # With lifetime L and unit objects, the steady-state live
        # population is exactly L.
        _, _, _, mutator = setup(FixedLifetimeSchedule(20))
        mutator.run(200)
        mutator.release_due()  # deaths due exactly now
        assert mutator.live_objects == 20

    def test_deaths_release_roots(self):
        heap, roots, collector, mutator = setup(FixedLifetimeSchedule(3))
        mutator.run(50)
        mutator.release_due()
        live_ids = set(mutator.held_ids())
        assert len(live_ids) == 3
        collector.collect()
        # Only the held objects survive the collection.
        assert set(heap.object_ids()) == live_ids

    def test_release_due_is_idempotent(self):
        _, _, _, mutator = setup(FixedLifetimeSchedule(5))
        mutator.run(20)
        mutator.release_due()
        before = mutator.live_objects
        mutator.release_due()
        assert mutator.live_objects == before

    def test_release_all(self):
        heap, _, collector, mutator = setup(FixedLifetimeSchedule(100))
        mutator.run(50)
        mutator.release_all()
        assert mutator.live_objects == 0
        collector.collect()
        assert heap.object_count == 0

    def test_live_words_scales_with_object_size(self):
        heap, _, _, mutator = setup(FixedLifetimeSchedule(10), object_words=4)
        mutator.run(100)
        held = mutator.held_ids()
        assert len(held) == mutator.live_objects
        assert sum(heap.size_of(obj) for obj in held) == len(held) * 4


class TestValidation:
    def test_rejects_bad_object_size(self):
        with pytest.raises(ValueError):
            setup(FixedLifetimeSchedule(5), object_words=0)

    def test_rejects_non_positive_lifetimes(self):
        class BadSchedule:
            def lifetime_for(self, clock, index):
                return 0

        _, _, _, mutator = setup(BadSchedule())
        with pytest.raises(ValueError):
            mutator.run_objects(1)
