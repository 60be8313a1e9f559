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
        heap, _, _, mutator = setup(FixedLifetimeSchedule(5))
        mutator.step()
        assert mutator.allocations == 1
        assert heap.clock == 1

    def test_run_allocates_requested_words(self):
        heap, _, _, mutator = setup(FixedLifetimeSchedule(5), object_words=3)
        mutator.run(30)
        assert heap.clock == 30
        assert mutator.allocations == 10

    def test_run_objects(self):
        heap, _, _, mutator = setup(FixedLifetimeSchedule(5))
        mutator.run_objects(7)
        assert mutator.allocations == 7


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
        _, _, _, mutator = setup(FixedLifetimeSchedule(10), object_words=4)
        mutator.run(100)
        assert mutator.live_words == mutator.live_objects * 4


class TestObserver:
    def test_on_step_sees_every_allocation(self):
        clocks = []
        _, _, _, mutator = setup(FixedLifetimeSchedule(5))
        mutator.on_step = clocks.append
        mutator.run_objects(5)
        assert clocks == [1, 2, 3, 4, 5]


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
            mutator.step()
