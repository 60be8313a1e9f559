"""Tests for the non-generational mark/sweep collector."""

from __future__ import annotations

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


def setup(heap_words=100, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = MarkSweepCollector(heap, roots, heap_words, **kwargs)
    return heap, roots, collector


class TestAllocation:
    def test_allocates_in_heap_space(self):
        heap, _, collector = setup()
        obj = collector.allocate_id(4)
        assert heap.space_if_live(obj) is collector.space
        assert collector.stats.words_allocated == 4

    def test_collects_when_full(self):
        heap, roots, collector = setup(heap_words=10)
        for _ in range(5):
            collector.allocate_id(2)  # all garbage (no roots)
        obj = collector.allocate_id(2)  # forces a collection
        assert collector.stats.collections == 1
        assert heap.contains_id(obj)

    def test_exhaustion_without_expand(self):
        heap, roots, collector = setup(heap_words=10, auto_expand=False)
        frame = roots.push_frame()
        for _ in range(5):
            frame.push(collector.allocate_id(2))
        with pytest.raises(HeapExhausted):
            collector.allocate_id(2)

    def test_auto_expand_keeps_load_factor(self):
        heap, roots, collector = setup(heap_words=10, load_factor=2.0)
        frame = roots.push_frame()
        for _ in range(20):
            frame.push(collector.allocate_id(2))
        live = sum(1 for _ in frame.ids()) * 2
        assert collector.space.capacity >= live


class TestCollection:
    def test_preserves_rooted_objects(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.allocate_id(4)  # garbage
        collector.collect()
        assert heap.contains_id(kept)
        assert heap.object_count == 1

    def test_preserves_transitively_reachable(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        a = collector.allocate_id(2, field_count=1)
        b = collector.allocate_id(2, field_count=1)
        c = collector.allocate_id(2)
        heap.store_slot(a, 0, b)
        heap.store_slot(b, 0, c)
        frame.push(a)
        collector.collect()
        assert heap.object_count == 3

    def test_reclaims_cycles(self):
        heap, roots, collector = setup()
        a = collector.allocate_id(2, field_count=1)
        b = collector.allocate_id(2, field_count=1)
        heap.store_slot(a, 0, b)
        heap.store_slot(b, 0, a)
        collector.collect()
        assert heap.object_count == 0

    def test_work_accounting(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        frame.push(collector.allocate_id(4))
        collector.allocate_id(6)  # garbage
        collector.collect()
        stats = collector.stats
        assert stats.words_marked == 4
        assert stats.words_swept == 10
        assert stats.words_reclaimed == 6
        assert stats.mark_cons == pytest.approx(4 / 10)

    def test_pause_records(self):
        heap, roots, collector = setup()
        collector.allocate_id(4)
        collector.collect()
        (pause,) = collector.stats.pauses
        assert pause.kind == "full"
        assert pause.reclaimed == 4
        assert pause.live == 0

    def test_integrity_after_collection(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        for index in range(10):
            obj = collector.allocate_id(2, field_count=1)
            if index % 3 == 0:
                frame.push(obj)
        collector.collect()
        heap.check_integrity()


class TestValidation:
    def test_rejects_bad_heap_size(self):
        with pytest.raises(ValueError):
            setup(heap_words=0)

    def test_rejects_bad_load_factor(self):
        with pytest.raises(ValueError):
            setup(load_factor=1.0)

    def test_describe(self):
        _, _, collector = setup()
        assert "mark-sweep" in collector.describe()
