"""Tests for the semispace stop-and-copy collector."""

from __future__ import annotations

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


def setup(semispace_words=50, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = StopAndCopyCollector(heap, roots, semispace_words, **kwargs)
    return heap, roots, collector


class TestGeometry:
    def test_two_semispaces(self):
        heap, _, collector = setup()
        assert collector.tospace is not collector.fromspace
        assert collector.fromspace.is_empty()

    def test_flip_swaps_roles(self):
        heap, roots, collector = setup()
        old_to = collector.tospace
        collector.collect()
        assert collector.fromspace is old_to


class TestCollection:
    def test_survivors_move_to_other_semispace(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.allocate_id(4)  # garbage
        target = collector.fromspace
        collector.collect()
        assert heap.space_if_live(kept) is target
        assert heap.object_count == 1

    def test_fromspace_empty_after_collection(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        for _ in range(5):
            frame.push(collector.allocate_id(2))
        collector.collect()
        assert collector.fromspace.is_empty()
        heap.check_integrity()

    def test_work_proportional_to_live_only(self):
        # Dead objects are abandoned, never touched — the property
        # that makes stop-and-copy cheap for young generations (§7).
        heap, roots, collector = setup(semispace_words=1000)
        frame = roots.push_frame()
        frame.push(collector.allocate_id(10))
        for _ in range(50):
            collector.allocate_id(10)  # garbage
        collector.collect()
        assert collector.stats.words_copied == 10
        assert collector.stats.words_reclaimed == 500

    def test_cheney_scan_reaches_nested_structure(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        a = collector.allocate_id(2, field_count=2)
        b = collector.allocate_id(2, field_count=1)
        c = collector.allocate_id(2)
        heap.store_slot(a, 0, b)
        heap.store_slot(a, 1, c)
        heap.store_slot(b, 0, c)
        frame.push(a)
        collector.collect()
        assert heap.object_count == 3
        assert collector.stats.words_copied == 6

    def test_shared_object_copied_once(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        shared = collector.allocate_id(2)
        a = collector.allocate_id(2, field_count=1)
        b = collector.allocate_id(2, field_count=1)
        heap.store_slot(a, 0, shared)
        heap.store_slot(b, 0, shared)
        frame.push(a)
        frame.push(b)
        collector.collect()
        assert collector.stats.words_copied == 6  # not 8


class TestAllocationAndSizing:
    def test_collects_when_tospace_full(self):
        heap, roots, collector = setup(semispace_words=10)
        for _ in range(5):
            collector.allocate_id(2)
        collector.allocate_id(2)
        assert collector.stats.collections == 1

    def test_exhaustion_when_fixed(self):
        heap, roots, collector = setup(semispace_words=10, auto_expand=False)
        frame = roots.push_frame()
        for _ in range(5):
            frame.push(collector.allocate_id(2))
        with pytest.raises(HeapExhausted):
            collector.allocate_id(2)

    def test_auto_expand_grows_both_semispaces(self):
        heap, roots, collector = setup(semispace_words=10, load_factor=2.0)
        frame = roots.push_frame()
        for _ in range(20):
            frame.push(collector.allocate_id(2))
        assert collector.tospace.capacity == collector.fromspace.capacity
        assert collector.peak_semispace_words >= 40

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            setup(semispace_words=0)
        with pytest.raises(ValueError):
            setup(load_factor=0.5)
