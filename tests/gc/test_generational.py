"""Tests for the conventional generational collector."""

from __future__ import annotations

import pytest

from repro.gc.generational import GenerationalCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


def setup(generation_words=(20, 100), **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    collector = GenerationalCollector(
        heap, roots, list(generation_words), **kwargs
    )
    return heap, roots, collector


class TestAllocationAndPromotion:
    def test_allocates_in_nursery(self):
        heap, _, collector = setup()
        obj = collector.allocate_id(4)
        assert heap.space_if_live(obj) is collector.nursery
        assert collector.generation_index(obj) == 0

    def test_minor_collection_promotes_survivors(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(4)
        frame.push(kept)
        collector.collect_generations(0)
        assert collector.generation_index(kept) == 1
        assert collector.nursery.is_empty()
        assert collector.stats.words_promoted == 4
        assert collector.stats.minor_collections == 1

    def test_nursery_fill_triggers_minor(self):
        heap, roots, collector = setup(generation_words=(10, 100))
        for _ in range(6):
            collector.allocate_id(2)
        assert collector.stats.minor_collections >= 1
        assert collector.stats.major_collections == 0

    def test_full_collection_when_old_gen_tight(self):
        heap, roots, collector = setup(
            generation_words=(10, 12), auto_expand_oldest=False
        )
        frame = roots.push_frame()
        # A small live window: promoted-then-dropped objects pile up
        # as garbage in the old generation, forcing full collections.
        slots = []
        for _ in range(20):
            slot = frame.push(collector.allocate_id(2))
            slots.append(slot)
            if len(slots) > 3:
                frame.set(slots.pop(0), None)
        assert collector.stats.major_collections >= 1

    def test_oldest_expands_when_allowed(self):
        heap, roots, collector = setup(
            generation_words=(10, 12), oldest_load_factor=2.0
        )
        frame = roots.push_frame()
        for _ in range(30):
            frame.push(collector.allocate_id(2))
        assert (collector.oldest.capacity or 0) > 12


class TestRememberedSets:
    def test_barrier_records_old_to_young(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_generations(0)  # promote old to gen 1
        young = collector.allocate_id(2)
        frame.push(young)
        collector.remember_store_id(old, 0, young)
        assert (old, 0) in collector.remsets[1]

    def test_barrier_ignores_young_to_old(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2)
        frame.push(old)
        collector.collect_generations(0)
        young = collector.allocate_id(2, field_count=1)
        frame.push(young)
        collector.remember_store_id(young, 0, old)
        assert len(collector.remsets[0]) == 0
        assert len(collector.remsets[1]) == 0

    def test_remset_keeps_unrooted_young_alive(self):
        # The defining remembered-set property: an object reachable
        # ONLY through an old-to-young pointer must survive a minor
        # collection.
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_generations(0)
        young = collector.allocate_id(2)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        # No root points at young; only old's slot does.
        collector.collect_generations(0)
        assert heap.contains_id(young)
        assert collector.generation_index(young) == 1

    def test_stale_entries_pruned_at_collection(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_generations(0)
        young = collector.allocate_id(2)
        frame.push(young)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        heap.store_slot(old, 0, None)  # overwritten: entry now stale
        collector.collect_generations(0)
        assert len(collector.remsets[1]) == 0
        assert collector.stats.remset_entries_pruned >= 1

    def test_full_collection_empties_all_remsets(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        old = collector.allocate_id(2, field_count=1)
        frame.push(old)
        collector.collect_generations(0)
        young = collector.allocate_id(2)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        collector.collect()
        assert all(len(remset) == 0 for remset in collector.remsets)


class TestSafety:
    def test_unreachable_old_objects_reclaimed_by_full(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        doomed = collector.allocate_id(4)
        slot = frame.push(doomed)
        collector.collect_generations(0)  # promoted while rooted
        frame.set(slot, None)
        collector.collect()
        assert not heap.contains_id(doomed)

    def test_integrity_through_many_collections(self):
        heap, roots, collector = setup(generation_words=(16, 64))
        frame = roots.push_frame()
        window = []
        for index in range(200):
            obj = collector.allocate_id(2, field_count=1)
            if window:
                heap.store_slot(obj, 0, window[-1][1])
            slot = frame.push(obj)
            window.append((slot, obj))
            if len(window) > 8:
                old_slot, _ = window.pop(0)
                frame.set(old_slot, None)
        heap.check_integrity()
        for _, obj in window:
            assert heap.contains_id(obj)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            setup(generation_words=(10,))
        with pytest.raises(ValueError):
            setup(generation_words=(0, 10))
        with pytest.raises(ValueError):
            setup(oldest_load_factor=1.0)

    def test_collect_generations_range_checked(self):
        _, _, collector = setup()
        with pytest.raises(ValueError):
            collector.collect_generations(5)
