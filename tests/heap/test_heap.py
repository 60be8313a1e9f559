"""Tests for the simulated heap: allocation, movement, tracing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.backend import make_heap
from repro.heap.flat import FlatHeap, HeapError, SpaceFull
from repro.runtime.values import Fixnum


@pytest.fixture
def heap():
    return FlatHeap()


class TestAllocation:
    def test_clock_advances_by_size(self, heap):
        space = heap.add_space("s", 100)
        heap.allocate_id(3, 0, space)
        heap.allocate_id(5, 0, space)
        assert heap.clock == 8
        assert heap.objects_allocated == 2

    def test_birth_is_preallocation_clock(self, heap):
        space = heap.add_space("s", 100)
        first = heap.allocate_id(4, 0, space)
        second = heap.allocate_id(4, 0, space)
        assert heap.birth_of(first) == 0
        assert heap.birth_of(second) == 4

    def test_ids_unique_and_increasing(self, heap):
        space = heap.add_space("s", 100)
        ids = [heap.allocate_id(1, 0, space) for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_static_allocation_skips_clock(self, heap):
        space = heap.add_space("static", None)
        heap.allocate_id(10, 0, space, advance_clock=False)
        assert heap.clock == 0
        assert heap.objects_allocated == 0

    def test_full_space_raises_without_clock_advance(self, heap):
        space = heap.add_space("s", 4)
        heap.allocate_id(4, 0, space)
        with pytest.raises(SpaceFull):
            heap.allocate_id(1, 0, space)
        assert heap.clock == 4

    def test_ids_never_reused_after_free(self, heap):
        space = heap.add_space("s", 100)
        freed = heap.allocate_id(1, 0, space)
        heap.free(freed)
        fresh = heap.allocate_id(1, 0, space)
        assert fresh != freed


class TestSpaces:
    def test_duplicate_space_rejected(self, heap):
        heap.add_space("s", 10)
        with pytest.raises(ValueError):
            heap.add_space("s", 10)

    def test_unknown_space_lookup(self, heap):
        with pytest.raises(KeyError):
            heap.space("nope")

    def test_move_between_spaces(self, heap):
        a = heap.add_space("a", 10)
        b = heap.add_space("b", 10)
        obj = heap.allocate_id(4, 0, a)
        heap.move(obj, b)
        assert heap.space_if_live(obj) is b
        assert a.used == 0
        assert b.used == 4

    def test_move_to_full_space_raises(self, heap):
        a = heap.add_space("a", 10)
        b = heap.add_space("b", 3)
        obj = heap.allocate_id(4, 0, a)
        with pytest.raises(SpaceFull):
            heap.move(obj, b)

    def test_live_words_sums_spaces(self, heap):
        a = heap.add_space("a", 10)
        b = heap.add_space("b", 10)
        heap.allocate_id(4, 0, a)
        heap.allocate_id(5, 0, b)
        assert heap.live_words == 9


class TestFields:
    def test_write_and_read_reference(self, heap):
        space = heap.add_space("s", 10)
        a = heap.allocate_id(2, 2, space)
        b = heap.allocate_id(2, 0, space)
        heap.store_slot(a, 0, b)
        assert heap.load_slot(a, 0) == b
        heap.store_slot(a, 0, None)
        assert heap.load_slot(a, 0) is None

    def test_write_slot_immediate(self, heap):
        space = heap.add_space("s", 10)
        a = heap.allocate_id(2, 2, space)
        heap.store_slot(a, 0, Fixnum(5))
        assert heap.load_slot(a, 0) == Fixnum(5)
        assert heap.ref_slots(a) == []  # an immediate is no reference

    def test_dangling_store_rejected_in_checked_mode(self, heap):
        heap.checked = True
        space = heap.add_space("s", 10)
        a = heap.allocate_id(2, 2, space)
        b = heap.allocate_id(2, 0, space)
        heap.free(b)
        with pytest.raises(HeapError):
            heap.store_slot(a, 0, b)

    def test_dangling_store_allowed_unchecked(self, heap):
        # The per-store probe is off by default (it costs a dict lookup
        # on every pointer write); the dangling slot surfaces later via
        # check_integrity instead of at the store site.
        assert heap.checked is False
        space = heap.add_space("s", 10)
        a = heap.allocate_id(2, 2, space)
        b = heap.allocate_id(2, 0, space)
        heap.free(b)
        heap.store_slot(a, 0, b)
        assert heap.load_slot(a, 0) == b
        with pytest.raises(HeapError):
            heap.check_integrity()

    def test_bad_slot_rejected(self, heap):
        space = heap.add_space("s", 10)
        a = heap.allocate_id(2, 1, space)
        with pytest.raises(HeapError):
            heap.store_slot(a, 5, None)
        with pytest.raises(HeapError):
            heap.load_slot(a, 5)

    def test_get_dangling_id(self, heap):
        with pytest.raises(HeapError):
            heap.get(123)


class TestTracing:
    def _chain(self, heap, space, length):
        objs = [heap.allocate_id(2, 1, space) for _ in range(length)]
        for a, b in zip(objs, objs[1:]):
            heap.store_slot(a, 0, b)
        return objs

    def test_reachability_follows_chain(self, heap):
        space = heap.add_space("s", 100)
        objs = self._chain(heap, space, 5)
        reached = heap.reachable_from([objs[0]])
        assert reached == set(objs)

    def test_reachability_respects_cuts(self, heap):
        space = heap.add_space("s", 100)
        objs = self._chain(heap, space, 5)
        heap.store_slot(objs[2], 0, None)
        reached = heap.reachable_from([objs[0]])
        assert reached == {objs[0], objs[1], objs[2]}

    def test_cycles_terminate(self, heap):
        space = heap.add_space("s", 100)
        a = heap.allocate_id(2, 1, space)
        b = heap.allocate_id(2, 1, space)
        heap.store_slot(a, 0, b)
        heap.store_slot(b, 0, a)
        assert heap.reachable_from([a]) == {a, b}

    def test_empty_roots(self, heap):
        assert heap.reachable_from([]) == set()


class TestIntegrity:
    def test_clean_heap_passes(self, heap):
        space = heap.add_space("s", 100)
        a = heap.allocate_id(2, 1, space)
        b = heap.allocate_id(2, 0, space)
        heap.store_slot(a, 0, b)
        heap.check_integrity()

    def test_detects_accounting_drift(self, heap):
        space = heap.add_space("s", 100)
        heap.allocate_id(2, 0, space)
        space.used = 1  # corrupt deliberately
        with pytest.raises(HeapError):
            heap.check_integrity()

    def test_detects_dangling_reference(self, heap):
        space = heap.add_space("s", 100)
        a = heap.allocate_id(2, 1, space)
        b = heap.allocate_id(2, 0, space)
        heap.store_slot(a, 0, b)
        # free() does not look for referrers: a's slot now dangles.
        heap.free(b)
        with pytest.raises(HeapError):
            heap.check_integrity()


class TestPropertyBased:
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=16), min_size=1, max_size=60
        ),
        free_mask=st.lists(st.booleans(), min_size=1, max_size=60),
    )
    @settings(max_examples=80)
    def test_accounting_invariant_under_alloc_free(self, sizes, free_mask):
        heap = FlatHeap()
        space = heap.add_space("s", None)
        objs = [heap.allocate_id(size, 0, space) for size in sizes]
        for obj, do_free in zip(objs, free_mask):
            if do_free:
                heap.free(obj)
        kept = [
            obj
            for obj, do_free in zip(objs, free_mask + [False] * len(objs))
            if not do_free
        ]
        assert space.used == sum(heap.size_of(obj) for obj in kept)
        assert heap.clock == sum(sizes)
        heap.check_integrity()


class TestMakeHeap:
    def test_accepts_only_the_flat_name(self):
        assert isinstance(make_heap("flat", checked=True), FlatHeap)
        assert make_heap().checked is False
        with pytest.raises(ValueError, match="unknown heap backend 'object'"):
            make_heap("object")
