"""Tests for spaces and occupancy accounting."""

from __future__ import annotations

import pytest

from repro.heap.flat import FlatHeap, SpaceFull


@pytest.fixture
def heap() -> FlatHeap:
    return FlatHeap()


def make_obj(heap: FlatHeap, size: int) -> int:
    """A detached object of ``size`` words, ready for ``space.add``."""
    try:
        home = heap.space("home")
    except KeyError:
        home = heap.add_space("home", None)
    obj = heap.allocate_id(size, 0, home)
    home.remove(obj)
    return obj


class TestOccupancy:
    def test_starts_empty(self, heap):
        space = heap.add_space("s", 100)
        assert space.used == 0
        assert space.free == 100
        assert space.is_empty()
        assert space.object_count == 0

    def test_add_updates_accounting(self, heap):
        space = heap.add_space("s", 100)
        obj = make_obj(heap, 30)
        space.add(obj)
        assert space.used == 30
        assert space.free == 70
        assert heap.space_if_live(obj) is space
        assert space.contains(obj)

    def test_remove_updates_accounting(self, heap):
        space = heap.add_space("s", 100)
        obj = make_obj(heap, 30)
        space.add(obj)
        space.remove(obj)
        assert space.used == 0
        assert heap.space_if_live(obj) is None
        assert not space.contains(obj)

    def test_fits(self, heap):
        space = heap.add_space("s", 10)
        space.add(make_obj(heap, 6))
        assert space.fits(4)
        assert not space.fits(5)

    def test_overflow_raises_space_full(self, heap):
        space = heap.add_space("s", 10)
        space.add(make_obj(heap, 8))
        with pytest.raises(SpaceFull) as excinfo:
            space.add(make_obj(heap, 3))
        assert excinfo.value.space is space
        assert excinfo.value.requested == 3

    def test_exact_fill_allowed(self, heap):
        space = heap.add_space("s", 10)
        space.add(make_obj(heap, 10))
        assert space.free == 0

    def test_duplicate_add_rejected(self, heap):
        space = heap.add_space("s", 100)
        obj = make_obj(heap, 5)
        space.add(obj)
        with pytest.raises(ValueError):
            space.add(obj)

    def test_remove_absent_rejected(self, heap):
        space = heap.add_space("s", 100)
        with pytest.raises(KeyError):
            space.remove(make_obj(heap, 5))

    def test_unbounded_space(self, heap):
        space = heap.add_space("s", None)
        assert space.fits(10**12)
        space.add(make_obj(heap, 2**24 - 1))  # the largest object
        assert space.used == 2**24 - 1

    def test_negative_capacity_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.add_space("s", -1)


class TestIteration:
    def test_objects_in_insertion_order(self, heap):
        space = heap.add_space("s", 100)
        objs = [heap.allocate_id(1, 0, space) for _ in range(5)]
        assert list(space.object_ids()) == [0, 1, 2, 3, 4]
        # Like a dict, a re-inserted resident goes to the end.
        space.remove(objs[1])
        space.add(objs[1])
        assert list(space.object_ids()) == [0, 2, 3, 4, 1]
