"""Tests for object views and the slot-value tagging discipline."""

from __future__ import annotations

import pytest

from repro.heap.flat import FlatHeap
from repro.runtime.values import Fixnum


@pytest.fixture
def heap():
    return FlatHeap()


@pytest.fixture
def space(heap):
    return heap.add_space("s", None)


@pytest.fixture
def new_object(heap, space):
    def allocate(size: int, field_count: int, kind: str = "data"):
        return heap.allocate_id(size, field_count, space, kind)

    return allocate


class TestConstruction:
    def test_basic_fields(self, heap, space, new_object):
        new_object(100, 0)  # the clock now reads 100
        obj_id = new_object(4, 2, kind="pair")
        assert obj_id == 1
        assert heap.slots_of(obj_id) == [None, None]
        obj = heap.get(obj_id)
        assert obj.obj_id == 1
        assert obj.size == 4
        assert obj.birth == 100
        assert obj.kind == "pair"
        assert obj.space is space
        assert obj.payload is None

    def test_rejects_zero_size(self, new_object):
        with pytest.raises(ValueError):
            new_object(0, 0)

    def test_rejects_negative_field_count(self, new_object):
        with pytest.raises(ValueError):
            new_object(2, -1)

    def test_rejects_more_fields_than_words(self, new_object):
        with pytest.raises(ValueError):
            new_object(2, 3)

    def test_repr_mentions_kind_and_space(self, heap, space, new_object):
        obj_id = new_object(2, 2, kind="pair")
        obj = heap.get(obj_id)
        assert "pair" in repr(obj)
        assert "space=s" in repr(obj)
        space.remove(obj_id)
        assert "nowhere" in repr(obj)


def references(heap, obj_id):
    """The ids an object's slots hold, in slot order."""
    return [ref for _, ref in heap.ref_slots(obj_id)]


class TestReferences:
    def test_references_skips_nulls_and_immediates(self, heap, new_object):
        obj = new_object(8, 5)
        heap.store_slot(obj, 0, 42)  # a reference
        heap.store_slot(obj, 1, None)
        heap.store_slot(obj, 2, True)  # boolean immediate
        heap.store_slot(obj, 3, Fixnum(7))  # fixnum immediate
        heap.store_slot(obj, 4, 99)  # a reference
        assert references(heap, obj) == [42, 99]

    def test_points_to(self, heap, new_object):
        obj = new_object(4, 2)
        heap.store_slot(obj, 0, 10)
        assert 10 in references(heap, obj)
        assert 11 not in references(heap, obj)

    def test_points_to_ignores_fixnum_collision(self, heap, new_object):
        # A Fixnum(10) immediate must not look like a pointer to id 10.
        obj = new_object(4, 2)
        heap.store_slot(obj, 0, Fixnum(10))
        assert 10 not in references(heap, obj)


class TestIsRef:
    """``type(value) is int`` is the one tagging test: what a slot holds
    is a reference exactly when ``ref_slots()`` yields it."""

    def test_ints_are_refs(self, heap, new_object):
        obj = new_object(2, 2)
        heap.store_slot(obj, 0, 0)
        heap.store_slot(obj, 1, 12345)
        assert references(heap, obj) == [0, 12345]

    def test_non_ints_are_not(self, heap, new_object):
        immediates = [None, True, False, "x", 1.5, Fixnum(3)]
        obj = new_object(len(immediates), len(immediates))
        for slot, value in enumerate(immediates):
            heap.store_slot(obj, slot, value)  # bool is excluded deliberately
        assert references(heap, obj) == []
