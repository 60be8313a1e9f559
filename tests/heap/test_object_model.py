"""Tests for object handles and the slot-value tagging discipline."""

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
        return heap.allocate(size, field_count, space, kind)

    return allocate


class TestConstruction:
    def test_basic_fields(self, space, new_object):
        new_object(100, 0)  # the clock now reads 100
        obj = new_object(4, 2, kind="pair")
        assert obj.obj_id == 1
        assert obj.size == 4
        assert obj.fields == [None, None]
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

    def test_repr_mentions_kind_and_space(self, space, new_object):
        obj = new_object(2, 2, kind="pair")
        assert "pair" in repr(obj)
        assert "space=s" in repr(obj)
        space.remove(obj)
        assert "nowhere" in repr(obj)


class TestReferences:
    def test_references_skips_nulls_and_immediates(self, new_object):
        obj = new_object(8, 5)
        obj.fields[0] = 42  # a reference
        obj.fields[1] = None
        obj.fields[2] = True  # boolean immediate
        obj.fields[3] = Fixnum(7)  # fixnum immediate
        obj.fields[4] = 99  # a reference
        assert list(obj.references()) == [42, 99]

    def test_points_to(self, new_object):
        obj = new_object(4, 2)
        obj.fields[0] = 10
        assert obj.points_to(10)
        assert not obj.points_to(11)

    def test_points_to_ignores_fixnum_collision(self, new_object):
        # A Fixnum(10) immediate must not look like a pointer to id 10.
        obj = new_object(4, 2)
        obj.fields[0] = Fixnum(10)
        assert not obj.points_to(10)


class TestIsRef:
    """``type(value) is int`` is the one tagging test: what a slot holds
    is a reference exactly when ``references()`` yields it."""

    def test_ints_are_refs(self, new_object):
        obj = new_object(2, 2)
        obj.fields[0] = 0
        obj.fields[1] = 12345
        assert list(obj.references()) == [0, 12345]

    def test_non_ints_are_not(self, new_object):
        immediates = [None, True, False, "x", 1.5, Fixnum(3)]
        obj = new_object(len(immediates), len(immediates))
        for slot, value in enumerate(immediates):
            obj.fields[slot] = value  # bool is excluded deliberately
        assert list(obj.references()) == []
