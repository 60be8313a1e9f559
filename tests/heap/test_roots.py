"""Tests for the root set: globals, shadow stack, providers."""

from __future__ import annotations

import pytest

from repro.heap.roots import RootSet


class TestGlobals:
    def test_set_and_enumerate(self):
        roots = RootSet()
        roots.set_global("a", 1)
        roots.set_global("b", 2)
        assert sorted(roots.ids()) == [1, 2]

    def test_none_global_not_enumerated(self):
        roots = RootSet()
        roots.set_global("a", None)
        assert list(roots.ids()) == []

    def test_overwrite(self):
        roots = RootSet()
        roots.set_global("a", 1)
        roots.set_global("a", 2)
        assert list(roots.ids()) == [2]

    def test_remove(self):
        roots = RootSet()
        roots.set_global("a", 1)
        roots.remove_global("a")
        assert list(roots.ids()) == []
        assert roots.get_global_id("a") is None


class TestShadowStack:
    def test_frames_enumerate_in_order(self):
        roots = RootSet()
        frame1 = roots.push_frame()
        frame1.push(1)
        frame2 = roots.push_frame()
        frame2.push(2)
        assert list(roots.ids()) == [1, 2]
        roots.pop_frame(frame2)
        assert list(roots.ids()) == [1]

    def test_pop_requires_top_frame(self):
        roots = RootSet()
        frame1 = roots.push_frame()
        roots.push_frame()
        with pytest.raises(ValueError):
            roots.pop_frame(frame1)

    def test_pop_removes_roots(self):
        roots = RootSet()
        frame = roots.push_frame()
        frame.push(1)
        roots.pop_frame(frame)
        assert list(roots.ids()) == []

    def test_slot_update(self):
        roots = RootSet()
        frame = roots.push_frame()
        slot = frame.push(1)
        frame.set(slot, None)
        assert list(roots.ids()) == []
        frame.set(slot, 9)
        assert list(roots.ids()) == [9]
        assert list(frame.ids()) == [9]

    def test_push_id(self):
        """A frame slot holds an object id, or None for no root."""
        roots = RootSet()
        frame = roots.push_frame()
        frame.push(5)
        frame.push(None)
        assert list(roots.ids()) == [5]
        assert len(frame) == 2


class TestProviders:
    def test_provider_ids_included(self):
        roots = RootSet()
        handles = {10, 20}
        roots.add_provider(lambda: list(handles))
        assert sorted(roots.ids()) == [10, 20]
        handles.add(30)
        assert sorted(roots.ids()) == [10, 20, 30]

    def test_len_counts_everything(self):
        roots = RootSet()
        roots.set_global("a", 1)
        frame = roots.push_frame()
        frame.push(2)
        roots.add_provider(lambda: [3, 4])
        assert len(roots) == 4
