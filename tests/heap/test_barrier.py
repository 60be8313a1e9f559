"""Tests for the write barrier dispatch and accounting."""

from __future__ import annotations

from repro.heap.barrier import WriteBarrier


class TestBarrier:
    def test_counts_all_stores(self):
        barrier = WriteBarrier()
        barrier.on_store(1, 0, 2)
        barrier.on_store(1, 1, None)
        assert barrier.stores == 2
        assert barrier.pointer_stores == 1

    def test_hook_fires_for_every_store_including_none(self):
        # A snapshot-at-the-beginning collector must see the deleted
        # old value even when the new value is not a pointer, so the
        # hook fires on every store; None marks a non-pointer value.
        seen = []
        barrier = WriteBarrier(
            lambda src, slot, dst: seen.append((src, slot, dst))
        )
        barrier.on_store(1, 0, 2)
        barrier.on_store(1, 1, None)
        assert seen == [(1, 0, 2), (1, 1, None)]

    def test_hook_can_be_swapped(self):
        first, second = [], []
        barrier = WriteBarrier(lambda *args: first.append(args))
        barrier.on_store(1, 0, 2)
        barrier.set_hook(lambda *args: second.append(args))
        barrier.on_store(1, 0, 3)
        assert len(first) == 1
        assert len(second) == 1

    def test_no_hook_is_fine(self):
        barrier = WriteBarrier()
        barrier.on_store(1, 0, 2)
        assert barrier.pointer_stores == 1

    def test_reset_counters(self):
        barrier = WriteBarrier()
        barrier.on_store(1, 0, 2)
        barrier.reset_counters()
        assert barrier.stores == 0
        assert barrier.pointer_stores == 0
