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

    def test_no_hook_is_fine(self):
        barrier = WriteBarrier()
        barrier.on_store(1, 0, 2)
        assert barrier.pointer_stores == 1
