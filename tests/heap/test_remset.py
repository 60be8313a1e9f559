"""Tests for remembered sets (paper Sections 8.3/8.4)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.heap.remset import RememberedSet


class TestRecording:
    def test_barrier_entry(self):
        remset = RememberedSet()
        remset.record_barrier(1, 0)
        assert (1, 0) in remset
        assert len(remset) == 1
        assert remset.barrier_size == 1
        assert remset.promotion_size == 0

    def test_promotion_entry_kept_separate(self):
        # §8.4: promotion-entered entries are kept separate from
        # side-effect-entered entries.
        remset = RememberedSet()
        remset.record_promotion(1, 0)
        remset.record_barrier(2, 1)
        assert remset.promotion_size == 1
        assert remset.barrier_size == 1
        assert list(remset.entries()) == [(2, 1), (1, 0)]

    def test_duplicate_recording_idempotent(self):
        remset = RememberedSet()
        remset.record_barrier(1, 0)
        remset.record_barrier(1, 0)
        assert len(remset) == 1
        assert remset.barrier_records == 2  # traffic still counted

    def test_barrier_supersedes_promotion(self):
        remset = RememberedSet()
        remset.record_promotion(1, 0)
        remset.record_barrier(1, 0)
        assert len(remset) == 1
        assert remset.barrier_size == 1
        assert remset.promotion_size == 0

    def test_promotion_does_not_duplicate_barrier(self):
        remset = RememberedSet()
        remset.record_barrier(1, 0)
        remset.record_promotion(1, 0)
        assert len(remset) == 1
        assert remset.promotion_size == 0

    def test_peak_size_tracked(self):
        remset = RememberedSet()
        for index in range(5):
            remset.record_barrier(index, 0)
        remset.clear()
        assert remset.peak_size == 5


class TestMaintenance:
    def test_prune_returns_dropped_count(self):
        remset = RememberedSet()
        for obj_id in range(4):
            remset.record_barrier(obj_id, 0)
        dropped = remset.prune(lambda entry: entry[0] % 2 == 0)
        assert dropped == 2
        assert sorted(entry[0] for entry in remset.entries()) == [0, 2]

    def test_clear(self):
        remset = RememberedSet()
        remset.record_barrier(1, 0)
        remset.record_promotion(2, 0)
        remset.clear()
        assert len(remset) == 0

    def test_object_ids(self):
        remset = RememberedSet()
        remset.record_barrier(1, 0)
        remset.record_barrier(1, 1)
        remset.record_promotion(3, 0)
        assert remset.object_ids() == {1, 3}


class TestProperties:
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=100,
        )
    )
    def test_len_equals_distinct_entries(self, entries):
        remset = RememberedSet()
        for obj_id, slot in entries:
            remset.record_barrier(obj_id, slot)
        assert len(remset) == len(set(entries))
        assert set(remset.entries()) == set(entries)
