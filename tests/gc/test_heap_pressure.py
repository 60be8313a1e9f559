"""Tests for graceful heap-pressure degradation.

Exhaustion is a policy, not an accident: collectors collect, then
expand within their configured bound, and only then raise a structured
:class:`HeapExhausted` carrying a per-space occupancy snapshot.

The ``backend`` fixture is the heap name ``make_heap`` accepts.
"""

import random

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.generational import GenerationalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.backend import make_heap
from repro.heap.roots import RootSet


@pytest.fixture(params=["flat"])
def backend(request):
    return request.param


def _fresh(backend):
    return make_heap(backend), RootSet()


class TestExactCapacityBoundary:
    def test_filling_to_exact_capacity_succeeds(self, backend):
        heap, roots = _fresh(backend)
        collector = MarkSweepCollector(heap, roots, 8, auto_expand=False)
        for index in range(2):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        assert collector.space.used == 8

    def test_one_word_past_capacity_exhausts(self, backend):
        heap, roots = _fresh(backend)
        collector = MarkSweepCollector(heap, roots, 8, auto_expand=False)
        for index in range(2):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        with pytest.raises(HeapExhausted) as excinfo:
            collector.allocate_id(1)
        assert excinfo.value.requested == 1

    def test_garbage_at_capacity_is_collected_not_fatal(self, backend):
        heap, roots = _fresh(backend)
        collector = MarkSweepCollector(heap, roots, 8, auto_expand=False)
        collector.allocate_id(4)
        collector.allocate_id(4)  # both unreachable
        obj = collector.allocate_id(4)  # forces a collection, then fits
        roots.set_global("live", obj)
        assert heap.contains_id(obj)


class TestEmergencyCollection:
    def test_tenuring_nursery_wedge_resolved_by_full_collection(
        self, backend
    ):
        # Under-age survivors stay in the nursery after a minor
        # collection (tenuring), so the nursery can still be full; the
        # emergency full collection promotes them all before giving up.
        heap, roots = _fresh(backend)
        collector = GenerationalCollector(
            heap,
            roots,
            [16, 64],
            promotion_threshold=2,
            tenuring_overflow_fraction=1.0,
        )
        stayers = []
        for index in range(4):
            obj = collector.allocate_id(4)
            roots.set_global(f"g{index}", obj)
            stayers.append(obj)
        assert collector.nursery.used == 16
        newcomer = collector.allocate_id(4)  # triggers the emergency path
        roots.set_global("newcomer", newcomer)
        assert heap.contains_id(newcomer)
        for obj in stayers:
            assert collector.generation_index(obj) == 1
        assert collector.nursery.used == 4

    def test_stopcopy_collects_garbage_before_raising(self, backend):
        heap, roots = _fresh(backend)
        collector = StopAndCopyCollector(heap, roots, 8, auto_expand=False)
        collector.allocate_id(4)
        collector.allocate_id(4)  # both unreachable
        obj = collector.allocate_id(8)
        roots.set_global("live", obj)
        assert heap.contains_id(obj)


class TestExpansionCap:
    def test_marksweep_expands_only_to_the_cap(self, backend):
        heap, roots = _fresh(backend)
        collector = MarkSweepCollector(
            heap, roots, 8, auto_expand=True, max_heap_words=16
        )
        for index in range(4):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        assert collector.space.capacity <= 16
        with pytest.raises(HeapExhausted):
            collector.allocate_id(4)
        assert collector.space.capacity <= 16

    def test_stopcopy_expands_only_to_the_cap(self, backend):
        heap, roots = _fresh(backend)
        collector = StopAndCopyCollector(
            heap, roots, 8, auto_expand=True, max_semispace_words=16
        )
        for index in range(4):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        with pytest.raises(HeapExhausted):
            collector.allocate_id(4)
        for space in heap.spaces():
            assert (space.capacity or 0) <= 16

    def test_cap_below_initial_size_rejected(self, backend):
        heap, roots = _fresh(backend)
        with pytest.raises(ValueError):
            MarkSweepCollector(heap, roots, 32, max_heap_words=16)
        heap, roots = _fresh(backend)
        with pytest.raises(ValueError):
            StopAndCopyCollector(heap, roots, 32, max_semispace_words=16)


class TestExhaustionDiagnostics:
    def _exhaust(self, backend):
        heap, roots = _fresh(backend)
        collector = MarkSweepCollector(heap, roots, 8, auto_expand=False)
        for index in range(2):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        with pytest.raises(HeapExhausted) as excinfo:
            collector.allocate_id(4)
        return collector, excinfo.value

    def test_snapshot_carries_per_space_occupancy(self, backend):
        collector, error = self._exhaust(backend)
        assert error.collector is collector
        assert error.requested == 4
        assert error.phase == "allocate"
        spaces = error.snapshot["spaces"]
        assert spaces, "snapshot must list the wedged spaces"
        for entry in spaces:
            assert {"name", "used", "capacity"} <= set(entry)
        wedged = {entry["name"]: entry for entry in spaces}
        assert wedged[collector.space.name]["used"] == 8

    def test_message_names_phase_and_occupancy(self, backend):
        _, error = self._exhaust(backend)
        message = str(error)
        assert "phase allocate" in message
        assert "4 words" in message

    def test_snapshot_is_jsonable(self, backend):
        import json

        _, error = self._exhaust(backend)
        json.dumps(error.snapshot)


class TestSeededFlatPressure:
    """Seeded allocate/drop churn, driven to exhaustion: the arena
    bookkeeping must report the structured diagnostics at any wedge
    point."""

    def _churn_to_exhaustion(self, seed):
        heap, roots = _fresh("flat")
        collector = MarkSweepCollector(heap, roots, 32, auto_expand=False)
        rng = random.Random(seed)
        live = {}
        with pytest.raises(HeapExhausted) as excinfo:
            for step in range(10_000):
                if live and rng.random() < 0.3:
                    name = rng.choice(sorted(live))
                    roots.remove_global(name)
                    del live[name]
                else:
                    size = rng.randint(1, 6)
                    obj = collector.allocate_id(size)
                    name = f"g{step}"
                    roots.set_global(name, obj)
                    live[name] = size
            pytest.fail("churn never exhausted a capped 32-word heap")
        return heap, collector, live, excinfo.value

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_occupancy_snapshot_matches_live_roots(self, seed):
        heap, collector, live, error = self._churn_to_exhaustion(seed)
        # At the wedge the heap holds exactly the rooted survivors: the
        # failed allocation collected first, so no garbage remains.
        expected_used = sum(live.values())
        wedged = {
            entry["name"]: entry for entry in error.snapshot["spaces"]
        }
        entry = wedged[collector.space.name]
        assert entry["used"] == expected_used == collector.space.used
        assert entry["capacity"] == 32
        assert error.requested + expected_used > 32
        heap.check_integrity()

    @pytest.mark.parametrize("seed", [3, 99])
    def test_emergency_collection_path_under_churn(self, seed):
        # A generational heap under the same churn: minor collections
        # tenure under-age survivors in place, so the emergency full
        # collection is what keeps the nursery usable.
        heap, roots = _fresh("flat")
        collector = GenerationalCollector(
            heap,
            roots,
            [16, 128],
            promotion_threshold=3,
            tenuring_overflow_fraction=1.0,
        )
        rng = random.Random(seed)
        live = {}
        for step in range(300):
            if live and rng.random() < 0.4:
                name = rng.choice(sorted(live))
                roots.remove_global(name)
                del live[name]
            else:
                obj = collector.allocate_id(rng.randint(1, 4))
                name = f"g{step}"
                roots.set_global(name, obj)
                live[name] = obj
        assert collector.stats.collections > 0
        for name, obj in live.items():
            assert heap.contains_id(obj), name
        heap.check_integrity()
