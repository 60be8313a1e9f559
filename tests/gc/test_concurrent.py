"""Tests for the concurrent (off-thread marking) collector.

Five layers:

* the handoff machinery — cycles open with a marker in flight, the
  handoff pause is priced at zero words, allocation stays black, and
  a clean run's reconcile scan does zero words of work (the
  shrinking-reachability argument, observed);
* equivalence — seeded mutation storms must produce exactly the
  unbounded incremental collector's counters and survivor set, and
  the pool marker must be byte-identical to the inline one (process
  placement is not an observable);
* the resilient-marker ladder — a hung worker ends in a discarded
  cycle and an inline re-mark of the same heap, and the attempt salt
  perturbs only traversal order, never the result;
* lifecycle — errors travel back as data and raise at reconciliation,
  and close/collect/static-promotion all discard the pending marker;
* overlap — ``marker_overlap()``, the share of mark work a worker
  finished while the mutator ran, reads 0 inline and above 0 with a
  real marker on the decay workload.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest

from repro.gc import concurrent as concurrent_module
from repro.gc.concurrent import (
    ConcurrentCollector,
    WedgedMarkerError,
    _mark_snapshot_task,
)
from repro.gc.incremental import IncrementalCollector
from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.flat import FlatHeap, HeapError
from repro.heap.roots import RootSet
from repro.mutator.decay_mutator import DecaySchedule
from repro.perf.plan import build_allocation_plan, execute_plan
from tests.resilience.test_watchdog import never_answer


def setup(heap_words=100, backend="flat", **kwargs):
    heap = make_heap(backend)
    roots = RootSet()
    collector = ConcurrentCollector(heap, roots, heap_words, **kwargs)
    return heap, roots, collector


def link(heap, barrier, src, slot, dst):
    """One mutator pointer store, through the write barrier."""
    barrier.on_store(src, slot, dst)
    heap.store_slot(src, slot, dst)


def storm(collector, heap, roots, *, seed=0, steps=120):
    """A deterministic allocate/store/drop/collect interleaving."""
    rng = random.Random(seed)
    barrier = WriteBarrier(collector.remember_store_id)
    frame = roots.push_frame()
    live = []
    for _ in range(steps):
        choice = rng.random()
        if choice < 0.55 or len(live) < 2:
            obj = collector.allocate_id(rng.randrange(2, 6), 2)
            live.append((frame.push(obj), obj))
        elif choice < 0.8:
            src = live[rng.randrange(len(live))][1]
            dst = live[rng.randrange(len(live))][1]
            link(heap, barrier, src, rng.randrange(2), dst)
        elif choice < 0.95 and len(live) > 2:
            index, _victim = live.pop(rng.randrange(len(live)))
            frame.set(index, None)
        else:
            collector.collect()
    collector.collect()
    collector.collect()


class TestHandoff:
    def test_cycle_opens_with_marker_inflight(self):
        _, roots, collector = setup(heap_words=100, trigger_fraction=0.5)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        assert collector.marker_inflight
        assert collector.pending_marked_ids()

    def test_handoff_pause_is_zero_work(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        handoffs = [
            p for p in collector.stats.pauses if p.kind == "handoff"
        ]
        assert handoffs and all(p.work == 0 for p in handoffs)

    def test_allocation_during_cycle_is_black(self):
        heap, roots, collector = setup(heap_words=200)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        newborn = collector.allocate_id(4)
        frame.push(newborn)
        assert heap.birth_of(newborn) >= collector.epoch_clock
        # Born after the snapshot: invisible to the marker, survives
        # the cycle close unconditionally.
        assert newborn not in collector.pending_marked_ids()
        collector.collect()
        assert heap.contains_id(newborn)

    def test_clean_run_reconciles_with_zero_work(self):
        _, roots, collector = setup(heap_words=200)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        frame.push(collector.allocate_id(4))
        collector.collect()
        reconciles = [
            p for p in collector.stats.pauses if p.kind == "reconcile"
        ]
        assert reconciles and all(p.work == 0 for p in reconciles)

    def test_satb_deletion_still_reconciles_with_zero_work(self):
        # An overwritten pre-epoch referent is already in the marker's
        # snapshot-reachable set, so the SATB gray adds no scan work —
        # and the referent survives as floating garbage, exactly the
        # incremental collector's semantics.
        heap, roots, collector = setup(heap_words=400)
        barrier = WriteBarrier(collector.remember_store_id)
        frame = roots.push_frame()
        holder = collector.allocate_id(4, 1)
        victim = collector.allocate_id(4)
        frame.push(holder)
        link(heap, barrier, holder, 0, victim)
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        link(heap, barrier, holder, 0, None)  # deletion mid-cycle
        collector.collect()
        assert heap.contains_id(victim)
        last = collector.stats.pauses[-1]
        assert last.kind == "reconcile" and last.work == 0


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["flat"])
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_storm_matches_unbounded_incremental(self, backend, seed):
        heap_c = make_heap(backend)
        roots_c = RootSet()
        concurrent = ConcurrentCollector(heap_c, roots_c, 120)
        storm(concurrent, heap_c, roots_c, seed=seed)

        heap_i = make_heap(backend)
        roots_i = RootSet()
        incremental = IncrementalCollector(
            heap_i, roots_i, 120, slice_budget=None
        )
        storm(incremental, heap_i, roots_i, seed=seed)

        assert (
            concurrent.stats.snapshot() == incremental.stats.snapshot()
        )
        assert sorted(concurrent.space.object_ids()) == sorted(
            incremental.space.object_ids()
        )

    @pytest.mark.parametrize("backend", ["flat"])
    def test_pool_marker_matches_inline(self, backend):
        heap_p = make_heap(backend)
        roots_p = RootSet()
        pool = ConcurrentCollector(heap_p, roots_p, 120, marker_workers=1)
        try:
            storm(pool, heap_p, roots_p, seed=13)
        finally:
            pool.close()

        heap_i = make_heap(backend)
        roots_i = RootSet()
        inline = ConcurrentCollector(heap_i, roots_i, 120)
        storm(inline, heap_i, roots_i, seed=13)

        assert pool.stats.snapshot() == inline.stats.snapshot()
        assert pool.stats.pauses == inline.stats.pauses
        assert sorted(pool.space.object_ids()) == sorted(
            inline.space.object_ids()
        )


class TestResilientMarker:
    def test_hung_worker_falls_back_inline(self, monkeypatch, new_workers):
        monkeypatch.setattr(
            concurrent_module, "_mark_snapshot_task", never_answer
        )
        _, roots, collector = setup(
            heap_words=200,
            marker_workers=1,
            marker_timeout=0.01,
            marker_retries=0,
        )
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        # What the hung marker would have kept: its snapshot, marked here.
        expected = set(_mark_snapshot_task(collector._payload)["ids"])
        # The ladder must terminate, and collect() must discard the
        # cycle and re-mark the heap inline — everything the lost
        # marker would have kept (and the allocate-black newborn)
        # survives.
        with pytest.raises(WedgedMarkerError):
            collector._await_marker()
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert not collector.cycle_open and not collector.marker_inflight
        survivors = set(collector.space.object_ids())
        assert expected < survivors == set(roots.ids())
        assert not new_workers()

    def test_attempt_salt_perturbs_order_not_result(self):
        from repro.perf.parallel import derive_seed

        heap, roots, collector = setup(heap_words=400)
        barrier = WriteBarrier(collector.remember_store_id)
        frame = roots.push_frame()
        objs = [collector.allocate_id(3, 2) for _ in range(12)]
        for obj in objs:
            frame.push(obj)
        rng = random.Random(5)
        for obj in objs:
            link(heap, barrier, obj, 0, objs[rng.randrange(len(objs))])
        snapshot = heap.export_mark_snapshot(
            collector.space, list(roots.ids())
        )
        payload = (snapshot, 0, 1)
        results = [
            _mark_snapshot_task(payload, attempt) for attempt in (0, 1, 5)
        ]
        assert derive_seed(0, 1, 0) != derive_seed(0, 1, 1)
        assert results[0] == results[1] == results[2]
        assert results[0]["ids"]


class TestLifecycle:
    def test_marker_error_raises_at_reconcile(self):
        heap = FlatHeap()
        space = heap.add_space("s", None)
        holder = heap.allocate_id(4, 1, space)
        corpse = heap.allocate_id(1, 0, space)
        heap.store_slot(holder, 0, corpse)
        heap.free(corpse)
        snapshot = heap.export_mark_snapshot(space, [holder])
        result = _mark_snapshot_task((snapshot, 0, 0))
        assert "error" in result and "dangling" in result["error"]

        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        collector._result = {"error": "induced marker failure"}
        with pytest.raises(HeapError, match="induced marker failure"):
            collector.collect()

    def test_collect_discards_pending(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        collector.collect()
        assert not collector.marker_inflight
        assert collector._payload is None

    def test_static_promotion_discards_pending(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        collector.on_static_promotion()
        assert not collector.cycle_open
        assert collector._payload is None

    def test_a_discarded_marker_is_killed_with_its_worker(self, new_workers):
        """A static promotion mid-cycle kills the worker whose marker
        is in flight, so its reply cannot answer the next cycle, and
        the next cycle keeps what the inline collector keeps."""

        def promote_mid_cycle(collector, roots, at_promotion):
            frame = roots.push_frame()
            while not collector.cycle_open:
                frame.push(collector.allocate_id(4))
            at_promotion()
            collector.on_static_promotion()
            assert not collector.cycle_open
            for index in range(0, len(frame), 2):
                frame.set(index, None)
            while not collector.cycle_open:
                frame.push(collector.allocate_id(4))
            collector.collect()
            return sorted(collector.space.object_ids())

        markers = []

        def note_marker():
            (marker,) = new_workers()
            markers.append(marker)

        _, roots, pooled = setup(heap_words=200, marker_workers=1)
        try:
            survivors = promote_mid_cycle(pooled, roots, note_marker)
            (marker,) = markers
            assert not marker.is_alive()
            assert marker.pid not in {p.pid for p in new_workers()}
        finally:
            pooled.close()
        assert not new_workers()

        _, roots, inline = setup(heap_words=200)
        assert survivors == promote_mid_cycle(inline, roots, lambda: None)

    def test_close_is_idempotent(self, new_workers):
        _, roots, collector = setup(heap_words=100, marker_workers=1)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        assert new_workers()
        collector.close()
        collector.close()
        assert not new_workers()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            setup(marker_workers=-1)


class TestMarkerOverlap:
    """The overlap the benchmark reports as
    ``gc.concurrent.marker_overlap``, at both ends of its range."""

    def decay_run(self, marker_workers):
        geometry = replace(GcGeometry(), marker_workers=marker_workers)
        collector = collector_factory("concurrent", geometry)(
            FlatHeap(), RootSet()
        )
        plan = build_allocation_plan(DecaySchedule(2000.0, seed=0), 200_000)
        try:
            execute_plan(collector, plan)
            return collector.stats.collections, collector.marker_overlap()
        finally:
            collector.close()

    def test_inline_marker_never_overlaps(self):
        collections, overlap = self.decay_run(0)
        assert collections > 0
        assert overlap == 0.0

    def test_worker_marker_overlaps_the_mutator(self):
        collections, overlap = self.decay_run(1)
        assert collections > 0
        assert 0.0 < overlap <= 1.0


class TestSpanHandoff:
    """Cycle open is priced by the space it collects, not by every id
    the heap ever issued — and slicing the arenas loses no check."""

    def test_cycle_open_takes_no_checkpoint_and_ships_the_span(
        self, monkeypatch
    ):
        heap, roots, collector = setup(heap_words=4000, marker_workers=1)
        try:
            frame = roots.push_frame()
            for _ in range(1000):
                frame.push(None)
            for index in range(100_000):
                frame.set(index % 1000, collector.allocate_id(1))
            collector.collect()
            collector.collect()  # the first kept SATB floating garbage
            assert len(heap._hdr) >= 100_000
            assert collector.space.object_count == 1000

            exports = []
            original = FlatHeap.export_state
            monkeypatch.setattr(
                FlatHeap,
                "export_state",
                lambda self: exports.append(1) or original(self),
            )
            collector._open_cycle("full")
            assert exports == []
            shipped = len(pickle.dumps(collector._payload))
            whole_arenas = 3 * 8 * len(heap._hdr)
            assert shipped < whole_arenas / 8
            collector.collect()
            assert collector.space.object_count == 1000
        finally:
            collector.close()

    @pytest.mark.parametrize("backend", ["flat"])
    def test_boundary_reference_below_the_span_is_skipped(self, backend):
        heap, roots, collector = setup(heap_words=400, backend=backend)
        elsewhere = heap.add_space("elsewhere", None)
        bystander = heap.allocate_id(2, 0, elsewhere)
        holder = collector.allocate_id(4, 1)
        roots.set_global("holder", holder)
        heap.store_slot(holder, 0, bystander)
        assert bystander < min(collector.space.object_ids())
        collector.collect()
        assert heap.contains_id(holder)
        assert heap.contains_id(bystander)
        assert bystander not in collector.space.object_ids()

    @pytest.mark.parametrize("bystander", [False, True])
    @pytest.mark.parametrize("backend", ["flat"])
    def test_dangling_reference_below_the_span_raises(
        self, backend, bystander
    ):
        # With and without another live object under the span: the
        # export lists live lower ids only when there are any.
        heap, roots, collector = setup(heap_words=400, backend=backend)
        elsewhere = heap.add_space("elsewhere", None)
        if bystander:
            heap.allocate_id(2, 0, elsewhere)
        corpse = heap.allocate_id(2, 0, elsewhere)
        holder = collector.allocate_id(4, 1)
        roots.set_global("holder", holder)
        heap.store_slot(holder, 0, corpse)
        heap.free(corpse)
        assert corpse < min(collector.space.object_ids())
        with pytest.raises(
            HeapError, match=f"dangling object id {corpse}"
        ):
            collector.collect()
