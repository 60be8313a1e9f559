"""Tests for the wedged-cycle watchdog on the concurrent collector.

A marker worker that never reports back must not hang the mutator:
once the retry ladder is exhausted the watchdog discards the cycle —
nothing was swept, so nothing the mutator allocated is lost — kills
the workers, and degrades to inline marking for the rest of the
process.
"""

import multiprocessing
import time

import pytest

from repro.gc import concurrent as concurrent_module
from repro.gc.concurrent import ConcurrentCollector, _mark_snapshot_task
from repro.heap.backend import make_heap
from repro.heap.roots import RootSet
from repro.verify.audit import audit_collector, enable_checked_mode


class RecordingMetrics:
    """Just enough of the instrumentation surface to capture events."""

    def __init__(self):
        self.events = []

    def event(self, kind, /, **payload):
        self.events.append((kind, payload))

    def observe_collection(self, collector):
        pass


def never_answer(payload, attempt=0):
    """The marker task, except that a forked worker never answers."""
    if multiprocessing.parent_process() is not None:
        time.sleep(3600)
    return _mark_snapshot_task(payload, attempt)


def _wedged_collector(backend, monkeypatch, metrics=None):
    """A pool-mode collector with an open cycle whose marker worker
    never answers — a hung worker, for real."""
    monkeypatch.setattr(
        concurrent_module, "_mark_snapshot_task", never_answer
    )
    heap = make_heap(backend)
    roots = RootSet()
    collector = ConcurrentCollector(
        heap,
        roots,
        400,
        marker_workers=1,
        marker_timeout=0.01,
        marker_retries=0,
    )
    if metrics is not None:
        collector.metrics = metrics
    for index in range(4):
        roots.set_global(f"g{index}", collector.allocate_id(4))
    collector._open_cycle("full")
    return heap, roots, collector


@pytest.fixture(params=["flat"])
def backend(request):
    return request.param


class TestWatchdogAbort:
    def test_wedged_cycle_is_aborted_and_collection_completes(
        self, backend, monkeypatch
    ):
        heap, roots, collector = _wedged_collector(backend, monkeypatch)
        survivors = list(heap.object_ids())
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert not collector.cycle_open
        # The emergency inline collection still did its job.
        assert list(heap.object_ids()) == survivors
        assert collector.stats.collections >= 1
        collector.close()

    def test_abort_degrades_to_inline_marking_permanently(
        self, backend, monkeypatch, new_workers
    ):
        heap, roots, collector = _wedged_collector(backend, monkeypatch)
        assert new_workers()
        collector.collect()
        assert collector.marker_workers == 0
        assert not new_workers()
        # Subsequent cycles run inline and stay healthy.
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert collector.stats.collections >= 2
        collector.close()

    def test_abort_keeps_allocations_made_since_cycle_open(
        self, backend, monkeypatch
    ):
        metrics = RecordingMetrics()
        heap, roots, collector = _wedged_collector(
            backend, monkeypatch, metrics
        )
        enable_checked_mode(collector)
        # The mutator keeps going while the marker is wedged.
        newborns = [collector.allocate_id(4) for _ in range(3)]
        for index, obj in enumerate(newborns):
            roots.set_global(f"n{index}", obj)
        collector.allocate_id(4)  # unrooted: garbage for the re-run
        allocated = collector.stats.words_allocated
        rooted = sorted(roots.ids())

        collector.collect()

        assert sorted(roots.ids()) == rooted
        assert not heap.dangling_ids(rooted)
        assert sorted(collector.space.object_ids()) == rooted
        assert collector.stats.words_allocated == allocated
        assert audit_collector(collector, expected_roots=rooted).ok
        kinds = [kind for kind, _ in metrics.events]
        assert kinds.count("watchdog-abort") == 1
        assert collector.marker_workers == 0
        collector.close()

    def test_abort_emits_watchdog_event(self, backend, monkeypatch):
        metrics = RecordingMetrics()
        heap, roots, collector = _wedged_collector(
            backend, monkeypatch, metrics
        )
        collector.collect()
        kinds = [kind for kind, _ in metrics.events]
        assert "watchdog-abort" in kinds
        payload = dict(metrics.events)["watchdog-abort"]
        assert payload["aborts"] == 1
        assert payload["reason"]
        collector.close()

    def test_inline_collector_never_arms_the_watchdog(
        self, backend, new_workers
    ):
        heap = make_heap(backend)
        roots = RootSet()
        collector = ConcurrentCollector(heap, roots, 400)
        for index in range(4):
            roots.set_global(f"g{index}", collector.allocate_id(4))
        collector.collect()
        assert not new_workers()
        assert collector.watchdog_aborts == 0
        collector.close()


def _spin_in_worker(payload, attempt=0):
    """The marker task, except that a forked worker never returns."""
    if multiprocessing.parent_process() is not None:
        while True:
            pass
    return _mark_snapshot_task(payload, attempt)


def _drill_script(collector, roots):
    """Cross the mark trigger, keep allocating with the cycle open,
    drop every third root, and quiesce."""
    frame = roots.push_frame()
    while not collector.cycle_open:
        frame.push(collector.allocate_id(4))
    for _ in range(12):
        frame.push(collector.allocate_id(3))
        collector.allocate_id(2)
    for index in range(0, len(frame), 3):
        frame.set(index, None)
    collector.collect()
    collector.collect()


def test_spinning_worker_is_killed_and_survivors_match_inline(
    backend, monkeypatch, new_workers
):
    """The real-process drill: a marker that spins in its forked
    worker is timed out and killed, and what survives is what an
    inline collector keeps on the same script."""
    monkeypatch.setattr(
        concurrent_module, "_mark_snapshot_task", _spin_in_worker
    )
    wedged_roots = RootSet()
    wedged = ConcurrentCollector(
        make_heap(backend),
        wedged_roots,
        400,
        marker_workers=1,
        marker_timeout=0.2,
        marker_retries=0,
    )
    try:
        _drill_script(wedged, wedged_roots)
    finally:
        wedged.close()
    assert wedged.watchdog_aborts == 1
    assert wedged.marker_workers == 0
    assert not new_workers()

    inline_roots = RootSet()
    inline = ConcurrentCollector(make_heap(backend), inline_roots, 400)
    _drill_script(inline, inline_roots)
    assert sorted(wedged.space.object_ids()) == sorted(
        inline.space.object_ids()
    )
    assert sorted(wedged_roots.ids()) == sorted(inline_roots.ids())
