"""Tests for the wedged-cycle watchdog on the concurrent collector.

A marker worker that never reports back must not hang the mutator:
once the retry ladder is exhausted the watchdog aborts the cycle,
rolls the collector back to the checkpoint captured at cycle open,
and degrades to inline marking for the rest of the process.
"""

from concurrent.futures import Future

import pytest

from repro.gc.concurrent import ConcurrentCollector
from repro.heap.backend import HEAP_BACKENDS, make_heap
from repro.heap.roots import RootSet


class RecordingMetrics:
    """Just enough of the instrumentation surface to capture events."""

    def __init__(self):
        self.events = []

    def event(self, kind, /, **payload):
        self.events.append((kind, payload))

    def observe_collection(self, collector):
        pass


def _wedged_collector(backend, metrics=None):
    """A pool-mode collector with an open cycle whose marker future
    will never resolve — the deterministic stand-in for a hung or
    livelocked worker."""
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
        roots.set_global(f"g{index}", collector.allocate(4))
    collector._open_cycle("full")
    assert collector._cycle_checkpoint is not None
    collector._future = Future()  # wedged: never completes
    return heap, roots, collector


@pytest.fixture(params=HEAP_BACKENDS)
def backend(request):
    return request.param


class TestWatchdogAbort:
    def test_wedged_cycle_is_aborted_and_collection_completes(
        self, backend
    ):
        heap, roots, collector = _wedged_collector(backend)
        survivors = sorted(obj.obj_id for obj in heap.all_objects())
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert not collector.cycle_open
        # The emergency inline collection still did its job.
        assert sorted(obj.obj_id for obj in heap.all_objects()) == survivors
        assert collector.stats.collections >= 1
        collector.close()

    def test_abort_degrades_to_inline_marking_permanently(
        self, backend, new_workers
    ):
        heap, roots, collector = _wedged_collector(backend)
        assert new_workers()
        collector.collect()
        assert collector.marker_workers == 0
        assert not new_workers()
        # Subsequent cycles run inline and stay healthy.
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert collector.stats.collections >= 2
        collector.close()

    def test_rollback_restores_cycle_open_checkpoint(self, backend):
        heap, roots, collector = _wedged_collector(backend)
        checkpoint_clock = collector._cycle_checkpoint["heap"]["clock"]
        stats_before = collector._cycle_checkpoint["stats"]
        collector._watchdog_abort("test-wedge")
        assert heap.clock == checkpoint_clock
        assert collector.stats.export_state() == stats_before
        assert not collector.cycle_open
        assert collector.watchdog_aborts == 1
        collector.close()

    def test_abort_emits_watchdog_event(self, backend):
        metrics = RecordingMetrics()
        heap, roots, collector = _wedged_collector(backend, metrics)
        collector.collect()
        kinds = [kind for kind, _ in metrics.events]
        assert "watchdog-abort" in kinds
        payload = dict(metrics.events)["watchdog-abort"]
        assert payload["aborts"] == 1
        assert payload["reason"]
        collector.close()

    def test_inline_collector_never_arms_the_watchdog(self, backend):
        heap = make_heap(backend)
        roots = RootSet()
        collector = ConcurrentCollector(heap, roots, 400)
        for index in range(4):
            roots.set_global(f"g{index}", collector.allocate(4))
        collector.collect()
        assert collector._cycle_checkpoint is None
        assert collector.watchdog_aborts == 0
        collector.close()
