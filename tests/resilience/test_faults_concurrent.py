"""Mid-handoff fault injection against the concurrent collector.

The window safepoint chaos defends here: a marker holds the snapshot,
the parent heap is legitimately all-white, and the only record of the
mark obligation is the worker's result.  Dropping one marker-marked id
must surface at (or before) reconciliation via the auditor's
concurrent-wavefront check; duplicating one must change nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.gc.concurrent import ConcurrentCollector
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.roots import RootSet
from repro.resilience.chaos import run_chaos_matrix
from repro.resilience.faults import fault_applies, inject_fault
from repro.verify.audit import audit_collector


def mid_handoff_collector():
    """A concurrent collector mid-cycle: marker in flight, and one
    snapshot-reachable non-root object (``child``) held only through
    a marker-marked referrer (``holder``)."""
    heap = make_heap()
    roots = RootSet()
    collector = ConcurrentCollector(heap, roots, 400)
    barrier = WriteBarrier(collector.remember_store_id)
    frame = roots.push_frame()
    holder = collector.allocate_id(4, 1)
    child = collector.allocate_id(4)
    frame.push(holder)
    barrier.on_store(holder, 0, child)
    heap.store_slot(holder, 0, child)
    while not collector.cycle_open:
        frame.push(collector.allocate_id(4))
    assert collector.marker_inflight
    return heap, roots, collector, holder, child


class TestDropMarkerResult:
    def test_applies_via_incremental_family(self):
        heap = make_heap()
        collector = ConcurrentCollector(heap, RootSet(), 100)
        assert fault_applies("drop-remset", collector)
        assert fault_applies("dup-remset", collector)

    def test_no_target_when_quiescent(self):
        heap = make_heap()
        collector = ConcurrentCollector(heap, RootSet(), 100)
        assert inject_fault("drop-remset", collector, random.Random(0)) is None
        assert inject_fault("dup-remset", collector, random.Random(0)) is None

    def test_drop_is_detected_by_concurrent_wavefront_audit(self):
        heap, roots, collector, holder, child = mid_handoff_collector()
        assert child in collector.pending_marked_ids()
        injection = inject_fault("drop-remset", collector, random.Random(0))
        assert injection is not None
        assert "marker-marked" in injection.detail
        assert child not in collector.pending_marked_ids()
        report = audit_collector(collector)
        assert not report.ok
        assert any("concurrent" in v for v in report.violations)

    def test_drop_corrupts_the_sweep_without_the_audit(self):
        # The fault is a *real* corruption: reconciliation cannot
        # re-find the victim (its only referrer is marker-black), so
        # an unaudited collect frees a root-reachable object.
        heap, roots, collector, holder, child = mid_handoff_collector()
        injection = inject_fault("drop-remset", collector, random.Random(0))
        assert injection is not None
        collector.collect()
        assert heap.contains_id(holder)
        assert not heap.contains_id(child)

    def test_dup_is_benign(self):
        heap, roots, collector, holder, child = mid_handoff_collector()
        before = collector.pending_marked_ids()
        injection = inject_fault("dup-remset", collector, random.Random(0))
        assert injection is not None
        assert "duplicated" in injection.detail
        assert collector.pending_marked_ids() == before
        report = audit_collector(collector)
        assert report.ok, report.violations
        collector.collect()
        assert heap.contains_id(holder)
        assert heap.contains_id(child)


class TestSafepointMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_chaos_matrix(
            seed=0, collectors=("concurrent",), quick=True, safepoint=True
        )

    def test_matrix_is_ok(self, matrix):
        assert matrix.ok, matrix.render()

    def test_marker_drop_detected_mid_handoff(self, matrix):
        outcome = matrix.outcome("drop-remset", "concurrent")
        assert outcome.status == "detected"
        assert outcome.injected

    def test_marker_dup_is_benign_mid_handoff(self, matrix):
        outcome = matrix.outcome("dup-remset", "concurrent")
        assert outcome.status == "benign"
