"""Tests for safepoint chaos: corruption injected mid-gray-wavefront.

In safepoint mode every injection waits for a mutator op boundary
where the incremental collector has an *open cycle with a live gray
wavefront*, then corrupts the collector there — the exact window a
stop-the-world harness can never exercise.  The tri-color audit must
detect every corruption-class fault; the benign control (a duplicated
gray-stack entry) must change nothing.
"""

from __future__ import annotations

import pytest

from repro.gc.incremental import GRAY, IncrementalCollector
from repro.heap.backend import make_heap
from repro.heap.roots import RootSet
from repro.resilience.chaos import run_chaos_matrix
from repro.resilience.faults import (
    FAULT_KINDS,
    fault_applies,
    fault_expectation,
    inject_fault,
)
from repro.verify.audit import audit_collector


@pytest.fixture(scope="module")
def safepoint_matrix():
    return run_chaos_matrix(
        seed=0, collectors=("incremental",), quick=True, safepoint=True
    )


class TestSafepointMatrix:
    def test_matrix_is_ok(self, safepoint_matrix):
        assert safepoint_matrix.ok, safepoint_matrix.render()

    def test_every_fault_scored(self, safepoint_matrix):
        assert len(safepoint_matrix.outcomes) == len(FAULT_KINDS)

    def test_corruptions_detected_mid_wavefront(self, safepoint_matrix):
        detected = 0
        for outcome in safepoint_matrix.outcomes:
            if outcome.status == "n/a":
                continue
            if fault_expectation(outcome.fault) == "corruption":
                assert outcome.status == "detected", (
                    f"{outcome.fault}: {outcome.detail}"
                )
                detected += 1
        # The window must actually open: if no fault ever found a live
        # wavefront the whole mode silently tested nothing.
        assert detected >= 3

    def test_dropped_wavefront_entry_detected(self, safepoint_matrix):
        # The incremental analogue of a lost remembered-set entry.
        outcome = safepoint_matrix.outcome("drop-remset", "incremental")
        assert outcome.status == "detected", outcome.detail

    def test_benign_dup_entry_changes_nothing(self, safepoint_matrix):
        outcome = safepoint_matrix.outcome("dup-remset", "incremental")
        assert outcome.status in ("benign", "n/a")


class TestFaultPlumbing:
    """The fault kinds the safepoint mode relies on, in isolation."""

    def _mid_cycle_collector(self):
        heap = make_heap()
        roots = RootSet()
        collector = IncrementalCollector(
            heap, roots, 200, slice_budget=1
        )
        frame = roots.push_frame()
        while not (collector.cycle_open and collector.gray_stack):
            frame.push(collector.allocate_id(4))
        return heap, collector

    def test_remset_faults_apply_to_incremental(self):
        _, collector = self._mid_cycle_collector()
        assert fault_applies("drop-remset", collector)
        assert fault_applies("dup-remset", collector)

    def test_drop_keeps_color_and_audit_notices(self):
        import random

        heap, collector = self._mid_cycle_collector()
        injection = inject_fault(
            "drop-remset", collector, random.Random(0)
        )
        assert injection is not None
        # The victim stays gray — a colored object missing from the
        # wavefront, the exact "lost entry" shape.
        report = audit_collector(collector)
        assert "tri-color-wavefront" in report.checks
        assert not report.ok
        assert any("wavefront" in v for v in report.violations)

    def test_dup_is_invisible_to_the_audit(self):
        import random

        heap, collector = self._mid_cycle_collector()
        before = sorted(collector.gray_stack)
        injection = inject_fault("dup-remset", collector, random.Random(0))
        assert injection is not None
        assert len(collector.gray_stack) == len(before) + 1
        report = audit_collector(collector)
        assert report.ok, report.violations
        # The duplicate must also not perturb the marked set: close
        # the cycle and every gray entry resolves exactly once.
        collector.collect()
        assert not collector.gray_stack
