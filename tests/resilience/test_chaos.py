"""Tests for the chaos harness and its detection matrix."""

import pytest

from repro.resilience.chaos import (
    ChaosOutcome,
    DetectionMatrix,
    run_chaos_matrix,
)
from repro.resilience.faults import FAULT_KINDS, fault_expectation


@pytest.fixture(scope="module")
def quick_matrix():
    # Two collector families cover every fault kind's applicability:
    # mark-sweep (single-space, no remsets) and generational (remsets).
    return run_chaos_matrix(
        seed=0, collectors=("mark-sweep", "generational"), quick=True
    )


class TestDetectionMatrix:
    def test_every_cell_scored(self, quick_matrix):
        assert len(quick_matrix.outcomes) == 2 * len(FAULT_KINDS)
        for fault in FAULT_KINDS:
            for collector in ("mark-sweep", "generational"):
                outcome = quick_matrix.outcome(fault, collector)
                assert outcome.fault == fault
                assert outcome.collector == collector

    def test_no_corruption_goes_undetected(self, quick_matrix):
        assert quick_matrix.ok, quick_matrix.render()
        for outcome in quick_matrix.outcomes:
            if fault_expectation(outcome.fault) == "corruption":
                assert outcome.status in ("detected", "n/a")

    def test_benign_control_stays_clean(self, quick_matrix):
        for outcome in quick_matrix.outcomes:
            if outcome.fault == "dup-remset":
                assert outcome.status in ("benign", "n/a")

    def test_root_skip_detected_on_both(self, quick_matrix):
        # The auditor-gap regression, end to end: the witness audit
        # must catch a silent root skip inside a live replay.
        for collector in ("mark-sweep", "generational"):
            outcome = quick_matrix.outcome("root-skip", collector)
            assert outcome.status == "detected", outcome.detail

    def test_render_and_json(self, quick_matrix):
        text = quick_matrix.render()
        assert "OK:" in text
        for fault in FAULT_KINDS:
            assert fault in text
        payload = quick_matrix.to_json()
        assert payload["seed"] == 0
        assert payload["ok"] is True
        assert len(payload["outcomes"]) == len(quick_matrix.outcomes)


class TestOutcomeScoring:
    def _outcome(self, status):
        return ChaosOutcome(
            fault="dangling-slot",
            collector="mark-sweep",
            expectation="corruption",
            status=status,
            channel="audit" if status == "detected" else None,
            op_index=10,
            detail="",
        )

    def test_ok_statuses(self):
        assert self._outcome("detected").ok
        assert self._outcome("n/a").ok
        assert not self._outcome("missed").ok
        assert not self._outcome("false-positive").ok

    def test_failures_lists_only_bad_cells(self):
        good = self._outcome("detected")
        bad = self._outcome("missed")
        matrix = DetectionMatrix(
            seed=0,
            op_count=10,
            collectors=("mark-sweep",),
            kinds=("dangling-slot",),
            outcomes=(good, bad),
        )
        assert not matrix.ok
        assert list(matrix.failures()) == [bad]

    def test_a_matrix_that_injected_nothing_is_not_ok(self):
        matrix = DetectionMatrix(
            seed=0,
            op_count=10,
            collectors=("mark-sweep",),
            kinds=("dangling-slot",),
            outcomes=(self._outcome("n/a"),),
        )
        assert not matrix.injected
        assert not matrix.ok
        assert matrix.failures() == ()


class TestSnapshotChaos:
    @pytest.fixture(scope="class")
    def snapshot_matrix(self):
        from repro.resilience.chaos import run_snapshot_chaos

        return run_snapshot_chaos(
            seed=0, collectors=("mark-sweep", "concurrent"), quick=True
        )

    def test_every_fault_kind_swept(self, snapshot_matrix):
        from repro.resilience.chaos import SNAPSHOT_FAULTS

        assert snapshot_matrix.kinds == tuple(SNAPSHOT_FAULTS)
        assert len(snapshot_matrix.outcomes) == 2 * len(SNAPSHOT_FAULTS)

    def test_hundred_percent_detection(self, snapshot_matrix):
        assert snapshot_matrix.ok
        for outcome in snapshot_matrix.outcomes:
            assert outcome.status == "detected", outcome
            assert outcome.channel == "restore"
            assert outcome.expectation == "corruption"

    def test_detection_is_seed_deterministic(self):
        from repro.resilience.chaos import run_snapshot_chaos

        first = run_snapshot_chaos(
            seed=3, collectors=("generational",), quick=True
        )
        second = run_snapshot_chaos(
            seed=3, collectors=("generational",), quick=True
        )
        assert first.to_json() == second.to_json()
