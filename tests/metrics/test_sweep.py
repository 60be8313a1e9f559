"""Sweep engine: cell determinism, parallel merge, overhead probe."""

from __future__ import annotations

import pytest

from repro.metrics.sweep import (
    SWEEP_COLLECTORS,
    measure_overhead,
    run_decay_cell,
    run_metrics_sweep,
)

#: Small but collection-bearing workload for test-speed cells.
CELL_WORDS = 12_000


class TestDecayCell:
    def test_same_seed_same_metrics(self):
        a, _ = run_decay_cell("generational", 7, alloc_words=CELL_WORDS)
        b, _ = run_decay_cell("generational", 7, alloc_words=CELL_WORDS)
        assert a.canonical_json() == b.canonical_json()

    def test_different_seeds_differ(self):
        a, _ = run_decay_cell("generational", 1, alloc_words=CELL_WORDS)
        b, _ = run_decay_cell("generational", 2, alloc_words=CELL_WORDS)
        assert a.canonical_json() != b.canonical_json()

    def test_events_flag_returns_a_stream(self):
        registry, stream = run_decay_cell(
            "generational", 0, alloc_words=CELL_WORDS, events=True
        )
        assert stream is not None
        assert registry.counter("collections").value == len(
            stream.events("collection-end")
        )
        _, no_stream = run_decay_cell(
            "generational", 0, alloc_words=CELL_WORDS
        )
        assert no_stream is None


class TestSweep:
    def test_jobs_level_does_not_change_merged_metrics(self):
        """The tentpole determinism contract: --jobs is invisible."""
        serial = run_metrics_sweep(
            ("generational", "hybrid"), runs=2, jobs=1, seed=5, quick=True
        )
        parallel = run_metrics_sweep(
            ("generational", "hybrid"), runs=2, jobs=2, seed=5, quick=True
        )
        assert (
            serial["merged"].canonical_json()
            == parallel["merged"].canonical_json()
        )
        for kind in ("generational", "hybrid"):
            assert (
                serial["collectors"][kind].canonical_json()
                == parallel["collectors"][kind].canonical_json()
            )

    def test_sweep_covers_all_default_collectors(self):
        result = run_metrics_sweep(jobs=2, quick=True)
        assert set(result["collectors"]) == set(SWEEP_COLLECTORS)
        merged = result["merged"]
        # The merged registry aggregates every cell's allocation.
        per_kind_alloc = sum(
            registry.counter("alloc_words").value
            for registry in result["collectors"].values()
        )
        assert merged.counter("alloc_words").value == per_kind_alloc > 0

    def test_runs_multiply_cells(self):
        one = run_metrics_sweep(("generational",), runs=1, quick=True)
        three = run_metrics_sweep(("generational",), runs=3, quick=True)
        assert (
            three["merged"].counter("alloc_words").value
            == 3 * one["merged"].counter("alloc_words").value
        )


class TestOverhead:
    def test_reports_the_expected_shape(self):
        report = measure_overhead(repeats=1)
        assert set(report) == {
            "metrics_off_seconds",
            "metrics_on_seconds",
            "overhead_ratio",
            "collections",
        }
        assert report["metrics_off_seconds"] > 0
        assert report["metrics_on_seconds"] > 0
        assert report["overhead_ratio"] > 0

    def test_probe_collects(self):
        # The plane acts per collection: a probe that never collects
        # compares two identical programs.
        assert measure_overhead(repeats=1)["collections"] > 0

    def test_refuses_a_probe_that_never_collects(self):
        with pytest.raises(ValueError, match="collected 0 times"):
            measure_overhead(alloc_words=4_000, repeats=1)

    def test_overhead_within_acceptance_bar(self):
        """The ISSUE's ≤5% bar, with local slack for noisy test hosts.

        The strict 5% check runs in CI via ``repro-gc metrics
        --overhead`` on a quiet runner; here we only guard against the
        plane growing a structural slowdown (e.g. hot-path work).
        """
        report = measure_overhead(repeats=3)
        assert report["overhead_ratio"] <= 1.30, (
            f"metrics-on/off ratio {report['overhead_ratio']:.3f} "
            "suggests instrumentation leaked onto a hot path"
        )
