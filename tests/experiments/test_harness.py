"""Tests for the experiment harness (collector factories, outcomes)."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    GcGeometry,
    collector_factory,
    run_benchmark_under,
)
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.programs.registry import get_benchmark


class TestFactories:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("mark-sweep", MarkSweepCollector),
            ("stop-and-copy", StopAndCopyCollector),
            ("generational", GenerationalCollector),
            ("non-predictive", NonPredictiveCollector),
            ("hybrid", HybridCollector),
        ],
    )
    def test_factory_builds_right_collector(self, kind, cls):
        factory = collector_factory(kind, GcGeometry())
        collector = factory(FlatHeap(), RootSet())
        assert isinstance(collector, cls)

    def test_unknown_kind(self):
        factory = collector_factory("compacting")
        with pytest.raises(ValueError):
            factory(FlatHeap(), RootSet())


class TestRunOutcome:
    @pytest.mark.parametrize(
        "kind",
        ["mark-sweep", "stop-and-copy", "generational", "hybrid"],
    )
    def test_lattice_runs_under_collector(self, kind):
        outcome = run_benchmark_under(
            get_benchmark("lattice"), kind, scale=0
        )
        assert outcome.benchmark == "lattice"
        assert outcome.collector == kind
        assert outcome.words_allocated > 0
        assert outcome.gc_work >= 0
        assert 0 <= outcome.mark_cons

    def test_semispace_reported_for_stop_and_copy_only(self):
        sc = run_benchmark_under(
            get_benchmark("lattice"), "stop-and-copy", scale=0
        )
        ms = run_benchmark_under(get_benchmark("lattice"), "mark-sweep", scale=0)
        assert sc.semispace_words is not None
        assert ms.semispace_words is None

    def test_result_carries_program_output(self):
        outcome = run_benchmark_under(
            get_benchmark("lattice"), "stop-and-copy", scale=0
        )
        assert outcome.result.map_count > 0
