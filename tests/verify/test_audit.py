"""Tests for the heap-invariant auditor (checked mode)."""

from __future__ import annotations

import pytest

from repro.experiments.harness import collector_factory
from repro.gc.generational import GenerationalCollector
from repro.heap.barrier import WriteBarrier
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.trace.collector import TracingCollector
from repro.verify.audit import (
    AuditError,
    audit_collector,
    assert_heap_invariants,
    disable_checked_mode,
    enable_checked_mode,
)
from repro.verify.differential import DEFAULT_COLLECTORS, VERIFY_GEOMETRY


def build(kind: str):
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, VERIFY_GEOMETRY)(heap, roots)
    return heap, roots, collector


def churn(heap, roots, collector, count: int = 120) -> None:
    """A small workload: allocate, link, drop, collect."""
    barrier = WriteBarrier(collector.remember_store_id)
    keep = None
    for index in range(count):
        obj = collector.allocate_id(1 + index % 3, 1)
        roots.set_global("latest", obj)
        if keep is not None and heap.contains_id(keep):
            barrier.on_store(keep, 0, obj)
            heap.store_slot(keep, 0, obj)
        if index % 7 == 0:
            roots.set_global("keep", obj)
            keep = obj
        if index % 31 == 30:
            collector.collect()


class TestAuditPasses:
    @pytest.mark.parametrize("kind", DEFAULT_COLLECTORS)
    def test_clean_collector_passes(self, kind):
        heap, roots, collector = build(kind)
        churn(heap, roots, collector)
        report = audit_collector(collector)
        assert report.ok, report.summary()
        assert "heap-integrity" in report.checks
        assert "stats-conservation" in report.checks

    @pytest.mark.parametrize("kind", DEFAULT_COLLECTORS)
    def test_assert_heap_invariants_silent_when_clean(self, kind):
        heap, roots, collector = build(kind)
        churn(heap, roots, collector)
        assert_heap_invariants(collector)  # must not raise

    def test_summary_mentions_pass_count(self):
        _, _, collector = build("mark-sweep")
        report = audit_collector(collector)
        assert "checks passed" in report.summary()


class TestAuditCatches:
    def test_dangling_root(self):
        heap, roots, collector = build("mark-sweep")
        obj = collector.allocate_id(2)
        roots.set_global("g", obj)
        heap.free(obj)  # behind the collector's back
        report = audit_collector(collector)
        assert not report.ok
        assert any("roots point at freed" in v for v in report.violations)

    def test_stats_conservation(self):
        heap, roots, collector = build("stop-and-copy")
        churn(heap, roots, collector)
        collector.stats.words_reclaimed += 7  # cook the books
        report = audit_collector(collector)
        assert not report.ok
        assert any("stats conservation" in v for v in report.violations)

    def test_generational_missing_remset_entry(self):
        heap, roots, collector = build("generational")
        old = collector.allocate_id(2, 1)
        roots.set_global("old", old)
        collector.collect()  # promote `old` out of the nursery
        assert collector.generation_index(old) == 1
        young = collector.allocate_id(1)
        roots.set_global("young", young)
        # Store WITHOUT the write barrier: an old-to-young pointer the
        # remembered set never hears about.
        heap.store_slot(old, 0, young)
        report = audit_collector(collector)
        assert not report.ok
        assert any("remset incomplete" in v for v in report.violations)

    def test_audit_error_carries_report(self):
        heap, roots, collector = build("mark-sweep")
        obj = collector.allocate_id(1)
        roots.set_global("g", obj)
        heap.free(obj)
        with pytest.raises(AuditError) as excinfo:
            assert_heap_invariants(collector)
        assert not excinfo.value.report.ok


class TestCheckedMode:
    def test_hook_fires_on_collection(self):
        class Broken(GenerationalCollector):
            def remember_store_id(self, src_id, slot, target_id):
                pass  # lose every barrier notification

        roots2 = RootSet()
        broken = Broken(FlatHeap(), roots2, [24, 96])
        enable_checked_mode(broken)
        barrier = WriteBarrier(broken.remember_store_id)
        old = broken.allocate_id(2, 1)
        roots2.set_global("old", old)
        broken.collect()  # promote
        young = broken.allocate_id(1)
        roots2.set_global("young", young)
        barrier.on_store(old, 0, young)
        broken.heap.store_slot(old, 0, young)
        # Reachable only through the old object: a minor collection
        # that never hears about the store frees it while live.
        roots2.remove_global("young")
        with pytest.raises(AuditError):
            broken.collect_generations(0)

    def test_disable_checked_mode(self):
        _, _, collector = build("mark-sweep")
        enable_checked_mode(collector)
        assert collector.post_collection_hook is assert_heap_invariants
        disable_checked_mode(collector)
        assert collector.post_collection_hook is None


class TestUnmanagedCollectors:
    def test_tracing_collector_skips_conservation(self):
        heap = FlatHeap()
        roots = RootSet()
        collector = TracingCollector(heap, roots)
        collector.allocate_id(3)
        report = audit_collector(collector)
        assert report.ok
        assert "stats-conservation" not in report.checks
        assert "heap-integrity" in report.checks


class TestIncrementalModes:
    """Both incremental audit modes are pinned: a mid-cycle heap is an
    accepted "in-cycle" snapshot checked against the tri-color
    invariants, and a quiescent heap must carry no leftover wavefront.
    """

    def _mid_cycle(self):
        heap, roots, collector = build("incremental")
        frame = roots.push_frame()
        while not (collector.cycle_open and collector.gray_stack):
            frame.push(collector.allocate_id(3))
        return heap, roots, collector

    def test_in_cycle_snapshot_is_accepted(self):
        heap, roots, collector = self._mid_cycle()
        report = audit_collector(collector)
        assert report.ok, report.summary()
        assert "tri-color-wavefront" in report.checks
        assert "tri-color-quiescent" not in report.checks

    def test_quiescent_mode_is_pinned(self):
        heap, roots, collector = build("incremental")
        churn(heap, roots, collector)
        collector.collect()
        report = audit_collector(collector)
        assert report.ok, report.summary()
        assert "tri-color-quiescent" in report.checks
        assert "tri-color-wavefront" not in report.checks

    def test_checked_mode_is_silent_across_slices(self):
        # The regression this guards: checked mode used to reject any
        # heap observed mid-cycle (garbage still resident looked like
        # a reachability leak).  Slices run the hook too, so a whole
        # churn under checked mode exercises both audit modes.
        heap, roots, collector = build("incremental")
        enable_checked_mode(collector)
        churn(heap, roots, collector)
        collector.collect()

    def test_whitened_reachable_object_is_caught(self):
        from repro.gc.incremental import WHITE

        heap, roots, collector = self._mid_cycle()
        # Corrupt the wavefront: recolor a gray root white and drop it
        # from the stack — an immediate cycle close would sweep it.
        victim = collector.gray_stack[0]
        heap.set_color(victim, WHITE)
        collector.gray_stack.remove(victim)
        report = audit_collector(collector)
        assert not report.ok
        assert any("swept" in v for v in report.violations)
