"""Tests for the measurement-substrate tracing collector."""

from __future__ import annotations

from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.trace.collector import TracingCollector


def setup():
    heap = FlatHeap()
    roots = RootSet()
    return heap, roots, TracingCollector(heap, roots)


class TestTracingCollector:
    def test_unbounded_allocation(self):
        heap, _, collector = setup()
        for _ in range(1_000):
            collector.allocate_id(100)
        assert heap.live_words == 100_000
        assert collector.stats.words_allocated == 100_000

    def test_never_collects_spontaneously(self):
        heap, _, collector = setup()
        for _ in range(100):
            collector.allocate_id(10)  # all garbage; still resident
        assert heap.object_count == 100

    def test_explicit_collect_reclaims_unreachable(self):
        heap, roots, collector = setup()
        frame = roots.push_frame()
        kept = collector.allocate_id(10)
        frame.push(kept)
        collector.allocate_id(10)
        collector.collect()
        assert heap.object_count == 1
        assert heap.contains_id(kept)

    def test_collect_charges_no_work(self):
        heap, roots, collector = setup()
        collector.allocate_id(10)
        collector.collect()
        assert collector.stats.words_traced == 0
        assert collector.stats.collections == 0
