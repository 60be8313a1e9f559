"""Tests for the shared collector machinery."""

from __future__ import annotations

import pytest

from repro.gc.collector import Collector, HeapExhausted
from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet


class _NullCollector(Collector):
    """Minimal concrete collector for exercising the base class."""

    name = "null"

    def __init__(self, heap, roots):
        super().__init__(heap, roots)
        self.space = heap.add_space("null-space", None)
        self.other = heap.add_space("other-space", None)

    def _reserve(self, size):
        return self.space

    def collect(self):
        pass


@pytest.fixture
def setup():
    heap = FlatHeap()
    roots = RootSet()
    return heap, roots, _NullCollector(heap, roots)


class TestTraceRegion:
    def test_marks_only_within_region(self, setup):
        heap, roots, collector = setup
        inside = collector.allocate_id(2, field_count=1)
        outside = heap.allocate_id(2, 1, collector.other)
        heap.store_slot(inside, 0, outside)
        heap.store_slot(outside, 0, inside)
        marked = collector._trace_region(
            {collector.space}, [inside, outside]
        )
        assert marked == {inside}

    def test_boundary_objects_not_scanned(self, setup):
        # A region object reachable ONLY through an out-of-region
        # object's fields must NOT be found: boundary objects terminate
        # the trace (their interesting slots must come via seeds).
        heap, roots, collector = setup
        hidden = collector.allocate_id(2)
        bridge = heap.allocate_id(2, 1, collector.other)
        heap.store_slot(bridge, 0, hidden)
        marked = collector._trace_region({collector.space}, [bridge])
        assert marked == set()

    def test_work_accounting_optional(self, setup):
        heap, roots, collector = setup
        obj = collector.allocate_id(5)
        collector._trace_region(
            {collector.space}, [obj], count_work=False
        )
        assert collector.stats.words_marked == 0
        collector._trace_region({collector.space}, [obj])
        assert collector.stats.words_marked == 5

    def test_root_ids_counts_tracing_cost(self, setup):
        heap, roots, collector = setup
        frame = roots.push_frame()
        frame.push(collector.allocate_id(1))
        frame.push(collector.allocate_id(1))
        ids = collector._root_ids()
        assert len(ids) == 2
        assert collector.stats.roots_traced == 2

    def test_default_hooks_are_noops(self, setup):
        heap, roots, collector = setup
        a = collector.allocate_id(2, field_count=1)
        b = collector.allocate_id(2)
        collector.remember_store_id(a, 0, b)  # must not raise
        collector.on_static_promotion()  # must not raise

    def test_describe(self, setup):
        _, _, collector = setup
        assert "null" in collector.describe()


class TestHeapExhausted:
    def test_message_names_collector_and_size(self):
        heap = FlatHeap()
        roots = RootSet()
        collector = MarkSweepCollector(
            heap, roots, 4, auto_expand=False
        )
        with pytest.raises(HeapExhausted) as excinfo:
            frame = roots.push_frame()
            frame.push(collector.allocate_id(4))
            collector.allocate_id(4)
        assert "mark-sweep" in str(excinfo.value)
        assert excinfo.value.requested == 4
