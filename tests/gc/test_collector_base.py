"""Tests for the shared collector machinery."""

from __future__ import annotations

import pytest

from repro.gc.collector import Collector, HeapExhausted
from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap, FlatObject
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
        inside = collector.allocate(2, field_count=1)
        outside = heap.allocate(2, 1, collector.other)
        heap.write_field(inside, 0, outside)
        heap.write_field(outside, 0, inside)
        marked = collector._trace_region(
            {collector.space}, [inside.obj_id, outside.obj_id]
        )
        assert marked == {inside.obj_id}

    def test_boundary_objects_not_scanned(self, setup):
        # A region object reachable ONLY through an out-of-region
        # object's fields must NOT be found: boundary objects terminate
        # the trace (their interesting slots must come via seeds).
        heap, roots, collector = setup
        hidden = collector.allocate(2)
        bridge = heap.allocate(2, 1, collector.other)
        heap.write_field(bridge, 0, hidden)
        marked = collector._trace_region({collector.space}, [bridge.obj_id])
        assert marked == set()

    def test_work_accounting_optional(self, setup):
        heap, roots, collector = setup
        obj = collector.allocate(5)
        collector._trace_region(
            {collector.space}, [obj.obj_id], count_work=False
        )
        assert collector.stats.words_marked == 0
        collector._trace_region({collector.space}, [obj.obj_id])
        assert collector.stats.words_marked == 5

    def test_root_ids_counts_tracing_cost(self, setup):
        heap, roots, collector = setup
        frame = roots.push_frame()
        frame.push(collector.allocate(1))
        frame.push(collector.allocate(1))
        ids = collector._root_ids()
        assert len(ids) == 2
        assert collector.stats.roots_traced == 2

    def test_default_hooks_are_noops(self, setup):
        heap, roots, collector = setup
        a = collector.allocate(2, field_count=1)
        b = collector.allocate(2)
        collector.remember_store(a, 0, b)  # must not raise
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
            frame.push(collector.allocate(4))
            collector.allocate(4)
        assert "mark-sweep" in str(excinfo.value)
        assert excinfo.value.requested == 4
