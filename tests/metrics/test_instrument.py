"""Instrumentation plumbing: attach modes, labels, and decompositions."""

from __future__ import annotations

import pytest

from repro.experiments.harness import collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.instrument import (
    GcInstrumentation,
    active_session,
    instrument_collector,
    metrics_session,
)
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule

ALL_KINDS = (
    "mark-sweep",
    "stop-and-copy",
    "generational",
    "non-predictive",
    "hybrid",
)


def build(kind: str):
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, None)(heap, roots)
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(2000.0, seed=3)
    )
    return collector, mutator


class TestAttachment:
    def test_collectors_default_to_metrics_off(self):
        for kind in ALL_KINDS:
            collector, _ = build(kind)
            assert collector.metrics is None
        heap = FlatHeap()
        assert heap.event_sink is None

    def test_instrument_collector_wires_registry_and_sink(self):
        from repro.metrics.events import EventStream

        collector, _ = build("generational")
        stream = EventStream()
        instrument = instrument_collector(collector, stream=stream)
        assert collector.metrics is instrument
        assert instrument.label == collector.name
        assert collector.heap.event_sink is stream

    def test_session_attaches_every_new_collector(self):
        with metrics_session() as session:
            collector, _ = build("mark-sweep")
            other, _ = build("mark-sweep")
            assert collector.metrics is not None
            assert other.metrics is not None
            assert list(session.instruments) == ["mark-sweep", "mark-sweep#2"]
            assert session.registries() == [
                collector.metrics.registry,
                other.metrics.registry,
            ]
        # Outside the block the plane disarms again.
        assert active_session() is None
        after, _ = build("mark-sweep")
        assert after.metrics is None

    def test_nested_sessions_rejected(self):
        with metrics_session():
            with pytest.raises(RuntimeError):
                with metrics_session():
                    pass  # pragma: no cover
        assert active_session() is None

    def test_session_without_events_records_metrics_only(self):
        with metrics_session(events=False) as session:
            collector, mutator = build("stop-and-copy")
            mutator.run(6_000)
            collector.collect()
            assert session.stream is None
            assert collector.heap.event_sink is None
            assert collector.metrics.registry.counter("collections").value > 0


class TestObservation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_counters_equal_cumulative_stats(self, kind):
        """Summing per-collection deltas reproduces GcStats exactly."""
        collector, mutator = build(kind)
        instrument = instrument_collector(collector)
        mutator.run(30_000)
        collector.collect()
        registry = instrument.registry
        stats = collector.stats
        # Counters only see work attributed up to the last collection;
        # the explicit collect() above flushes the final delta.
        assert registry.counter("mark_words").value == stats.words_marked
        assert registry.counter("copy_words").value == stats.words_copied
        assert registry.counter("sweep_words").value == stats.words_swept
        assert registry.counter("root_refs").value == stats.roots_traced
        assert registry.counter("collections").value == stats.collections
        assert (
            registry.counter("promoted_words").value == stats.words_promoted
        )
        assert (
            registry.counter("reclaimed_words").value == stats.words_reclaimed
        )
        assert registry.histogram("pause_words").count == len(stats.pauses)
        assert registry.histogram("pause_words").max == stats.max_pause_work

    def test_pause_families_partition_the_overall_histogram(self):
        collector, mutator = build("generational")
        instrument = instrument_collector(collector)
        mutator.run(40_000)
        collector.collect()
        registry = instrument.registry
        overall = registry.histogram("pause_words").count
        families = sum(
            registry.get(name).count
            for name in registry.names()
            if name.startswith("pause_words.")
        )
        assert overall > 0
        assert families == overall

    def test_event_stream_sees_collection_spans(self):
        from repro.metrics.events import EventStream

        collector, mutator = build("non-predictive")
        stream = EventStream()
        instrument_collector(collector, stream=stream)
        mutator.run(20_000)
        starts = stream.events("collection-start")
        ends = stream.events("collection-end")
        assert len(starts) == len(ends) == collector.stats.collections
        for record in ends:
            assert record["collector"] == "non-predictive"
            assert record["work"] >= 0

    def test_heap_geometry_events_flow_through_the_sink(self):
        from repro.metrics.events import EventStream

        stream = EventStream()
        heap = FlatHeap()
        heap.event_sink = stream
        heap.add_space("nursery", capacity=1024)
        assert stream.events("space-created")[0]["space"] == "nursery"

    def test_event_helper_is_silent_without_a_stream(self):
        instrument = GcInstrumentation("solo")
        instrument.event("promotion", words=10)  # must not raise
        assert instrument.stream is None
