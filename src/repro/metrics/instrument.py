"""Attaching the metrics plane to collectors: zero overhead when off.

A collector's ``metrics`` attribute is ``None`` by default; every
instrumentation site in the collectors is guarded by a single ``is not
None`` check on a cold path (per collection, never per allocation), so
a metrics-off run executes the same allocation-path bytecode as the
seed tree.  Instrumentation only *reads* collector state — it never
mutates the heap, the spaces, the stats, or any RNG — so a metrics-on
run produces byte-identical collector behaviour (asserted by the
metrics-off invariance tests).

Two ways to attach:

* :func:`instrument_collector` — wire one collector explicitly (used
  by the bench suite and the sweep engine's workers);
* :func:`metrics_session` — a context manager that arms a process-wide
  session; every collector constructed while it is active self-attaches
  in ``Collector.__init__``.  This is how existing experiments gain
  telemetry without changing their code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.metrics.events import EventStream
from repro.metrics.registry import MetricRegistry, merge_registries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gc.collector import Collector

__all__ = [
    "GcInstrumentation",
    "MetricsSession",
    "active_session",
    "instrument_collector",
    "metrics_session",
]


def _pause_category(kind: str) -> str:
    """Collapse per-generation pause kinds ("minor-3") to a family."""
    return "minor" if kind.startswith("minor") else kind


class GcInstrumentation:
    """One collector's metric recorder.

    ``observe_collection`` runs once per completed collection (from
    ``Collector._end_pause``): it diffs the cumulative
    :class:`~repro.gc.stats.GcStats` snapshot against the previous
    collection's, records the per-collection work decomposition
    (mark/copy/sweep/root), pause-cost histograms, allocation-rate and
    remset-churn series, and per-space occupancy peaks, then emits the
    ``collection-end`` event.
    """

    def __init__(
        self,
        label: str,
        *,
        registry: MetricRegistry | None = None,
        stream: EventStream | None = None,
    ) -> None:
        self.label = label
        self.registry = registry if registry is not None else MetricRegistry(label)
        self.stream = stream
        self._last: dict[str, int] | None = None
        self._last_clock = 0

    # ------------------------------------------------------------------
    # Event plumbing (collectors call this behind a None guard)
    # ------------------------------------------------------------------

    def event(self, kind: str, /, **payload: Any) -> None:
        if self.stream is not None:
            self.stream.emit(kind, collector=self.label, **payload)

    # ------------------------------------------------------------------
    # Per-collection observation
    # ------------------------------------------------------------------

    def observe_collection(self, collector: "Collector") -> None:
        stats = collector.stats
        snap = stats.snapshot()
        last = self._last
        if last is None:
            delta = dict(snap)
        else:
            delta = {key: snap[key] - last[key] for key in snap}
        self._last = snap

        registry = self.registry
        pause = stats.pauses[-1] if stats.pauses else None

        # The mark/cons decomposition, cumulative (counters).
        registry.counter("alloc_words").inc(delta["words_allocated"])
        registry.counter("alloc_objects").inc(delta["objects_allocated"])
        registry.counter("mark_words").inc(delta["words_marked"])
        registry.counter("copy_words").inc(delta["words_copied"])
        registry.counter("sweep_words").inc(delta["words_swept"])
        registry.counter("root_refs").inc(delta["roots_traced"])
        registry.counter("reclaimed_words").inc(delta["words_reclaimed"])
        registry.counter("promoted_words").inc(delta["words_promoted"])
        registry.counter("remset_created").inc(
            delta["remset_entries_created"]
        )
        registry.counter("remset_pruned").inc(delta["remset_entries_pruned"])
        registry.counter("collections").inc(delta["collections"])
        registry.counter("minor_collections").inc(delta["minor_collections"])
        registry.counter("major_collections").inc(delta["major_collections"])

        # Pause cost in words traced, overall and per pause family.
        if pause is not None:
            registry.histogram("pause_words").record(pause.work)
            registry.histogram(
                f"pause_words.{_pause_category(pause.kind)}"
            ).record(pause.work)
            registry.histogram("reclaimed_per_collection").record(
                pause.reclaimed
            )
            registry.histogram("live_at_collection").record(pause.live)

        # Allocation rate: words of mutator progress per collection.
        clock = collector.heap.clock
        registry.histogram("alloc_between_collections").record(
            max(0, clock - self._last_clock)
        )
        self._last_clock = clock

        # Occupancy peaks, per space and whole-heap.
        spaces = collector.managed_spaces()
        space_list = (
            sorted(spaces, key=lambda s: s.name)
            if spaces is not None
            else list(collector.heap.spaces())
        )
        live_words = 0
        for space in space_list:
            used = space.used
            live_words += used
            registry.gauge(f"space_peak_words.{space.name}").set_max(used)
        registry.gauge("live_words_peak").set_max(live_words)

        if pause is not None:
            self.event(
                "collection-end",
                clock=pause.clock,
                kind=pause.kind,
                work=pause.work,
                reclaimed=pause.reclaimed,
                live=pause.live,
                mark_words=delta["words_marked"],
                copy_words=delta["words_copied"],
                sweep_words=delta["words_swept"],
                root_refs=delta["roots_traced"],
            )


class MetricsSession:
    """A process-wide registry of instrumented collectors.

    While a session is active (see :func:`metrics_session`), every
    collector constructed attaches a fresh :class:`GcInstrumentation`
    sharing the session's event stream.  Collectors are labelled by
    their ``name``, with ``#2``, ``#3``... suffixes when an experiment
    builds several of the same kind.
    """

    def __init__(self, *, events: bool = True) -> None:
        self.stream: EventStream | None = EventStream() if events else None
        self.instruments: dict[str, GcInstrumentation] = {}
        self._name_counts: dict[str, int] = {}

    def attach(self, collector: "Collector") -> GcInstrumentation:
        ordinal = self._name_counts.get(collector.name, 0) + 1
        self._name_counts[collector.name] = ordinal
        label = (
            collector.name if ordinal == 1 else f"{collector.name}#{ordinal}"
        )
        instrument = GcInstrumentation(label, stream=self.stream)
        self.instruments[label] = instrument
        if self.stream is not None and collector.heap.event_sink is None:
            collector.heap.event_sink = self.stream
        return instrument

    def registries(self) -> list[MetricRegistry]:
        """Per-collector registries, in attach order."""
        return [inst.registry for inst in self.instruments.values()]

    def merged(self, label: str = "all") -> MetricRegistry:
        return merge_registries(self.registries(), label)


#: The active session, if any; consulted by ``Collector.__init__``.
_ACTIVE: MetricsSession | None = None


def active_session() -> MetricsSession | None:
    return _ACTIVE


@contextmanager
def metrics_session(*, events: bool = True) -> Iterator[MetricsSession]:
    """Arm the metrics plane for every collector built in the block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a metrics session is already active")
    session = MetricsSession(events=events)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None


def instrument_collector(
    collector: "Collector",
    *,
    stream: EventStream | None = None,
    label: str | None = None,
) -> GcInstrumentation:
    """Wire one collector explicitly (no session involved)."""
    instrument = GcInstrumentation(
        label if label is not None else collector.name, stream=stream
    )
    collector.metrics = instrument
    if stream is not None and collector.heap.event_sink is None:
        collector.heap.event_sink = stream
    return instrument
