"""Satellite regression: co-resident collectors never share metrics.

Two instrumented collectors in one process — same kind or different
kinds, workloads interleaved step by step — must each end with a
registry byte-identical to the one they produce running alone.  This
is the single-process miniature of the service's tenant-metric
isolation (and what `MetricsSession`'s `name`/`name#2` labelling is
for).
"""

from __future__ import annotations

from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.instrument import instrument_collector, metrics_session
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule

WORK_WORDS = 12_000

#: Small enough that every kind collects repeatedly inside WORK_WORDS.
GEOMETRY = GcGeometry().scaled(1, 16)


def _build(kind: str, seed: int):
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, GEOMETRY)(heap, roots)
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(300.0, seed=seed)
    )
    return collector, mutator


def _solo_registry(kind: str, seed: int, label: str) -> str:
    collector, mutator = _build(kind, seed)
    instrument = instrument_collector(collector, label=label)
    mutator.run(WORK_WORDS)
    collections = instrument.registry.get("collections")
    assert collections is not None and collections.value > 0, (
        f"{kind} produced no collections — the comparison would be vacuous"
    )
    return instrument.registry.canonical_json()


def _interleaved_registries(specs) -> list[str]:
    """specs: [(kind, seed, label)]; all run in lockstep in one process."""
    contexts = []
    for kind, seed, label in specs:
        collector, mutator = _build(kind, seed)
        contexts.append(
            (instrument_collector(collector, label=label), mutator)
        )
    active = list(contexts)
    while active:
        for context in list(active):
            _, mutator = context
            if mutator.collector.heap.clock >= WORK_WORDS:
                active.remove(context)
                continue
            mutator.step()
    return [
        instrument.registry.canonical_json() for instrument, _ in contexts
    ]


def test_same_kind_pair_does_not_cross_contaminate():
    solo_a = _solo_registry("mark-sweep", seed=1, label="ms-a")
    solo_b = _solo_registry("mark-sweep", seed=2, label="ms-b")
    assert solo_a != solo_b  # different seeds: genuinely distinct series
    pair = _interleaved_registries(
        [("mark-sweep", 1, "ms-a"), ("mark-sweep", 2, "ms-b")]
    )
    assert pair == [solo_a, solo_b]


def test_different_kind_pair_does_not_cross_contaminate():
    solo = [
        _solo_registry("generational", seed=3, label="gen"),
        _solo_registry("stop-and-copy", seed=4, label="scc"),
    ]
    pair = _interleaved_registries(
        [("generational", 3, "gen"), ("stop-and-copy", 4, "scc")]
    )
    assert pair == solo


def test_session_labels_keep_same_kind_collectors_apart():
    """The conftest gap this PR closes: a session hosting duplicate
    kinds must give each its own registry under a distinct label."""
    with metrics_session(events=False) as session:
        first, first_mutator = _build("mark-sweep", seed=5)
        second, second_mutator = _build("mark-sweep", seed=6)
        assert first.metrics is not None and second.metrics is not None
        assert first.metrics is not second.metrics
        first_mutator.run(WORK_WORDS)
        second_mutator.run(WORK_WORDS)
    labels = list(session.instruments)
    assert labels == [first.name, f"{first.name}#2"]
    registries = session.registries()
    assert first.stats.collections > 0 and second.stats.collections > 0
    assert (
        registries[0].get("collections").value == first.stats.collections
    )
    assert (
        registries[1].get("collections").value == second.stats.collections
    )
    # Different seeds, genuinely different series — nothing bled over.
    assert (
        registries[0].get("pause_words").total
        != registries[1].get("pause_words").total
    )


def test_service_sessions_mirror_the_property():
    """Service-level restatement: two tenants with the same kind on
    one shard drain into one label, and the merged registry equals the
    sum of each tenant's solo registry (merge is the only coupling)."""
    from repro.metrics.registry import MetricRegistry, merge_registries
    from repro.service.isolation import build_cases, script_to_requests
    from repro.service.loadgen import tenant_geometry
    from repro.service.session import TenantSession

    cases = build_cases(2, seed=9, ops_per_tenant=120, kinds=("generational",))

    def solo(case) -> MetricRegistry:
        session = TenantSession(
            case.tenant, kind=case.kind, geometry=case.geometry
        )
        registry = MetricRegistry(session.metrics_label)
        for request in script_to_requests(
            case.script, case.tenant, kind=case.kind, geometry=case.geometry
        ):
            if request["op"] in ("open", "close"):
                continue
            session.apply(request)
        session.drain_metrics(registry)
        return registry

    solos = [solo(case) for case in cases]
    merged_reference = merge_registries(solos, solos[0].label)

    shared = MetricRegistry(solos[0].label)
    sessions = {
        case.tenant: TenantSession(
            case.tenant, kind=case.kind, geometry=case.geometry
        )
        for case in cases
    }
    streams = {
        case.tenant: [
            r
            for r in script_to_requests(
                case.script, case.tenant, kind=case.kind,
                geometry=case.geometry,
            )
            if r["op"] not in ("open", "close")
        ]
        for case in cases
    }
    for cursor in range(max(len(s) for s in streams.values())):
        for case in cases:  # strict alternation: maximal interleave
            stream = streams[case.tenant]
            if cursor < len(stream):
                sessions[case.tenant].apply(stream[cursor])
    for session in sessions.values():
        session.drain_metrics(shared)
    assert shared.canonical_json() == merged_reference.canonical_json()
