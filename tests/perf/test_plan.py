"""Plan-driven allocation is byte-identical to per-object mutation.

This is the pin the bench rests on: ``build_allocation_plan`` +
``execute_plan`` must be indistinguishable — to the collector — from
driving ``LifetimeDrivenMutator.run`` over the same schedule.  Every
collector is held to the full bar: identical live graph, identical
GcStats counters, identical pause log.  What a plan leaves behind is
also pinned in ``golden_plan_fingerprints.json``, captured while the
object and flat heaps still ran it to the same heap and counters
(regenerate with ``PYTHONPATH=src python -m tests.perf.test_plan``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.harness import collector_factory
from repro.gc.registry import COLLECTOR_KINDS
from repro.heap.backend import make_heap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule
from repro.perf.plan import build_allocation_plan, execute_plan

WORDS = 20_000
HALF_LIFE = 500.0
GOLDEN_PATH = Path(__file__).with_name("golden_plan_fingerprints.json")


def _fingerprint(heap):
    rows = []
    for space in heap.spaces():
        for oid in space.object_ids():
            rows.append((
                oid,
                heap.size_of(oid),
                heap.birth_of(oid),
                heap.kind_of(oid),
                space.name,
            ))
    return sorted(rows)


def _run_mutator(kind, backend):
    heap = make_heap(backend)
    roots = RootSet()
    collector = collector_factory(kind, None)(heap, roots)
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(HALF_LIFE, seed=0)
    )
    mutator.run(WORDS)
    return heap, collector


def _run_plan(kind, backend="flat"):
    heap = make_heap(backend)
    roots = RootSet()
    collector = collector_factory(kind, None)(heap, roots)
    plan = build_allocation_plan(DecaySchedule(HALF_LIFE, seed=0), WORDS)
    execute_plan(collector, plan)
    return heap, collector


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_plan_matches_mutator(kind, backend):
    heap_a, coll_a = _run_mutator(kind, backend)
    heap_b, coll_b = _run_plan(kind, backend)
    assert _fingerprint(heap_a) == _fingerprint(heap_b)
    assert coll_a.stats.snapshot() == coll_b.stats.snapshot()
    assert coll_a.stats.pauses == coll_b.stats.pauses


def plan_digest(kind) -> str:
    """SHA-256 of the heap and the counters a plan run leaves."""
    heap, collector = _run_plan(kind)
    seen = (_fingerprint(heap), sorted(collector.stats.snapshot().items()))
    return hashlib.sha256(repr(seen).encode()).hexdigest()


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_plan_agrees_across_backends(kind):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert plan_digest(kind) == golden[kind]


class TestBuildPlan:
    def test_replicates_slot_choreography(self):
        schedule = DecaySchedule(50.0, seed=3)
        plan = build_allocation_plan(schedule, 200)
        assert plan.total_objects == 200
        assert plan.total_words == 200
        assert len(plan.releases) == 200
        assert len(plan.store_slots) == 200
        # Slots are reused (LIFO), so the frame stays far below one
        # slot per allocation at this short half-life.
        assert plan.slot_count < 200
        assert max(plan.store_slots) == plan.slot_count - 1
        # A slot freed before allocation i is never still held at i.
        live: set[int] = set()
        for released, stored in zip(plan.releases, plan.store_slots):
            for slot in released:
                live.discard(slot)
            assert stored not in live
            live.add(stored)

    def test_rounds_word_budget_up_to_whole_objects(self):
        plan = build_allocation_plan(
            DecaySchedule(50.0, seed=0), 100, object_words=8
        )
        assert plan.total_objects == 13
        assert plan.total_words == 104

    def test_rejects_bad_budgets(self):
        schedule = DecaySchedule(50.0, seed=0)
        with pytest.raises(ValueError):
            build_allocation_plan(schedule, 0)
        with pytest.raises(ValueError):
            build_allocation_plan(schedule, 100, object_words=0)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.write_text(
        json.dumps(
            {kind: plan_digest(kind) for kind in COLLECTOR_KINDS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
