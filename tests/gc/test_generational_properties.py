"""Property-based invariants for the generational and hybrid collectors.

Counterparts to tests/gc/test_nonpredictive_properties.py: hypothesis
drives randomized lifetime workloads (including tenuring
configurations) and checks the structural invariants after the run.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gc.collector import HeapExhausted
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator


class ListSchedule:
    def __init__(self, lifetimes: list[int]) -> None:
        self.lifetimes = lifetimes

    def lifetime_for(self, clock: int, index: int) -> int:
        return self.lifetimes[index % len(self.lifetimes)]


@given(
    lifetimes=st.lists(
        st.integers(min_value=1, max_value=500), min_size=1, max_size=40
    ),
    threshold=st.integers(min_value=1, max_value=4),
)
@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_generational_invariants_with_tenuring(lifetimes, threshold):
    heap = FlatHeap()
    roots = RootSet()
    collector = GenerationalCollector(
        heap,
        roots,
        [96, 512],
        auto_expand_oldest=True,
        promotion_threshold=threshold,
    )
    mutator = LifetimeDrivenMutator(collector, roots, ListSchedule(lifetimes))
    try:
        mutator.run(3_000)
    except HeapExhausted:
        pass
    heap.check_integrity()
    for obj_id in mutator.held_ids():
        assert heap.contains_id(obj_id)
    # Survival counts never name dead or promoted-to-oldest objects in
    # a stale generation.
    for obj_id in collector._survival_counts:
        assert heap.contains_id(obj_id)
        gen = collector.generation_index(obj_id)
        assert gen is not None and gen < collector.generation_count - 1


@given(
    lifetimes=st.lists(
        st.integers(min_value=1, max_value=500), min_size=1, max_size=40
    ),
    initial_j=st.integers(min_value=0, max_value=3),
)
@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_hybrid_invariants(lifetimes, initial_j):
    heap = FlatHeap()
    roots = RootSet()
    collector = HybridCollector(
        heap, roots, 64, 6, 128, initial_j=initial_j
    )
    mutator = LifetimeDrivenMutator(collector, roots, ListSchedule(lifetimes))
    try:
        mutator.run(3_000)
    except HeapExhausted:
        pass
    heap.check_integrity()
    assert 0 <= collector.j <= collector.step_count // 2 or (
        collector.j == initial_j  # never collected yet
    )
    for obj_id in mutator.held_ids():
        assert heap.contains_id(obj_id)
    # Remembered-set entries only name resident objects... entries may
    # be stale (overwritten slots) but never reference freed sources
    # in a way that would crash the next trace.
    for obj_id, slot in collector.remset_steps.entries():
        if heap.contains_id(obj_id):
            assert slot < len(obj_id.fields)


@pytest.mark.parametrize("threshold", [1, 2])
def test_generational_steady_state_reaches_equilibrium(threshold):
    """Long fixed-lifetime run: live population must stay bounded."""
    heap = FlatHeap()
    roots = RootSet()
    collector = GenerationalCollector(
        heap, roots, [128, 1_024], promotion_threshold=threshold
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, ListSchedule([300])
    )
    mutator.run(20_000)
    mutator.release_due()
    assert mutator.live_objects <= 301
    # Resident garbage is bounded by the heap geometry, not growing
    # with the run length.
    assert heap.live_words <= (collector.oldest.capacity or 0) + 128
