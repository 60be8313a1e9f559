"""Property-based invariants of the non-predictive collector.

Hypothesis drives the collector with randomized lifetime workloads and
checks the structural invariants DESIGN.md §5 lists after every
collection: step geometry consistent, j within bounds, protected steps
holding only post-collection allocation, and no reachable object lost.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policy import FixedFractionPolicy, HalfEmptyPolicy
from repro.gc.collector import HeapExhausted
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator


class ListSchedule:
    """Lifetimes drawn from a hypothesis-provided list (cycled)."""

    def __init__(self, lifetimes: list[int]) -> None:
        self.lifetimes = lifetimes

    def lifetime_for(self, clock: int, index: int) -> int:
        return self.lifetimes[index % len(self.lifetimes)]


@given(
    lifetimes=st.lists(
        st.integers(min_value=1, max_value=400), min_size=1, max_size=40
    ),
    step_count=st.integers(min_value=2, max_value=10),
    algorithm=st.sampled_from(["stop-and-copy", "mark-sweep"]),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_invariants_hold_under_random_workloads(
    lifetimes, step_count, algorithm
):
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap, roots, step_count, 64, algorithm=algorithm
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, ListSchedule(lifetimes)
    )
    try:
        mutator.run(2_000)
    except HeapExhausted:
        pass  # workload may be too live for the heap; invariants still hold
    collector.check_step_invariants()
    heap.check_integrity()
    # Everything the mutator still holds must be resident.
    for obj_id in mutator.held_ids():
        assert heap.contains_id(obj_id)
    # Occupancy never exceeds the step geometry.
    assert heap.live_words <= step_count * 64


@given(
    g=st.floats(min_value=0.0, max_value=0.5),
    lifetimes=st.lists(
        st.integers(min_value=1, max_value=200), min_size=1, max_size=20
    ),
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fixed_fraction_policy_respects_constraints(g, lifetimes):
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap, roots, 8, 64, policy=FixedFractionPolicy(g)
    )
    mutator = LifetimeDrivenMutator(collector, roots, ListSchedule(lifetimes))
    try:
        mutator.run(2_000)
    except HeapExhausted:
        pass
    assert 0 <= collector.j <= 4
    # The recommended constraint: steps 1..j empty right after each
    # collection implies protected steps only hold newer allocation;
    # at an arbitrary moment they at least never exceed capacity.
    for space in collector.steps[: collector.j]:
        assert space.used <= space.capacity


@pytest.mark.parametrize("algorithm", ["stop-and-copy", "mark-sweep"])
def test_post_collection_protected_steps_empty(algorithm):
    """With the §8.1 policy, steps 1..j are empty right after collection."""
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap, roots, 8, 64, policy=HalfEmptyPolicy(), algorithm=algorithm
    )
    mutator = LifetimeDrivenMutator(collector, roots, ListSchedule([100]))
    collections_seen = 0
    while collections_seen < 5:
        before = collector.stats.collections
        mutator.step()
        if collector.stats.collections > before:
            collections_seen += 1
            for space in collector.steps[: collector.j]:
                # The triggering allocation may already sit in the
                # highest free step; the protected prefix must hold
                # nothing else.
                assert space.used <= 1
