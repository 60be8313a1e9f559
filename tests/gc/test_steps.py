"""The step machine's contract, checked on both collectors built on it.

``repro.gc.steps.StepCollector`` owns the steps, ``j``, the
renumbering and the protected-to-collectable remembered set; the
non-predictive collector allocates into the steps and the hybrid
promotes into them.  Every case here takes the kind as an input, so
the two cannot drift: what differs between the kinds is only how an
object comes to reside in a step (:func:`settle`).
"""

from __future__ import annotations

import pytest

from repro.core.policy import FixedJPolicy
from repro.gc.hybrid import HybridCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.registry import COLLECTOR_KINDS
from repro.gc.steps import StepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.verify.audit import audit_collector

KINDS = ("non-predictive", "hybrid")


def make(kind, step_count=6, step_words=4, **kwargs):
    heap = FlatHeap()
    roots = RootSet()
    if kind == "hybrid":
        collector = HybridCollector(
            heap, roots, step_words, step_count, step_words, **kwargs
        )
    else:
        collector = NonPredictiveCollector(
            heap, roots, step_count, step_words, **kwargs
        )
    return heap, roots, collector


def settle(collector, frame, field_count=0):
    """A rooted step-sized object, resident in a step: allocated there
    (non-predictive) or promoted there (hybrid).  Either way the steps
    fill from step ``k`` downward, one object per step, and run on into
    the protected steps once the collectable ones are full."""
    obj = collector.allocate_id(collector.step_words, field_count)
    slot = frame.push(obj)
    if isinstance(collector, HybridCollector):
        collector.collect_nursery()
    return obj, slot


@pytest.mark.parametrize("kind", KINDS)
class TestConstruction:
    def test_rejects_bad_geometry(self, kind):
        with pytest.raises(ValueError):
            make(kind, step_count=1)
        with pytest.raises(ValueError):
            make(kind, step_words=0)
        with pytest.raises(ValueError):
            make(kind, initial_j=4)  # > k/2
        with pytest.raises(ValueError):
            make(kind, initial_j=-1)

    def test_rejected_geometry_registers_no_space(self, kind):
        heap, roots = FlatHeap(), RootSet()
        with pytest.raises(ValueError):
            if kind == "hybrid":
                HybridCollector(heap, roots, 4, 1, 4)
            else:
                NonPredictiveCollector(heap, roots, 1, 4)
        assert list(heap.spaces()) == []

    def test_fresh_collector_is_consistent(self, kind):
        _, _, collector = make(kind, initial_j=3)
        assert collector.j == 3
        assert collector.step_count == 6
        assert collector.step_used() == [0] * 6
        collector.check_step_invariants()
        assert audit_collector(collector).ok


def test_the_machine_is_not_a_kind():
    with pytest.raises(TypeError):
        StepCollector(FlatHeap(), RootSet(), 4, 4)
    assert "steps" not in COLLECTOR_KINDS
    assert len(COLLECTOR_KINDS) == 7


@pytest.mark.parametrize("kind", KINDS)
class TestReduceJ:
    def test_rejects_raising_and_negative_j(self, kind):
        _, _, collector = make(kind, initial_j=1)
        with pytest.raises(ValueError):
            collector.reduce_j(2)
        with pytest.raises(ValueError):
            collector.reduce_j(-1)
        assert collector.j == 1

    def test_records_newly_exposed_slots(self, kind):
        # A pointer created while both ends were protected becomes
        # protected-to-collectable when j drops; reduce_j must record
        # it or the target would be collected while reachable.
        heap, roots, collector = make(kind, initial_j=3)
        frame = roots.push_frame()
        for _ in range(3):
            settle(collector, frame)  # steps 6..4 (collectable)
        inner, inner_slot = settle(collector, frame)  # step 3
        holder, _ = settle(collector, frame, field_count=1)  # step 2
        assert collector.step_number(inner) == 3
        assert collector.step_number(holder) == 2
        heap.store_slot(holder, 0, inner)
        collector.remember_store_id(holder, 0, inner)  # both protected
        assert len(collector.remset_steps) == 0
        created = collector.stats.remset_entries_created

        collector.reduce_j(2)  # step 3 becomes collectable
        assert collector.j == 2
        assert (holder, 0) in collector.remset_steps
        assert collector.stats.remset_entries_created == created + 1
        collector.check_step_invariants()
        assert audit_collector(collector).ok

        # Only holder's remembered slot reaches inner now.
        frame.set(inner_slot, None)
        collector.collect()
        assert heap.contains_id(inner)
        heap.check_integrity()

    def test_reduce_to_zero_needs_no_entries(self, kind):
        heap, roots, collector = make(kind, initial_j=3)
        frame = roots.push_frame()
        for _ in range(5):
            settle(collector, frame, field_count=1)
        collector.reduce_j(0)
        assert collector.j == 0
        assert len(collector.remset_steps) == 0
        assert audit_collector(collector).ok


@pytest.mark.parametrize("kind", KINDS)
class TestRenumbering:
    def test_rotates_collectable_ahead_of_protected(self, kind):
        heap, roots, collector = make(
            kind, step_count=4, policy=FixedJPolicy(1), initial_j=1
        )
        frame = roots.push_frame()
        # Steps 4, 3, 2 fill first; the fourth object lands in step 1.
        garbage = [settle(collector, frame) for _ in range(3)]
        protected, _ = settle(collector, frame)
        assert collector.step_number(protected) == 1
        for _, slot in garbage:
            frame.set(slot, None)
        before = list(collector.steps)

        collector.collect()
        assert collector.steps == before[1:] + before[:1]
        # Old step 1 becomes step k ("exchanged, not collected").
        assert collector.step_number(protected) == 4
        assert [space.name for space in collector.steps] == (
            collector.export_state()["step_order"]
        )
        assert len(collector.remset_steps) == 0
        collector.check_step_invariants()
        assert audit_collector(collector).ok


@pytest.mark.parametrize("kind", KINDS)
class TestSnapshotHalf:
    def test_import_rejects_foreign_step_order(self, kind):
        _, _, collector = make(kind)
        state = collector.export_state()
        state["step_order"][0] = "somebody-elses-step-0"
        with pytest.raises(ValueError):
            collector.import_state(state)
        collector.check_step_invariants()

    def test_import_restores_order_and_partition(self, kind):
        _, _, source = make(kind, initial_j=2)
        state = source.export_state()
        state["step_order"] = state["step_order"][2:] + state["step_order"][:2]
        state["j"] = 1
        _, _, target = make(kind)
        target.import_state(state)
        assert [s.name for s in target.steps] == state["step_order"]
        assert target.j == 1
        target.check_step_invariants()


def _stale_j(collector):
    collector._j = 1  # not through the setter: the partition is stale


def _swap(collector):
    steps = collector.steps  # what the mis-renumber fault does
    steps[0], steps[3] = steps[3], steps[0]


def _swap_and_reindex(collector):
    _swap(collector)
    collector._step_index_of = {
        space: index for index, space in enumerate(collector.steps)
    }


def _j_above_half(collector):
    collector.j = collector.step_count // 2 + 1


@pytest.mark.parametrize(
    "corrupt", [_stale_j, _swap, _swap_and_reindex, _j_above_half]
)
@pytest.mark.parametrize("kind", KINDS)
def test_invariant_check_catches_stale_structure(kind, corrupt):
    """One check, the stronger of the two the kinds used to carry: the
    index map, the capacities, the partition caches and ``j <= k/2``."""
    _, _, collector = make(kind, initial_j=2)
    corrupt(collector)
    with pytest.raises(AssertionError):
        collector.check_step_invariants()
    report = audit_collector(collector)
    assert any(v.startswith("step structure") for v in report.violations)
