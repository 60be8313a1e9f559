"""Tests for §8.4's full collection promoting to the static area."""

from __future__ import annotations

import pytest

from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import HeapError
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum

FACTORIES = {
    "generational": lambda heap, roots: GenerationalCollector(
        heap, roots, [200, 800]
    ),
    "non-predictive": lambda heap, roots: NonPredictiveCollector(
        heap, roots, 6, 200
    ),
    "hybrid": lambda heap, roots: HybridCollector(heap, roots, 200, 6, 200),
}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestFullStaticPromotion:
    def test_live_storage_moves_to_static(self, kind):
        machine = Machine(FACTORIES[kind])
        keep = machine.cons(Fixnum(1), machine.cons(Fixnum(2), None))
        promoted = machine.full_collect_to_static()
        assert promoted == 4
        assert machine.heap.space_if_live(keep.obj_id) is machine.static
        assert machine.car(keep) == Fixnum(1)
        assert machine.car(machine.cdr(keep)) == Fixnum(2)

    def test_garbage_reclaimed_not_promoted(self, kind):
        machine = Machine(FACTORIES[kind])
        for index in range(200):
            machine.cons(Fixnum(index), None)
        promoted = machine.full_collect_to_static()
        assert promoted == 0
        assert machine.live_words() == 0

    def test_dynamic_areas_empty_afterwards(self, kind):
        machine = Machine(FACTORIES[kind])
        keep = machine.cons(Fixnum(1), None)
        machine.full_collect_to_static()
        for space in machine.heap.spaces():
            if space is not machine.static:
                assert space.is_empty()
        machine.heap.check_integrity()
        del keep

    def test_remembered_sets_emptied(self, kind):
        # §8.4: "A full collection empties the remembered set".
        machine = Machine(FACTORIES[kind])
        old = machine.cons(None, None)
        machine.collect()  # may create promoted structure
        young = machine.cons(Fixnum(1), None)
        machine.set_car(old, young)  # possibly remembered
        machine.full_collect_to_static()
        collector = machine.collector
        if kind == "generational":
            assert all(len(remset) == 0 for remset in collector.remsets)
        elif kind == "non-predictive":
            assert len(collector.remset) == 0
        else:
            assert len(collector.remset_steps) == 0
            assert len(collector.remset_young) == 0

    def test_allocation_continues_afterwards(self, kind):
        machine = Machine(FACTORIES[kind])
        keep = machine.cons(Fixnum(1), None)
        machine.full_collect_to_static()
        fresh = [machine.cons(Fixnum(i), None) for i in range(50)]
        assert all(machine.heap.contains_id(f.obj_id) for f in fresh)
        machine.heap.check_integrity()
        del keep

    def test_static_discipline_enforced_after_promotion(self, kind):
        machine = Machine(FACTORIES[kind])
        keep = machine.cons(Fixnum(1), None)
        machine.full_collect_to_static()
        fresh = machine.cons(Fixnum(2), None)
        with pytest.raises(HeapError):
            machine.set_cdr(keep, fresh)
        # Static-to-static stores remain legal.
        machine.set_cdr(keep, keep)
        assert machine.cdr(keep) == keep
