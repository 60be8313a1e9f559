"""Tests for the fault taxonomy and its injectors.

Every corruption injector must leave the collector in a state the
auditor rejects; the benign injector must leave a state it accepts.
The root-skip case is the regression test for the auditor gap this PR
closed: it is invisible to a plain audit (every check trusts the
collector's own root set) and caught only by the ``expected_roots``
witness.
"""

import random

import pytest

from repro.gc.generational import GenerationalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.resilience.faults import (
    CORRUPTION_FAULTS,
    FAULT_KINDS,
    FaultPlan,
    fault_applies,
    fault_expectation,
    inject_fault,
)
from repro.verify.audit import audit_collector
from tests.gc.test_steps import KINDS as STEP_KINDS, make, settle


def _marksweep():
    heap = FlatHeap()
    roots = RootSet()
    return MarkSweepCollector(heap, roots, 256), heap, roots


def _generational():
    heap = FlatHeap()
    roots = RootSet()
    collector = GenerationalCollector(heap, roots, [64, 128])
    return collector, heap, roots


def _nonpredictive():
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(heap, roots, 32, 8)
    return collector, heap, roots


class TestTaxonomy:
    def test_every_kind_has_an_expectation(self):
        for kind in FAULT_KINDS:
            assert fault_expectation(kind) in ("corruption", "benign")

    def test_dup_remset_is_the_only_benign_kind(self):
        assert set(FAULT_KINDS) - CORRUPTION_FAULTS == {"dup-remset"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_expectation("bit-rot")

    def test_plan_validates_kind_and_index(self):
        plan = FaultPlan("dangling-slot", 3, seed=7)
        assert plan.expectation == "corruption"
        with pytest.raises(ValueError):
            FaultPlan("bit-rot", 0, seed=0)
        with pytest.raises(ValueError):
            FaultPlan("dangling-slot", -1, seed=0)

    def test_applicability_by_collector_family(self):
        ms, _, _ = _marksweep()
        gen, _, _ = _generational()
        np_rs, _, _ = _nonpredictive()
        assert fault_applies("dangling-slot", ms)
        assert fault_applies("stale-forward", ms)
        assert fault_applies("root-skip", ms)
        assert not fault_applies("drop-remset", ms)
        assert not fault_applies("mis-renumber", ms)
        assert fault_applies("drop-remset", gen)
        assert fault_applies("mis-renumber", np_rs)
        assert fault_applies("drop-remset", np_rs) == np_rs.use_remset


class TestInjectors:
    def test_no_target_returns_none(self):
        collector, _, _ = _marksweep()
        rng = random.Random(0)
        assert inject_fault("dangling-slot", collector, rng) is None
        assert inject_fault("root-skip", collector, rng) is None

    def test_dangling_slot_fails_audit(self):
        collector, _, roots = _marksweep()
        obj = collector.allocate_id(4, 2)
        roots.set_global("a", obj)
        assert audit_collector(collector).ok
        injection = inject_fault(
            "dangling-slot", collector, random.Random(1)
        )
        assert injection is not None
        assert not audit_collector(collector).ok

    def test_stale_forward_fails_audit_even_single_space(self):
        collector, _, roots = _marksweep()
        roots.set_global("a", collector.allocate_id(4))
        injection = inject_fault(
            "stale-forward", collector, random.Random(2)
        )
        assert injection is not None
        assert not audit_collector(collector).ok

    def test_mis_renumber_fails_audit(self):
        collector, _, roots = _nonpredictive()
        roots.set_global("a", collector.allocate_id(4))
        injection = inject_fault(
            "mis-renumber", collector, random.Random(3)
        )
        assert injection is not None
        report = audit_collector(collector)
        assert not report.ok

    def test_drop_remset_fails_audit(self):
        collector, heap, roots = _generational()
        old = collector.allocate_id(4, 1)
        roots.set_global("old", old)
        collector.collect()  # promotes `old` out of the nursery
        assert collector.generation_index(old) == 1
        young = collector.allocate_id(4)
        roots.set_global("young", young)
        heap.store_slot(old, 0, young)
        collector.remember_store_id(old, 0, young)
        roots.remove_global("young")  # young now lives via old's slot
        assert audit_collector(collector).ok
        injection = inject_fault(
            "drop-remset", collector, random.Random(4)
        )
        assert injection is not None
        report = audit_collector(collector)
        assert any("remset" in v for v in report.violations)

    def test_dup_remset_is_benign(self):
        collector, heap, roots = _generational()
        old = collector.allocate_id(4, 1)
        roots.set_global("old", old)
        collector.collect()
        young = collector.allocate_id(4)
        roots.set_global("young", young)
        injection = inject_fault(
            "dup-remset", collector, random.Random(5)
        )
        assert injection is not None
        assert audit_collector(collector).ok
        collector.collect()  # the spurious entry must not crash a cycle
        assert audit_collector(collector).ok


@pytest.mark.parametrize("kind", STEP_KINDS)
class TestStepKinds:
    """The two step collectors face one injector and one auditor walk;
    the detail and violation texts are the ones each kind always had."""

    def _crossing(self, kind):
        """Steps 6..4 full, a holder in protected step 3 whose slot 0
        points (remembered) at the object in collectable step 6."""
        heap, roots, collector = make(kind, initial_j=3)
        frame = roots.push_frame()
        target, _ = settle(collector, frame)
        settle(collector, frame)
        settle(collector, frame)
        holder, _ = settle(collector, frame, field_count=1)
        heap.store_slot(holder, 0, target)
        collector.remember_store_id(holder, 0, target)
        assert audit_collector(collector).ok
        return collector, holder, target

    def test_drop_remset_names_the_crossing(self, kind):
        collector, holder, target = self._crossing(kind)
        injection = inject_fault("drop-remset", collector, random.Random(7))
        report = audit_collector(collector)
        if kind == "hybrid":
            assert injection.detail == (
                f"entry ({holder}, 0) dropped from hybrid-steps "
                f"(step-3 -> step-6)"
            )
            assert report.violations == (
                f"remset incomplete: protected step-3 object {holder} slot "
                f"0 points at step-6 object {target} without a "
                f"remset_steps entry",
            )
        else:
            assert injection.detail == (
                f"entry ({holder}, 0) dropped from np-steps "
                f"(protected -> step-6)"
            )
            assert report.violations == (
                f"remset incomplete: protected object {holder} slot 0 "
                f"points at step-6 object {target} without an entry",
            )

    def test_dup_remset_is_benign(self, kind):
        collector, holder, _ = self._crossing(kind)
        injection = inject_fault("dup-remset", collector, random.Random(8))
        assert injection.detail.startswith(f"entry ({holder}, 0) re-recorded")
        assert audit_collector(collector).ok
        collector.collect()
        assert audit_collector(collector).ok

    def test_conservative_entry_comes_from_a_source_step(self, kind):
        heap, roots, collector = make(kind, initial_j=3)
        frame = roots.push_frame()
        for _ in range(4):
            settle(collector, frame, field_count=1)
        injection = inject_fault("dup-remset", collector, random.Random(9))
        assert "stale-store-style entry" in injection.detail
        assert audit_collector(collector).ok

    def test_mis_renumber_fails_audit(self, kind):
        collector, _, _ = self._crossing(kind)
        injection = inject_fault("mis-renumber", collector, random.Random(3))
        assert "swapped without renumbering" in injection.detail
        report = audit_collector(collector)
        assert any(v.startswith("step structure") for v in report.violations)


def test_hybrid_drop_remset_names_the_nursery_crossing():
    heap, roots, collector = make("hybrid")
    frame = roots.push_frame()
    old, _ = settle(collector, frame, field_count=1)  # step 6
    young = collector.allocate_id(2)
    frame.push(young)
    heap.store_slot(old, 0, young)
    collector.remember_store_id(old, 0, young)
    injection = inject_fault("drop-remset", collector, random.Random(7))
    assert injection.detail == (
        f"entry ({old}, 0) dropped from hybrid-young "
        f"(step-6 -> nursery)"
    )
    assert audit_collector(collector).violations == (
        f"remset incomplete: step-6 object {old} slot 0 points at "
        f"nursery object {young} without a remset_young entry",
    )


def test_scan_mode_offers_no_remset_target():
    _, _, collector = make("non-predictive", initial_j=3, use_remset=False)
    assert not fault_applies("drop-remset", collector)
    assert inject_fault("drop-remset", collector, random.Random(0)) is None
    assert inject_fault("dup-remset", collector, random.Random(0)) is None
    assert "remset-completeness" not in audit_collector(collector).checks


class TestRootSkipWitness:
    """Satellite (f): the auditor gap this PR closed."""

    def test_plain_audit_misses_root_skip(self):
        collector, _, roots = _marksweep()
        obj = collector.allocate_id(4)
        roots.set_global("a", obj)
        witness = {obj}
        injection = inject_fault("root-skip", collector, random.Random(6))
        assert injection is not None
        # Every classic check trusts the collector's own root set, so
        # the plain audit is blind to the skip...
        assert audit_collector(collector).ok
        # ...and only the independent witness sees it.
        report = audit_collector(collector, expected_roots=witness)
        assert not report.ok
        assert any("root witness" in v for v in report.violations)

    def test_witness_passes_on_honest_collector(self):
        collector, _, roots = _marksweep()
        obj = collector.allocate_id(4)
        roots.set_global("a", obj)
        report = audit_collector(
            collector, expected_roots={obj}
        )
        assert report.ok
        assert "root-witness" in report.checks
