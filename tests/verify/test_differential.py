"""Tests for the differential oracle, including broken-collector injection."""

from __future__ import annotations

import pytest

from repro.experiments.harness import GcGeometry
from repro.gc.generational import GenerationalCollector
from repro.verify.differential import DEFAULT_COLLECTORS, run_differential
from repro.verify.replay import generate_script
from repro.verify.shrink import shrink_script

#: Tiny nursery so a write-barrier bug needs only a handful of filler
#: allocations to trigger a minor collection.
TINY_GEOMETRY = GcGeometry(
    nursery_words=24,
    semispace_words=96,
    step_words=24,
    step_count=8,
)


class BrokenBarrierGenerational(GenerationalCollector):
    """A generational collector whose write barrier remembers nothing."""

    name = "generational-broken-barrier"

    def remember_store_id(self, src_id, slot, target_id):
        pass


def broken_factory(heap, roots):
    return BrokenBarrierGenerational(
        heap,
        roots,
        [TINY_GEOMETRY.nursery_words, 4 * TINY_GEOMETRY.nursery_words],
        oldest_load_factor=TINY_GEOMETRY.gen_oldest_load_factor,
    )


class TestAgreement:
    def test_all_five_agree(self):
        script = generate_script(400, 12)
        report = run_differential(script)
        assert report.ok, report.summary()
        assert set(report.results) == set(DEFAULT_COLLECTORS)

    def test_unchecked_mode_also_agrees(self):
        script = generate_script(300, 13)
        report = run_differential(script, checked=False)
        assert report.ok, report.summary()

    def test_summary_names_collectors(self):
        script = generate_script(60, 1)
        report = run_differential(script, kinds=("mark-sweep", "hybrid"))
        assert "mark-sweep" in report.summary()

    def test_rejects_empty_kinds(self):
        with pytest.raises(ValueError):
            run_differential(generate_script(10, 0), kinds=())

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            run_differential(generate_script(10, 0), kinds=("warp-speed",))


class TestBrokenBarrier:
    """The ISSUE's acceptance scenario: a disabled write barrier must be
    caught by the oracle and shrink to a tiny counterexample."""

    KINDS = ("mark-sweep", "generational")
    FACTORIES = {"generational": broken_factory}

    def run(self, script, checked=False):
        return run_differential(
            script,
            self.KINDS,
            geometry=TINY_GEOMETRY,
            factories=self.FACTORIES,
            checked=checked,
        )

    def find_failing_script(self):
        for seed in range(50):
            script = generate_script(250, seed)
            if not self.run(script).ok:
                return script
        raise AssertionError(
            "no script exposed the broken write barrier in 50 seeds"
        )

    def test_oracle_catches_lost_barrier(self):
        script = self.find_failing_script()
        report = self.run(script)
        assert not report.ok
        assert report.divergences[0].collector == "generational"
        assert report.divergences[0].kind in ("live-graph", "crash")

    def test_checked_mode_catches_it_at_the_collection(self):
        script = self.find_failing_script()
        report = self.run(script, checked=True)
        assert not report.ok
        # The audit fires inside the collection that loses the object,
        # so checked mode reports a crash at a precise op.
        crash = [d for d in report.divergences if d.kind == "crash"]
        assert crash and crash[0].op_index is not None

    def test_shrinks_to_small_counterexample(self):
        script = self.find_failing_script()

        def fails(candidate):
            return not self.run(candidate).ok

        small = shrink_script(script, fails)
        assert fails(small)
        assert len(small.ops) <= 20, small.to_text()
        # The witness needs an allocation and a store at minimum.
        kinds = {op[0] for op in small.ops}
        assert "alloc" in kinds and "store" in kinds


class TestHybridRemsetRegression:
    """Regression: a protected-step slot remembered in remset_young must
    survive (as a remset_steps entry) when its target is promoted past
    the j boundary by a nursery collection."""

    def test_seed_40_replays_clean(self):
        script = generate_script(300, 40, max_live_words=60)
        report = run_differential(script, kinds=("mark-sweep", "hybrid"))
        assert report.ok, report.summary()
