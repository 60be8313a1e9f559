"""Satellite: the legacy ``GcStats`` counters vs the metric registry.

``gc/stats.py`` predates the metrics plane; the registry is fed by
diffing its snapshots, so any drift between the two would mean the
telemetry misattributes work.  This closes the coverage gap on the
paper's own worked example: the Table 1 configuration (7-step
non-predictive collector, 1024-word steps, j = 1, halving workload),
whose steady-state mark/cons ratio is 1024/5120 = 0.200.  Both
accounting paths — the legacy stats fields and the registry counter
deltas — must agree *exactly*, and both must derive the 0.200.
"""

from __future__ import annotations

import pytest

from repro.core.policy import FixedJPolicy
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.instrument import instrument_collector
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import HalvingSchedule

STEP_WORDS = 1024
STEP_COUNT = 7
CYCLE_WORDS = 5 * STEP_WORDS  # collection period at this load


@pytest.fixture(scope="module")
def steady():
    """The Table 1 collector at steady state, with one cycle measured.

    Returns the instrumented collector plus the registry/stats deltas
    over one full steady cycle (collection boundary to collection
    boundary), captured from both accounting paths independently.
    """
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap,
        roots,
        STEP_COUNT,
        STEP_WORDS,
        policy=FixedJPolicy(1),
        initial_j=1,
    )
    instrument = instrument_collector(collector)
    mutator = LifetimeDrivenMutator(
        collector, roots, HalvingSchedule(STEP_WORDS)
    )
    registry = instrument.registry

    def run_to_next_collection():
        collections = collector.stats.collections
        while collector.stats.collections == collections:
            mutator.step()
        mutator.release_due()

    # Warm up past the fill transient, then align to a cycle boundary.
    mutator.run(6 * CYCLE_WORDS)
    run_to_next_collection()

    def both_counters():
        """(registry value, stats value) for each shared counter."""
        stats = collector.stats
        return {
            "alloc": (
                registry.counter("alloc_words").value,
                stats.words_allocated,
            ),
            "copy": (registry.counter("copy_words").value, stats.words_copied),
            "mark": (registry.counter("mark_words").value, stats.words_marked),
            "roots": (registry.counter("root_refs").value, stats.roots_traced),
            "reclaimed": (
                registry.counter("reclaimed_words").value,
                stats.words_reclaimed,
            ),
            "collections": (
                registry.counter("collections").value,
                stats.collections,
            ),
        }

    before = both_counters()
    run_to_next_collection()
    after = both_counters()
    return collector, registry, before, after


class TestCrossCheck:
    def test_registry_agrees_with_stats_exactly(self, steady):
        """At every collection boundary the two paths are identical.

        Work counters only change during collections, so they agree
        exactly at any time.  The allocation counter is observed at
        collection time, before the *triggering* allocation is booked
        to stats, so it lags by exactly that in-flight allocation —
        the same small remainder at every boundary.
        """
        _, _, before, after = steady
        for snap, when in ((before, "before"), (after, "after")):
            for name in ("copy", "mark", "roots", "reclaimed", "collections"):
                registry_value, stats_value = snap[name]
                assert registry_value == stats_value, (
                    f"{name} diverged ({when})"
                )
        lag_before = before["alloc"][1] - before["alloc"][0]
        lag_after = after["alloc"][1] - after["alloc"][0]
        assert lag_before == lag_after
        assert 0 <= lag_before <= 4  # at most one in-flight object

    def test_steady_mark_cons_from_registry_deltas(self, steady):
        """0.200 is derivable from the registry counters alone."""
        _, _, before, after = steady
        copied = after["copy"][0] - before["copy"][0]
        allocated = after["alloc"][0] - before["alloc"][0]
        assert after["collections"][0] - before["collections"][0] == 1
        assert copied / allocated == pytest.approx(0.2, abs=0.01)

    def test_steady_mark_cons_from_stats_deltas(self, steady):
        """...and from the legacy stats fields, with exact agreement."""
        _, _, before, after = steady
        copied = after["copy"][1] - before["copy"][1]
        allocated = after["alloc"][1] - before["alloc"][1]
        assert copied / allocated == pytest.approx(0.2, abs=0.01)
        # The two derivations are not merely close — they are equal.
        assert copied == after["copy"][0] - before["copy"][0]
        assert allocated == after["alloc"][0] - before["alloc"][0]

    def test_one_steady_collection_copies_one_step(self, steady):
        """The paper's cycle: 1024 words survive into the copy."""
        _, _, before, after = steady
        copied = after["copy"][0] - before["copy"][0]
        assert copied == pytest.approx(STEP_WORDS, abs=8)

    def test_pause_histogram_total_equals_traced_work(self, steady):
        """The pause histogram's mass is the stats' gc work, exactly."""
        collector, registry, _, _ = steady
        pauses = registry.histogram("pause_words")
        assert pauses.count == collector.stats.collections
        assert pauses.total == sum(
            record.work for record in collector.stats.pauses
        )
        assert pauses.max == collector.stats.max_pause_work

    def test_snapshot_keys_cover_summary_counters(self):
        """`snapshot()` must stay in lockstep with the stats fields."""
        from repro.gc.stats import GcStats

        stats = GcStats()
        snap = stats.snapshot()
        assert set(snap) >= {
            "words_allocated",
            "words_marked",
            "words_copied",
            "words_swept",
            "roots_traced",
            "words_reclaimed",
            "words_promoted",
            "remset_entries_created",
            "remset_entries_pruned",
            "collections",
        }
        # Every snapshot key is a real attribute with the same value.
        for key, value in snap.items():
            assert getattr(stats, key) == value
