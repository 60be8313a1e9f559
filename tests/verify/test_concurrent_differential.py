"""Tests for the concurrent-equivalence differential suite.

Positive direction: generated scripts replayed under mark-sweep,
unbounded incremental, and the concurrent collector (inline and pool
markers) agree on checkpoints, GcStats, pause logs, and survivor
sets.

Negative direction: a concurrent collector whose cycles open at a
different occupancy is caught as a ``concurrent-stats`` divergence, a
pool run that disagrees with the inline one as ``marker-mode``, a
replay crash as ``crash`` — and the standard ddmin shrinker reduces a
failing script.
"""

from __future__ import annotations

import pytest

import repro.verify.differential as concurrent_module
from repro.gc.concurrent import ConcurrentCollector
from repro.verify.differential import concurrent_suite
from repro.verify.replay import generate_script
from repro.verify.shrink import shrink_script

#: Every label the suite replays, in run order.
CONCURRENT_LABELS = (
    "mark-sweep",
    "incremental@b=inf",
    "concurrent@inline",
    "concurrent@pool",
)


def run_concurrent_differential(script, *, checked=True, pool_workers=1):
    suite = concurrent_suite(pool_workers=pool_workers)
    return suite.run(script, checked=checked)


class TestConcurrentEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_all_labels_agree(self, seed):
        script = generate_script(400, seed, max_live_words=40)
        report = run_concurrent_differential(script)
        assert report.ok, report.summary()
        assert tuple(report.results) == CONCURRENT_LABELS

    def test_quiesced_script_is_used(self):
        script = generate_script(100, 0, max_live_words=40)
        report = run_concurrent_differential(script, pool_workers=0)
        assert len(report.script.ops) == len(script.ops) + 2
        assert "quiesced" in (report.script.note or "")

    def test_pool_skipped_when_disabled(self):
        script = generate_script(100, 0, max_live_words=40)
        report = run_concurrent_differential(script, pool_workers=0)
        assert report.ok, report.summary()
        assert "concurrent@pool" not in report.results

    def test_all_backends(self):
        """The script the per-backend sweep ran, on the one heap."""
        script = generate_script(300, 13, max_live_words=40)
        report = run_concurrent_differential(script)
        assert report.ok, report.summary()


def _skewed_factory(real_factory, *, workers, trigger):
    """A factory that skews only the concurrent run with ``workers``."""

    def factory(kind, geometry=None):
        if kind == "concurrent" and geometry.marker_workers == workers:
            def build(heap, roots):
                return ConcurrentCollector(
                    heap,
                    roots,
                    2 * geometry.semispace_words,
                    marker_workers=workers,
                    trigger_fraction=trigger,
                    load_factor=geometry.load_factor,
                )

            return build
        return real_factory(kind, geometry)

    return factory


class TestDivergenceDetection:
    def test_interleaving_dependence_is_caught(self, monkeypatch):
        """A concurrent collector whose cycles open at a different
        occupancy snapshots a different heap — the suite must flag
        it, because snapshot-placement independence is the claim."""
        script = generate_script(400, 0, max_live_words=40)
        monkeypatch.setattr(
            concurrent_module,
            "collector_factory",
            _skewed_factory(
                concurrent_module.collector_factory, workers=0, trigger=0.9
            ),
        )
        report = run_concurrent_differential(
            script, checked=False, pool_workers=0
        )
        assert not report.ok
        kinds = {d.kind for d in report.divergences}
        assert "concurrent-stats" in kinds

    def test_marker_mode_divergence_is_caught(self, monkeypatch):
        """Inline and pool runs disagreeing is its own divergence
        kind: where the marker ran must not be observable."""
        script = generate_script(400, 0, max_live_words=40)
        monkeypatch.setattr(
            concurrent_module,
            "collector_factory",
            _skewed_factory(
                concurrent_module.collector_factory, workers=1, trigger=0.9
            ),
        )
        report = run_concurrent_differential(script, checked=False)
        assert not report.ok
        kinds = {d.kind for d in report.divergences}
        assert "marker-mode" in kinds

    def test_crash_becomes_divergence(self, monkeypatch):
        script = generate_script(200, 0, max_live_words=40)
        real_factory = concurrent_module.collector_factory

        def exploding_factory(kind, geometry=None):
            if kind == "concurrent" and geometry.marker_workers == 0:
                def build(heap, roots):
                    collector = real_factory(kind, geometry)(heap, roots)

                    def boom():
                        raise RuntimeError("induced crash")

                    collector.collect = boom
                    return collector

                return build
            return real_factory(kind, geometry)

        monkeypatch.setattr(
            concurrent_module, "collector_factory", exploding_factory
        )
        report = run_concurrent_differential(script, pool_workers=0)
        assert not report.ok
        crashed = [d for d in report.divergences if d.kind == "crash"]
        assert crashed
        assert crashed[0].collector == "concurrent@inline"
        assert report.results["concurrent@inline"] is None

    def test_induced_divergence_shrinks(self, monkeypatch):
        """The standard ddmin shrinker reduces a script that fails the
        concurrent oracle, preserving the failure."""
        script = generate_script(300, 0, max_live_words=40)
        monkeypatch.setattr(
            concurrent_module,
            "collector_factory",
            _skewed_factory(
                concurrent_module.collector_factory, workers=0, trigger=0.9
            ),
        )

        def fails(candidate) -> bool:
            return not run_concurrent_differential(
                candidate, checked=False, pool_workers=0
            ).ok

        assert fails(script)
        small = shrink_script(script, fails)
        assert fails(small)
        assert len(small.ops) <= len(script.ops)
