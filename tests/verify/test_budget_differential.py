"""Tests for the interruption-equivalence (budget) differential suite.

Positive direction: generated scripts replayed under mark-sweep and
under the incremental collector at budgets {1, 7, 64, inf} agree on
checkpoints, GcStats, and survivor sets.

Negative direction: a collector whose marked set *does* depend on the
interleaving (simulated by giving one budget a different cycle
trigger) is caught as a ``budget-stats`` divergence, and a replay
crash surfaces as a ``crash`` divergence instead of an exception.
"""

from __future__ import annotations

import pytest

import repro.verify.differential as budget_module
from repro.gc.incremental import IncrementalCollector
from repro.verify.differential import (
    DEFAULT_BUDGETS,
    budget_label,
    budget_suite,
)
from repro.verify.replay import generate_script


def run_budget_differential(script, *, budgets=DEFAULT_BUDGETS, checked=True):
    return budget_suite(budgets).run(script, checked=checked)


class TestLabels:
    def test_budget_label(self):
        assert budget_label(1) == "incremental@b=1"
        assert budget_label(64) == "incremental@b=64"
        assert budget_label(None) == "incremental@b=inf"


class TestBudgetInvariance:
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_default_budgets_agree(self, seed):
        script = generate_script(400, seed, max_live_words=40)
        report = run_budget_differential(script)
        assert report.ok, report.summary()
        assert set(report.results) == {"mark-sweep"} | {
            budget_label(b) for b in DEFAULT_BUDGETS
        }

    def test_quiesced_script_is_used(self):
        script = generate_script(100, 0, max_live_words=40)
        report = run_budget_differential(script, budgets=(1,))
        # The replayed script carries the two appended collections.
        assert len(report.script.ops) == len(script.ops) + 2
        assert "quiesced" in (report.script.note or "")

    def test_all_backends(self):
        """The script the per-backend sweep ran, on the one heap."""
        script = generate_script(300, 13, max_live_words=40)
        report = run_budget_differential(script, budgets=(1, 64, None))
        assert report.ok, report.summary()

    def test_empty_budgets_rejected(self):
        script = generate_script(50, 0, max_live_words=40)
        with pytest.raises(ValueError):
            run_budget_differential(script, budgets=())


class TestDivergenceDetection:
    def test_interleaving_dependence_is_caught(self, monkeypatch):
        """A budget whose cycles open at a different occupancy marks a
        different set — the suite must flag it, because that is
        exactly the bug class the oracle exists for."""
        script = generate_script(400, 0, max_live_words=40)
        real_factory = budget_module.collector_factory

        def skewed_factory(kind, geometry=None):
            if kind == "incremental" and geometry.slice_budget == 1:
                def build(heap, roots):
                    return IncrementalCollector(
                        heap,
                        roots,
                        2 * geometry.semispace_words,
                        slice_budget=1,
                        trigger_fraction=0.9,
                        load_factor=geometry.load_factor,
                    )

                return build
            return real_factory(kind, geometry)

        monkeypatch.setattr(
            budget_module, "collector_factory", skewed_factory
        )
        report = run_budget_differential(script, checked=False)
        assert not report.ok
        kinds = {d.kind for d in report.divergences}
        assert "budget-stats" in kinds

    def test_crash_becomes_divergence(self, monkeypatch):
        script = generate_script(200, 0, max_live_words=40)
        real_factory = budget_module.collector_factory

        def exploding_factory(kind, geometry=None):
            if kind == "incremental" and geometry.slice_budget == 7:
                def build(heap, roots):
                    collector = real_factory(kind, geometry)(heap, roots)

                    def boom():
                        raise RuntimeError("induced crash")

                    collector.collect = boom
                    return collector

                return build
            return real_factory(kind, geometry)

        monkeypatch.setattr(
            budget_module, "collector_factory", exploding_factory
        )
        report = run_budget_differential(script)
        assert not report.ok
        crashed = [d for d in report.divergences if d.kind == "crash"]
        assert crashed
        assert crashed[0].collector == budget_label(7)
        assert report.results[budget_label(7)] is None
