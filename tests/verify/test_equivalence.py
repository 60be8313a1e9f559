"""Tests for the equivalence engine itself, suite by suite.

The per-suite files plant real bugs (a lost barrier, a skewed cycle
trigger) through collector factories.  Here one replay's *result* is
tampered with after the fact, so every observable of every suite can
be made to diverge on demand and the full vocabulary of divergence
kinds is pinned in one table.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.verify.differential as differential
from repro.gc.registry import collector_factory
from repro.verify.differential import (
    OBSERVABLES,
    SUITES,
    VERIFY_GEOMETRY,
    Relation,
    Variant,
    run_equivalence,
)
from repro.verify.replay import ReplayCrash, generate_script

#: Every divergence kind any suite can report.
DIVERGENCE_KINDS = {
    "crash",
    "checkpoint-count",
    "live-graph",
    "allocation-volume",
    "budget-stats",
    "survivor-set",
    "concurrent-stats",
    "marker-mode",
    "resume-checkpoint",
    "resume-stats",
    "resume-pauses",
    "resume-survivor",
}


def _crash(result):
    raise ReplayCrash(0, ("collect",), RuntimeError("induced crash"))


def _fewer_checkpoints(result):
    return replace(result, checkpoints=result.checkpoints[:-1])


def _other_graph(result):
    last = replace(result.checkpoints[-1], graph=((10**6, 1, ()),))
    return replace(result, checkpoints=result.checkpoints[:-1] + (last,))


def _other_clock(result):
    last = result.checkpoints[-1]
    last = replace(last, clock=last.clock + 1)
    return replace(result, checkpoints=result.checkpoints[:-1] + (last,))


def _other_stats(result):
    stats = dict(result.stats)
    stats["words_marked"] += 1
    return replace(result, stats=tuple(sorted(stats.items())))


def _other_pauses(result):
    return replace(result, pauses=result.pauses[:-1])


def _other_survivors(result):
    return replace(result, survivors=result.survivors + (10**6,))


#: suite, its options, the replay to tamper with, how, and exactly
#: the divergence kinds the suite must then report.
INDUCED = [
    ("collectors", {}, "hybrid", _crash, {"crash"}),
    ("collectors", {}, "hybrid", _fewer_checkpoints, {"checkpoint-count"}),
    ("collectors", {}, "hybrid", _other_graph, {"live-graph"}),
    ("collectors", {}, "hybrid", _other_clock, {"allocation-volume"}),
    ("budgets", {}, "incremental@b=7", _crash, {"crash"}),
    ("budgets", {}, "incremental@b=7", _other_graph, {"live-graph"}),
    ("budgets", {}, "incremental@b=7", _other_stats, {"budget-stats"}),
    ("budgets", {}, "incremental@b=7", _other_survivors, {"survivor-set"}),
    (
        "concurrent",
        {"pool_workers": 0},
        "concurrent@inline",
        _other_stats,
        {"concurrent-stats"},
    ),
    ("concurrent", {}, "concurrent@pool", _other_pauses, {"marker-mode"}),
    (
        "concurrent",
        {},
        "concurrent@pool",
        _other_stats,
        {"concurrent-stats", "marker-mode"},
    ),
    ("concurrent", {}, "concurrent@pool", _other_survivors, {"survivor-set"}),
    ("resume", {}, "hybrid+resume", _crash, {"crash"}),
    ("resume", {}, "hybrid+resume", _other_graph, {"resume-checkpoint"}),
    ("resume", {}, "hybrid+resume", _other_stats, {"resume-stats"}),
    ("resume", {}, "hybrid+resume", _other_pauses, {"resume-pauses"}),
    ("resume", {}, "hybrid+resume", _other_survivors, {"resume-survivor"}),
]


class TestDivergenceKinds:
    def test_table_covers_every_suite_and_kind(self):
        assert {row[0] for row in INDUCED} == set(SUITES)
        assert set().union(*(row[4] for row in INDUCED)) == DIVERGENCE_KINDS

    @pytest.mark.parametrize(
        "name, options, victim, tamper, expected",
        INDUCED,
        ids=[f"{row[0]}-{row[3].__name__.strip('_')}" for row in INDUCED],
    )
    def test_induced_bug_is_reported_under_its_kind(
        self, monkeypatch, name, options, victim, tamper, expected
    ):
        real = differential._replay_variant

        def tampered(variant, *args):
            result = real(variant, *args)
            return tamper(result) if variant.label == victim else result

        monkeypatch.setattr(differential, "_replay_variant", tampered)
        report = SUITES[name](**options).run(generate_script(150, 5))
        assert {d.kind for d in report.divergences} == expected
        assert {d.collector for d in report.divergences} == {victim}
        if expected == {"crash"}:
            assert report.results[victim] is None


class TestStatsComparator:
    def test_extra_stat_key_is_a_divergence_not_a_crash(self):
        """Regression: differing stat key sets used to raise KeyError
        out of the comparator instead of being reported."""

        def with_phantom_counter(heap, roots):
            collector = collector_factory("mark-sweep", VERIFY_GEOMETRY)(
                heap, roots
            )
            snapshot = collector.stats.snapshot
            collector.stats.snapshot = lambda: {**snapshot(), "phantom": 1}
            return collector

        report = run_equivalence(
            generate_script(60, 0),
            [
                Variant("stock", "mark-sweep"),
                Variant("extra", "mark-sweep", factory=with_phantom_counter),
            ],
            [Relation("extra", "stock", OBSERVABLES[:4])],
        )
        assert [d.kind for d in report.divergences] == ["gc-stats"]
        assert report.divergences[0].detail == "phantom: 1 != None"
        # The same relation the other way round reports it too.
        mirrored = run_equivalence(
            generate_script(60, 0),
            [
                Variant("extra", "mark-sweep", factory=with_phantom_counter),
                Variant("stock", "mark-sweep"),
            ],
            [Relation("stock", "extra", ("stats",))],
        )
        assert mirrored.divergences[0].detail == "phantom: None != 1"


class TestEngine:
    def test_no_variants_rejected(self):
        with pytest.raises(ValueError):
            run_equivalence(generate_script(10, 0), [], [])

    def test_relation_reports_only_its_first_diverging_observable(
        self, monkeypatch
    ):
        real = differential._replay_variant

        def tampered(variant, *args):
            result = real(variant, *args)
            if variant.label == "b":
                result = _other_pauses(_other_stats(result))
            return result

        monkeypatch.setattr(differential, "_replay_variant", tampered)
        variants = [Variant("a", "mark-sweep"), Variant("b", "mark-sweep")]
        script = generate_script(300, 1)
        together = run_equivalence(
            script, variants, [Relation("b", "a", ("stats", "pauses"))]
        )
        assert [d.kind for d in together.divergences] == ["gc-stats"]
        apart = run_equivalence(
            script,
            variants,
            [
                Relation("b", "a", ("stats",)),
                Relation("b", "a", ("pauses",), "renamed"),
            ],
        )
        assert [d.kind for d in apart.divergences] == ["gc-stats", "renamed"]

    def test_crash_names_the_variants_reference(self, monkeypatch):
        real = differential._replay_variant

        def tampered(variant, *args):
            return _crash(None) if variant.label == "b" else real(variant, *args)

        monkeypatch.setattr(differential, "_replay_variant", tampered)
        report = run_equivalence(
            generate_script(20, 0),
            [Variant("a", "mark-sweep"), Variant("b", "mark-sweep")],
            [Relation("b", "a")],
        )
        (crash,) = report.divergences
        assert (crash.kind, crash.collector, crash.reference) == (
            "crash",
            "b",
            "a",
        )
