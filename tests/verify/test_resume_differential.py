"""Tests for the resume-equivalence oracle."""

import pytest

from repro.gc.registry import COLLECTOR_KINDS
from repro.verify.differential import resume_label, resume_suite
from repro.verify.replay import generate_script


def run_resume_differential(
    script, *, kinds=COLLECTOR_KINDS, resume_interval=1
):
    return resume_suite(kinds, resume_interval=resume_interval).run(script)


class TestResumeLabel:
    def test_label_shape(self):
        assert resume_label("generational") == "generational+resume"


class TestResumeEquivalence:
    @pytest.mark.parametrize("backend", ["flat"])
    def test_all_kinds_resume_byte_identical(self, backend):
        script = generate_script(120, seed=11)
        report = run_resume_differential(script)
        assert report.ok, report.summary()
        for kind in COLLECTOR_KINDS:
            assert report.results[kind] is not None
            assert report.results[resume_label(kind)] is not None

    def test_resumed_result_matches_reference_exactly(self):
        script = generate_script(90, seed=2)
        report = run_resume_differential(script, kinds=["generational"])
        assert report.ok, report.summary()
        reference = report.results["generational"]
        resumed = report.results[resume_label("generational")]
        assert resumed.checkpoints == reference.checkpoints
        assert resumed.stats == reference.stats
        assert resumed.pauses == reference.pauses

    def test_sparser_resume_interval_also_passes(self):
        script = generate_script(120, seed=4)
        report = run_resume_differential(
            script,
            kinds=["incremental", "concurrent"],
            resume_interval=5,
        )
        assert report.ok, report.summary()

    def test_restarts_after_every_nth_allocation(self, monkeypatch):
        """The resumed replay really is torn down and restored: once
        per interval-th allocation, and never in the reference."""
        from repro.verify.replay import ReplayContext

        restarts = []
        real = ReplayContext.restart

        def counting(self, kind, geometry):
            restarts.append(kind)
            real(self, kind, geometry)

        monkeypatch.setattr(ReplayContext, "restart", counting)
        script = generate_script(150, seed=6)
        allocations = sum(op[0] == "alloc" for op in script.ops)
        for interval in (1, 4):
            restarts.clear()
            report = run_resume_differential(
                script, kinds=["hybrid"], resume_interval=interval
            )
            assert report.ok, report.summary()
            assert restarts == ["hybrid"] * (allocations // interval)

    def test_all_backends_helper_covers_each_backend(self):
        """The script the per-backend sweep ran, on the one heap."""
        script = generate_script(60, seed=8)
        report = run_resume_differential(script, kinds=["mark-sweep"])
        assert report.ok, report.summary()

    def test_rejects_non_positive_interval(self):
        script = generate_script(10, seed=0)
        with pytest.raises(ValueError):
            run_resume_differential(script, resume_interval=0)
