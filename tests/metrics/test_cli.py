"""The ``repro-gc metrics`` command, across its output formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.metrics.events import EVENT_SCHEMA_VERSION, parse_ndjson


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.experiment == "antiprediction"
        assert not args.sweep
        assert not args.overhead

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--experiment", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--overhead", "--repeats", "0"],
            ["metrics", "--sweep", "--runs", "0"],
            ["metrics", "--sweep", "--jobs", "-1"],
        ],
    )
    def test_nonpositive_knobs_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "repro-gc metrics: error:" in capsys.readouterr().err


class TestExperimentMode:
    def test_summary_table(self, capsys):
        assert main(["metrics", "--experiment", "remset"]) == 0
        out = capsys.readouterr().out
        assert "metrics — experiment: remset" in out
        assert "pause cost per collection (words of work)" in out
        assert "mark/cons decomposition (per word allocated)" in out

    def test_json_output_parses(self, capsys):
        assert main(["metrics", "--experiment", "equilibrium", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload, "no registries emitted"
        for dump in payload.values():
            assert "metrics" in dump

    def test_prometheus_output(self, capsys):
        assert (
            main(["metrics", "--experiment", "equilibrium", "--prometheus"])
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_gc_alloc_words_total counter" in out
        assert "repro_gc_pause_words_bucket" in out

    def test_events_and_output_files(self, tmp_path, capsys):
        events = tmp_path / "events.ndjson"
        artifact = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "metrics",
                    "--experiment",
                    "remset",
                    "--events",
                    str(events),
                    "--output",
                    str(artifact),
                ]
            )
            == 0
        )
        records = parse_ndjson(events.read_text(encoding="utf-8"))
        assert records
        assert all(
            record["v"] == EVENT_SCHEMA_VERSION == 4 for record in records
        )
        kinds = {record["event"] for record in records}
        assert "collection-end" in kinds
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload


class TestSweepMode:
    def test_sweep_quick(self, capsys):
        assert (
            main(
                ["metrics", "--sweep", "--quick", "--jobs", "2", "--seed", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decay sweep" in out
        for kind in ("mark-sweep", "generational", "hybrid"):
            assert kind in out

    def test_sweep_rejects_events(self, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "--sweep",
                "--quick",
                "--events",
                str(tmp_path / "x.ndjson"),
            ]
        )
        assert code == 2
        assert "--events requires an experiment run" in (
            capsys.readouterr().err
        )


class TestOverheadMode:
    def test_overhead_reports_and_gates(self, capsys):
        # A tolerance of 10x can't fail on any host; this exercises the
        # measurement and the [PASS] path, not the CI bar.
        code = main(
            [
                "metrics",
                "--overhead",
                "--repeats",
                "1",
                "--overhead-tolerance",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics-off:" in out
        assert "[PASS]" in out

    def test_a_probe_that_never_collects_fails(self, capsys, monkeypatch):
        import functools

        from repro.metrics import sweep

        monkeypatch.setattr(
            sweep,
            "measure_overhead",
            functools.partial(sweep.measure_overhead, alloc_words=4_000),
        )
        code = main(["metrics", "--overhead", "--repeats", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out and "collected 0 times" in out
