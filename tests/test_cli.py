"""Tests for the command-line interface."""

from __future__ import annotations

import json
import socket
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_rejects_unknown_collector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "lattice", "--collector", "x"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "nboyer" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--g", "0.25", "--load", "3.5"]) == 0
        out = capsys.readouterr().out
        assert "mark/cons" in out
        assert "0.1888" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "lattice" in out

    def test_bench_lattice(self, capsys):
        assert main(
            ["bench", "lattice", "--collector", "mark-sweep", "--scale", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "mark/cons" in out
        assert "collections" in out

    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "table2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["_type"] == "Table2Result"
        assert len(data["rows"]) == 6

    def test_trace_record_and_analyze(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["trace", "record", "lattice", "-o", path, "--scale", "0"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "survival", path]) == 0
        out = capsys.readouterr().out
        assert "words old" in out
        assert main(["trace", "profile", path]) == 0
        out = capsys.readouterr().out
        assert "peak" in out

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "paper claims verified" in out
        assert "FAIL" not in out

    def test_all_selective_with_output(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "artifacts"
        assert main(
            ["all", "--only", "table2", "--output", str(out_dir)]
        ) == 0
        capsys.readouterr()
        assert (out_dir / "table2.txt").exists()
        data = json.loads((out_dir / "table2.json").read_text())
        assert data["_type"] == "Table2Result"

    def test_all_rejects_unknown_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["all", "--only", "table99"])

    @pytest.mark.parametrize("only", ["table2,nonesuch", "", ",,"])
    def test_all_only_is_a_usage_error(self, capsys, only):
        with pytest.raises(SystemExit) as exit_info:
            main(["all", "--only", only])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: repro-gc all")
        assert err[-1].startswith("repro-gc all: error: argument --only:")

    def test_list_shows_extras(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcbench" in out
        assert "validate" not in out  # only experiments and benchmarks


class TestTraceFlags:
    @pytest.fixture()
    def trace_path(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["trace", "record", "lattice", "-o", path,
             "--scale", "0", "--epochs", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        return path

    def test_survival_custom_binning(self, capsys, trace_path):
        assert main(
            ["trace", "survival", trace_path,
             "--age-step", "500", "--brackets", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "words old" in out

    def test_profile_custom_epoch(self, capsys, trace_path):
        assert main(["trace", "profile", trace_path, "--epoch", "700"]) == 0
        out = capsys.readouterr().out
        assert "peak" in out

    def test_record_requires_known_benchmark(self):
        with pytest.raises(SystemExit):
            main(["trace", "record", "nonesuch", "-o", "/tmp/x.jsonl"])


@pytest.fixture(scope="module")
def lattice_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    assert main(
        ["trace", "record", "lattice", "-o", path,
         "--scale", "0", "--epochs", "10"]
    ) == 0
    return path


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "record", "lattice", "-o", "{out}", "--epochs", "0"],
            ["trace", "survival", "{trace}", "--brackets", "0"],
            ["trace", "profile", "{trace}", "--epoch", "-3"],
            ["analyze", "--load", "1.0"],
            ["analyze", "--g", "1.5"],
            ["load", "--shards", "0"],
            ["serve", "--shards", "0"],
            ["bench"],
            ["isolation", "--tenants", "0"],
            ["isolation", "--tenants", "-3"],
            ["load", "--tenants", "0"],
            ["load", "--connections", "0"],
            ["load", "--ops", "0"],
            ["snapshot", "save", "{out}", "--ops", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["load", "--kinds", ",,", "--fingerprint"],
            ["isolation", "--kinds", ",,"],
            ["analyze", "--load", "inf"],
            ["load", "--connect", "nohost", "--fingerprint"],
            ["load", "--connect", ":abc", "--fingerprint"],
            ["load", "--connect", "127.0.0.1:65536", "--fingerprint"],
            ["metrics", "--overhead", "--overhead-tolerance", "nan"],
            ["metrics", "--overhead", "--overhead-tolerance", "-1"],
            ["load", "--tolerance", "nan", "--fingerprint"],
            ["load", "--tolerance", "-0.5", "--fingerprint"],
            ["all", "--only", "table2", "--task-timeout", "0"],
            ["all", "--only", "table2", "--task-timeout", "nan"],
            ["serve", "--task-timeout", "0"],
            ["serve", "--task-retries", "-1"],
            ["load", "--tenants", "2", "--ops", "10", "--tenant-cap", "-1",
             "--allow-errors"],
            ["load", "--tenants", "2", "--ops", "10", "--tenant-cap", "0",
             "--allow-errors"],
        ],
    )
    def test_bad_arguments_exit_2_with_one_error_line(
        self, argv, lattice_trace, tmp_path, capsys
    ):
        """Out-of-range numbers (and a missing benchmark name) are
        usage errors, like ``verify --ops 0``, not tracebacks."""
        out = str(tmp_path / "t.jsonl")
        argv = [token.format(trace=lattice_trace, out=out) for token in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        nested = argv[0] in ("trace", "snapshot")
        command = " ".join(argv[:2] if nested else argv[:1])
        assert f"repro-gc {command}: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_serve_tenant_cap_below_one_is_a_usage_error(self, cap, capsys):
        """A cap below one would refuse every ``open``.  Only parsed:
        a parser that accepted it would start a server that never
        exits."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--tenant-cap", cap])
        assert exit_info.value.code == 2
        assert "repro-gc serve: error:" in capsys.readouterr().err

    def test_huge_counts_are_only_parsed(self):
        args = build_parser().parse_args(
            ["load", "--tenants", "1000000000", "--connections", "1000000",
             "--ops", "1000000000"]
        )
        assert (args.tenants, args.connections, args.ops) == (
            10**9, 10**6, 10**9
        )
        args = build_parser().parse_args(["isolation", "--tenants", "10000000"])
        assert args.tenants == 10**7

    @pytest.mark.parametrize("command", ["survival", "profile"])
    @pytest.mark.parametrize(
        "content",
        [
            None,
            "",
            "not json\n",
            '{"format": "x"}\n',
            "binary",
            '{"format": "repro-lifetime-trace", "version": 1}\n',
            '{"format": "repro-lifetime-trace", "version": 1,'
            ' "start_clock": 0, "end_clock": 9}\n["a", 1, 0, null, "pair"]\n',
            '{"format": "repro-lifetime-trace", "version": 1,'
            ' "start_clock": 0, "end_clock": 9}\n5\n',
        ],
    )
    def test_unreadable_trace_file_is_one_error_line(
        self, command, content, tmp_path, capsys
    ):
        """A missing, empty, foreign or malformed trace file exits 2
        with one error line, not a traceback."""
        path = tmp_path / "t.jsonl"
        if content == "binary":
            path.write_bytes(b"\xff\xfe\x00garbage")
        elif content is not None:
            path.write_text(content)
        assert main(["trace", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-gc trace {command}: error:")
        assert len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_verify_passes_on_all_collectors(self, capsys):
        assert main(["verify", "--ops", "150", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "mark-sweep" in out
        assert "hybrid" in out

    def test_verify_collector_subset(self, capsys):
        assert main(
            ["verify", "--ops", "100", "--seed", "2",
             "--collectors", "mark-sweep", "generational"]
        ) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "non-predictive" not in out

    def test_verify_unchecked_mode(self, capsys):
        assert main(
            ["verify", "--ops", "100", "--seed", "3", "--unchecked"]
        ) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_rejects_unknown_collector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--collectors", "warp-speed"]
            )

    def test_verify_rejects_bad_ops_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--ops", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --ops: invalid positive_int value: '0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "suite", ["collectors", "budgets", "concurrent", "resume"]
    )
    def test_verify_pass_stdout_is_pinned(self, capsys, suite):
        """The [PASS] text of every mode, captured before the five
        handlers became one."""
        golden = json.loads(
            (
                Path(__file__).parent / "verify" / "golden_verify_stdout.json"
            ).read_text()
        )
        flags = [] if suite == "collectors" else [f"--{suite}"]
        assert main(golden["argv"] + flags) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == golden["stdout"][suite]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--resume", "--concurrent"],
            ["--budgets", "--concurrent"],
            ["--resume", "--budgets", "7"],
        ],
    )
    def test_verify_modes_are_mutually_exclusive(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--ops", "50", *flags])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--resume"])
    def test_verify_collectors_reach_every_suite_built_from_kinds(
        self, capsys, mode
    ):
        assert main(
            ["verify", "--ops", "80", "--seed", "2", mode,
             "--collectors", "mark-sweep", "hybrid"]
        ) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        assert "generational" not in out

    def test_verify_rejects_bad_budget_and_interval_cleanly(self, capsys):
        for token in ("0", "many"):
            with pytest.raises(SystemExit) as exit_info:
                main(["verify", "--ops", "50", "--budgets", token])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"invalid slice_budget value: '{token}'" in err
        assert main(
            ["verify", "--ops", "50", "--resume", "--resume-interval", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "resume interval must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode, victim",
        [
            ([], "hybrid"),
            (["--budgets"], "incremental@b=7"),
            (["--concurrent"], "concurrent@pool"),
            (["--resume"], "hybrid+resume"),
        ],
        # Pinned: the retired --backends row was ``mode1``.
        ids=[
            "mode0-hybrid",
            "mode2-incremental@b=7",
            "mode3-concurrent@pool",
            "mode4-hybrid+resume",
        ],
    )
    def test_verify_failure_shrinks_in_every_mode(
        self, capsys, monkeypatch, mode, victim
    ):
        """One FAIL path: every mode shrinks, and --no-shrink stops
        every mode."""
        import repro.verify.differential as differential

        real = differential._replay_variant

        def tampered(variant, script, *args):
            result = real(variant, script, *args)
            # A "bug" in one variant that needs a store to show.
            if variant.label == victim and any(
                op[0] == "store" for op in script.ops
            ):
                result = replace(result, checkpoints=result.checkpoints[:-1])
            return result

        monkeypatch.setattr(differential, "_replay_variant", tampered)
        argv = ["verify", "--ops", "60", "--seed", "1", *mode]
        assert main(argv + ["--no-shrink"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "shrinking" not in out
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "shrinking the counterexample" in out
        assert "minimal failing script (2 ops)" in out


class TestServiceCommands:
    def test_load_fingerprint_is_golden(self, capsys):
        assert main(["load", "--tenants", "5", "--fingerprint"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            "5b6f41e7accb522f3ed1f38b162704d6f3bbdddd"
            "539aa11bd78e8022b250a328"
        )

    def test_load_self_served_writes_valid_report(self, capsys, tmp_path):
        report_path = tmp_path / "scale.json"
        assert main(
            [
                "load", "--tenants", "7", "--ops", "60",
                "--shards", "2", "--report", str(report_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        import json

        from repro.service.report import validate_scale_report

        report = json.loads(report_path.read_text())
        assert validate_scale_report(report) == []

    def test_load_check_gates_against_committed_report(
        self, capsys, tmp_path
    ):
        import json

        report_path = tmp_path / "scale.json"
        assert main(
            [
                "load", "--tenants", "7", "--ops", "60",
                "--report", str(report_path),
            ]
        ) == 0
        capsys.readouterr()
        # Same seed regenerates the same deterministic rows: gate passes.
        assert main(
            [
                "load", "--tenants", "7", "--ops", "60",
                "--check", str(report_path),
            ]
        ) == 0
        capsys.readouterr()
        # Tighten the committed baseline to force a p99 regression.
        report = json.loads(report_path.read_text())
        for row in report["rows"]:
            row["p99_pause_words"] = 0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(report))
        assert main(
            [
                "load", "--tenants", "7", "--ops", "60",
                "--check", str(doctored),
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "p99" in (captured.out + captured.err)

    def test_isolation_command_passes(self, capsys):
        assert main(
            [
                "isolation", "--tenants", "3", "--ops", "60",
                "--kinds", "mark-sweep,generational",
            ]
        ) == 0
        assert "OK" in capsys.readouterr().out

    def test_load_rejects_unknown_kind_and_profile(self):
        with pytest.raises(SystemExit):
            main(["load", "--kinds", "warp-speed", "--fingerprint"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--profile", "thermal"])


class TestServiceFailures:
    """Service inputs that used to end in a traceback, or in a full
    load run before the traceback."""

    LOAD = ["load", "--tenants", "2", "--ops", "10"]

    @staticmethod
    def _one_error_line(err: str, command: str) -> None:
        assert err.startswith(f"repro-gc {command}: error:"), err
        assert len(err.splitlines()) == 1, err

    def test_nothing_listening_is_one_error_line(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main([*self.LOAD, "--connect", f"127.0.0.1:{port}"]) == 1
        self._one_error_line(capsys.readouterr().err, "load")

    def test_serving_on_a_taken_port_is_one_error_line(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen()
            port = sock.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        self._one_error_line(capsys.readouterr().err, "serve")

    @pytest.mark.parametrize("content", [None, "", '{"rows": [\n'])
    def test_unreadable_check_report_stops_before_any_traffic(
        self, content, tmp_path, capsys
    ):
        path = tmp_path / "scale.json"
        if content is not None:
            path.write_text(content)
        assert main([*self.LOAD, "--check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        self._one_error_line(captured.err, "load")

    def test_check_report_of_the_wrong_shape_stops_before_any_traffic(
        self, tmp_path, capsys
    ):
        path = tmp_path / "scale.json"
        path.write_text('{"version": 0, "rows": []}')
        assert main([*self.LOAD, "--check", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("gate: ")
        assert "total:" not in out

    def test_report_is_written_atomically_into_a_new_directory(
        self, tmp_path, capsys
    ):
        path = tmp_path / "new" / "scale.json"
        assert main([*self.LOAD, "--report", str(path)]) == 0
        text = path.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
