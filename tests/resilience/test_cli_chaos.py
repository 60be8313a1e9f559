"""Tests for the ``repro-gc chaos`` subcommand."""

import json

import pytest

from repro.cli import main


class TestChaosCommand:
    def test_quick_run_exits_clean(self, capsys):
        code = main(
            ["chaos", "--quick", "--collectors", "mark-sweep"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK:" in out
        assert "dangling-slot" in out

    def test_output_writes_matrix_artifact(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        code = main(
            [
                "chaos",
                "--quick",
                "--collectors",
                "mark-sweep",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        with path.open(encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["ok"] is True
        assert payload["seed"] == 0
        kinds = {entry["fault"] for entry in payload["outcomes"]}
        assert "root-skip" in kinds

    def test_bad_op_count_is_a_usage_error_not_a_traceback(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--ops", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # argparse prints its usage line above the error.
        assert err.splitlines()[-1].startswith("repro-gc chaos: error:")

    def test_json_mode_prints_machine_readable(self, capsys):
        code = main(
            ["chaos", "--quick", "--collectors", "mark-sweep", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_a_run_that_injects_no_fault_fails(self, capsys):
        """mark-sweep never has a live mark wavefront, so no safepoint
        injection finds a target: a matrix of n/a cells tested
        nothing."""
        code = main(
            ["chaos", "--quick", "--collectors", "mark-sweep", "--safepoint"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL: seed=0 ops=160 n/a=6" in captured.out
        assert "[FAIL] no cell injected a fault" in captured.err
