"""Checks on the benchmark itself (``python -m pytest bench/``, < 30 s).

Runs every workload at ``--quick`` sizes, both untraced and traced, and
holds the output to ``BENCHMARK.json``; then shows that the output
checks and ``compare.py`` fail when they should.  The quick sizes only
prove the plumbing — their numbers mean nothing.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402

CATALOGUE = harness.load_catalogue()
WORKLOADS = harness.workload_names(CATALOGUE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract
# ----------------------------------------------------------------------


def test_catalogue_keys_and_limits():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CATALOGUE["command"] == ["python3", "bench/run.py"]
    assert CATALOGUE["paths"] == ["bench"]
    assert isinstance(CATALOGUE["run_seconds"], int)
    assert 1 <= CATALOGUE["run_seconds"] <= 60
    assert len(WORKLOADS) == 4
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    for workload in CATALOGUE["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert (BENCH.parent / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_catalogue_names_units_bounds():
    names = WORKLOADS + [
        entry["name"]
        for section in ("end_to_end", "per_layer")
        for entry in CATALOGUE[section]
    ]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for entry in CATALOGUE["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in CATALOGUE["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for section in ("end_to_end", "per_layer"):
        for entry in CATALOGUE[section]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
    setup = [e for e in CATALOGUE["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        entry["bound"] for entry in CATALOGUE["end_to_end"]
    )
    layer_names = {entry["name"] for entry in CATALOGUE["per_layer"]}
    assert set(harness.LEDGER_BOUNDS) <= layer_names


# ----------------------------------------------------------------------
# Every workload, quick, as the driver runs it
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_runs():
    """All eight quick runs, started together (they only prove plumbing,
    so sharing the cores does not matter)."""
    started = {
        (workload, trace): subprocess.Popen(
            [
                sys.executable, str(BENCH / "run.py"),
                "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--quick",
            ],
            cwd=BENCH.parent,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }
    finished = {}
    for key, process in started.items():
        out, err = process.communicate(timeout=120)
        finished[key] = (process.returncode, out, err)
    return finished


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_listed_metric(quick_runs, workload, trace):
    code, out, err = quick_runs[(workload, trace)]
    assert code == 0, err[-2000:] + out[-2000:]
    lines = out.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1 and final["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    units = harness.metric_units(CATALOGUE, section)
    assert list(final["metrics"]) == list(units)
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line}
    for name, unit in units.items():
        assert final["metrics"][name]["unit"] == unit
        assert isinstance(final["metrics"][name]["value"], (int, float))
        assert name in printed and unit in printed[name], name
    if not trace:
        for entry in CATALOGUE["end_to_end"]:
            assert final["metrics"][entry["name"]]["value"] > 0, entry["name"]


def test_traced_and_untraced_runs_agree_on_exact_counts(quick_runs):
    del quick_runs  # the records below are what those runs wrote
    for workload in WORKLOADS:
        records = [
            json.loads(
                (harness.OUT_DIR / f"run-{workload}-trace{t}.json").read_text()
            )
            for t in (0, 1)
        ]
        assert records[0]["exact"] == records[1]["exact"], workload
        assert records[0]["detail"]["environment"]["nproc"] >= 1
        assert "sizes" in records[0]["detail"]


def test_run_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and bench/ the command
    must exit non-zero and print no result."""
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (BENCH.parent / "BENCHMARK.json").read_text()
    )
    for workload in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, "bench/run.py", "--workload", workload,
                "--seed", "0", "--seconds", "1", "--trace", "0",
            ],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# Output checks fail when they should
# ----------------------------------------------------------------------


def small_plan_outcomes():
    import serve

    plan = serve.build_plan(7, seed=1, profile="mixed", ops_per_tenant=30)
    warm = serve.build_plan(2, seed=2, profile="mixed", ops_per_tenant=10)
    outcomes, _ = serve.reference_run(plan, warm)
    return serve, outcomes


def test_identical_outcomes_pass():
    serve, outcomes = small_plan_outcomes()
    result = harness.RunResult("serve-inline", 1, False)
    serve.check_outcomes(result, "round 0", copy.deepcopy(outcomes), outcomes)
    assert result.correct and result.checks > 0


@pytest.mark.parametrize("tamper", ("digest", "close", "response"))
def test_tampered_output_makes_the_run_incorrect(tamper):
    serve, outcomes = small_plan_outcomes()
    observed = copy.deepcopy(outcomes)
    victim = observed[3]
    if tamper == "digest":
        victim.checkpoints[0] = "0" * 64
    elif tamper == "close":
        victim.close["words_allocated"] += 1
    else:
        victim.record(
            {"op": "alloc"},
            {"ok": False, "error": {"kind": "heap-exhausted"}},
        )
    result = harness.RunResult("serve-inline", 1, False)
    serve.check_outcomes(result, "round 0", observed, outcomes)
    assert not result.correct
    assert any(victim.tenant in message for message in result.failures)
    # ... and an incorrect run is a failed command.
    for entry in CATALOGUE["end_to_end"]:
        result.put(entry["name"], 1.0)
    assert harness.finish(result, CATALOGUE) == 1


def test_cut_short_pass_must_be_a_prefix_of_the_serial_run():
    serve, outcomes = small_plan_outcomes()
    expected = next(o for o in outcomes if len(o.checkpoints) >= 2)
    seen = copy.deepcopy(expected)
    seen.checkpoints = seen.checkpoints[:1]
    result = harness.RunResult("serve-inline", 1, False)
    serve.check_cut_short(result, seen, expected)
    assert result.correct and result.checks > 0
    seen.checkpoints = ["0" * 64]
    serve.check_cut_short(result, seen, expected)
    assert not result.correct
    assert any(expected.tenant in message for message in result.failures)


def test_tenant_zero_has_connection_zero_to_itself():
    serve, _ = small_plan_outcomes()
    plan = serve.build_plan(20, seed=1, profile="mixed", ops_per_tenant=5)
    pool = [object() for _ in range(serve.CONNECTIONS)]
    stream = serve.Stream(pool, plan, serve.encode_plan(plan))
    assert stream.connection_of(0) is pool[0]
    others = [stream.connection_of(index) for index in range(1, 20)]
    assert pool[0] not in others
    assert set(others) == set(pool[1:])


def test_host_speed_bracket():
    import hostspeed

    on = hostspeed.Bracket()
    assert [on.close(), on.close()] == [0, 1]
    assert len(on.probes) == 3 and min(on.probes) > 0
    # Few probes: every stretch sees them all, and the factor turns the
    # median probe into the reference.
    middle = sorted(on.probes)[1]
    assert on.factor(0) == pytest.approx(hostspeed.REFERENCE_S / middle)
    assert hostspeed.kernel() == hostspeed.kernel()


def test_wrong_live_set_makes_an_alloc_cell_incorrect():
    import alloc

    plan = alloc.build_plan(2, 4_000)
    live = alloc.expected_live(plan)
    result = harness.RunResult("alloc-decay", 2, False)
    alloc.run_cell(result, "stop-and-copy", plan, live)
    assert result.correct
    alloc.run_cell(result, "stop-and-copy", plan, live - {max(live)})
    assert not result.correct


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------


def synthetic(seed=0, scale=None, exact=None):
    """A results document with every compared metric at 100."""
    scale = scale or {}
    layer_units = harness.metric_units(CATALOGUE, "per_layer")

    def rows(names):
        return {
            name: {
                "value": 100.0 * scale.get(name, 1.0),
                "unit": layer_units.get(name, "x"),
            }
            for name in names
        }

    run = {
        "metrics": rows(e["name"] for e in CATALOGUE["end_to_end"]),
        "ledger": rows(harness.LEDGER_BOUNDS),
    }
    if exact:
        run["ledger"].update(
            {n: {"value": v, "unit": "x"} for n, v in exact.items()}
        )
    return {
        "seed": seed,
        "workloads": {name: {"end_to_end": run} for name in WORKLOADS},
    }


def verdicts(rows, metric):
    return {row["verdict"] for row in rows if row["metric"] == metric}


def test_compare_flags_a_slowdown_beyond_the_bound(tmp_path):
    bound = {e["name"]: e["bound"] for e in CATALOGUE["end_to_end"]}
    parent = synthetic()
    change = synthetic(
        scale={
            "requests_per_s": 1 - bound["requests_per_s"] - 0.05,
            "request_latency_p50_ms": 1 + bound["request_latency_p50_ms"] + 0.05,
            "words_per_s": 1 - bound["words_per_s"] + 0.05,
            # A 20 % loss for one collector, which the mean would hide.
            "words_per_s.hybrid": 0.8,
        }
    )
    rows = compare.compare(parent, change, CATALOGUE)
    assert len(rows) == len(WORKLOADS) * (
        len(CATALOGUE["end_to_end"]) + len(harness.LEDGER_BOUNDS)
    )
    assert verdicts(rows, "requests_per_s") == {"worse"}
    assert verdicts(rows, "request_latency_p50_ms") == {"worse"}
    assert verdicts(rows, "words_per_s.hybrid") == {"worse"}
    assert verdicts(rows, "words_per_s") == {"ok"}
    assert verdicts(rows, "words_per_s.concurrent") == {"ok"}
    # Faster is never worse.
    faster = synthetic(scale={"requests_per_s": 1.5, "setup_s": 0.5})
    assert {
        row["verdict"] for row in compare.compare(parent, faster, CATALOGUE)
    } == {"ok"}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "worse" in compare.render(rows)


def test_compare_exact_counts_and_unresolved():
    parent = synthetic(exact={"mark_cons_ratio": 0.25})
    assert verdicts(
        compare.compare(parent, synthetic(exact={"mark_cons_ratio": 0.2501}), CATALOGUE),
        "mark_cons_ratio",
    ) == {"changed"}
    assert verdicts(
        compare.compare(
            parent, synthetic(seed=1, exact={"mark_cons_ratio": 0.3}), CATALOGUE
        ),
        "mark_cons_ratio",
    ) == {"n/a"}
    # Three noisy runs a side: a slowdown the runs cannot resolve.
    noisy_parent = [synthetic(scale={"words_per_s": s}) for s in (0.8, 1.0, 1.3)]
    noisy_change = [synthetic(scale={"words_per_s": s}) for s in (0.6, 0.8, 1.1)]
    rows = compare.compare(noisy_parent, noisy_change, CATALOGUE)
    assert verdicts(rows, "words_per_s") == {"unresolved"}
    # ... unless every run of the change beats every run of the parent.
    clear = [synthetic(scale={"words_per_s": s}) for s in (2.0, 2.6, 3.4)]
    assert verdicts(
        compare.compare(noisy_parent, clear, CATALOGUE), "words_per_s"
    ) == {"ok"}
