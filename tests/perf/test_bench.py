"""The bench suite and the BENCH_perf.json record."""

from __future__ import annotations

from repro.perf.bench import (
    BENCH_COLLECTORS,
    bench_collector,
    build_report,
    compare_to_baseline,
    load_report,
    record_all_run,
    run_perf_suite,
    write_report,
)


def _tiny_suite():
    # Small enough for a unit test, big enough to force collections.
    return [
        bench_collector(kind, alloc_words=4_000, collect_rounds=2)
        for kind in BENCH_COLLECTORS
    ]


def test_bench_collector_measures_throughput_and_latency() -> None:
    bench = bench_collector(
        "stop-and-copy", alloc_words=4_000, collect_rounds=3
    )
    assert bench.collector == "stop-and-copy"
    assert bench.alloc_words == 4_000
    assert bench.alloc_seconds > 0
    assert bench.alloc_words_per_sec > 0
    assert bench.full_collect_rounds == 3
    assert bench.full_collect_seconds_mean > 0
    assert (
        bench.full_collect_seconds_max >= bench.full_collect_seconds_mean
    )


def test_report_roundtrip_preserves_baseline_and_runs(tmp_path) -> None:
    path = tmp_path / "BENCH_perf.json"
    results = _tiny_suite()
    report = build_report(results, quick=True)
    report["serial_baseline"] = {"total_seconds": 100.0}
    write_report(path, report)

    loaded = load_report(path)
    assert loaded is not None
    assert loaded["heap_backend"] == "flat"
    assert set(loaded["collectors"]) == set(BENCH_COLLECTORS)
    assert "backends" not in loaded and "backend_speedup" not in loaded

    entry = record_all_run(
        path, jobs=4, seconds=40.0, experiments=18, cache_hits=0
    )
    assert entry["speedup_vs_serial_baseline"] == 2.5
    rewritten = build_report(results, quick=True, previous=load_report(path))
    assert rewritten["serial_baseline"] == {"total_seconds": 100.0}
    assert rewritten["all_runs"][-1]["jobs"] == 4


def test_record_all_run_creates_file_and_caps_log(tmp_path) -> None:
    path = tmp_path / "BENCH_perf.json"
    for index in range(25):
        record_all_run(
            path,
            jobs=1,
            seconds=float(index + 1),
            experiments=18,
            cache_hits=index,
        )
    report = load_report(path)
    assert report is not None
    assert len(report["all_runs"]) == 20
    assert report["all_runs"][-1]["cache_hits"] == 24
    # No baseline in this file, so no speedup field.
    assert "speedup_vs_serial_baseline" not in report["all_runs"][-1]


def test_compare_to_baseline_flags_only_large_slowdowns() -> None:
    baseline = {
        "collectors": {
            "stop-and-copy": {"alloc_words_per_sec": 100_000.0},
            "hybrid": {"alloc_words_per_sec": 100_000.0},
            "retired-kind": {"alloc_words_per_sec": 100_000.0},
        }
    }
    current = {
        "collectors": {
            "stop-and-copy": {"alloc_words_per_sec": 71_000.0},
            "hybrid": {"alloc_words_per_sec": 69_000.0},
            "brand-new-kind": {"alloc_words_per_sec": 10.0},
        }
    }
    regressions = compare_to_baseline(current, baseline, tolerance=0.30)
    assert len(regressions) == 1
    assert regressions[0].startswith("hybrid:")
    # A looser tolerance passes everything.
    assert compare_to_baseline(current, baseline, tolerance=0.40) == []


def test_run_perf_suite_quick_covers_every_collector_and_backend() -> None:
    results = run_perf_suite(quick=True)
    assert [bench.collector for bench in results] == list(BENCH_COLLECTORS)
    assert all(bench.collections_during_alloc > 0 for bench in results)
