"""The ``repro-gc bench`` performance suite and its persistent record.

Two microbenchmarks per collector, both driven by
the radioactive decay workload (half-life 2000 words, the
experiments' canonical regime) on the stock
:class:`~repro.experiments.harness.GcGeometry`:

* **allocation throughput** — sustained words/second of lifetime-
  driven allocation, collections included.  The death/slot
  choreography of the workload is precomputed untimed
  (:mod:`repro.perf.plan`), so the timed region is collector work —
  reservation windows, collections, copying — plus minimal root
  stores, not Python-level workload bookkeeping;
* **full-collection latency** — wall-clock seconds per call to
  :meth:`Collector.collect` against the equilibrium live graph.

Results are persisted to ``BENCH_perf.json`` at the repo root — the
perf trajectory the CI smoke job regresses against.  The file also
carries the serial seed baseline (the pre-optimisation wall-clock of
``repro-gc all`` on the reference container) and a log of recent
``repro-gc all`` runs, so speedups are recorded next to the numbers
they are measured against.

Schema (``"schema": 5`` — v5 added the concurrent collector and its
``marker_overlap`` column, the fraction of mark work whose worker
finished while the mutator was still running; v4 added the
incremental collector; v3 made the timed loop plan-driven; v2 added
the pause-percentile columns, in words of work, from the
:mod:`repro.metrics` plane)::

    {
      "schema": 5,
      "quick": bool,            # quick mode shrinks the workloads ~8x
      "heap_backend": "flat",   # the heap behind "collectors"
      "collectors": {           # the axis the CI regression gate reads
        "<kind>": {
          "alloc_words": int,
          "alloc_seconds": float,
          "alloc_words_per_sec": float,
          "collections_during_alloc": int,
          "full_collect_rounds": int,
          "full_collect_seconds_mean": float,
          "full_collect_seconds_max": float,
          "pause_words_p50": int,
          "pause_words_p95": int,
          "pause_words_max": int,
          "marker_overlap": float  # concurrent only
        }, ...
      },
      "serial_baseline": {      # preserved across rewrites
        "total_seconds": float, # seed-tree `repro-gc all`, serial
        "per_experiment_seconds": {"<name>": float, ...},
        "note": str
      },
      "all_runs": [             # appended by `repro-gc all`, newest last
        {"jobs": int, "seconds": float, "experiments": int,
         "cache_hits": int, "speedup_vs_serial_baseline": float}, ...
      ]
    }
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.instrument import instrument_collector
from repro.mutator.decay_mutator import DecaySchedule
from repro.perf.plan import build_allocation_plan, execute_plan

__all__ = [
    "BENCH_FILENAME",
    "BENCH_COLLECTORS",
    "CollectorBench",
    "bench_collector",
    "build_report",
    "compare_to_baseline",
    "load_report",
    "record_all_run",
    "run_perf_suite",
    "write_report",
]

BENCH_FILENAME = "BENCH_perf.json"
#: Bumped 4 -> 5 when the concurrent collector (and its
#: ``marker_overlap`` column) joined the matrix.
SCHEMA_VERSION = 5

BENCH_COLLECTORS: tuple[str, ...] = COLLECTOR_KINDS

#: Decay half-life of the bench workload, in allocation words.
BENCH_HALF_LIFE = 2_000.0
#: Full-size workload: enough allocation for hundreds of collections.
BENCH_ALLOC_WORDS = 400_000
BENCH_COLLECT_ROUNDS = 20
#: Quick mode (CI smoke): ~8x smaller, still past equilibrium.
QUICK_ALLOC_WORDS = 50_000
QUICK_COLLECT_ROUNDS = 5


@dataclass(frozen=True)
class CollectorBench:
    """One collector's measurements, one suite run."""

    collector: str
    alloc_words: int
    alloc_seconds: float
    alloc_words_per_sec: float
    collections_during_alloc: int
    full_collect_rounds: int
    full_collect_seconds_mean: float
    full_collect_seconds_max: float
    #: Pause-cost percentiles in words of work per collection, from
    #: the metrics plane's log-bucketed histogram (p50/p95 are within
    #: one bucket width; max is exact).
    pause_words_p50: int = 0
    pause_words_p95: int = 0
    pause_words_max: int = 0
    #: Concurrent collector only: fraction of mark work whose worker
    #: finished while the mutator was still running (``None`` for
    #: every other collector).
    marker_overlap: float | None = None

    def to_jsonable(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "alloc_words": self.alloc_words,
            "alloc_seconds": round(self.alloc_seconds, 6),
            "alloc_words_per_sec": round(self.alloc_words_per_sec, 1),
            "collections_during_alloc": self.collections_during_alloc,
            "full_collect_rounds": self.full_collect_rounds,
            "full_collect_seconds_mean": round(
                self.full_collect_seconds_mean, 6
            ),
            "full_collect_seconds_max": round(
                self.full_collect_seconds_max, 6
            ),
            "pause_words_p50": self.pause_words_p50,
            "pause_words_p95": self.pause_words_p95,
            "pause_words_max": self.pause_words_max,
        }
        if self.marker_overlap is not None:
            record["marker_overlap"] = round(self.marker_overlap, 4)
        return record


def bench_collector(
    kind: str,
    *,
    alloc_words: int = BENCH_ALLOC_WORDS,
    collect_rounds: int = BENCH_COLLECT_ROUNDS,
    half_life: float = BENCH_HALF_LIFE,
    seed: int = 0,
    geometry: GcGeometry | None = None,
    repeats: int = 1,
) -> CollectorBench:
    """Measure one collector.

    Throughput is measured over the whole lifetime-driven run,
    collections included — it is the sustained allocation rate a
    client of this collector observes, not the pause-free peak.  The
    workload choreography is precomputed untimed; the differential
    plan-equivalence tests pin that the collector cannot tell the
    difference from per-object mutation.

    With ``repeats > 1`` the whole run executes that many times on
    fresh heaps and the fastest one is reported: the workload is
    deterministic, so every repeat does identical work and the
    minimum wall-clock is the least-interfered measurement of it.
    """
    if kind == "concurrent":
        # Overlap is the point of the concurrent bench column, so the
        # marker gets a real worker process instead of the inline
        # reference mode the oracles replay.
        geometry = replace(geometry or GcGeometry(), marker_workers=1)
    plan = build_allocation_plan(
        DecaySchedule(half_life, seed=seed), alloc_words
    )
    best = None
    for _ in range(max(1, repeats)):
        heap = FlatHeap()
        roots = RootSet()
        collector = collector_factory(kind, geometry)(heap, roots)
        # The pause-percentile columns come from the metrics plane;
        # its per-collection cost is bounded by the ≤5% overhead
        # acceptance test, an order of magnitude inside the 30%
        # regression tolerance.
        instrumentation = instrument_collector(collector)
        start = time.perf_counter()
        frame = execute_plan(collector, plan)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            if best is not None:
                best[1].close()
            best = (elapsed, collector, roots, frame, instrumentation)
        else:
            collector.close()
    alloc_seconds, collector, roots, frame, instrumentation = best
    collections_during_alloc = collector.stats.collections

    timings: list[float] = []
    for _ in range(collect_rounds):
        start = time.perf_counter()
        collector.collect()
        timings.append(time.perf_counter() - start)
    roots.pop_frame(frame)

    overlap = (
        collector.marker_overlap() if kind == "concurrent" else None
    )
    collector.close()
    pauses = instrumentation.registry.histogram("pause_words")
    return CollectorBench(
        collector=kind,
        alloc_words=plan.total_words,
        alloc_seconds=alloc_seconds,
        alloc_words_per_sec=(
            alloc_words / alloc_seconds if alloc_seconds > 0 else 0.0
        ),
        collections_during_alloc=collections_during_alloc,
        full_collect_rounds=collect_rounds,
        full_collect_seconds_mean=(
            sum(timings) / len(timings) if timings else 0.0
        ),
        full_collect_seconds_max=max(timings, default=0.0),
        pause_words_p50=pauses.quantile(0.5),
        pause_words_p95=pauses.quantile(0.95),
        pause_words_max=pauses.max,
        marker_overlap=overlap,
    )


def run_perf_suite(
    kinds: Sequence[str] = BENCH_COLLECTORS,
    *,
    quick: bool = False,
    seed: int = 0,
) -> list[CollectorBench]:
    """Bench every collector kind; always serial (timing fidelity).
    The full suite takes the best of three repeats per collector (see
    :func:`bench_collector`)."""
    alloc_words = QUICK_ALLOC_WORDS if quick else BENCH_ALLOC_WORDS
    rounds = QUICK_COLLECT_ROUNDS if quick else BENCH_COLLECT_ROUNDS
    repeats = 1 if quick else 3
    return [
        bench_collector(
            kind,
            alloc_words=alloc_words,
            collect_rounds=rounds,
            seed=seed,
            repeats=repeats,
        )
        for kind in kinds
    ]


# ----------------------------------------------------------------------
# The persistent BENCH_perf.json record
# ----------------------------------------------------------------------


def load_report(path: Path | str) -> dict[str, Any] | None:
    try:
        with Path(path).open(encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        return None
    return report if isinstance(report, dict) else None


def build_report(
    results: Sequence[CollectorBench],
    *,
    quick: bool,
    previous: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """A fresh report, carrying forward the baseline and run log."""
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "heap_backend": FlatHeap.backend_name,
        "collectors": {
            bench.collector: bench.to_jsonable() for bench in results
        },
    }
    if previous:
        for key in ("serial_baseline", "all_runs"):
            if key in previous:
                report[key] = previous[key]
    return report


def write_report(path: Path | str, report: Mapping[str, Any]) -> None:
    from repro.resilience.atomic import atomic_write_json

    atomic_write_json(Path(path), report)


def record_all_run(
    path: Path | str,
    *,
    jobs: int,
    seconds: float,
    experiments: int,
    cache_hits: int,
    keep: int = 20,
) -> dict[str, Any]:
    """Append one ``repro-gc all`` wall-clock entry to the run log.

    The speedup is computed against ``serial_baseline.total_seconds``
    when the report carries one.  Creates the file if absent.
    """
    report = load_report(path) or {"schema": SCHEMA_VERSION}
    entry: dict[str, Any] = {
        "jobs": jobs,
        "seconds": round(seconds, 2),
        "experiments": experiments,
        "cache_hits": cache_hits,
    }
    baseline = report.get("serial_baseline", {})
    total = baseline.get("total_seconds")
    if isinstance(total, (int, float)) and seconds > 0:
        entry["speedup_vs_serial_baseline"] = round(total / seconds, 2)
    runs = report.setdefault("all_runs", [])
    runs.append(entry)
    del runs[:-keep]
    write_report(path, report)
    return entry


def compare_to_baseline(
    report: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    tolerance: float = 0.30,
) -> list[str]:
    """Throughput regressions beyond ``tolerance``, as messages.

    Only slowdowns fail: a collector regresses when its current
    ``alloc_words_per_sec`` drops below ``(1 - tolerance)`` of the
    baseline's.  Collectors absent from either side are skipped, so a
    fresh collector can land before its first baseline capture.

    ``marker_overlap`` is regression-gated too: once the committed
    baseline shows the concurrent marker doing at least half its work
    off-thread, a run where the overlap collapses below half the
    baseline fraction fails — concurrency that silently degrades to
    inline marking is a perf bug even when throughput holds.
    """
    regressions: list[str] = []
    current = report.get("collectors", {})
    reference = baseline.get("collectors", {})
    for kind, old in sorted(reference.items()):
        new = current.get(kind)
        if not isinstance(new, Mapping) or not isinstance(old, Mapping):
            continue
        old_rate = old.get("alloc_words_per_sec")
        new_rate = new.get("alloc_words_per_sec")
        if not old_rate or new_rate is None:
            continue
        floor = (1.0 - tolerance) * float(old_rate)
        if float(new_rate) < floor:
            regressions.append(
                f"{kind}: {float(new_rate):,.0f} words/sec is below "
                f"{floor:,.0f} ({100 * tolerance:.0f}% under the "
                f"baseline {float(old_rate):,.0f})"
            )
        old_overlap = old.get("marker_overlap")
        new_overlap = new.get("marker_overlap")
        if (
            isinstance(old_overlap, (int, float))
            and isinstance(new_overlap, (int, float))
            and float(old_overlap) >= 0.5
            and float(new_overlap) < 0.5 * float(old_overlap)
        ):
            regressions.append(
                f"{kind}: marker_overlap {float(new_overlap):.2f} is "
                f"below half the baseline {float(old_overlap):.2f} — "
                f"off-thread marking has degraded toward inline"
            )
    return regressions
