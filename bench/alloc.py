"""The ``alloc-decay`` workload: the paper's null hypothesis, in-process.

One radioactive-decay allocation plan (half-life 2000 words, seeded)
is built once and executed under each of the seven collector kinds on
the flat backend with the stock geometry, each on a fresh heap.  Bump-
window allocation of pointer-free one-word objects means the ``gc``
and ``heap.flat`` kernels do nearly all the work and the mutator none.
A *round* is the seven cells; rounds repeat until the requested seconds
have passed and each kind's rate is the median over rounds.

Output check, after every cell: ``words_allocated`` equals the plan's
total and a final ``collect()`` leaves exactly the plan's end-of-run
live set reachable (objects are identified by their birth clock, which
for a plan is the allocation's ordinal).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any

import harness
import hostspeed
from harness import KINDS, RunResult, Tracer

harness.add_source_path()

from repro.gc.registry import (  # noqa: E402
    COLLECTOR_KINDS,
    GcGeometry,
    collector_factory,
)
from repro.heap.backend import make_heap  # noqa: E402
from repro.heap.roots import RootSet  # noqa: E402
from repro.metrics.instrument import instrument_collector  # noqa: E402
from repro.mutator.decay_mutator import DecaySchedule  # noqa: E402
from repro.perf.plan import (  # noqa: E402
    AllocationPlan,
    build_allocation_plan,
    execute_plan,
)

HALF_LIFE = 2000.0
BACKEND = "flat"
SETUP_REPEATS = 3
COLLECT_CALLS = 20
OVERHEAD_REPEATS = 5

#: The issue's size is 1,000,000 words; divided by four for the driver's
#: total-time cap.
WORDS = 250_000
WARM_WORDS = 50_000
QUICK_WORDS = 40_000
QUICK_WARM_WORDS = 5_000


def geometry_for(kind: str) -> GcGeometry:
    """Stock geometry; the concurrent collector gets one real marker
    worker (as ``repro-gc bench`` does), or it would just be
    ``incremental`` with an unbounded slice."""
    geometry = GcGeometry()
    if kind == "concurrent":
        geometry = replace(geometry, marker_workers=1)
    return geometry


def build_plan(seed: int, words: int) -> AllocationPlan:
    return build_allocation_plan(DecaySchedule(HALF_LIFE, seed=seed), words)


def expected_live(plan: AllocationPlan) -> frozenset[int]:
    """Ordinals of the allocations still rooted when the plan ends."""
    slots: list[int | None] = [None] * plan.slot_count
    for index in range(plan.total_objects):
        for slot in plan.releases[index]:
            slots[slot] = None
        slots[plan.store_slots[index]] = index
    return frozenset(index for index in slots if index is not None)


@dataclass
class Cell:
    kind: str
    seconds: float
    counts: dict[str, Any]
    collect_seconds: list[float]
    marker_overlap: float
    #: Host seconds to reference seconds (1 until a bracket has set it).
    factor: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.factor


def run_cell(
    result: RunResult,
    kind: str,
    plan: AllocationPlan,
    live: frozenset[int],
    *,
    tracer: Tracer | None = None,
    collect_calls: int = 0,
    instrument: bool = False,
) -> Cell:
    """One collector kind through the plan on a fresh heap, checked."""
    call = tracer.call if tracer is not None else harness.plain_call
    heap = make_heap(BACKEND)
    roots = RootSet()
    collector = collector_factory(kind, geometry_for(kind))(heap, roots)
    if instrument:
        instrument_collector(collector)
    try:
        started = time.perf_counter()
        call("perf.plan.execute_plan", kind, execute_plan, collector, plan)
        seconds = time.perf_counter() - started
        stats = collector.stats
        counts = {
            "words_allocated": stats.words_allocated,
            "words_traced": stats.words_traced,
            "collections": stats.collections,
            "pause_words_max": stats.max_pause_work,
        }
        # The frame execute_plan left behind still roots the
        # equilibrium live graph: what explicit collections are timed
        # against, and what the final one must leave reachable.
        collect_seconds = []
        for _ in range(max(1, collect_calls)):
            t0 = time.perf_counter()
            call(f"gc.{kind}.collect", kind, collector.collect)
            collect_seconds.append(time.perf_counter() - t0)
        reachable = heap.reachable_from(list(roots.ids()))
        births = {heap.get(obj_id).birth for obj_id in reachable}
        expected = {index * plan.object_words for index in live}
        result.check(
            len(reachable) == len(live) and births == expected,
            f"{kind}: a final collect() leaves {len(reachable)} objects "
            f"reachable, the plan's end-of-run live set has {len(live)}",
        )
        ok = result.check(
            counts["words_allocated"] == plan.total_words,
            f"{kind}: allocated {counts['words_allocated']} words, plan "
            f"has {plan.total_words}",
        )
        result.operation(ok)
        overlap = (
            collector.marker_overlap() if kind == "concurrent" else 0.0
        )
    finally:
        harness.close_collector(collector)
    return Cell(kind, seconds, counts, collect_seconds, overlap)


def setup_once(seed: int, words: int, warm_words: int) -> tuple[
    AllocationPlan, frozenset[int], float
]:
    """Plan build, its expected live set, and a short warm-up plan
    through every kind.  Returns the plan build time as well."""
    started = time.perf_counter()
    plan = build_plan(seed, words)
    build_s = time.perf_counter() - started
    live = expected_live(plan)
    warm = build_plan(seed + 1, warm_words)
    warm_live = expected_live(warm)
    scratch = RunResult("warm-up", seed, False)
    for kind in KINDS:
        run_cell(scratch, kind, warm, warm_live)
    if scratch.failures:
        raise harness.BenchFailure(f"warm-up failed: {scratch.failures[0]}")
    return plan, live, build_s


def sum_counts(cells: list[Cell]) -> dict[str, Any]:
    return {
        "words_allocated": sum(c.counts["words_allocated"] for c in cells),
        "words_traced": sum(c.counts["words_traced"] for c in cells),
        "pause_words_max": max(c.counts["pause_words_max"] for c in cells),
        "per_kind": {c.kind: c.counts for c in cells},
    }


def check_kinds() -> None:
    if tuple(COLLECTOR_KINDS) != KINDS:
        raise harness.BenchFailure(
            f"collector registry {COLLECTOR_KINDS} and the benchmark's "
            f"kind list {KINDS} differ"
        )


def run_end_to_end(
    result: RunResult, seed: int, seconds: float, quick: bool, import_s: float
) -> None:
    check_kinds()
    words, warm_words = (
        (QUICK_WORDS, QUICK_WARM_WORDS) if quick else (WORDS, WARM_WORDS)
    )
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        bracket = hostspeed.Bracket()
        started = time.perf_counter()
        plan, live, _ = setup_once(seed, words, warm_words)
        elapsed = time.perf_counter() - started
        setup_samples.append((elapsed, bracket.factor(bracket.close())))

    # A probe after every cell; a cell's correction comes from the
    # probes around it once the run is over.
    rounds: list[list[Cell]] = []
    stretches: list[tuple[Cell, int]] = []
    bracket = hostspeed.Bracket()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        cells = []
        for kind in KINDS:
            cells.append(run_cell(result, kind, plan, live))
            stretches.append((cells[-1], bracket.close()))
        rounds.append(cells)
    for cell, stretch in stretches:
        cell.factor = bracket.factor(stretch)

    counts = sum_counts(rounds[0])
    for index, cells in enumerate(rounds[1:], 1):
        result.check(
            sum_counts(cells) == counts,
            f"round {index} disagrees with round 0 on an exact count",
        )
    result.exact.update(counts)
    result.detail["sizes"] = {
        "words": plan.total_words,
        "half_life": HALF_LIFE,
        "backend": BACKEND,
        "rounds": len(rounds),
        "cells_per_round": len(KINDS),
        "warm_up_words": warm_words,
        "end_of_run_live_objects": len(live),
    }

    result.put_setup(import_s, setup_samples)
    result.put_cell_timing(
        [[c.reference_seconds for c in cells] for cells in rounds],
        [[c.seconds for c in cells] for cells in rounds],
    )
    rates = put_ledger(result, plan, rounds, counts)
    result.put("words_per_s", harness.geometric_mean(rates))
    result.raw["words_per_s"] = harness.geometric_mean(
        harness.median(
            plan.total_words / cells[position].seconds for cells in rounds
        )
        for position in range(len(KINDS))
    )
    result.detail["host_probes_s"] = bracket.probes
    result.put("peak_rss_mb", harness.self_peak_rss_mb())


def put_ledger(
    result: RunResult,
    plan: AllocationPlan,
    rounds: list[list[Cell]],
    counts: dict[str, Any],
) -> list[float]:
    """Per-kind rates (median over rounds) and the exact counts;
    returns the rates in kind order."""
    rates = []
    for position, kind in enumerate(KINDS):
        result.put_median(
            f"words_per_s.{kind}",
            [
                plan.total_words / cells[position].reference_seconds
                for cells in rounds
            ],
        )
        rates.append(result.metrics[f"words_per_s.{kind}"])
    result.put(
        "mark_cons_ratio", counts["words_traced"] / counts["words_allocated"]
    )
    result.put("pause_words_max", counts["pause_words_max"])
    return rates


def metrics_overhead_share(
    result: RunResult, plan: AllocationPlan, live: frozenset[int]
) -> float:
    """``execute_plan`` under mark-sweep with the metrics plane attached
    over without, minus one (medians of alternating repeats)."""
    bare, instrumented = [], []
    for _ in range(OVERHEAD_REPEATS):
        bare.append(run_cell(result, "mark-sweep", plan, live).seconds)
        instrumented.append(
            run_cell(result, "mark-sweep", plan, live, instrument=True).seconds
        )
    return harness.median(instrumented) / harness.median(bare) - 1.0


def run_traced(
    result: RunResult, seed: int, quick: bool, zeros: dict[str, float]
) -> None:
    check_kinds()
    words, warm_words = (
        (QUICK_WORDS, QUICK_WARM_WORDS) if quick else (WORDS, WARM_WORDS)
    )
    plan, live, build_s = setup_once(seed, words, warm_words)
    plain = [run_cell(result, kind, plan, live) for kind in KINDS]
    tracer = Tracer()
    traced = [
        run_cell(
            result, kind, plan, live,
            tracer=tracer, collect_calls=COLLECT_CALLS,
        )
        for kind in KINDS
    ]
    counts = sum_counts(traced)
    result.check(
        counts == sum_counts(plain),
        "traced and untraced runs disagree on an exact count",
    )
    result.exact.update(counts)

    result.metrics.update(zeros)
    # The kinds' own rates come from the span-free pass.
    put_ledger(result, plan, [plain], counts)
    result.put(
        "request_latency_p90_ms",
        1e3 * harness.percentile([c.seconds for c in plain], 0.90),
    )
    for cell in traced:
        kind = cell.kind
        result.put(
            f"gc.{kind}.collect_p50_ms",
            1e3 * harness.median(cell.collect_seconds),
            cell.collect_seconds,
        )
        result.put(
            f"gc.{kind}.mark_cons",
            cell.counts["words_traced"] / cell.counts["words_allocated"],
        )
        result.put(f"gc.{kind}.collections", cell.counts["collections"])
        result.put(f"gc.{kind}.pause_words_max", cell.counts["pause_words_max"])
        if kind == "concurrent":
            result.put("gc.concurrent.marker_overlap", cell.marker_overlap)
    result.put("plan.build_s", build_s)
    result.put(
        "metrics.overhead_share", metrics_overhead_share(result, plan, live)
    )
    result.put(
        "trace.overhead_share",
        sum(c.seconds for c in traced) / sum(c.seconds for c in plain) - 1.0,
    )
    tracer.dump(
        harness.OUT_DIR / "trace-alloc-decay.json",
        workload="alloc-decay",
        seed=seed,
        note="cid is the collector kind of the cell",
    )
