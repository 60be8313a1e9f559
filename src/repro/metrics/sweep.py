"""Metric collection drivers: single cells, parallel sweeps, overhead.

A *cell* is one instrumented decay-workload run of one collector on
one derived seed — the unit of work the parallel engine fans out.
Workers serialise their registries to JSON; the parent deserialises
and folds them in registry order (cell-index order, not completion
order), so a sweep's merged metrics are byte-identical at any ``--jobs``
level — the same determinism contract the experiment engine makes.

:func:`measure_overhead` is the acceptance check for the plane's cost:
it times the same seeded bench workload with instrumentation attached
and detached and reports the wall-clock ratio.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.gc.registry import COLLECTOR_KINDS
from repro.metrics.events import EventStream
from repro.metrics.instrument import instrument_collector
from repro.metrics.registry import MetricRegistry, merge_registries

__all__ = [
    "SWEEP_COLLECTORS",
    "measure_overhead",
    "run_decay_cell",
    "run_metrics_sweep",
]

SWEEP_COLLECTORS: tuple[str, ...] = COLLECTOR_KINDS

#: Decay half-life of the sweep workload (the experiments' canonical
#: regime, same as the bench suite).
SWEEP_HALF_LIFE = 2_000.0
SWEEP_ALLOC_WORDS = 120_000
QUICK_ALLOC_WORDS = 20_000


def _build_cell(kind: str, seed: int):
    from repro.gc.registry import collector_factory
    from repro.heap.flat import FlatHeap
    from repro.heap.roots import RootSet
    from repro.mutator.base import LifetimeDrivenMutator
    from repro.mutator.decay_mutator import DecaySchedule

    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, None)(heap, roots)
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(SWEEP_HALF_LIFE, seed=seed)
    )
    return collector, mutator


def run_decay_cell(
    kind: str,
    seed: int,
    *,
    alloc_words: int,
    events: bool = False,
) -> tuple[MetricRegistry, EventStream | None]:
    """One instrumented decay-workload run; the sweep's unit of work."""
    collector, mutator = _build_cell(kind, seed)
    stream = EventStream() if events else None
    instrument = instrument_collector(collector, stream=stream)
    mutator.run(alloc_words)
    mutator.release_all()
    return instrument.registry, stream


def run_metrics_sweep(
    kinds: Sequence[str] = SWEEP_COLLECTORS,
    *,
    runs: int = 1,
    jobs: int = 1,
    seed: int = 0,
    quick: bool = False,
) -> dict[str, Any]:
    """Fan instrumented cells over the parallel engine and merge.

    Returns ``{"collectors": {kind: registry}, "merged": registry}``
    with every registry merged in cell-index order — the jobs-level-
    independent registry order, so ``--jobs 4`` and ``--jobs 1``
    produce byte-identical metrics.
    """
    from repro.perf.parallel import derive_seed, run_metric_records

    alloc_words = QUICK_ALLOC_WORDS if quick else SWEEP_ALLOC_WORDS
    cells = [
        (kind, derive_seed(seed, index), alloc_words)
        for index, kind in enumerate(
            kind for kind in kinds for _ in range(runs)
        )
    ]
    records = run_metric_records(cells, jobs=jobs)
    per_kind: dict[str, list[MetricRegistry]] = {}
    for (kind, _, _), payload in zip(cells, records):
        per_kind.setdefault(kind, []).append(
            MetricRegistry.from_jsonable(payload)
        )
    collectors = {
        kind: merge_registries(regs, label=kind)
        for kind, regs in per_kind.items()
    }
    return {
        "collectors": collectors,
        "merged": merge_registries(collectors.values(), label="all"),
    }


def measure_overhead(
    *,
    alloc_words: int = QUICK_ALLOC_WORDS,
    kind: str = "non-predictive",
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, float]:
    """Wall-clock cost of the metrics plane on the bench workload.

    Runs the same seeded workload with instrumentation attached and
    detached, ``repeats`` times each, and compares best-of-N (the
    stable statistic under scheduler noise).  The acceptance bar is a
    ratio ≤ 1.05.
    """
    def timed(instrumented: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            collector, mutator = _build_cell(kind, seed)
            if instrumented:
                instrument_collector(collector, stream=EventStream())
            start = time.perf_counter()
            mutator.run(alloc_words)
            best = min(best, time.perf_counter() - start)
        return best

    off = timed(False)
    on = timed(True)
    return {
        "metrics_off_seconds": off,
        "metrics_on_seconds": on,
        "overhead_ratio": (on / off) if off > 0 else 1.0,
    }
