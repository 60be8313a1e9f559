"""Metric collection drivers: single cells, parallel sweeps, overhead.

A *cell* is one instrumented decay-workload run of one collector on
one derived seed — the unit of work the parallel engine fans out.
Workers serialise their registries to JSON; the parent deserialises
and folds them in registry order (cell-index order, not completion
order), so a sweep's merged metrics are byte-identical at any ``--jobs``
level — the same determinism contract the experiment engine makes.

:func:`measure_overhead` is the acceptance check for the plane's cost:
it times one seeded decay cell with instrumentation attached and
detached and reports the wall-clock ratio.
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
#: regime).
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


def _metric_task(cell: tuple[str, int, int], attempt: int) -> dict[str, Any]:
    """One sweep cell, in a worker process.

    ``cell`` is ``(collector kind, derived seed, alloc words)`` — all
    primitives, so it pickles.  The registry comes back in its JSON
    form (also picklable); the parent re-hydrates and merges in cell
    order, never completion order, so sweep metrics are byte-identical
    at any jobs level.  The sweep never retries, so ``attempt`` is 0.
    """
    import sys

    if sys.getrecursionlimit() < 200_000:
        sys.setrecursionlimit(200_000)
    kind, seed, alloc_words = cell
    registry, _stream = run_decay_cell(kind, seed, alloc_words=alloc_words)
    return registry.to_jsonable()


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
    produce byte-identical metrics.  A cell that fails raises
    :class:`RuntimeError`: a sweep missing a cell has nothing to merge.
    """
    from repro.perf.parallel import TaskFailure, derive_seed, resilient_map

    alloc_words = QUICK_ALLOC_WORDS if quick else SWEEP_ALLOC_WORDS
    cells = [
        (kind, derive_seed(seed, index), alloc_words)
        for index, kind in enumerate(
            kind for kind in kinds for _ in range(runs)
        )
    ]
    records = resilient_map(_metric_task, cells, jobs=jobs, retries=0)
    for record in records:
        if isinstance(record, TaskFailure):
            raise RuntimeError(
                f"task {record.index} failed ({record.kind}): {record.error}"
            )
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
    """Wall-clock cost of the metrics plane on one decay cell.

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


def register(subparsers) -> None:
    """``repro-gc metrics``."""
    from repro.cli import non_negative_float, positive_int
    from repro.experiments.runner import experiment_names

    sub = subparsers.add_parser(
        "metrics",
        help=(
            "the observability plane: pause histograms (p50/p95/max in "
            "words) and the mark/copy/sweep/root decomposition, from an "
            "instrumented experiment or a seeded collector sweep"
        ),
    )
    sub.add_argument(
        "--experiment",
        default="antiprediction",
        choices=experiment_names(),
        help="experiment to run instrumented (default: antiprediction)",
    )
    sub.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "instead of an experiment, fan seeded decay-workload runs "
            "of every collector over the parallel engine and merge "
            "their registries deterministically"
        ),
    )
    sub.add_argument(
        "--runs", type=positive_int, default=1, help="sweep runs per collector"
    )
    sub.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="sweep worker processes (default: 1)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--quick",
        action="store_true",
        help="sweep only: ~6x smaller workload per cell",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit the registries as JSON instead of the summary table",
    )
    sub.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead",
    )
    sub.add_argument(
        "--output",
        help="also write the registries as a JSON artifact to this path",
    )
    sub.add_argument(
        "--events",
        help=(
            "experiment mode only: write the telemetry event stream "
            "as NDJSON to this path"
        ),
    )
    sub.add_argument(
        "--overhead",
        action="store_true",
        help=(
            "measure metrics-on vs metrics-off wall-clock on the decay "
            "workload and fail if the overhead exceeds the tolerance"
        ),
    )
    sub.add_argument(
        "--overhead-tolerance",
        type=non_negative_float,
        default=0.05,
        help="allowed fractional overhead for --overhead (default 0.05)",
    )
    sub.add_argument(
        "--repeats",
        type=positive_int,
        default=3,
        help="--overhead timing repetitions per mode (best-of-N)",
    )
    sub.set_defaults(func=_cmd_metrics)


def _cmd_metrics(args) -> int:
    import json
    import sys
    from pathlib import Path

    from repro.metrics.export import (
        registries_to_jsonable,
        render_summary,
        to_prometheus,
    )
    from repro.resilience.atomic import atomic_write_json

    if args.overhead:
        result = measure_overhead(repeats=args.repeats)
        ratio = result["overhead_ratio"]
        print(
            f"metrics-off: {result['metrics_off_seconds'] * 1000:.1f}ms  "
            f"metrics-on: {result['metrics_on_seconds'] * 1000:.1f}ms  "
            f"overhead: {100 * (ratio - 1):+.1f}%"
        )
        budget = f"{100 * args.overhead_tolerance:.0f}%"
        if ratio > 1.0 + args.overhead_tolerance:
            print(f"[FAIL] overhead exceeds {budget}")
            return 1
        print(f"[PASS] within the {budget} overhead budget")
        return 0

    stream = None
    if args.sweep:
        sweep = run_metrics_sweep(
            runs=args.runs, jobs=args.jobs, seed=args.seed, quick=args.quick
        )
        registries = list(sweep["collectors"].values())
        source = (
            f"decay sweep: {args.runs} run(s) per collector, "
            f"seed {args.seed}, jobs {args.jobs}"
        )
    else:
        from repro.experiments.runner import run_experiment_instrumented

        _result, _text, session = run_experiment_instrumented(
            args.experiment
        )
        registries = session.registries()
        stream = session.stream
        source = f"experiment: {args.experiment}"

    if args.json:
        print(json.dumps(registries_to_jsonable(registries), indent=2))
    elif args.prometheus:
        print(to_prometheus(registries), end="")
    else:
        print(f"metrics — {source}")
        print()
        print(render_summary(registries))
    if args.output:
        path = atomic_write_json(
            args.output, registries_to_jsonable(registries)
        )
        print(f"metrics written to {path}")
    if args.events:
        path = Path(args.events)
        if stream is None:
            print(
                "repro-gc metrics: --events requires an experiment run "
                "(the sweep workers do not share one stream)",
                file=sys.stderr,
            )
            return 2
        stream.write(path)
        print(f"{len(stream)} events written to {path}")
    return 0
