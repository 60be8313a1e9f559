"""Shared infrastructure for the paper-artifact experiments.

The experiments scale the paper's megabyte-sized heaps down to the
simulator (word-accurate, but Python-speed).  One word here plays the
role of 4 bytes there; heap geometry is scaled so that the *ratios*
the paper's results depend on (nursery size to peak live storage,
semispace size to live storage) are preserved.  EXPERIMENTS.md records
the mapping next to each artifact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.gc.stopcopy import StopAndCopyCollector
from repro.programs.registry import Benchmark, benchmark_names, get_benchmark
from repro.runtime.machine import Machine

__all__ = [
    "GcGeometry",
    "RunOutcome",
    "collector_factory",
    "run_benchmark_under",
]

#: Deep if-trees in the Boyer benchmark need generous Python recursion.
_RECURSION_LIMIT = 200_000


@dataclass(frozen=True)
class RunOutcome:
    """One (benchmark, collector) execution's measurements."""

    benchmark: str
    collector: str
    words_allocated: int
    peak_live_words: int
    semispace_words: int | None
    gc_work: int
    mark_cons: float
    gc_mutator_ratio: float
    collections: int
    minor_collections: int
    result: object


def run_benchmark_under(
    benchmark: Benchmark,
    collector_kind: str,
    *,
    scale: int = 1,
    geometry: GcGeometry | None = None,
) -> RunOutcome:
    """Run one benchmark under one collector and collect measurements."""
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    machine = Machine(collector_factory(collector_kind, geometry))
    result = benchmark.run(machine, scale)
    # A final full collection gives every collector the same end state
    # and records a final live figure.
    machine.collect()
    stats = machine.stats
    peak = max((pause.live for pause in stats.pauses), default=0)
    semispace = None
    if isinstance(machine.collector, StopAndCopyCollector):
        semispace = machine.collector.peak_semispace_words
    return RunOutcome(
        benchmark=benchmark.name,
        collector=collector_kind,
        words_allocated=stats.words_allocated,
        peak_live_words=peak,
        semispace_words=semispace,
        gc_work=stats.gc_work,
        mark_cons=stats.mark_cons,
        gc_mutator_ratio=stats.gc_mutator_ratio(machine.mutator_work),
        collections=stats.collections,
        minor_collections=stats.minor_collections,
        result=result,
    )


def register(subparsers) -> None:
    """``repro-gc bench``."""
    sub = subparsers.add_parser(
        "bench", help="run one benchmark under one collector"
    )
    sub.add_argument("name", choices=benchmark_names())
    sub.add_argument(
        "--collector", choices=COLLECTOR_KINDS, default="stop-and-copy"
    )
    sub.add_argument("--scale", type=int, default=1, choices=(0, 1, 2))
    sub.set_defaults(func=_cmd_bench)


def _cmd_bench(args) -> int:
    outcome = run_benchmark_under(
        get_benchmark(args.name), args.collector, scale=args.scale
    )
    print(f"benchmark  : {outcome.benchmark}")
    print(f"collector  : {outcome.collector}")
    print(f"allocated  : {outcome.words_allocated:,} words")
    print(f"peak live  : {outcome.peak_live_words:,} words")
    print(f"gc work    : {outcome.gc_work:,} words")
    print(f"mark/cons  : {outcome.mark_cons:.4f}")
    print(f"gc/mutator : {100 * outcome.gc_mutator_ratio:.1f}%")
    print(
        f"collections: {outcome.collections} "
        f"({outcome.minor_collections} minor)"
    )
    return 0
