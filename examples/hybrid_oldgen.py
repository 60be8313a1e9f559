#!/usr/bin/env python3
"""The Larceny prototype: a non-predictive collector for old objects.

Section 8 of the paper describes the design the authors built into
Larceny: keep a conventional ephemeral (nursery) collector for young
objects, and manage the objects that survive promotion with a
2-generation non-predictive collector.  This example runs the
iterated-process workload — the kind that hurts conventional
generational GC (survival DECREASES with age) — under both the
conventional collector and the hybrid, and shows the hybrid's
non-predictive old area coping better.

Run:  python examples/hybrid_oldgen.py
"""

from __future__ import annotations

from repro import GenerationalCollector, HybridCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.phased import PhasedSchedule

NURSERY = 2_048
OLD_AREA = 16_384
PHASE = 6_000  # words per iteration of the simulated iterated process


def run(name, build) -> None:
    heap = FlatHeap()
    roots = RootSet()
    collector = build(heap, roots)
    schedule = PhasedSchedule(
        PHASE, churn_fraction=0.15, carryover_fraction=0.1, seed=2
    )
    mutator = LifetimeDrivenMutator(collector, roots, schedule)
    mutator.run(40 * PHASE)
    stats = collector.stats
    print(f"-- {name} --")
    print(f"words allocated : {stats.words_allocated:,}")
    print(f"words copied    : {stats.words_copied:,}")
    print(f"roots traced    : {stats.roots_traced:,}")
    print(f"mark/cons       : {stats.mark_cons:.3f}")
    print(f"collections     : {stats.collections} "
          f"({stats.minor_collections} minor)")
    print()


def main() -> None:
    print("Iterated-process workload (phase =", PHASE, "words):")
    print("old objects are the ones about to die — the strong")
    print("generational hypothesis inverted (paper Section 7.2).")
    print()
    run(
        "conventional generational",
        lambda heap, roots: GenerationalCollector(
            heap, roots, [NURSERY, OLD_AREA], auto_expand_oldest=False
        ),
    )
    run(
        "hybrid: nursery + non-predictive old area (paper §8)",
        lambda heap, roots: HybridCollector(
            heap, roots, NURSERY, 8, OLD_AREA // 8
        ),
    )
    print(
        "The hybrid's old area protects the newest promotions and\n"
        "collects the steps that have had the longest time to decay —\n"
        "no age tracking, no lifetime prediction.  The margin is\n"
        "modest, exactly as the paper reports of its own prototype:\n"
        "'On most programs the new collector performs the same as the\n"
        "generational collector it replaces, but we expect the new\n"
        "collector to improve the performance of some programs that\n"
        "present a challenge to our conventional generational\n"
        "collector.' (Section 1)"
    )


if __name__ == "__main__":
    main()
