"""Experiment ``table1``: the worked example of Section 4 (Table 1).

Reproduces the paper's Table 1: a 7-step non-predictive collector with
1024-word steps, fixed tuning parameter j = 1, driven by the
idealized halving workload (half-life 1024, inverse load factor 3.5).
The experiment runs the collector to its steady cycle and captures the
live storage in each step at every 1024-word boundary of one full
cycle, plus the post-collection row.

Expected values are the paper's, modulo a placement jitter of at most
a couple of words per step: the allocation that triggers the
collection belongs to the next cohort, a boundary effect the paper's
idealized table rounds away.  The steady-state mark/cons ratio is
1024/5120 = 0.2 against 0.4 for a non-generational mark/sweep
collector at the same load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import FixedJPolicy
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import HalvingSchedule
from repro.trace.render import TextTable

__all__ = ["PAPER_TABLE1", "Table1Result", "render_table1", "run_table1"]

#: The paper's Table 1 rows (t = 1024..5120 and the post-gc row),
#: live words in steps 1..7.  The paper's t=0 row equals the gc row.
PAPER_TABLE1: dict[int, tuple[int, ...]] = {
    1024: (0, 0, 0, 0, 1024, 512, 512),
    2048: (0, 0, 0, 1024, 512, 256, 256),
    3072: (0, 0, 1024, 512, 256, 128, 128),
    4096: (0, 1024, 512, 256, 128, 64, 64),
    5120: (1024, 512, 256, 128, 64, 32, 32),
    -1: (0, 0, 0, 0, 0, 1024, 1024),  # the "gc" row
}


@dataclass(frozen=True)
class Table1Result:
    """Measured step occupancies for one steady-state cycle."""

    #: Live words per step at each boundary of the cycle, keyed by the
    #: paper's row time (1024..5120); key -1 is the post-gc row.
    rows: dict[int, tuple[int, ...]]
    #: Steady-state mark/cons ratio (the paper's 0.2).
    mark_cons: float
    #: The non-generational mark/sweep ratio at the same load (0.4).
    nongenerational_mark_cons: float

    def max_deviation(self) -> int:
        """Largest |measured - paper| entry across all rows."""
        worst = 0
        for key, expected in PAPER_TABLE1.items():
            measured = self.rows[key]
            for have, want in zip(measured, expected):
                worst = max(worst, abs(have - want))
        return worst


def run_table1(
    *,
    step_words: int = 1024,
    step_count: int = 7,
    warmup_cycles: int = 6,
) -> Table1Result:
    """Run the Table 1 configuration and capture one steady cycle."""
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap,
        roots,
        step_count,
        step_words,
        policy=FixedJPolicy(1),
        initial_j=1,
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, HalvingSchedule(step_words)
    )

    def live_per_step() -> tuple[int, ...]:
        counts = [0] * step_count
        for obj_id in mutator.held_ids():
            number = collector.step_number(obj_id)
            if number is not None:
                counts[number - 1] += 1
        return tuple(counts)

    cycle_words = 5 * step_words  # collection period at this load
    # Warm up: fill from empty and let the cycle stabilize.
    mutator.run(warmup_cycles * cycle_words)
    # Align to the start of a cycle: run up to just after a collection.
    collections = collector.stats.collections
    while collector.stats.collections == collections:
        mutator.step()
    mutator.release_due()

    rows: dict[int, tuple[int, ...]] = {-1: live_per_step()}
    copied_before = collector.stats.words_copied
    # The allocation that triggered the aligning collection has already
    # consumed one word of this cycle; the cycle's t=0 is one word back.
    cycle_start = heap.clock - 1
    for boundary in range(1, 6):
        target = cycle_start + boundary * step_words
        while heap.clock < target:
            mutator.step()
        mutator.release_due()
        rows[boundary * step_words] = live_per_step()
    # Finish the cycle (trigger the collection) to measure mark/cons.
    collections = collector.stats.collections
    while collector.stats.collections == collections:
        mutator.step()
    copied = collector.stats.words_copied - copied_before
    allocated = heap.clock - 1 - cycle_start
    return Table1Result(
        rows=rows,
        mark_cons=copied / allocated,
        nongenerational_mark_cons=2 * copied / allocated,
    )


def render_table1(result: Table1Result) -> str:
    table = TextTable(["t", *[f"step {i}" for i in range(1, 8)]])
    for key in (1024, 2048, 3072, 4096, 5120, -1):
        label = "gc" if key == -1 else str(key)
        table.add_row(label, *result.rows[key])
    lines = [
        "Table 1: live storage in a non-predictive generational collector",
        table.to_text(),
        "",
        f"steady-state mark/cons: {result.mark_cons:.3f} (paper: 0.200)",
        (
            "non-generational mark/sweep at the same load: "
            f"{result.nongenerational_mark_cons:.3f} (paper: 0.400)"
        ),
        f"max deviation from the paper's idealized entries: "
        f"{result.max_deviation()} words",
    ]
    return "\n".join(lines)
