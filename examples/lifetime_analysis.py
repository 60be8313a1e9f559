#!/usr/bin/env python3
"""Measure object lifetimes the way the paper's Section 7 does.

Runs the 10dynamic workload (iterated type inference) under a tracing
machine, records every object's birth and death, and prints:

* the live-storage-versus-time profile (the Figure 2 picture), and
* the survival-rates-by-age table (the Table 5 picture),

showing the signature of an *iterated process*: survival rates that
DECREASE with age — the opposite of the strong generational
hypothesis, and exactly the regime where the paper's non-predictive
collector shines.

Run:  python examples/lifetime_analysis.py
"""

from __future__ import annotations

from repro.programs.dynamic import generate_corpus, infer_program
from repro.runtime.machine import Machine
from repro.trace.collector import TracingCollector
from repro.trace.profile import storage_profile
from repro.trace.recorder import LifetimeRecorder
from repro.trace.survival import survival_table

ITERATIONS = 6
DEFINITIONS = 40
DEPTH = 5


def main() -> None:
    # Size the sampling from a dry run (the corpus is read before the
    # measured portion, exactly as in the paper).
    dry = Machine(TracingCollector)
    corpus = generate_corpus(dry, definitions=DEFINITIONS, depth=DEPTH)
    before = dry.stats.words_allocated
    infer_program(dry, corpus)
    iteration_words = dry.stats.words_allocated - before
    epoch = max(1, iteration_words // 6)

    machine = Machine(TracingCollector)
    corpus = generate_corpus(machine, definitions=DEFINITIONS, depth=DEPTH)
    recorder = LifetimeRecorder(machine, max(1, epoch // 4))
    for _ in range(ITERATIONS):
        infer_program(machine, corpus)
    trace = recorder.finish()

    print(
        f"{ITERATIONS} iterations, {trace.words_allocated:,} words "
        f"allocated, {trace.object_count:,} objects"
    )
    print()
    print("Live storage versus time (each band = one allocation epoch):")
    print(storage_profile(trace, epoch).to_text(width=48))
    print()
    print("Survival rates by age (per next-bracket of allocation):")
    table = survival_table(
        trace, int(iteration_words / 3.6), bracket_count=3
    )
    print(table.to_text())
    print()
    print(
        "Old objects die FASTER than young ones here: each iteration\n"
        "ends in a mass extinction, so storage that has grown old is\n"
        "storage whose phase is about to end (paper Section 7.2)."
    )


if __name__ == "__main__":
    main()
