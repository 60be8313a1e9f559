"""The ``programs`` workload: real mutators on the simulated machine.

The paper's benchmark programs run in-process on ``runtime.machine``
at four times the stock geometry: ``10dynamic``, ``nucleic2`` and
``nbody`` at scale 1 under all seven collector kinds, and ``nboyer`` at
scale 0 under stop-and-copy and generational — 23 cells.  Unlike
``alloc-decay`` this goes through per-object ``allocate``, pointer
stores through ``heap.barrier``, remembered sets and real graphs to
trace (mark/cons from 0.004 to above 1), with mutator work dominant.
The programs take no seed: every seed runs the same cells.

A cell is what ``experiments.harness.run_benchmark_under`` does — build
a ``Machine``, run the program, one final full collection — spelled out
here because its ``RunOutcome`` does not carry the pause log that
``pause_words_max`` is read from.

Output check: every cell of one program allocates the same words and
returns the same result under every collector kind.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any

import harness
import hostspeed
from harness import KINDS, RunResult, Tracer

harness.add_source_path()

from repro.gc.registry import GcGeometry, collector_factory  # noqa: E402
from repro.programs.registry import get_benchmark  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402

BACKEND = "flat"
#: The set-up is short (a tenth of a second of warm-up cells), so it
#: is repeated more often than the other workloads' for a steady median.
SETUP_REPEATS = 5
#: Deep if-trees in the Boyer benchmark need generous Python recursion
#: (the same limit ``run_benchmark_under`` sets).
RECURSION_LIMIT = 200_000

GEOMETRY_SCALE = (4, 1)
GEOMETRY = GcGeometry().scaled(*GEOMETRY_SCALE)
#: Large enough that stop-and-copy never collects before the final
#: collection: its wall is then the mutator's alone.
MUTATOR_GEOMETRY = GcGeometry().scaled(256, 1)

#: (program, scale, collector kinds)
CELLS = (
    ("10dynamic", 1, KINDS),
    ("nucleic2", 1, KINDS),
    ("nbody", 1, KINDS),
    ("nboyer", 0, ("stop-and-copy", "generational")),
)
#: Quick mode keeps the shape (every kind, a pointer-heavy program and
#: a float-heavy one) at test-suite scale.  nbody at scale 0 fits the
#: nursery; lattice is the smallest program that makes every kind trace.
QUICK_CELLS = (
    ("lattice", 0, KINDS),
    ("nbody", 0, ("stop-and-copy", "generational")),
)
QUICK_GEOMETRY_SCALE = (1, 4)
QUICK_GEOMETRY = GcGeometry().scaled(*QUICK_GEOMETRY_SCALE)
WARM_CELL = ("nbody", 0)

#: Programs whose traced words are not a function of the inputs alone.
#: A ``Ref`` handle unroots its object in ``__del__``; nboyer leaves
#: some handles in reference cycles, so when they stop being roots
#: depends on when CPython's cycle collector last ran, which depends on
#: everything the process allocated before (374436, 374554, 374890 words
#: traced under stop-and-copy after five, one and no warm-up passes).
#: Words allocated and the result are unaffected.  These cells are timed
#: and output-checked like the rest but kept out of the exact counts.
HISTORY_DEPENDENT = ("nboyer",)


@dataclass
class Cell:
    program: str
    kind: str
    seconds: float
    words_allocated: int
    words_traced: int
    collections: int
    pause_words_max: int
    result: str
    #: Host seconds to reference seconds (1 until a bracket has set it).
    factor: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.factor


def run_cell(
    program: str,
    scale: int,
    kind: str,
    geometry: GcGeometry,
    tracer: Tracer | None = None,
) -> Cell:
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    benchmark = get_benchmark(program)

    def cell() -> tuple[Any, Machine]:
        machine = Machine(
            collector_factory(kind, geometry), heap_backend=BACKEND
        )
        value = benchmark.run(machine, scale)
        # A final full collection gives every kind the same end state.
        machine.collect()
        return value, machine

    call = tracer.call if tracer is not None else harness.plain_call
    started = time.perf_counter()
    value, machine = call(
        f"runtime.{program}.{kind}", f"{program}/{kind}", cell
    )
    seconds = time.perf_counter() - started
    stats = machine.stats
    harness.close_collector(machine.collector)
    return Cell(
        program,
        kind,
        seconds,
        stats.words_allocated,
        stats.words_traced,
        stats.collections,
        stats.max_pause_work,
        repr(value),
    )


def run_round(
    cells: tuple,
    geometry: GcGeometry,
    tracer: Tracer | None = None,
    bracket: hostspeed.Bracket | None = None,
) -> list[Cell]:
    """Every cell once; with a ``bracket``, a host-speed probe after
    each, from which the cells get their corrections."""
    done: list[Cell] = []
    stretches: list[int] = []
    for program, scale, kinds in cells:
        for kind in kinds:
            done.append(run_cell(program, scale, kind, geometry, tracer))
            if bracket is not None:
                stretches.append(bracket.close())
    for cell, stretch in zip(done, stretches):
        cell.factor = bracket.factor(stretch)
    return done


def check_round(result: RunResult, label: str, cells: list[Cell]) -> None:
    """Same words and same result for one program under every kind."""
    first: dict[str, Cell] = {}
    for cell in cells:
        reference = first.setdefault(cell.program, cell)
        ok = result.check(
            cell.words_allocated == reference.words_allocated
            and cell.result == reference.result,
            f"{label}: {cell.program} under {cell.kind} allocated "
            f"{cell.words_allocated} words / returned {cell.result[:60]}; "
            f"under {reference.kind} {reference.words_allocated} words / "
            f"{reference.result[:60]}",
        )
        result.operation(ok)


def exact_counts(cells: list[Cell]) -> dict[str, Any]:
    cells = [c for c in cells if c.program not in HISTORY_DEPENDENT]
    return {
        "words_allocated": sum(c.words_allocated for c in cells),
        "words_traced": sum(c.words_traced for c in cells),
        "pause_words_max": max(c.pause_words_max for c in cells),
        "per_cell": {
            f"{c.program}/{c.kind}": [
                c.words_allocated, c.words_traced, c.collections,
                c.pause_words_max,
            ]
            for c in cells
        },
    }


def warm_up(geometry: GcGeometry) -> None:
    program, scale = WARM_CELL
    for kind in KINDS:
        run_cell(program, scale, kind, geometry)


def run_end_to_end(
    result: RunResult, seed: int, seconds: float, quick: bool, import_s: float
) -> None:
    cells, geometry = (
        (QUICK_CELLS, QUICK_GEOMETRY) if quick else (CELLS, GEOMETRY)
    )
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        bracket = hostspeed.Bracket()
        started = time.perf_counter()
        warm_up(geometry)
        elapsed = time.perf_counter() - started
        setup_samples.append((elapsed, bracket.factor(bracket.close())))

    rounds: list[list[Cell]] = []
    bracket = hostspeed.Bracket()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(cells, geometry, bracket=bracket))
        check_round(result, f"round {len(rounds) - 1}", rounds[-1])

    # Later rounds repeated the outputs checked above; they must repeat
    # the counts as well.
    counts = exact_counts(rounds[0])
    for index, later in enumerate(rounds[1:], 1):
        result.check(
            exact_counts(later) == counts,
            f"round {index} disagrees with round 0 on an exact count",
        )
    result.exact.update(counts)
    result.detail["sizes"] = {
        "cells": [[p, s, list(k)] for p, s, k in cells],
        "cells_per_round": len(rounds[0]),
        "rounds": len(rounds),
        "geometry_scale": list(
            QUICK_GEOMETRY_SCALE if quick else GEOMETRY_SCALE
        ),
        "backend": BACKEND,
        "seed_note": "programs take no seed; every seed runs the same cells",
    }

    result.put_setup(import_s, setup_samples)
    result.put_cell_timing(
        [[c.reference_seconds for c in r] for r in rounds],
        [[c.seconds for c in r] for r in rounds],
    )
    result.put("words_per_s", put_ledger(result, rounds, counts))
    result.raw["words_per_s"] = harness.geometric_mean(
        harness.median(
            r[position].words_allocated / r[position].seconds for r in rounds
        )
        for position in range(len(rounds[0]))
    )
    result.detail["host_probes_s"] = bracket.probes
    result.put("peak_rss_mb", harness.self_peak_rss_mb())


def put_ledger(
    result: RunResult, rounds: list[list[Cell]], counts: dict[str, Any]
) -> float:
    """Per-kind rates and the exact counts; returns the all-cell rate.

    A cell's rate is its words per host second, median over rounds; a
    kind's rate is the geometric mean over the programs run under it,
    and the overall rate the geometric mean over every cell.
    """
    rates = [
        harness.median(
            r[position].words_allocated / r[position].reference_seconds
            for r in rounds
        )
        for position in range(len(rounds[0]))
    ]
    for kind in KINDS:
        result.put(
            f"words_per_s.{kind}",
            harness.geometric_mean(
                rate for rate, cell in zip(rates, rounds[0])
                if cell.kind == kind
            ),
        )
    result.put(
        "mark_cons_ratio", counts["words_traced"] / counts["words_allocated"]
    )
    result.put("pause_words_max", counts["pause_words_max"])
    return harness.geometric_mean(rates)


def run_traced(
    result: RunResult, seed: int, quick: bool, zeros: dict[str, float]
) -> None:
    cells, geometry = (
        (QUICK_CELLS, QUICK_GEOMETRY) if quick else (CELLS, GEOMETRY)
    )
    warm_up(geometry)
    tracer = Tracer()
    traced = run_round(cells, geometry, tracer)
    check_round(result, "traced round", traced)
    counts = exact_counts(traced)
    result.exact.update(counts)

    result.metrics.update(zeros)
    put_ledger(result, [traced], counts)
    result.put(
        "request_latency_p90_ms",
        1e3 * harness.percentile([c.seconds for c in traced], 0.90),
    )
    for cell in traced:
        name = f"runtime.{cell.program}.{cell.kind}.wall_s"
        if name in zeros:
            result.put(name, cell.seconds)
    by_kind: dict[str, list[Cell]] = {kind: [] for kind in KINDS}
    for cell in traced:
        by_kind[cell.kind].append(cell)
    for kind, members in by_kind.items():
        result.put(
            f"gc.{kind}.mark_cons",
            sum(c.words_traced for c in members)
            / sum(c.words_allocated for c in members),
        )
        result.put(
            f"gc.{kind}.collections", sum(c.collections for c in members)
        )
        result.put(
            f"gc.{kind}.pause_words_max",
            max(c.pause_words_max for c in members),
        )

    # The mutator's share of a cell: the same program under a
    # stop-and-copy heap so large it never collects before the end.
    stop_and_copy = {
        c.program: c for c in traced if c.kind == "stop-and-copy"
    }
    for program, scale, _ in cells:
        mutator = run_cell(program, scale, "stop-and-copy", MUTATOR_GEOMETRY)
        result.check(
            mutator.collections == 1,
            f"{program}: the mutator-only run collected "
            f"{mutator.collections} times, expected the final one only",
        )
        if f"runtime.{program}.mutator_s" in zeros:
            result.put(f"runtime.{program}.mutator_s", mutator.seconds)
            result.put(
                f"gc.{program}.collect_share",
                1.0 - mutator.seconds / stop_and_copy[program].seconds,
            )

    # The untraced side of trace.overhead_share: the stop-and-copy cells
    # again without spans (not nboyer: its counts would not repeat, and
    # it alone is a sixth of the round).
    plain_wall = traced_wall = 0.0
    for program, scale, _ in cells:
        if program in HISTORY_DEPENDENT:
            continue
        plain = run_cell(program, scale, "stop-and-copy", geometry)
        spanned = stop_and_copy[program]
        result.check(
            (plain.words_allocated, plain.words_traced, plain.collections)
            == (spanned.words_allocated, spanned.words_traced,
                spanned.collections),
            f"{program}: traced and untraced runs disagree on an exact count",
        )
        plain_wall += plain.seconds
        traced_wall += spanned.seconds
    result.put("trace.overhead_share", traced_wall / plain_wall - 1.0)
    tracer.dump(
        harness.OUT_DIR / "trace-programs.json",
        workload="programs",
        seed=seed,
        note="one span per cell; cid is program/kind",
    )
