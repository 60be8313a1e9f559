"""Experiment ``tuning``: the §8.1 j-selection rule, ablated.

DESIGN.md calls out the choice of the tuning parameter ``j`` as the
non-predictive collector's one policy knob.  This experiment runs the
decay workload under several policies at the same heap size:

* ``j = 0`` — nothing protected; the collector degenerates to a
  non-generational collector (mark/cons ≈ 1/(L-1));
* fixed fractions ``g`` — the Section 5 analysis's operating points;
* the paper's ``j = floor(l/2)`` rule (Section 8.1), which needs no
  analysis to set and should land near the good fixed fractions;
* the §8.6 alternative that scans the protected steps instead of
  keeping a remembered set, to show the root-tracing cost the
  remembered set avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decay import LN2
from repro.core.policy import (
    FixedFractionPolicy,
    FixedJPolicy,
    HalfEmptyPolicy,
    TuningPolicy,
)
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule
from repro.trace.render import TextTable

__all__ = ["TuningResult", "TuningRow", "render_tuning", "run_tuning"]


@dataclass(frozen=True)
class TuningRow:
    policy: str
    mark_cons: float
    roots_traced: int
    collections: int


@dataclass(frozen=True)
class TuningResult:
    half_life: float
    load_factor: float
    rows: tuple[TuningRow, ...]

    def row(self, policy: str) -> TuningRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(f"no tuning row named {policy!r}")


def _run_policy(
    name: str,
    policy: TuningPolicy,
    *,
    half_life: float,
    load_factor: float,
    step_count: int,
    cycles: int,
    seed: int,
    use_remset: bool = True,
    initial_j: int = 0,
) -> TuningRow:
    live = half_life / LN2
    heap_words = int(live * load_factor)
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap,
        roots,
        step_count,
        heap_words // step_count,
        policy=policy,
        initial_j=initial_j,
        use_remset=use_remset,
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(half_life, seed=seed)
    )
    mutator.run(cycles * heap_words)
    pauses = collector.stats.pauses
    half = len(pauses) // 2
    work = sum(pause.work for pause in pauses[half:])
    allocated = pauses[-1].clock - pauses[half - 1].clock
    return TuningRow(
        policy=name,
        mark_cons=work / allocated,
        roots_traced=collector.stats.roots_traced,
        collections=collector.stats.collections,
    )


def run_tuning(
    *,
    half_life: float = 2_000.0,
    load_factor: float = 3.5,
    step_count: int = 16,
    cycles: int = 25,
    seed: int = 9,
) -> TuningResult:
    """Run the policy ablation: six independent policy runs, each on
    its own heap with its own seeded lifetime stream, in a fixed
    order."""
    shared = dict(
        half_life=half_life,
        load_factor=load_factor,
        step_count=step_count,
        cycles=cycles,
        seed=seed,
    )
    specs: list[tuple[str, TuningPolicy, dict]] = [
        ("j=0 (non-generational)", FixedJPolicy(0), shared),
        ("fixed g=1/8", FixedFractionPolicy(0.125), shared),
        ("fixed g=1/4", FixedFractionPolicy(0.25), shared),
        ("fixed g=3/8", FixedFractionPolicy(0.375), shared),
        ("half-empty (paper §8.1)", HalfEmptyPolicy(), shared),
        (
            "half-empty, scan-protected (§8.6 alternative)",
            HalfEmptyPolicy(),
            {**shared, "use_remset": False},
        ),
    ]
    rows = [
        _run_policy(name, policy, **kwargs) for name, policy, kwargs in specs
    ]
    return TuningResult(
        half_life=half_life, load_factor=load_factor, rows=tuple(rows)
    )


def render_tuning(result: TuningResult) -> str:
    table = TextTable(
        ["policy", "mark/cons", "roots traced", "collections"]
    )
    for row in result.rows:
        table.add_row(
            row.policy, f"{row.mark_cons:.4f}", row.roots_traced, row.collections
        )
    return "\n".join(
        [
            "Tuning-parameter ablation (radioactive decay model)",
            f"h = {result.half_life:,.0f}, L = {result.load_factor}",
            table.to_text(),
        ]
    )
