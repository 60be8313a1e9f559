"""Experiment ``antiprediction``: Section 3's central claims, executed.

Under the radioactive decay model:

1. a *conventional* generational collector — which condemns the
   youngest generations, betting they are mostly garbage — performs
   WORSE than a similar non-generational collector, because the
   youngest objects have had the least time to decay (Section 3);
2. a *non-predictive* generational collector — which condemns the
   steps that have had the longest time to decay while protecting the
   newest ones — performs BETTER than the non-generational collector
   (Sections 4-5), even though no lifetime predictor can beat chance.

This experiment runs the same decay workload, at the same total heap
size, under four collectors and compares their steady-state mark/cons
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decay import LN2
from repro.gc.generational import GenerationalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule
from repro.trace.render import TextTable

__all__ = ["AntipredictionResult", "render_antiprediction", "run_antiprediction"]


@dataclass(frozen=True)
class AntipredictionResult:
    """Steady-state mark/cons ratios under the decay workload.

    All collectors manage the same total heap of ``heap_words`` words
    (the stop-and-copy collector's two semispaces each get half, the
    standard space-time trade of semispace collection).
    """

    half_life: float
    load_factor: float
    heap_words: int
    mark_cons: dict[str, float]

    @property
    def conventional_loses(self) -> bool:
        """Claim 1: conventional generational worse than mark/sweep."""
        return self.mark_cons["generational"] > self.mark_cons["mark-sweep"]

    @property
    def nonpredictive_wins(self) -> bool:
        """Claim 2: non-predictive better than mark/sweep."""
        return self.mark_cons["non-predictive"] < self.mark_cons["mark-sweep"]


def run_antiprediction(
    *,
    half_life: float = 2_000.0,
    load_factor: float = 3.5,
    step_count: int = 16,
    cycles: int = 30,
    seed: int = 5,
) -> AntipredictionResult:
    """Run the four-collector comparison."""
    live = half_life / LN2
    heap_words = int(live * load_factor)
    workload_words = cycles * heap_words

    def run_one(name: str, build) -> float:
        heap = FlatHeap()
        roots = RootSet()
        collector = build(heap, roots)
        mutator = LifetimeDrivenMutator(
            collector, roots, DecaySchedule(half_life, seed=seed)
        )
        mutator.run(workload_words)
        return collector.stats.steady_mark_cons()

    mark_cons = {
        "mark-sweep": run_one(
            "mark-sweep",
            lambda heap, roots: MarkSweepCollector(
                heap, roots, heap_words, auto_expand=False
            ),
        ),
        "stop-and-copy": run_one(
            "stop-and-copy",
            lambda heap, roots: StopAndCopyCollector(
                heap, roots, heap_words // 2, auto_expand=False
            ),
        ),
        "generational": run_one(
            "generational",
            lambda heap, roots: GenerationalCollector(
                heap,
                roots,
                [heap_words // 4, heap_words - heap_words // 4],
                auto_expand_oldest=False,
            ),
        ),
        "non-predictive": run_one(
            "non-predictive",
            lambda heap, roots: NonPredictiveCollector(
                heap, roots, step_count, heap_words // step_count
            ),
        ),
    }
    return AntipredictionResult(
        half_life=half_life,
        load_factor=load_factor,
        heap_words=heap_words,
        mark_cons=mark_cons,
    )


def render_antiprediction(result: AntipredictionResult) -> str:
    baseline = result.mark_cons["mark-sweep"]
    table = TextTable(["collector", "mark/cons", "relative to mark/sweep"])
    for name, value in sorted(
        result.mark_cons.items(), key=lambda item: item[1]
    ):
        table.add_row(name, f"{value:.4f}", f"{value / baseline:.3f}x")
    analytic = 1.0 / (result.load_factor - 1.0)
    return "\n".join(
        [
            "Anti-prediction experiment (radioactive decay model)",
            f"h = {result.half_life:,.0f}, L = {result.load_factor}, "
            f"heap = {result.heap_words:,} words",
            f"analytic mark/sweep ratio 1/(L-1) = {analytic:.4f}",
            table.to_text(),
            "",
            f"conventional generational loses to mark/sweep: "
            f"{result.conventional_loses} (paper: True)",
            f"non-predictive beats mark/sweep: "
            f"{result.nonpredictive_wins} (paper: True)",
        ]
    )
