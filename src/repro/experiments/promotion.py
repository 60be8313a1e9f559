"""Experiment ``promotion``: promotion-policy ablation (paper §9).

Section 9 situates Larceny's promote-all policy against the promotion
policies of the literature ("typically managed as a pipeline between
the youngest and oldest generations"; Ungar-style tenuring).  This
ablation runs the same iterated-process workload — the regime that
embarrasses age-based heuristics — under the conventional collector
with increasing promotion thresholds, and under the hybrid.

Expected picture: tenuring reduces promotion traffic (under-age
survivors can die in the nursery instead of being dragged into the old
generation) but pays for it by re-copying the survivors that do not
die; the net effect depends on the nursery-to-phase-length ratio.  No
threshold fixes the fundamental problem the paper identifies: the
collector still bets on age, and the workload's age-death correlation
is inverted — the hybrid's non-predictive old area stays at least
competitive throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.phased import PhasedSchedule
from repro.trace.render import TextTable

__all__ = ["PromotionResult", "PromotionRow", "render_promotion", "run_promotion"]


@dataclass(frozen=True)
class PromotionRow:
    policy: str
    mark_cons: float
    words_promoted: int
    collections: int


@dataclass(frozen=True)
class PromotionResult:
    phase_words: int
    rows: tuple[PromotionRow, ...]

    def row(self, policy: str) -> PromotionRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(f"no promotion row named {policy!r}")


def _run_one(name: str, build, phase_words: int, phases: int, seed: int):
    heap = FlatHeap()
    roots = RootSet()
    collector = build(heap, roots)
    schedule = PhasedSchedule(
        phase_words, churn_fraction=0.2, carryover_fraction=0.1, seed=seed
    )
    mutator = LifetimeDrivenMutator(collector, roots, schedule)
    mutator.run(phases * phase_words)
    return PromotionRow(
        policy=name,
        mark_cons=collector.stats.mark_cons,
        words_promoted=collector.stats.words_promoted,
        collections=collector.stats.collections,
    )


def run_promotion(
    *,
    phase_words: int = 6_000,
    phases: int = 40,
    nursery_words: int = 2_048,
    old_words: int = 16_384,
    seed: int = 3,
) -> PromotionResult:
    """Run the promotion ablation on an iterated-process workload."""
    rows = []
    for threshold in (1, 2, 3):
        rows.append(
            _run_one(
                f"generational, promote after {threshold}",
                lambda heap, roots, t=threshold: GenerationalCollector(
                    heap,
                    roots,
                    [nursery_words, old_words],
                    auto_expand_oldest=False,
                    promotion_threshold=t,
                ),
                phase_words,
                phases,
                seed,
            )
        )
    rows.append(
        _run_one(
            "hybrid non-predictive old area",
            lambda heap, roots: HybridCollector(
                heap,
                roots,
                nursery_words,
                8,
                old_words // 8,
            ),
            phase_words,
            phases,
            seed,
        )
    )
    return PromotionResult(phase_words=phase_words, rows=tuple(rows))


def render_promotion(result: PromotionResult) -> str:
    table = TextTable(
        ["policy", "mark/cons", "words promoted", "collections"]
    )
    for row in result.rows:
        table.add_row(
            row.policy,
            f"{row.mark_cons:.3f}",
            row.words_promoted,
            row.collections,
        )
    return "\n".join(
        [
            "Promotion-policy ablation on an iterated-process workload",
            f"(phase = {result.phase_words:,} words)",
            table.to_text(),
        ]
    )
