"""Experiment ``weakhyp``: where the conventional collector wins.

The reproduction would be propaganda if it only showed the regimes
that favor non-predictive collection.  Section 7 is explicit about the
other side: "compared to non-generational collectors, conventional
generational collectors make short-lived objects much cheaper — a
factor of 10 is typical", because most real programs satisfy the weak
generational hypothesis (most objects die young).

This experiment runs a bimodal workload — 90% of objects die within a
few hundred words, the rest have a long exponential tail — under the
conventional generational collector, the standalone non-predictive
collector, and mark/sweep, sweeping the total heap size.  The measured
picture is a crossover:

* under **heavy load** (small heaps), non-generational costs explode
  like 1/(L-1) while the conventional collector's minor-collection
  cost is pinned near the nursery survival fraction — the §7
  advantage; the non-predictive collector does worst of all, because
  every one of its collections re-copies the long-lived survivors;
* under **light load** (large heaps), everything is cheap, the
  conventional collector's survival-fraction floor becomes the
  *largest* cost in the room, and the non-predictive collector wins
  again (its protected steps let infants die in peace).

Both halves are the paper's own story: conventional collection for the
young (§7), non-predictive collection where load and lifetimes stop
cooperating (§8 deploys it for the oldest generation only).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gc.generational import GenerationalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.synthetic import BimodalSchedule
from repro.trace.render import TextTable

__all__ = [
    "WeakHypothesisPoint",
    "WeakHypothesisResult",
    "render_weak_hypothesis",
    "run_weak_hypothesis",
]


@dataclass(frozen=True)
class WeakHypothesisPoint:
    """Mark/cons ratios at one heap size."""

    heap_words: int
    mark_cons: dict[str, float]

    def winner(self) -> str:
        return min(self.mark_cons, key=self.mark_cons.get)


@dataclass(frozen=True)
class WeakHypothesisResult:
    """The load sweep under an infant-mortality workload."""

    young_fraction: float
    young_lifetime: int
    old_half_life: float
    points: tuple[WeakHypothesisPoint, ...]

    @property
    def heaviest(self) -> WeakHypothesisPoint:
        return self.points[0]

    @property
    def lightest(self) -> WeakHypothesisPoint:
        return self.points[-1]


def run_weak_hypothesis(
    *,
    young_fraction: float = 0.9,
    young_lifetime: int = 200,
    old_half_life: float = 8_000.0,
    heap_sizes: tuple[int, ...] = (3_072, 4_096, 6_144, 8_192, 16_384),
    workload_words: int = 250_000,
    seed: int = 17,
) -> WeakHypothesisResult:
    """Run the bimodal comparison across heap sizes (ascending)."""

    def run_one(build) -> float:
        heap = FlatHeap()
        roots = RootSet()
        collector = build(heap, roots)
        mutator = LifetimeDrivenMutator(
            collector,
            roots,
            BimodalSchedule(
                young_fraction, young_lifetime, old_half_life, seed=seed
            ),
        )
        mutator.run(workload_words)
        return collector.stats.steady_mark_cons()

    points = []
    for heap_words in sorted(heap_sizes):
        mark_cons = {
            "mark-sweep": run_one(
                lambda heap, roots: MarkSweepCollector(
                    heap, roots, heap_words, auto_expand=False
                )
            ),
            "generational": run_one(
                lambda heap, roots: GenerationalCollector(
                    heap,
                    roots,
                    [heap_words // 8, heap_words - heap_words // 8],
                    auto_expand_oldest=False,
                )
            ),
            "non-predictive": run_one(
                lambda heap, roots: NonPredictiveCollector(
                    heap, roots, 16, heap_words // 16
                )
            ),
        }
        points.append(
            WeakHypothesisPoint(heap_words=heap_words, mark_cons=mark_cons)
        )
    return WeakHypothesisResult(
        young_fraction=young_fraction,
        young_lifetime=young_lifetime,
        old_half_life=old_half_life,
        points=tuple(points),
    )


def render_weak_hypothesis(result: WeakHypothesisResult) -> str:
    table = TextTable(
        ["heap words", "mark-sweep", "generational", "non-predictive", "winner"]
    )
    for point in result.points:
        table.add_row(
            point.heap_words,
            f"{point.mark_cons['mark-sweep']:.3f}",
            f"{point.mark_cons['generational']:.3f}",
            f"{point.mark_cons['non-predictive']:.3f}",
            point.winner(),
        )
    return "\n".join(
        [
            "Weak-generational-hypothesis workload (infant mortality)",
            f"({100 * result.young_fraction:.0f}% die within "
            f"{result.young_lifetime} words; survivors' half-life "
            f"{result.old_half_life:,.0f})",
            table.to_text(),
            "",
            "Heavy load: the conventional collector's youth bet pays",
            "(§7's 'factor of 10').  Light load: the bet becomes the",
            "largest cost in the room and non-predictive wins again —",
            "which is why §8 combines them.",
        ]
    )
