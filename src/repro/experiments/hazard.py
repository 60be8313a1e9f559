"""Experiment ``hazard``: Section 9's survival-rate-regime claim.

The paper's closing observation: "uniform survival rates, or rates
that decrease with age, are favorable to non-predictive generational
collection", while rates that *increase* with age (the strong
generational hypothesis) favor the conventional age-based collector.

This experiment sweeps the Weibull lifetime family's shape parameter
``k`` — hazard decreasing with age for k < 1 (strong hypothesis),
constant at k = 1 (radioactive decay), increasing for k > 1
(iterated-process-like) — and runs the conventional generational and
non-predictive collectors on each regime at equal heap sizes.  The
expected picture:

* k > 1: the non-predictive collector's advantage is largest (old
  steps are the ones about to die);
* k = 1: the decay model; non-predictive wins, conventional loses
  (the anti-prediction result);
* k < 1: the conventional collector recovers (young objects really do
  die young) and the non-predictive advantage narrows or inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gc.generational import GenerationalCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.synthetic import WeibullSchedule
from repro.trace.render import TextTable

__all__ = ["HazardPoint", "HazardResult", "render_hazard", "run_hazard"]


@dataclass(frozen=True)
class HazardPoint:
    """One Weibull shape's measurements."""

    shape: float
    generational_mark_cons: float
    nonpredictive_mark_cons: float

    @property
    def nonpredictive_advantage(self) -> float:
        """Generational cost divided by non-predictive cost (>1 = np wins)."""
        if self.nonpredictive_mark_cons == 0:
            return float("inf")
        return self.generational_mark_cons / self.nonpredictive_mark_cons


@dataclass(frozen=True)
class HazardResult:
    points: tuple[HazardPoint, ...]
    scale: float
    heap_words: int

    def point(self, shape: float) -> HazardPoint:
        for point in self.points:
            if point.shape == shape:
                return point
        raise KeyError(f"no hazard point for shape {shape!r}")


def run_hazard(
    *,
    shapes: tuple[float, ...] = (0.5, 0.7, 1.0, 1.5, 2.5),
    scale: float = 2_500.0,
    load_factor: float = 3.5,
    step_count: int = 16,
    cycles: int = 20,
    seed: int = 13,
) -> HazardResult:
    """Sweep Weibull shapes under both collectors."""
    import math

    points = []
    for shape in shapes:
        # Mean lifetime of Weibull(scale, k) is scale * Gamma(1 + 1/k);
        # the steady live population equals the mean lifetime, and the
        # heap is sized at load_factor times it.
        mean = scale * math.gamma(1.0 + 1.0 / shape)
        heap_words = int(mean * load_factor)

        heap = FlatHeap()
        roots = RootSet()
        generational = GenerationalCollector(
            heap,
            roots,
            [heap_words // 4, heap_words - heap_words // 4],
            auto_expand_oldest=False,
        )
        mutator = LifetimeDrivenMutator(
            generational, roots, WeibullSchedule(scale, shape, seed=seed)
        )
        mutator.run(cycles * heap_words)
        gen_cost = generational.stats.steady_mark_cons()

        heap = FlatHeap()
        roots = RootSet()
        nonpredictive = NonPredictiveCollector(
            heap, roots, step_count, heap_words // step_count
        )
        mutator = LifetimeDrivenMutator(
            nonpredictive, roots, WeibullSchedule(scale, shape, seed=seed)
        )
        mutator.run(cycles * heap_words)
        np_cost = nonpredictive.stats.steady_mark_cons()

        points.append(
            HazardPoint(
                shape=shape,
                generational_mark_cons=gen_cost,
                nonpredictive_mark_cons=np_cost,
            )
        )
    return HazardResult(
        points=tuple(points),
        scale=scale,
        heap_words=int(scale * load_factor),
    )


def render_hazard(result: HazardResult) -> str:
    table = TextTable(
        [
            "Weibull shape k",
            "hazard with age",
            "generational",
            "non-predictive",
            "np advantage",
        ]
    )
    for point in result.points:
        regime = (
            "decreasing (strong hyp.)"
            if point.shape < 1.0
            else "constant (decay)"
            if point.shape == 1.0
            else "increasing (iterated)"
        )
        table.add_row(
            point.shape,
            regime,
            f"{point.generational_mark_cons:.3f}",
            f"{point.nonpredictive_mark_cons:.3f}",
            f"{point.nonpredictive_advantage:.2f}x",
        )
    return "\n".join(
        [
            "Survival-rate regimes vs. collector choice (paper Section 9)",
            table.to_text(),
            "",
            "Shapes > 1 (old objects dying) favor the non-predictive",
            "collector most; shapes < 1 (the strong generational",
            "hypothesis) narrow its advantage.",
        ]
    )
