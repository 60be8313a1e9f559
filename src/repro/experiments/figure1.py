"""Experiment ``figure1``: relative mark/cons overhead curves (Figure 1).

Figure 1 plots, for the radioactive decay model, the mark/cons
overhead of the non-predictive collector divided by that of a
non-generational collector, as a function of the young-generation
fraction ``g`` for several inverse load factors ``L``.  Thin lines are
the exact Theorem 4 / Corollary 5 closed form (valid where the stable
equilibrium hypothesis holds); thick lines are Equation 4 fixed-point
lower bounds.

This experiment regenerates the curves from the closed forms and —
because closed forms can silently diverge from the system they claim
to describe — validates a sample of points against a discrete-event
simulation of the actual collector under the actual decay workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import analysis
from repro.core.decay import LN2
from repro.core.policy import FixedFractionPolicy
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule
from repro.trace.render import TextTable, render_series

__all__ = [
    "DEFAULT_LOADS",
    "Figure1Result",
    "SimulationPoint",
    "render_figure1",
    "run_figure1",
    "simulate_relative_overhead",
]

#: Inverse load factors for the curves (the paper sweeps L over a
#: similar small set; the exact values are not recoverable from the
#: grayscale figure, so representative light-to-heavy loads are used).
DEFAULT_LOADS: tuple[float, ...] = (1.5, 2.0, 3.5, 5.0, 8.0)


@dataclass(frozen=True)
class SimulationPoint:
    """One simulation cross-check of the analysis."""

    g: float
    load: float
    simulated: float
    predicted: float
    exact: bool

    @property
    def relative_error(self) -> float:
        if self.predicted == 0:
            return 0.0
        return abs(self.simulated - self.predicted) / self.predicted


@dataclass(frozen=True)
class Figure1Result:
    """The figure's curves plus the simulation validation points."""

    curves: dict[float, list[analysis.OverheadPoint]]
    simulation: list[SimulationPoint]

    def max_simulation_error(self) -> float:
        return max(
            (point.relative_error for point in self.simulation), default=0.0
        )


def simulate_relative_overhead(
    g: float,
    load: float,
    *,
    half_life: float = 2_000.0,
    step_count: int = 16,
    cycles: int = 25,
    seed: int = 42,
) -> SimulationPoint:
    """Measure the relative overhead by running the actual collector.

    The decay workload at half-life ``h`` is run through a
    non-predictive collector with ``k`` steps sized for inverse load
    factor ``L`` and a fixed generation fraction ``g``; the
    steady-state mark/cons ratio over the second half of the run is
    divided by the analytic non-generational ratio ``1/(L-1)``.
    """
    live = half_life / LN2
    heap_words = int(live * load)
    step_words = heap_words // step_count
    heap = FlatHeap()
    roots = RootSet()
    collector = NonPredictiveCollector(
        heap,
        roots,
        step_count,
        step_words,
        policy=FixedFractionPolicy(g),
        initial_j=max(0, min(round(g * step_count), step_count // 2)),
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(half_life, seed=seed)
    )
    mutator.run(cycles * heap_words)
    steady = collector.stats.steady_mark_cons()
    simulated = steady / analysis.nongenerational_mark_cons(load)
    predicted = analysis.relative_overhead(g, load)
    return SimulationPoint(
        g=g,
        load=load,
        simulated=simulated,
        predicted=predicted.value,
        exact=predicted.exact,
    )


def run_figure1(
    *,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    samples: int = 50,
    simulate: bool = True,
    simulation_gs: tuple[float, ...] = (0.125, 0.25, 0.375),
    simulation_loads: tuple[float, ...] = (2.0, 3.5),
) -> Figure1Result:
    """Regenerate Figure 1's curves, optionally with simulation checks."""
    curves = {
        load: analysis.overhead_curve(load, samples=samples)
        for load in loads
    }
    simulation: list[SimulationPoint] = []
    if simulate:
        for load in simulation_loads:
            for g in simulation_gs:
                simulation.append(simulate_relative_overhead(g, load))
    return Figure1Result(curves=curves, simulation=simulation)


def render_figure1(result: Figure1Result) -> str:
    lines = [
        "Figure 1: non-predictive mark/cons overhead relative to",
        "non-generational gc, vs. generation fraction g (per curve: L)",
        "",
    ]
    for load, points in sorted(result.curves.items()):
        series = [(p.g, p.relative_overhead) for p in points]
        exact_until = next(
            (p.g for p in points if not p.exact), points[-1].g
        )
        best = min(points, key=lambda p: p.relative_overhead)
        lines.append(
            f"L = {load}: min overhead {best.relative_overhead:.3f} at "
            f"g = {best.g:.3f}"
            + (
                f"; Theorem 4 exact for g < {exact_until:.3f}, "
                "fixed-point lower bound beyond"
                if exact_until < points[-1].g
                else "; Theorem 4 exact over the whole range"
            )
        )
        lines.append(render_series(series, x_label="g", y_label="overhead"))
        lines.append("")
    if result.simulation:
        table = TextTable(
            ["L", "g", "simulated", "predicted", "rel err", "regime"]
        )
        for point in result.simulation:
            table.add_row(
                point.load,
                point.g,
                point.simulated,
                point.predicted,
                point.relative_error,
                "exact" if point.exact else "lower-bound",
            )
        lines.append("Simulation cross-check of the closed forms:")
        lines.append(table.to_text())
    return "\n".join(lines)
