"""Experiment ``equilibrium``: Equation 1 and the memorylessness claim.

Section 2 derives that the radioactive decay model approaches an
equilibrium of ``n = 1/(1-r) ≈ h / ln 2`` live objects after several
half-lives.  This experiment runs the decay workload and compares the
measured live population against the prediction, and also verifies
the model's defining property empirically: the measured survival rate
of a cohort over one half-life is one half *regardless of the
cohort's age*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decay import RadioactiveDecayModel, equilibrium_live_storage
from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule
from repro.trace.render import TextTable

__all__ = ["EquilibriumResult", "render_equilibrium", "run_equilibrium"]


@dataclass(frozen=True)
class EquilibriumResult:
    """Measured equilibrium versus Equation 1."""

    half_life: float
    predicted_live: float
    measured_live_mean: float
    measured_live_samples: tuple[int, ...]
    #: Survival over one half-life for cohorts of increasing age
    #: (fractions; memorylessness says they are all ~0.5).
    cohort_survival: tuple[float, ...]

    @property
    def relative_error(self) -> float:
        return abs(self.measured_live_mean - self.predicted_live) / (
            self.predicted_live
        )


def run_equilibrium(
    *,
    half_life: float = 2_000.0,
    half_lives_to_run: int = 24,
    samples: int = 12,
    seed: int = 11,
) -> EquilibriumResult:
    """Measure the decay workload's equilibrium live population."""
    model = RadioactiveDecayModel(half_life)
    heap = FlatHeap()
    roots = RootSet()
    # Plenty of headroom: the collector must not perturb the mutator.
    collector = MarkSweepCollector(
        heap, roots, int(10 * model.equilibrium_live_storage())
    )
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(half_life, seed=seed)
    )

    warmup = int(half_life * half_lives_to_run / 2)
    mutator.run(warmup)
    live_samples = []
    sample_gap = int(half_life * half_lives_to_run / 2 / samples)
    for _ in range(samples):
        mutator.run(sample_gap)
        live_samples.append(mutator.live_objects)
    mean = sum(live_samples) / len(live_samples)

    # Memorylessness: track one cohort's survival across several
    # consecutive half-lives; each ratio should be ~0.5 regardless of
    # the cohort's age.
    h = int(half_life)
    cohort = set(mutator.held_ids())
    survival = []
    for _ in range(5):
        mutator.run(h)
        still_here = cohort & set(mutator.held_ids())
        survival.append(len(still_here) / max(1, len(cohort)))
        cohort = still_here
        if len(cohort) < 32:
            break
    return EquilibriumResult(
        half_life=half_life,
        predicted_live=equilibrium_live_storage(half_life),
        measured_live_mean=mean,
        measured_live_samples=tuple(live_samples),
        cohort_survival=tuple(survival),
    )


def render_equilibrium(result: EquilibriumResult) -> str:
    table = TextTable(["cohort age (half-lives)", "survival over next h"])
    for age, rate in enumerate(result.cohort_survival):
        table.add_row(age, f"{rate:.3f}")
    return "\n".join(
        [
            "Equation 1 equilibrium check (radioactive decay model)",
            f"half-life h = {result.half_life:,.0f} words",
            f"predicted live storage n = h/ln2 = "
            f"{result.predicted_live:,.1f}",
            f"measured mean live storage  = {result.measured_live_mean:,.1f}"
            f"  (relative error {100 * result.relative_error:.2f}%)",
            "",
            "memorylessness: survival over one half-life by cohort age",
            "(the model predicts 0.500 at every age)",
            table.to_text(),
        ]
    )
