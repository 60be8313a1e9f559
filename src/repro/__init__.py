"""repro: Generational Garbage Collection and the Radioactive Decay Model.

A reproduction of Clinger & Hansen (PLDI 1997): the radioactive decay
model of object lifetimes, the non-predictive generational collector,
the Section 5 analysis, a word-accurate heap/collector simulator, a
Scheme-ish runtime, the paper's six benchmarks, and drivers that
regenerate every table and figure.

Quick start::

    from repro import RadioactiveDecayModel, relative_overhead
    model = RadioactiveDecayModel(half_life=1024)
    print(model.equilibrium_live_storage())     # Equation 1
    print(relative_overhead(0.25, 3.5).value)   # Corollary 5

See examples/quickstart.py for a collector in motion.
"""

from repro.core import (
    LN2,
    AdaptiveRemsetPolicy,
    FixedFractionPolicy,
    FixedJPolicy,
    HalfEmptyPolicy,
    MarkConsEstimate,
    OverheadPoint,
    RadioactiveDecayModel,
    StepSnapshot,
    equilibrium_live_storage,
    expected_live,
    fixed_point_f,
    half_life_for_live_storage,
    live_fraction,
    mark_cons_ratio,
    nongenerational_mark_cons,
    optimal_generation_fraction,
    overhead_curve,
    relative_overhead,
    stable_equilibrium_holds,
)
from repro.gc import (
    Collector,
    GcStats,
    GenerationalCollector,
    HeapExhausted,
    HybridCollector,
    MarkSweepCollector,
    NonPredictiveCollector,
    StopAndCopyCollector,
)
from repro.heap import (
    FlatHeap,
    FlatSpace,
    RememberedSet,
    RootSet,
    SpaceFull,
    WriteBarrier,
)
from repro.runtime import Machine

__version__ = "1.0.0"

__all__ = [
    "LN2",
    "AdaptiveRemsetPolicy",
    "Collector",
    "FixedFractionPolicy",
    "FixedJPolicy",
    "FlatHeap",
    "FlatSpace",
    "GcStats",
    "GenerationalCollector",
    "HalfEmptyPolicy",
    "HeapExhausted",
    "HybridCollector",
    "Machine",
    "MarkConsEstimate",
    "MarkSweepCollector",
    "NonPredictiveCollector",
    "OverheadPoint",
    "RadioactiveDecayModel",
    "RememberedSet",
    "RootSet",
    "SpaceFull",
    "StepSnapshot",
    "StopAndCopyCollector",
    "WriteBarrier",
    "equilibrium_live_storage",
    "expected_live",
    "fixed_point_f",
    "half_life_for_live_storage",
    "live_fraction",
    "mark_cons_ratio",
    "nongenerational_mark_cons",
    "optimal_generation_fraction",
    "overhead_curve",
    "relative_overhead",
    "stable_equilibrium_holds",
]
