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

import importlib

__version__ = "1.0.0"

#: The top-level names, by the module that defines them.  Each is
#: imported at its first use (PEP 562), so ``import repro`` loads no
#: submodule and a command pays only for what it runs.
_HOMES = {
    "repro.core.analysis": (
        "MarkConsEstimate",
        "OverheadPoint",
        "expected_live",
        "fixed_point_f",
        "live_fraction",
        "mark_cons_ratio",
        "nongenerational_mark_cons",
        "optimal_generation_fraction",
        "overhead_curve",
        "relative_overhead",
        "stable_equilibrium_holds",
    ),
    "repro.core.decay": (
        "LN2",
        "RadioactiveDecayModel",
        "equilibrium_live_storage",
        "half_life_for_live_storage",
    ),
    "repro.core.policy": (
        "AdaptiveRemsetPolicy",
        "FixedFractionPolicy",
        "FixedJPolicy",
        "HalfEmptyPolicy",
        "StepSnapshot",
    ),
    "repro.gc.collector": ("Collector", "HeapExhausted"),
    "repro.gc.generational": ("GenerationalCollector",),
    "repro.gc.hybrid": ("HybridCollector",),
    "repro.gc.marksweep": ("MarkSweepCollector",),
    "repro.gc.nonpredictive": ("NonPredictiveCollector",),
    "repro.gc.stats": ("GcStats",),
    "repro.gc.stopcopy": ("StopAndCopyCollector",),
    "repro.heap.barrier": ("WriteBarrier",),
    "repro.heap.flat": ("FlatHeap", "FlatSpace", "SpaceFull"),
    "repro.heap.remset": ("RememberedSet",),
    "repro.heap.roots": ("RootSet",),
    "repro.runtime.machine": ("Machine",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_HOME[name]), name)
    globals()[name] = value
    return value
