"""Synthetic lifetime-driven workloads for the analytical experiments."""

from repro.mutator.base import LifetimeDrivenMutator, LifetimeSchedule
from repro.mutator.decay_mutator import DecaySchedule, HalvingSchedule
from repro.mutator.phased import PhasedSchedule
from repro.mutator.synthetic import (
    BimodalSchedule,
    FixedLifetimeSchedule,
    UniformLifetimeSchedule,
    WeibullSchedule,
)

__all__ = [
    "BimodalSchedule",
    "DecaySchedule",
    "FixedLifetimeSchedule",
    "HalvingSchedule",
    "LifetimeDrivenMutator",
    "LifetimeSchedule",
    "PhasedSchedule",
    "UniformLifetimeSchedule",
    "WeibullSchedule",
]
