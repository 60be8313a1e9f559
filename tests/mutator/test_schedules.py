"""Tests for the lifetime schedules."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.decay import LN2
from repro.gc.marksweep import MarkSweepCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule, HalvingSchedule
from repro.mutator.phased import PhasedSchedule
from repro.mutator.synthetic import (
    BimodalSchedule,
    FixedLifetimeSchedule,
    UniformLifetimeSchedule,
    WeibullSchedule,
)


class TestDecaySchedule:
    def test_equilibrium_population(self):
        heap = FlatHeap()
        roots = RootSet()
        collector = MarkSweepCollector(heap, roots, 50_000)
        mutator = LifetimeDrivenMutator(
            collector, roots, DecaySchedule(1_000, seed=3)
        )
        mutator.run(20_000)
        expected = 1_000 / LN2
        assert mutator.live_objects == pytest.approx(expected, rel=0.10)

    def test_deterministic_given_seed(self):
        a = DecaySchedule(100.0, seed=5)
        b = DecaySchedule(100.0, seed=5)
        assert [a.lifetime_for(0, i) for i in range(50)] == [
            b.lifetime_for(0, i) for i in range(50)
        ]


class TestHalvingSchedule:
    def test_cohort_halving_counts_are_exact(self):
        cohort = 1024
        schedule = HalvingSchedule(cohort)
        # Deaths aligned to boundaries after cohort completion; count
        # how many objects of the cohort survive m boundaries.
        survive_counts = {}
        for position in range(cohort):
            lifetime = schedule.lifetime_for(position, position)
            death = position + 1 + lifetime  # mutator's death clock
            boundaries = death // cohort - 1  # boundaries survived
            survive_counts[boundaries] = (
                survive_counts.get(boundaries, 0) + 1
            )
        # Exactly half die at the first boundary after completion, a
        # quarter at the next, and so on.
        assert survive_counts[1] == 512
        assert survive_counts[2] == 256
        assert survive_counts[3] == 128
        assert survive_counts[9] == 2  # 1 with tz=9 plus the 1024th

    def test_deaths_are_boundary_aligned(self):
        cohort = 64
        schedule = HalvingSchedule(cohort)
        for clock in range(0, 5 * cohort, 7):
            lifetime = schedule.lifetime_for(clock, clock)
            assert (clock + 1 + lifetime) % cohort == 0

    def test_rejects_tiny_cohort(self):
        with pytest.raises(ValueError):
            HalvingSchedule(1)


class TestSyntheticSchedules:
    def test_fixed(self):
        schedule = FixedLifetimeSchedule(7)
        assert schedule.lifetime_for(0, 0) == 7
        with pytest.raises(ValueError):
            FixedLifetimeSchedule(0)

    def test_uniform_range(self):
        schedule = UniformLifetimeSchedule(10, 20, seed=1)
        samples = [schedule.lifetime_for(0, i) for i in range(500)]
        assert all(10 <= sample < 20 for sample in samples)
        with pytest.raises(ValueError):
            UniformLifetimeSchedule(5, 5)

    def test_weibull_shape_one_is_exponential(self):
        # k=1 Weibull == exponential with mean = scale.
        scale = 200.0
        schedule = WeibullSchedule(scale, 1.0, seed=2)
        samples = [schedule.lifetime_for(0, i) for i in range(20_000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(scale, rel=0.05)

    def test_weibull_shape_changes_tail(self):
        # Decreasing hazard (k<1) has a heavier tail than increasing
        # hazard (k>1) at the same scale.
        light = WeibullSchedule(100.0, 3.0, seed=3)
        heavy = WeibullSchedule(100.0, 0.5, seed=3)
        light_tail = sum(
            1 for i in range(5_000) if light.lifetime_for(0, i) > 300
        )
        heavy_tail = sum(
            1 for i in range(5_000) if heavy.lifetime_for(0, i) > 300
        )
        assert heavy_tail > light_tail

    def test_weibull_validation(self):
        with pytest.raises(ValueError):
            WeibullSchedule(0.0, 1.0)
        with pytest.raises(ValueError):
            WeibullSchedule(1.0, -1.0)

    def test_bimodal_mixture(self):
        schedule = BimodalSchedule(0.9, 10, 10_000.0, seed=4)
        samples = [schedule.lifetime_for(0, i) for i in range(10_000)]
        young = sum(1 for sample in samples if sample <= 10)
        assert young == pytest.approx(9_000, rel=0.05)

    def test_bimodal_validation(self):
        with pytest.raises(ValueError):
            BimodalSchedule(1.5, 10, 100.0)
        with pytest.raises(ValueError):
            BimodalSchedule(0.5, 0, 100.0)


class TestPhasedSchedule:
    def test_non_churn_objects_die_at_phase_end(self):
        schedule = PhasedSchedule(
            1_000, churn_fraction=0.0, carryover_fraction=0.0, seed=5
        )
        for clock in (0, 1, 500, 998):
            lifetime = schedule.lifetime_for(clock, clock)
            assert clock + lifetime < 1_000 + clock % 1_000 + 1_000
            # Death lands at the phase boundary minus one word.
            assert clock + lifetime == 999

    def test_carryover_extends_one_phase(self):
        no_carry = PhasedSchedule(
            1_000, churn_fraction=0.0, carryover_fraction=0.0, seed=6
        )
        carry = PhasedSchedule(
            1_000, churn_fraction=0.0, carryover_fraction=1.0, seed=6
        )
        assert (
            carry.lifetime_for(100, 0)
            == no_carry.lifetime_for(100, 0) + 1_000
        )

    def test_churn_objects_die_fast(self):
        schedule = PhasedSchedule(
            10_000, churn_fraction=1.0, churn_lifetime=50, seed=7
        )
        for index in range(100):
            assert schedule.lifetime_for(0, index) <= 50

    def test_phase_of(self):
        schedule = PhasedSchedule(100)
        assert schedule.phase_of(0) == 0
        assert schedule.phase_of(99) == 0
        assert schedule.phase_of(100) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasedSchedule(0)
        with pytest.raises(ValueError):
            PhasedSchedule(100, churn_fraction=2.0)
        with pytest.raises(ValueError):
            PhasedSchedule(100, carryover_fraction=-0.1)
        with pytest.raises(ValueError):
            PhasedSchedule(100, churn_lifetime=0)
