"""The radioactive-decay workload (Section 2's model, executable).

:class:`DecaySchedule` draws each object's lifetime independently from
the exponential distribution with half-life ``h``; driving a collector
with it realizes the radioactive decay model exactly (memoryless,
no distinguishing characteristics).  :class:`HalvingSchedule` is the
deterministic idealization used by Table 1: within each cohort of
``cohort_words`` allocation, exactly half the storage survives each
subsequent cohort boundary — the "nicer numbers" the paper uses for
its worked example.
"""

from __future__ import annotations

import math
import random

from repro.core.decay import RadioactiveDecayModel

__all__ = ["DecaySchedule", "HalvingSchedule"]


class DecaySchedule:
    """I.i.d. exponential lifetimes with the given half-life."""

    def __init__(self, half_life: float, *, seed: int = 0) -> None:
        self.model = RadioactiveDecayModel(half_life)
        self.seed = seed
        self._rng = random.Random(seed)
        # log of the survival ratio, hoisted out of the per-object
        # sampling loop.  The division below matches
        # RadioactiveDecayModel.sample_discrete_lifetime exactly, so the
        # lifetime stream is bit-identical to the uncached form.
        self._log_r = math.log(self.model.survival_ratio)

    def reseed(self, seed: int) -> None:
        """Restart the lifetime stream deterministically from ``seed``."""
        self.seed = seed
        self._rng = random.Random(seed)

    def lifetime_for(self, clock: int, index: int) -> int:
        # Inlined RadioactiveDecayModel.sample_discrete_lifetime with
        # the cached log term (see __init__).
        u = self._rng.random()
        lifetime = int(math.ceil(math.log(1.0 - u) / self._log_r))
        return 1 if lifetime < 1 else lifetime


class HalvingSchedule:
    """Deterministic cohort-halving lifetimes (Table 1's idealization).

    Objects are grouped into cohorts of ``cohort_words`` consecutive
    words of allocation.  Every object's death is aligned to a cohort
    boundary *after its cohort completes*: within each cohort, exactly
    half the objects survive one boundary, a quarter survive two, and
    so on.  Any mix of survivors therefore continues to halve at every
    boundary — the memorylessness of the decay model, made exact.

    The assignment uses the trailing-zeros trick: the ``i``-th object
    of a cohort survives ``trailing_zeros(i + 1) + 1`` boundaries,
    which makes the per-cohort counts exactly 1/2, 1/4, ... of the
    cohort.  (It assumes unit-size objects, so index-within-cohort and
    word-within-cohort coincide.)
    """

    def __init__(self, cohort_words: int) -> None:
        if cohort_words < 2:
            raise ValueError(
                f"cohort must be at least 2 words, got {cohort_words!r}"
            )
        self.cohort_words = cohort_words

    def lifetime_for(self, clock: int, index: int) -> int:
        cohort = self.cohort_words
        position = clock % cohort
        survives = ((position + 1) & -(position + 1)).bit_length()  # ntz + 1
        # Death at the boundary `survives` cohorts after this cohort
        # completes; the lifetime is measured from the allocation clock.
        completion = cohort - position
        return completion + survives * cohort - 1

