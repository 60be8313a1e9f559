"""The plan-driven mutator is indistinguishable from per-object mutation.

``LifetimeDrivenMutator`` allocates only through allocation plans
(``repro.perf.plan``).  This file pins it against the per-object loop
it replaced, kept here as :class:`ReferenceMutator`: for every
collector, driven in one run, in many small runs of odd sizes and one
object at a time, the two leave the identical live graph, GcStats
counters, pause log, held ids and live count.  ``execute_plan`` (the
benchmark's timed region) is held to the same bar, and what a whole-run
plan leaves behind is also pinned in ``golden_plan_fingerprints.json``.
``golden_plan_collecting.json`` pins what many small runs on spaces
that collect 5-40 times leave behind (regenerate both with
``PYTHONPATH=src python -m tests.perf.test_plan``).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from pathlib import Path

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule, HalvingSchedule
from repro.perf.plan import build_allocation_plan, execute_plan, pop_due

WORDS = 20_000
HALF_LIFE = 500.0
GOLDEN_PATH = Path(__file__).with_name("golden_plan_fingerprints.json")
COLLECTING_PATH = Path(__file__).with_name("golden_plan_collecting.json")
#: Chunk sizes for the many-small-runs drive, cycled.
ODD_CHUNKS = (1, 7, 3, 331, 13, 97, 2, 1_009)
#: Spaces small enough that every kind collects 5-40 times in WORDS
#: (the stock geometry barely collects at this half-life).
SMALL = GcGeometry(
    nursery_words=512,
    semispace_words=2_048,
    step_words=256,
    step_count=8,
    slice_budget=32,
)


class ReferenceMutator:
    """The per-object mutator loop: one ``allocate_id`` per object."""

    def __init__(self, collector, roots, schedule, *, object_words=1):
        self.collector = collector
        self.schedule = schedule
        self.object_words = object_words
        self._frame = roots.push_frame()
        self._free_slots = []
        self._deaths = []
        self._allocated = 0

    @property
    def live_objects(self):
        return len(self._deaths)

    def step(self):
        """Release due objects, then allocate one object."""
        collector = self.collector
        clock = collector.heap.clock
        deaths = self._deaths
        slots = self._frame._cells
        free_slots = self._free_slots
        while deaths and deaths[0][0] <= clock:
            _, slot = heapq.heappop(deaths)
            slots[slot] = None
            free_slots.append(slot)
        words = self.object_words
        obj_id = collector.allocate_id(words)
        if free_slots:
            slot = free_slots.pop()
            slots[slot] = obj_id
        else:
            slots.append(obj_id)
            slot = len(slots) - 1
        lifetime = self.schedule.lifetime_for(clock, self._allocated)
        if lifetime <= 0:
            raise ValueError(
                f"schedule produced non-positive lifetime {lifetime!r}"
            )
        heapq.heappush(deaths, (clock + words + lifetime, slot))
        self._allocated += 1

    def run(self, words):
        heap = self.collector.heap
        target = heap.clock + words
        while heap.clock < target:
            self.step()

    def release_due(self):
        self._release(self.collector.heap.clock)

    def release_all(self):
        self._release(float("inf"))

    def _release(self, clock):
        while self._deaths and self._deaths[0][0] <= clock:
            _, slot = heapq.heappop(self._deaths)
            self._frame.set(slot, None)
            self._free_slots.append(slot)

    def held_ids(self):
        return list(self._frame.ids())


class ListSchedule:
    """Lifetimes from a fixed list, cycled."""

    def __init__(self, lifetimes):
        self.lifetimes = lifetimes

    def lifetime_for(self, clock, index):
        return self.lifetimes[index % len(self.lifetimes)]


def _fingerprint(heap):
    rows = []
    for space in heap.spaces():
        for oid in space.object_ids():
            rows.append((
                oid,
                heap.size_of(oid),
                heap.birth_of(oid),
                heap.kind_of(oid),
                space.name,
            ))
    return sorted(rows)


def _build(cls, kind, schedule, *, geometry=None, object_words=1):
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, geometry)(heap, roots)
    return heap, cls(collector, roots, schedule, object_words=object_words)


def _observed(heap, mutator):
    """What a run leaves, then what the deaths due at its end free."""
    collector = mutator.collector
    seen = [
        _fingerprint(heap),
        collector.stats.snapshot(),
        collector.stats.pauses,
        mutator.held_ids(),
        mutator.live_objects,
    ]
    mutator.release_due()
    return seen + [mutator.held_ids(), mutator.live_objects]


def _reference(
    kind, words=WORDS, *, geometry=SMALL, object_words=1, schedule=None
):
    heap, mutator = _build(
        ReferenceMutator,
        kind,
        schedule or DecaySchedule(HALF_LIFE, seed=0),
        geometry=geometry,
        object_words=object_words,
    )
    mutator.run(words)
    return _observed(heap, mutator)


def _one_run(mutator):
    mutator.run(WORDS)


def _small_runs(mutator):
    heap = mutator.collector.heap
    for chunk in itertools.cycle(ODD_CHUNKS):
        left = WORDS - heap.clock
        if left <= 0:
            break
        mutator.run(min(chunk, left))


def _one_object_at_a_time(mutator):
    for _ in range(WORDS):
        mutator.run_objects(1)


DRIVES = {
    "one-run": _one_run,
    "small-runs": _small_runs,
    "one-object-runs": _one_object_at_a_time,
}


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_mutator_matches_reference_loop(kind, drive):
    heap, mutator = _build(
        LifetimeDrivenMutator,
        kind,
        DecaySchedule(HALF_LIFE, seed=0),
        geometry=SMALL,
    )
    DRIVES[drive](mutator)
    assert _observed(heap, mutator) == _reference(kind)


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_clock_driven_schedule_matches_reference_loop(kind):
    # Table 1's halving schedule reads the clock it is handed.
    heap, mutator = _build(
        LifetimeDrivenMutator, kind, HalvingSchedule(256), geometry=SMALL
    )
    _small_runs(mutator)
    assert _observed(heap, mutator) == _reference(
        kind, schedule=HalvingSchedule(256)
    )


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_multiword_objects_match_reference_loop(kind):
    heap, mutator = _build(
        LifetimeDrivenMutator,
        kind,
        DecaySchedule(HALF_LIFE, seed=0),
        geometry=SMALL,
        object_words=3,
    )
    for chunk in ODD_CHUNKS:
        mutator.run(chunk * 3)
    words = 3 * sum(ODD_CHUNKS)
    assert _observed(heap, mutator) == _reference(
        kind, words, object_words=3
    )


@pytest.mark.parametrize("geometry", [None, SMALL], ids=["stock", "small"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_execute_plan_matches_reference_loop(kind, geometry):
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, geometry)(heap, roots)
    plan = build_allocation_plan(DecaySchedule(HALF_LIFE, seed=0), WORDS)
    frame = execute_plan(collector, plan)
    graph, snapshot, pauses, held = _reference(kind, geometry=geometry)[:4]
    assert _fingerprint(heap) == graph
    assert collector.stats.snapshot() == snapshot
    assert collector.stats.pauses == pauses
    assert list(frame.ids()) == held


def _held(mutator):
    """The live count and the held ids in slot order."""
    return mutator.live_objects, mutator.held_ids()


def _clock_jumps(mutator):
    """Runs with another 5-word allocation between each, so several
    death clocks fall due at once when the next run starts."""
    collector = mutator.collector
    heap = collector.heap
    seen = []
    for chunk in itertools.cycle(ODD_CHUNKS):
        if heap.clock >= WORDS:
            return seen
        mutator.run(chunk * mutator.object_words)
        collector.allocate_id(5, 0, "data")
        seen.append(_held(mutator))


def _releases_between_runs(mutator):
    """Runs with ``release_due`` after every other one and
    ``release_all`` after every eighth; the runs then go on from the
    freed slots."""
    heap = mutator.collector.heap
    seen = []
    for number, chunk in enumerate(itertools.cycle(ODD_CHUNKS)):
        if heap.clock >= WORDS:
            return seen
        mutator.run(chunk)
        seen.append(_held(mutator))
        if number % 8 == 7:
            mutator.release_all()
            seen.append(_held(mutator))
        elif number % 2:
            mutator.release_due()
            seen.append(_held(mutator))


CARRIED_DRIVES = {
    "clock-jumps": (_clock_jumps, 1),
    "clock-jumps-3-words": (_clock_jumps, 3),
    "releases-between-runs": (_releases_between_runs, 1),
}


@pytest.mark.parametrize("drive", sorted(CARRIED_DRIVES))
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_carried_state_matches_reference_loop(kind, drive):
    drive, object_words = CARRIED_DRIVES[drive]
    seen = []
    for cls in (LifetimeDrivenMutator, ReferenceMutator):
        heap, mutator = _build(
            cls,
            kind,
            DecaySchedule(HALF_LIFE, seed=0),
            geometry=SMALL,
            object_words=object_words,
        )
        seen.append((drive(mutator), _observed(heap, mutator)))
    assert seen[0] == seen[1]


#: Every kind on spaces too small for the workload, with nothing to
#: grow into, so a run of immortal objects ends in HeapExhausted.
TINY = GcGeometry(
    nursery_words=128,
    semispace_words=256,
    step_words=64,
    step_count=4,
    auto_expand=False,
)


def _exhausted(cls, kind, drive):
    heap, mutator = _build(
        cls, kind, ListSchedule([7, 50_000, 3]), geometry=TINY
    )
    with pytest.raises(HeapExhausted):
        drive(mutator)
    assert mutator.collector.stats.collections > 0
    return (
        heap.clock,
        mutator.collector.stats.snapshot(),
        mutator.held_ids(),
    )


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_heap_exhaustion_matches_reference_loop(kind, drive):
    assert _exhausted(LifetimeDrivenMutator, kind, DRIVES[drive]) == (
        _exhausted(ReferenceMutator, kind, _one_run)
    )


@pytest.mark.parametrize("words", [0, -5])
def test_empty_run_is_a_no_op(words):
    class Untouchable:
        def lifetime_for(self, clock, index):
            raise AssertionError("an empty run drew a lifetime")

    heap, mutator = _build(LifetimeDrivenMutator, "mark-sweep", Untouchable())
    mutator.run(words)
    mutator.run_objects(words)
    assert heap.clock == 0
    assert mutator.held_ids() == []
    assert mutator.collector.stats.snapshot()["objects_allocated"] == 0


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def plan_digest(kind) -> str:
    """SHA-256 of the heap and the counters a whole-run plan leaves."""
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, None)(heap, roots)
    plan = build_allocation_plan(DecaySchedule(HALF_LIFE, seed=0), WORDS)
    execute_plan(collector, plan)
    return _sha256(
        (_fingerprint(heap), sorted(collector.stats.snapshot().items()))
    )


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_plan_matches_golden_fingerprint(kind):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert plan_digest(kind) == golden[kind]


#: The schedules of the collecting golden, each driven through the
#: ``ODD_CHUNKS`` cycle on the ``SMALL`` geometry.
COLLECTING_SCHEDULES = {
    "decay": lambda: DecaySchedule(HALF_LIFE, seed=0),
    "halving": lambda: HalvingSchedule(256),
}


def collecting_record(schedule, kind) -> dict:
    """The live graph, counters and pause log of a collecting run."""
    heap, mutator = _build(
        LifetimeDrivenMutator,
        kind,
        COLLECTING_SCHEDULES[schedule](),
        geometry=SMALL,
    )
    _small_runs(mutator)
    stats = mutator.collector.stats
    return {
        "graph_sha256": _sha256(_fingerprint(heap)),
        "pauses_sha256": _sha256(stats.pauses),
        "stats": stats.snapshot(),
    }


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
@pytest.mark.parametrize("schedule", sorted(COLLECTING_SCHEDULES))
def test_collecting_runs_match_golden(schedule, kind):
    golden = json.loads(COLLECTING_PATH.read_text())
    assert collecting_record(schedule, kind) == golden[schedule][kind]


@pytest.mark.parametrize(
    "after, clock", [(0, 4), (2, 6), (0, 50), (3, float("inf"))]
)
def test_pop_due_releases_in_heap_order(after, clock):
    # Few enough deaths that (0, 50] walks the sorted keys and (0, 4]
    # and (2, 6] walk the clocks one by one.
    scheduled = [(1, 4), (4, 9), (4, 2), (5, 7), (5, 0), (5, 3), (9, 1)]
    deaths: dict[int, list[int]] = {}
    for death, slot in scheduled:
        deaths.setdefault(death, []).append(slot)
    heap = sorted(pair for pair in scheduled if pair[0] > after)
    expected = [slot for death, slot in heap if death <= clock]
    assert pop_due(deaths, after, clock) == expected
    left = [slot for death, slot in heap if death > clock]
    assert pop_due(deaths, after, float("inf")) == left
    # Deaths at or before ``after`` are not the walk's to release.
    assert sorted(deaths) == sorted({d for d, _ in scheduled if d <= after})


class TestBuildPlan:
    def test_replicates_slot_choreography(self):
        schedule = DecaySchedule(50.0, seed=3)
        plan = build_allocation_plan(schedule, 200)
        assert plan.total_objects == 200
        assert plan.total_words == 200
        assert len(plan.releases) == 200
        assert len(plan.store_slots) == 200
        # Slots are reused (LIFO), so the frame stays far below one
        # slot per allocation at this short half-life.
        assert plan.slot_count < 200
        assert max(plan.store_slots) == plan.slot_count - 1
        # A slot freed before allocation i is never still held at i.
        live: set[int] = set()
        for released, stored in zip(plan.releases, plan.store_slots):
            for slot in released:
                live.discard(slot)
            assert stored not in live
            live.add(stored)

    def test_rounds_word_budget_up_to_whole_objects(self):
        plan = build_allocation_plan(
            DecaySchedule(50.0, seed=0), 100, object_words=8
        )
        assert plan.total_objects == 13
        assert plan.total_words == 104

    def test_rejects_bad_budgets(self):
        schedule = DecaySchedule(50.0, seed=0)
        with pytest.raises(ValueError):
            build_allocation_plan(schedule, 0)
        with pytest.raises(ValueError):
            build_allocation_plan(schedule, 100, object_words=0)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.write_text(
        json.dumps(
            {kind: plan_digest(kind) for kind in COLLECTOR_KINDS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    COLLECTING_PATH.write_text(
        json.dumps(
            {
                schedule: {
                    kind: collecting_record(schedule, kind)
                    for kind in COLLECTOR_KINDS
                }
                for schedule in COLLECTING_SCHEDULES
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} and {COLLECTING_PATH}")
