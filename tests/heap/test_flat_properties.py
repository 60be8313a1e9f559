"""Seeded property tests for the flat struct-of-arrays heap.

The flat heap's lazy-deletion id tables and packed state words have
exactly the failure modes a copying collector does — stale forwarding
entries, position renumbering, interval sweeps over permuted id lists
— so each property here drives one of them with randomized workloads
against a model, with a seed to reproduce.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.harness import GcGeometry, collector_factory
from repro.heap.backend import make_heap
from repro.heap.flat import (
    _DETACHED,
    _TOKEN_MASK,
    FlatHeap,
    HeapError,
    SpaceFull,
)
from repro.verify.replay import generate_script
from repro.verify.replay import replay


def _resident_ids(space):
    return list(space.object_ids())


class TestArenaGrowth:
    """Arenas only grow; exhaustion of a space leaves the heap sound."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_alloc_free_cycles(self, seed):
        rng = random.Random(seed)
        heap = FlatHeap()
        space = heap.add_space("pool", capacity=64)
        live: list[int] = []
        exhaustions = 0
        for _ in range(400):
            arena = len(heap._hdr)
            size = rng.randint(1, 6)
            try:
                obj = heap.allocate_id(size, rng.randint(0, size), space)
            except SpaceFull:
                exhaustions += 1
                rng.shuffle(live)
                for oid in live[: len(live) // 2 + 1]:
                    heap.free(oid)
                del live[: len(live) // 2 + 1]
            else:
                live.append(obj)
                # Ids are append-only: the arena never shrinks and the
                # new object lands at its end.
                assert len(heap._hdr) == arena + 1
                assert obj == arena
            assert space.used <= 64
            heap.check_integrity()
        assert exhaustions > 0, "capacity never hit; workload too small"
        assert sorted(_resident_ids(space)) == sorted(live)

    def test_allocation_into_full_space_never_partially_commits(self):
        heap = FlatHeap()
        space = heap.add_space("pool", capacity=8)
        heap.allocate_id(8, 0, space)
        arena = len(heap._hdr)
        count = heap.object_count
        with pytest.raises(SpaceFull):
            heap.allocate_id(1, 0, space)
        assert len(heap._hdr) == arena
        assert heap.object_count == count
        heap.check_integrity()


class TestStateAliasing:
    """Stale id-table entries must never alias a live position."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_moves_keep_tables_consistent(self, seed):
        rng = random.Random(seed)
        heap = FlatHeap()
        spaces = [heap.add_space(f"s{i}", capacity=None) for i in range(4)]
        model: dict[int, int] = {}
        for i in range(120):
            obj = heap.allocate_id(1, 0, spaces[i % 4])
            model[obj] = i % 4
        for _ in range(60):
            movers = rng.sample(sorted(model), rng.randint(1, 20))
            target = rng.randrange(4)
            heap.move_ids(movers, spaces[target])
            for oid in movers:
                model[oid] = target
            heap.check_integrity()
            for index, space in enumerate(spaces):
                expected = {oid for oid, s in model.items() if s == index}
                assert set(_resident_ids(space)) == expected

    def test_wrong_space_claim_is_detected(self):
        # The stale-forward fault injector rewrites the space token of
        # an object's state word behind the heap's back; the auditor
        # must notice the accounting mismatch on the very next
        # integrity pass.
        heap = FlatHeap()
        home = heap.add_space("home", capacity=None)
        wrong = heap.add_space("wrong", capacity=None)
        obj = heap.allocate_id(2, 0, home)
        heap.allocate_id(1, 0, home)
        heap._state[obj] = heap._state[obj] & ~_TOKEN_MASK | wrong._token
        with pytest.raises(HeapError):
            heap.check_integrity()

    def test_detached_claim_is_detected(self):
        heap = FlatHeap()
        home = heap.add_space("home", capacity=None)
        obj = heap.allocate_id(1, 0, home)
        heap._state[obj] = _DETACHED
        with pytest.raises(HeapError):
            heap.check_integrity()


class TestRenumberingStability:
    """Sweeps renumber positions but never reorder survivors."""

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_sweeps_preserve_survivor_order(self, seed):
        rng = random.Random(seed)
        heap = FlatHeap()
        space = heap.add_space("region", capacity=None)
        other = heap.add_space("other", capacity=None)
        for _ in range(100):
            heap.allocate_id(1, 0, space)
        # Shuffle some residents through another space and back so the
        # id list is a non-trivial permutation, not a sorted run.
        out = rng.sample(list(space.object_ids()), 30)
        heap.move_ids(out, other)
        heap.move_ids(out, space)
        while space.object_count > 4:
            order = _resident_ids(space)
            marked = set(rng.sample(order, int(len(order) * 0.7)))
            survivors, _ = heap.partition_space(space, marked)
            assert survivors == _resident_ids(space)
            assert _resident_ids(space) == [
                oid for oid in order if oid in marked
            ]
            heap.check_integrity()

    def test_interval_sweep_requires_a_true_interval(self):
        # Regression: the one-slice kill of a fully-dead id range must
        # prove the id set *is* an interval.  Judging by the first and
        # last entries alone is fooled by a list like [5, 1, 2, 3, 9]:
        # the span 5..9 equals the length, yet zeroing it kills ids
        # 6-8 (residents of another space) and misses 1-3.
        heap = FlatHeap()
        other = heap.add_space("other", capacity=None)
        region = heap.add_space("region", capacity=None)
        for _ in range(5):
            heap.allocate_id(1, 0, other)  # ids 0-4
        heap.allocate_id(1, 0, region)  # id 5
        for _ in range(3):
            heap.allocate_id(1, 0, other)  # ids 6-8
        heap.move_ids([1, 2, 3], region)
        heap.allocate_id(1, 0, region)  # id 9 -> region lists [5,1,2,3,9]
        assert _resident_ids(region) == [5, 1, 2, 3, 9]
        _, reclaimed = heap.partition_space(region, set())
        assert reclaimed == 5
        heap.check_integrity()
        assert _resident_ids(region) == []
        assert set(_resident_ids(other)) == {0, 4, 6, 7, 8}

    def test_partition_of_permuted_ids(self):
        heap = FlatHeap()
        space = heap.add_space("region", capacity=None)
        other = heap.add_space("other", capacity=None)
        ids = [heap.allocate_id(1, 0, space) for _ in range(12)]
        heap.move_ids([ids[1], ids[7]], other)
        heap.move_ids([ids[7], ids[1]], space)
        order = _resident_ids(space)
        marked = set(ids[::3])
        survivors, reclaimed = heap.partition_space(space, marked)
        assert survivors == [oid for oid in order if oid in marked]
        assert reclaimed == len(ids) - len(survivors)
        heap.check_integrity()


#: Tiny generations so promotions (and remset migration) happen every
#: few allocations rather than once per script.
PROMOTION_GEOMETRY = GcGeometry(
    nursery_words=24,
    semispace_words=96,
    step_words=24,
    step_count=8,
)


class TestRemsetMigrationAcrossPromotion:
    """Checked-mode replays with promotion-heavy geometry: the audit
    revalidates remembered sets after every collection, so a barrier
    entry lost or left stale across a promotion fails the replay."""

    @pytest.mark.parametrize("seed", (1, 9, 23))
    @pytest.mark.parametrize("kind", ("generational", "hybrid"))
    def test_promotion_heavy_scripts_stay_sound(self, kind, seed):
        script = generate_script(250, seed, max_live_words=40)
        factory = collector_factory(kind, PROMOTION_GEOMETRY)
        result = replay(script, factory, checked=True, name=kind)
        assert result.collections > 0, "no collections; geometry too big"


# One heap-building step: ``(op, a, b)``.  Indices pick among the
# current residents modulo their number, so every generated step is
# applicable (or a no-op on an empty space).
_STEP = st.one_of(
    # allocate: a = size, b = bit 0 into the swept space (else the
    # other one), bit 1 carries a payload, bit 2 holds the clock still
    st.tuples(st.just("alloc"), st.integers(1, 4), st.integers(0, 7)),
    st.tuples(st.just("free"), st.integers(0, 63), st.just(0)),
    st.tuples(st.just("move-out"), st.integers(0, 63), st.just(0)),
    st.tuples(st.just("move-in"), st.integers(0, 63), st.just(0)),
    st.tuples(st.just("color"), st.integers(0, 63), st.integers(1, 2)),
    st.tuples(st.just("round-trip"), st.just(0), st.just(0)),
)

_IN, _PAYLOAD, _STILL = 1, 2, 4


def _epoch_heap(backend, before, after):
    """Build a heap, open a mark epoch between the two step lists, and
    return ``(heap, swept_space, epoch)``."""
    heap = make_heap(backend)
    space = heap.add_space("swept", None)
    other = heap.add_space("other", None)
    pre_epoch: list[int] = []

    def apply(step, in_epoch):
        op, a, b = step
        if op == "alloc":
            obj = heap.allocate_id(
                a,
                0,
                space if b & _IN else other,
                advance_clock=not b & _STILL,
            )
            if b & _PAYLOAD:
                heap.set_payload(obj, f"p{obj}")
            if not in_epoch:
                pre_epoch.append(obj)
        elif op == "free":
            ids = list(space.object_ids())
            if ids:
                heap.free(ids[a % len(ids)])
        elif op == "move-out":
            ids = list(space.object_ids())
            if ids:
                heap.move_ids([ids[a % len(ids)]], other)
        elif op == "move-in":
            ids = list(other.object_ids())
            if ids:
                heap.move_ids([ids[a % len(ids)]], space)
        elif op == "color":
            # Only ids the epoch's color arena covers can be recolored.
            ids = [oid for oid in pre_epoch if heap.contains_id(oid)]
            if in_epoch and ids:
                heap.set_color(ids[a % len(ids)], b)
        elif op == "round-trip":
            heap.import_state(json.loads(json.dumps(heap.export_state())))

    for step in before:
        apply(step, False)
    heap.begin_mark_epoch()
    epoch = heap.clock
    for step in after:
        apply(step, True)
    return heap, space, epoch


class TestSweepEpochKernel:
    """``sweep_epoch`` frees exactly the white, pre-epoch, unmarked
    residents — checked against the two-pass sweep it replaced."""

    @pytest.mark.parametrize("backend", ["flat"])
    @given(
        before=st.lists(_STEP, max_size=30),
        after=st.lists(_STEP, max_size=30),
        marked_picks=st.sets(st.integers(0, 63), max_size=8),
        epoch_shift=st.sampled_from([0, 0, 0, -2, 3]),
    )
    # bump allocation on both sides of the epoch: the wholesale path
    @example(
        before=[("alloc", 2, _IN)] * 6,
        after=[("color", 1, 2), ("color", 4, 1)] + [("alloc", 1, _IN)] * 5,
        marked_picks={0},
        epoch_shift=0,
    )
    # stale lazy-deletion entries
    @example(
        before=[("alloc", 1, _IN)] * 5 + [("free", 1, 0), ("move-out", 2, 0)],
        after=[("alloc", 1, _IN), ("free", 0, 0)],
        marked_picks=set(),
        epoch_shift=0,
    )
    # payload objects
    @example(
        before=[("alloc", 2, _IN | _PAYLOAD), ("alloc", 1, _IN)],
        after=[("alloc", 1, _IN | _PAYLOAD)],
        marked_picks=set(),
        epoch_shift=0,
    )
    # an object moved into the space mid-epoch: newborns not a suffix
    @example(
        before=[("alloc", 3, 0), ("alloc", 1, _IN)],
        after=[("alloc", 1, _IN), ("move-in", 0, 0), ("alloc", 1, _IN)],
        marked_picks=set(),
        epoch_shift=0,
    )
    # empty prefix, empty suffix, and nothing at all
    @example(
        before=[], after=[("alloc", 1, _IN)] * 3,
        marked_picks=set(), epoch_shift=0,
    )
    @example(
        before=[("alloc", 1, _IN)] * 3, after=[("color", 0, 2)],
        marked_picks={2}, epoch_shift=0,
    )
    @example(before=[], after=[], marked_picks=set(), epoch_shift=0)
    # a clock held still across the epoch: born at the epoch, yet
    # inside the color arena
    @example(
        before=[("alloc", 1, _IN), ("alloc", 1, _IN | _STILL)],
        after=[("alloc", 1, _IN)],
        marked_picks=set(),
        epoch_shift=0,
    )
    # an epoch that is not the color arena's
    @example(
        before=[("alloc", 1, _IN)] * 4,
        after=[("alloc", 1, _IN)] * 4,
        marked_picks=set(),
        epoch_shift=3,
    )
    @example(
        before=[("alloc", 1, _IN)] * 4,
        after=[("alloc", 1, _IN)] * 4,
        marked_picks=set(),
        epoch_shift=-2,
    )
    # ... with an id past the arena's end listed among the old ones
    @example(
        before=[("alloc", 1, _IN)] * 2 + [("alloc", 1, 0)] * 2,
        after=[("alloc", 1, 0), ("alloc", 1, _IN)]
        + [("move-in", 0, 0)] * 2
        + [("alloc", 1, 0)] * 2
        + [("alloc", 1, _IN)] * 2,
        marked_picks=set(),
        epoch_shift=3,
    )
    # round-tripped through export_state/import_state mid-cycle
    @example(
        before=[("alloc", 1, _IN)] * 4 + [("free", 0, 0)],
        after=[("color", 1, 2), ("alloc", 2, _IN), ("round-trip", 0, 0)],
        marked_picks={1},
        epoch_shift=0,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_two_pass_reference(
        self, backend, before, after, marked_picks, epoch_shift
    ):
        heap, space, epoch = _epoch_heap(backend, before, after)
        twin, twin_space, _ = _epoch_heap(backend, before, after)
        epoch += epoch_shift
        order = list(space.object_ids())
        assert order == list(twin_space.object_ids())
        marked = {order[pick % len(order)] for pick in marked_picks if order}

        keep = {
            oid
            for oid in order
            if twin.color_of(oid) or twin.birth_of(oid) >= epoch
        }
        _, expected = twin.partition_space(twin_space, keep | marked)

        assert heap.sweep_epoch(space, epoch, marked) == expected
        assert list(space.object_ids()) == list(twin_space.object_ids())
        assert list(space.object_ids()) == [
            oid for oid in order if oid in keep or oid in marked
        ]
        assert space.used == twin_space.used
        assert space.object_count == twin_space.object_count
        assert heap.object_count == twin.object_count
        heap.check_integrity()
        twin.check_integrity()
        assert heap._payloads == twin._payloads

    def test_bump_allocated_epoch_is_swept_wholesale(self, monkeypatch):
        # A count, not a timing: the shape every windowed benchmark
        # run has — residents in id order, newborns a suffix — must
        # classify only the pre-epoch prefix, and a mover that breaks
        # the shape must fall back to the per-entry loop.
        verdicts = []
        original = FlatHeap._splits_at_epoch

        def spy(self, old, new, epoch):
            verdict = original(self, old, new, epoch)
            verdicts.append((len(old), len(new), verdict))
            return verdict

        monkeypatch.setattr(FlatHeap, "_splits_at_epoch", spy)
        bump = [("alloc", 1, _IN)]
        heap, space, epoch = _epoch_heap("flat", bump * 6, bump * 5)
        assert heap.sweep_epoch(space, epoch) == 6
        heap, space, epoch = _epoch_heap(
            "flat",
            [("alloc", 1, 0)] + bump * 6,
            bump * 5 + [("move-in", 0, 0)],
        )
        assert heap.sweep_epoch(space, epoch) == 7
        assert verdicts == [(6, 5, True), (6, 6, False)]
