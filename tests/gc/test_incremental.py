"""Tests for the incremental tri-color mark/sweep collector.

Three layers:

* unit tests of the slicing machinery — cycles open at the trigger,
  slices respect the budget (to object granularity), allocation
  stays black, the SATB barrier grays overwritten referents;
* the degenerate-budget sanity check — ``slice_budget=None`` behaves
  exactly like stop-the-world mark-sweep;
* seeded mutation storms: random stores, root drops, and collections
  interleaved mid-mark must never lose an object an independent BFS
  over the roots can still reach.
"""

from __future__ import annotations

import random

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.incremental import BLACK, GRAY, WHITE, IncrementalCollector
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.roots import RootSet


def setup(heap_words=100, backend="flat", **kwargs):
    heap = make_heap(backend)
    roots = RootSet()
    collector = IncrementalCollector(heap, roots, heap_words, **kwargs)
    return heap, roots, collector


def link(heap, barrier, src, slot, dst):
    """One mutator pointer store, through the write barrier."""
    barrier.on_store(src, slot, dst)
    heap.store_slot(src, slot, dst)


class TestSlicing:
    def test_cycle_opens_at_trigger(self):
        _, roots, collector = setup(heap_words=100, trigger_fraction=0.5)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        assert collector.cycles_opened == 1
        assert collector.space.used > 0

    def test_slices_bound_work_to_budget(self):
        _, roots, collector = setup(
            heap_words=400, slice_budget=8, trigger_fraction=0.25
        )
        frame = roots.push_frame()
        for _ in range(40):
            frame.push(collector.allocate_id(4))
        # Every slice marked at most budget + one object of overshoot
        # (work granularity is a whole object).
        for pause in collector.stats.pauses:
            if pause.kind == "slice":
                assert pause.work <= 8 + 4
        assert collector.slices_run > 0

    def test_unbounded_budget_drains_wavefront_in_one_slice(self):
        # budget=None degenerates to stop-the-world marking: every
        # slice drains the whole wavefront, so the gray stack is empty
        # at every allocation boundary (the cycle itself stays open
        # until heap pressure or an explicit collect closes it).
        _, roots, collector = setup(heap_words=100, slice_budget=None)
        frame = roots.push_frame()
        for _ in range(30):
            frame.push(collector.allocate_id(4))
        assert not collector.gray_stack
        assert collector.cycles_opened >= 1

    def test_allocation_during_cycle_is_black(self):
        heap, roots, collector = setup(heap_words=200, slice_budget=1)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        newborn = collector.allocate_id(4)
        frame.push(newborn)
        # Born after the epoch opened: survives the cycle close
        # unconditionally, without ever being colored or scanned.
        assert heap.birth_of(newborn) >= collector.epoch_clock
        collector.collect()
        assert heap.contains_id(newborn)

    def test_explicit_collect_closes_cycle(self):
        _, roots, collector = setup(heap_words=200, slice_budget=1)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        collector.collect()
        assert not collector.cycle_open
        assert not collector.gray_stack

    def test_exhaustion_without_expand(self):
        _, roots, collector = setup(heap_words=12, auto_expand=False)
        frame = roots.push_frame()
        for _ in range(6):
            frame.push(collector.allocate_id(2))
        with pytest.raises(HeapExhausted):
            collector.allocate_id(2)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            setup(slice_budget=0)
        with pytest.raises(ValueError):
            setup(slice_budget=-3)


class TestSatbBarrier:
    def test_overwritten_referent_is_grayed(self):
        heap, roots, collector = setup(heap_words=400, slice_budget=1)
        barrier = WriteBarrier(collector.remember_store_id)
        frame = roots.push_frame()
        holder = collector.allocate_id(4, 2)
        victim = collector.allocate_id(4)
        frame.push(holder)
        link(heap, barrier, holder, 0, victim)
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        # Sever the only edge mid-cycle; the deletion barrier must
        # gray the old referent if it predates the epoch.
        was_white = heap.color_of(victim) == WHITE
        link(heap, barrier, holder, 0, None)
        if was_white:
            assert heap.color_of(victim) == GRAY
            assert victim in collector.gray_stack
        assert collector.satb_grays >= 1
        # SATB keeps the snapshot referent alive through this cycle.
        collector.collect()
        assert heap.contains_id(victim)

    def test_barrier_is_noop_outside_cycle(self):
        heap, roots, collector = setup(heap_words=400)
        barrier = WriteBarrier(collector.remember_store_id)
        frame = roots.push_frame()
        holder = collector.allocate_id(4, 2)
        victim = collector.allocate_id(4)
        frame.push(holder)
        link(heap, barrier, holder, 0, victim)
        link(heap, barrier, holder, 0, None)
        assert collector.satb_grays == 0
        assert not collector.gray_stack

    def test_floating_garbage_dies_next_cycle(self):
        heap, roots, collector = setup(heap_words=400, slice_budget=1)
        barrier = WriteBarrier(collector.remember_store_id)
        frame = roots.push_frame()
        holder = collector.allocate_id(4, 2)
        victim = collector.allocate_id(4)
        frame.push(holder)
        link(heap, barrier, holder, 0, victim)
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        link(heap, barrier, holder, 0, None)
        collector.collect()   # victim floats (SATB snapshot)
        collector.collect()   # precise from a quiescent heap
        assert not heap.contains_id(victim)


def bfs_reachable(heap, roots, space):
    """Independent oracle: in-space ids reachable from the roots."""
    seen = set()
    stack = [
        ref for ref in roots.ids() if heap.space_if_live(ref) is space
    ]
    while stack:
        oid = stack.pop()
        if oid in seen:
            continue
        seen.add(oid)
        for _slot, ref in heap.ref_slots(oid):
            if heap.space_if_live(ref) is space:
                stack.append(ref)
    return seen


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("seed", [0, 7, 13, 42])
class TestMutationStorm:
    """Random stores mid-mark never lose a reachable object."""

    def test_storm_preserves_bfs_reachability(self, backend, seed):
        heap, roots, collector = setup(
            heap_words=256, backend=backend, slice_budget=2,
            trigger_fraction=0.3,
        )
        barrier = WriteBarrier(collector.remember_store_id)
        rng = random.Random(seed)
        frame = roots.push_frame()
        live = []
        for step in range(400):
            action = rng.randrange(10)
            if action < 4 or not live:
                obj = collector.allocate_id(rng.choice((3, 4)), 2)
                frame.push(obj)
                live.append(obj)
            elif action < 7 and len(live) >= 2:
                src = rng.choice(live)
                dst = rng.choice(live + [None])
                slot = rng.randrange(heap.slot_count_of(src))
                link(heap, barrier, src, slot, dst)
            elif action < 9 and len(live) > 4:
                # Drop a root (the object may stay reachable via heap
                # edges made above).
                live.remove(rng.choice(live))
                dropped = frame
                kept = [o for o in live]
                roots.pop_frame(dropped)
                frame = roots.push_frame()
                for obj in kept:
                    frame.push(obj)
            else:
                collector.collect()
            # The invariant under test, at every step: everything the
            # independent BFS can reach is still resident.
            reachable = bfs_reachable(heap, roots, collector.space)
            resident = set(collector.space.object_ids())
            missing = reachable - resident
            assert not missing, (
                f"step {step}: reachable ids {sorted(missing)} "
                f"not resident (backend {backend}, seed {seed})"
            )
        # Quiesce: two collections reach the precise resident set.
        collector.collect()
        collector.collect()
        reachable = bfs_reachable(heap, roots, collector.space)
        assert set(collector.space.object_ids()) == reachable


class TestColorEncoding:
    """The heap's tri-color API."""

    @pytest.mark.parametrize("backend", ["flat"])
    def test_colors_roundtrip_and_reset(self, backend):
        heap, roots, collector = setup(heap_words=64, backend=backend)
        obj = collector.allocate_id(4)
        assert heap.color_of(obj) == WHITE
        # Colors are writable only within a mark epoch (the epoch
        # sizes the color arena).
        heap.begin_mark_epoch()
        heap.set_color(obj, GRAY)
        assert heap.color_of(obj) == GRAY
        heap.set_color(obj, BLACK)
        assert heap.color_of(obj) == BLACK
        # A new epoch whitens everything.
        heap.begin_mark_epoch()
        assert heap.color_of(obj) == WHITE
