"""Barrier before store, on every mutator store path.

A snapshot-at-the-beginning collector's barrier shades the value a
store *overwrites*, so it must run while the slot still holds that
value.  Run after the write, it shades the new referent instead, and
only a tri-color run that happens to depend on the lost edge notices.
Here the order is pinned on its own: the collector below checks, inside
its barrier hook, that the slot still holds what it held before the
operation, on every path that stores — the machine's ``cons``,
``set_car``/``set_cdr``, ``vector_set`` and ``make_vector``'s fill, and
the replay interpreter's ``store``.
"""

from __future__ import annotations

import pytest

from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum
from repro.trace.collector import TracingCollector
from repro.verify.replay import ReplayContext


class RecordingCollector(TracingCollector):
    """A collector whose barrier hook asserts the slot's *old* value.

    ``armed`` maps ``(src_id, slot)`` to the value the slot held before
    the operation under test; a slot not armed is a fresh one, which
    holds ``None``.  Every hook call is recorded in ``seen``.
    """

    def __init__(self, heap, roots) -> None:
        super().__init__(heap, roots)
        self.armed: dict[tuple[int, int], object] = {}
        self.seen: list[tuple[int, int, int | None]] = []

    def arm(self, src_id: int, slot: int) -> None:
        self.armed[src_id, slot] = self.heap.load_slot(src_id, slot)

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        old = self.armed.get((src_id, slot))
        now = self.heap.load_slot(src_id, slot)
        assert now == old, (
            f"barrier for slot {slot} of object {src_id} ran after the "
            f"write: the slot holds {now!r}, not its old value {old!r}"
        )
        self.seen.append((src_id, slot, target_id))


@pytest.fixture
def machine() -> Machine:
    return Machine(RecordingCollector)


class TestMachineStores:
    @pytest.mark.parametrize(
        "fields", ["pointer", "immediate-pointer", "pointer-immediate",
                   "immediate"]
    )
    def test_cons(self, machine, fields):
        # An immediate field has no barrier call, so a pointer field
        # next to one must still see its slot's old value.
        collector = machine.collector
        target = machine.cons(None, None)
        car, cdr = {
            "pointer": (target, target),
            "immediate-pointer": (Fixnum(7), target),
            "pointer-immediate": (target, Fixnum(3)),
            "immediate": (Fixnum(7), True),
        }[fields]
        pair = machine.cons(car, cdr)
        heap = machine.heap
        expected = [
            (pair.obj_id, slot, target.obj_id)
            for slot, value in enumerate((car, cdr))
            if value is target
        ]
        assert collector.seen == expected
        assert heap.slots_of(pair.obj_id) == [
            value.obj_id if value is target else value
            for value in (car, cdr)
        ]

    @pytest.mark.parametrize("slot", [0, 1])
    def test_set_car_and_set_cdr(self, machine, slot):
        collector = machine.collector
        old = machine.cons(None, None)
        new = machine.cons(None, None)
        pair = machine.cons(old, old)
        setter = (machine.set_car, machine.set_cdr)[slot]
        for value, target_id in (
            (new, new.obj_id),
            (Fixnum(5), None),
            (None, None),
            (old, old.obj_id),
        ):
            collector.arm(pair.obj_id, slot)
            collector.seen.clear()
            setter(pair, value)
            assert collector.seen == [(pair.obj_id, slot, target_id)]
        assert machine.heap.load_slot(pair.obj_id, slot) == old.obj_id

    def test_vector_set(self, machine):
        collector = machine.collector
        first = machine.cons(None, None)
        second = machine.cons(None, None)
        vector = machine.make_vector(3)
        for index, value, target_id in (
            (1, first, first.obj_id),
            (1, second, second.obj_id),
            (1, Fixnum(9), None),
            (2, first, first.obj_id),
        ):
            collector.arm(vector.obj_id, index)
            collector.seen.clear()
            machine.vector_set(vector, index, value)
            assert collector.seen == [(vector.obj_id, index, target_id)]
        assert machine.heap.slots_of(vector.obj_id) == [
            None, Fixnum(9), first.obj_id
        ]

    @pytest.mark.parametrize("fill", ["pointer", "immediate"])
    def test_make_vector_fill(self, machine, fill):
        collector = machine.collector
        target = machine.cons(None, None)
        value = target if fill == "pointer" else Fixnum(2)
        target_id = target.obj_id if fill == "pointer" else None
        vector = machine.make_vector(3, value)
        assert collector.seen == [
            (vector.obj_id, index, target_id) for index in range(3)
        ]


def test_replay_store():
    context = ReplayContext(RecordingCollector)
    collector = context.collector
    src = context.alloc(0, 3, 2)
    first = context.alloc(1, 1, 0)
    second = context.alloc(2, 1, 0)
    for slot, dst in ((0, first), (0, second), (1, first), (0, None)):
        collector.arm(src, slot)
        collector.seen.clear()
        context.store(src, slot, dst)
        assert collector.seen == [(src, slot, dst)]
    assert context.heap.slots_of(src) == [None, first]
