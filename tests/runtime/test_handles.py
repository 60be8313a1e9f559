"""Handle liveness: a ``Ref`` roots its object exactly while Python
code holds it.

The machine keeps one interned ``Ref`` per object and reads CPython's
own reference count when a collection enumerates roots, so the property
to pin is the one a ``__del__``-maintained table gave for free: whatever
kind of Python object holds a handle, the object is a root; the moment
the last holder lets go, it is not — with no help from CPython's cycle
collector (off for every test here).
"""

from __future__ import annotations

import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.flat import HeapError
from repro.runtime.machine import (
    Machine,
    _idle_refcount,
    _measure_idle,
    _rooted_ids,
)
from repro.runtime.values import Fixnum, Ref
from repro.trace.collector import TracingCollector

#: A nursery of a few dozen words: allocation-triggered collections
#: strike while a read's result is still a temporary of the caller.
SMALL_GEOMETRY = GcGeometry(
    nursery_words=32, semispace_words=512, step_words=64, step_count=8
)
SPINE_SLOTS = 6


def _suspended_frame(ref):
    yield ref


def hold_in_local(ref):
    """A local of a live frame: a generator suspended with ``ref`` in it."""
    frame = _suspended_frame(ref)
    next(frame)
    return frame


def hold_in_closure(ref):
    return lambda: ref


def hold_in_default(ref):
    def function(value=ref):
        return value

    return function


class Box:
    pass


def hold_in_attribute(ref):
    box = Box()
    box.ref = ref
    return box


#: Every way Python code keeps an object: each returns the *holder*,
#: and dropping the holder must drop the handle by reference count.
HOLDERS = {
    "local": hold_in_local,
    "list": lambda ref: [ref],
    "dict": lambda ref: {"value": ref},
    "closure": hold_in_closure,
    "attribute": hold_in_attribute,
    "default": hold_in_default,
}

ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["alloc", "alloc", "chain", "hold", "hold", "drop", "reread",
             "weak", "collect"]
        ),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(sorted(HOLDERS)),
    ),
    max_size=120,
)


class Program:
    """Interprets actions against a machine and the model: the list of
    ``(holder, obj_id)`` this test still keeps.  Methods leave no handle
    in a local of a frame that outlives them."""

    def __init__(self, backend: str) -> None:
        self.machine = Machine(
            collector_factory("generational", SMALL_GEOMETRY),
            heap_backend=backend,
        )
        #: Every object the program allocates hangs off this vector.
        self.spine = self.machine.make_vector(SPINE_SLOTS)
        self.holders: list = []

    def read(self, slot: int, depth: int):
        """The object ``depth`` cdrs down the list in ``slot``."""
        machine = self.machine
        value = machine.vector_ref(self.spine, slot % SPINE_SLOTS)
        for _ in range(depth % 4):
            if not isinstance(value, Ref):
                break
            value = machine.cdr(value)
        return value

    def alloc(self, slot: int, chain: bool) -> None:
        machine = self.machine
        slot %= SPINE_SLOTS
        # The old list is a temporary of this call while cons allocates.
        machine.vector_set(
            self.spine,
            slot,
            machine.cons(
                Fixnum(slot),
                machine.vector_ref(self.spine, slot) if chain else None,
            ),
        )

    def hold(self, slot: int, depth: int, how: str) -> None:
        value = self.read(slot, depth)
        if isinstance(value, Ref):
            self.holders.append((HOLDERS[how](value), value.obj_id))

    def drop(self, index: int) -> None:
        if self.holders:
            self.holders.pop(index % len(self.holders))

    def reread(self, slot: int, depth: int) -> None:
        first = self.read(slot, depth)
        if isinstance(first, Ref):
            assert self.read(slot, depth) is first
            assert self.machine._handles[first.obj_id] is first

    def weak(self, slot: int, depth: int) -> None:
        value = self.read(slot, depth)
        if not isinstance(value, Ref):
            return
        obj_id = value.obj_id
        watcher = weakref.ref(value)
        del value
        held = obj_id in self.model_ids()
        assert (obj_id in set(self.machine.roots.ids())) == held
        # The enumeration forgot the entry, and the handle went with it.
        assert (watcher() is not None) == held

    def model_ids(self) -> set:
        return {self.spine.obj_id} | {obj_id for _, obj_id in self.holders}

    def check(self) -> None:
        machine = self.machine
        expected = self.model_ids()
        assert set(machine.roots.ids()) == expected
        assert machine.handle_count == len(expected)
        # A held handle never dangles, whatever was collected meanwhile.
        assert not machine.heap.dangling_ids(expected)


@pytest.mark.parametrize("backend", ["flat"])
@given(actions=ACTIONS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_rooted_ids_are_exactly_the_held_handles(backend, no_cycle_gc, actions):
    program = Program(backend)
    program.check()
    for opcode, a, b, how in actions:
        if opcode in ("alloc", "chain"):
            program.alloc(a, opcode == "chain")
        elif opcode == "hold":
            program.hold(a, b, how)
        elif opcode == "drop":
            program.drop(a)
        elif opcode == "reread":
            program.reread(a, b)
        elif opcode == "weak":
            program.weak(a, b)
        else:
            program.machine.collect()
        program.check()
    # Letting go of everything leaves the spine alone.
    program.holders.clear()
    program.check()


@pytest.mark.parametrize("how", sorted(HOLDERS))
def test_each_holder_roots_and_releases(how, no_cycle_gc):
    machine = Machine(TracingCollector)
    outer = machine.cons(machine.cons(None, None), None)
    holder = HOLDERS[how](machine.car(outer))
    inner_id = machine.heap.load_slot(outer.obj_id, 0)
    assert set(machine.roots.ids()) == {outer.obj_id, inner_id}
    del holder
    assert set(machine.roots.ids()) == {outer.obj_id}


def test_calibration_rejects_a_scan_that_holds_a_reference():
    """A scan holding its own reference to the probe reads one too many:
    one entry cannot show that it would hold every entry alike, and
    entries it did not hold would read idle while held."""

    def doctored(handles, idle):
        keep = list(handles.values())
        return _rooted_ids(handles, idle)

    with pytest.raises(RuntimeError, match="cannot root handles by reference"):
        _measure_idle(doctored)
    assert _measure_idle(_rooted_ids) == _idle_refcount()


def test_calibration_rejects_a_scan_that_roots_nothing():
    with pytest.raises(RuntimeError, match="cannot root handles by reference"):
        _measure_idle(lambda handles, idle: [])


@pytest.mark.parametrize("backend", ["flat"])
def test_stale_entry_of_a_freed_object_is_never_returned(backend, no_cycle_gc):
    """The table outlives what ``heap.free`` removes: a hit must not
    vouch for the id, the load does."""
    machine = Machine(TracingCollector, heap_backend=backend)
    inner = machine.cons(None, None)
    outer = machine.cons(inner, inner)
    vec = machine.make_vector(1, inner)
    inner_id = inner.obj_id
    del inner
    assert inner_id in machine._handles  # idle, not yet forgotten
    machine.heap.free(inner_id)
    for read in (
        lambda: machine.car(outer),
        lambda: machine.cdr(outer),
        lambda: machine.vector_ref(vec, 0),
    ):
        with pytest.raises(HeapError, match="dangling object id"):
            read()
    assert set(machine.roots.ids()) == {outer.obj_id, vec.obj_id}
    assert inner_id not in machine._handles


def test_handle_count_is_the_number_of_rooted_ids(no_cycle_gc):
    machine = Machine(TracingCollector)
    inner = machine.cons(None, None)
    outer = machine.cons(inner, None)
    machine.intern("a-symbol")
    again = machine.car(outer)
    assert again is inner
    assert machine.handle_count == len(set(machine.roots.ids())) == 3
    del inner
    assert machine.handle_count == 3  # ``again`` is the same handle
    del again
    assert machine.handle_count == len(set(machine.roots.ids())) == 2


def test_weakly_held_handle_is_not_a_root(no_cycle_gc):
    machine = Machine(TracingCollector)
    pair = machine.cons(None, None)
    obj_id = pair.obj_id
    watcher = weakref.ref(pair)
    del pair
    assert obj_id not in set(machine.roots.ids())
    assert watcher() is None
