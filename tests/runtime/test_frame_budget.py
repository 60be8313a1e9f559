"""A frame budget for the mutator's unit operations.

On the allocation-bound programs a Python frame per operation is a few
percent of a run, but no wall-clock test can hold that line on a shared
host.  The number of Python frames an operation enters is exact and
repeatable, so it is pinned here, on the allocation fast path (the hit:
the collector is not entered) under every collector kind.  Before the
fast path ``make_flonum`` was 6 frames and ``fl_add`` 14; before the
machine indexed the heap's arenas itself ``cons`` was 7, ``fl_add`` 6
and ``car`` 2; before ``make_vector`` and a read's handle-table miss
interned the ``Ref`` in their own frame they were 4 and 3.  A count
going *up* means a helper call or a proxy crept back into the hot path
— raise the budget only with a measurement that pays for it.
"""

from __future__ import annotations

import sys

import pytest

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum

#: Python frames entered, the operation's own included.
BUDGET = {
    # cons, bump_allocate, Ref.__init__
    "cons": 3,
    # make_flonum, bump_allocate, Ref.__init__
    "make_flonum": 3,
    # make_vector, bump_allocate, Ref.__init__
    "make_vector": 3,
    # fl_add, then make_flonum's three
    "fl_add": 4,
    # The reads index the slot arena inline.
    "car": 1,
    "cdr": 1,
    "vector_ref": 1,
    # A read whose loaded id has no handle yet: the read and
    # Ref.__init__.
    "car_miss": 2,
    "cdr_miss": 2,
    "vector_ref_miss": 2,
    # The operation and _store, plus the collector's barrier hook
    # where it has one (STORES_ENTERING_THE_HOOK).
    "vector_set": 2,
    "set_cdr": 2,
}

#: Operations above that store an immediate through the write barrier.
#: They enter the collector's ``remember_store_id`` (one frame for an
#: immediate) unless the collector keeps the base class's no-op, which
#: the machine then skips.
STORES_ENTERING_THE_HOOK = ("vector_set", "set_cdr")
NO_OP_HOOK_KINDS = ("mark-sweep", "stop-and-copy")


def frames_entered(operation) -> list[str]:
    """The Python-level calls ``operation()`` makes, in order, itself
    not included."""
    entered: list[str] = []

    def profiler(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return entered[1:]


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_unit_operations_stay_within_their_frame_budget(
    kind, backend, no_cycle_gc
):
    # Cycle collector off: a collection inside the profiled window
    # would run other tests' finalizers and weakref callbacks in it.
    machine = Machine(
        collector_factory(kind, GcGeometry()), heap_backend=backend
    )
    one = Fixnum(1)
    # The first allocation is a miss (nothing is published yet) and the
    # first vector of a length takes the checked path; after these,
    # everything below is a hit.
    pair = machine.cons(one, None)
    x = machine.make_flonum(1.0)
    vector = machine.make_vector(3)
    # Every slot of ``outer`` and ``holder`` names ``missing``, whose
    # handle each miss below first drops from the table (as a sweep
    # drops an idle one) by a C call, which enters no frame.
    missing = machine.cons(one, None)
    outer = machine.cons(missing, missing)
    holder = machine.make_vector(3, missing)
    missing_id = missing.obj_id
    del missing
    forget = machine._handles.pop

    misses = 0
    allocate_id = machine.collector.allocate_id

    def counted(*args):
        nonlocal misses
        misses += 1
        return allocate_id(*args)

    machine.collector.allocate_id = counted
    measured = {
        "cons": frames_entered(lambda: machine.cons(one, None)),
        "make_flonum": frames_entered(lambda: machine.make_flonum(2.0)),
        "make_vector": frames_entered(lambda: machine.make_vector(3)),
        "fl_add": frames_entered(lambda: machine.fl_add(x, x)),
        "car": frames_entered(lambda: machine.car(pair)),
        "cdr": frames_entered(lambda: machine.cdr(pair)),
        "vector_ref": frames_entered(lambda: machine.vector_ref(vector, 2)),
        "car_miss": frames_entered(
            lambda: (forget(missing_id), machine.car(outer))
        ),
        "cdr_miss": frames_entered(
            lambda: (forget(missing_id), machine.cdr(outer))
        ),
        "vector_ref_miss": frames_entered(
            lambda: (forget(missing_id), machine.vector_ref(holder, 2))
        ),
        "vector_set": frames_entered(
            lambda: machine.vector_set(vector, 2, one)
        ),
        "set_cdr": frames_entered(lambda: machine.set_cdr(pair, None)),
    }
    assert misses == 0
    budget = dict(BUDGET)
    if kind not in NO_OP_HOOK_KINDS:
        for name in STORES_ENTERING_THE_HOOK:
            budget[name] += 1
    counts = {name: len(entered) for name, entered in measured.items()}
    assert counts == budget, measured
