"""No handle survives in Python garbage.

A :class:`~repro.runtime.values.Ref` roots its object for as long as
CPython counts a reference to it, so a handle caught in a Python
reference cycle is a root until the cycle collector happens to run —
which depends on everything the process allocated before.  That is how
nboyer's traced words came to differ between a serial and a ``--jobs 2``
regeneration of Table 3: ``one_way_unify`` built a pair of mutually
recursive closures per call, a function↔cell cycle owning the
substitution, and every handle bound in a failed match leaked into the
root set.

The ports must therefore build no cycle that owns a handle, or the
machine: with the cycle collector off and ``DEBUG_SAVEALL`` set, a run
that is then dropped must leave nothing for ``gc.collect()`` to find
that is a ``Ref`` or refers to one.
"""

from __future__ import annotations

import gc

import pytest

from repro.gc.registry import GcGeometry, collector_factory
from repro.programs.registry import benchmark_names, get_benchmark
from repro.runtime.machine import Machine
from repro.runtime.values import Ref


def holds_a_handle(obj: object) -> bool:
    # type(), not isinstance(): a dead weakref.proxy (the flat spaces
    # hold one to their heap) raises on any attribute lookup.
    return type(obj) is Ref or any(
        type(referent) is Ref for referent in gc.get_referents(obj)
    )


@pytest.mark.parametrize("name", benchmark_names())
def test_program_leaves_no_handle_in_garbage(name):
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        machine = Machine(
            collector_factory("stop-and-copy", GcGeometry().scaled(4, 1))
        )
        get_benchmark(name).run(machine, 0)
        # Dropped, not kept: a cycle that owns the machine owns its
        # handle table (and keeps the heap's arenas from being freed).
        del machine
        gc.collect()
        leaked = [obj for obj in gc.garbage if holds_a_handle(obj)]
        assert not leaked, (
            f"{len(leaked)} of {len(gc.garbage)} objects in reference "
            f"cycles hold a handle, e.g. {leaked[:3]!r}"
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
