"""Exact work counts of the paper's programs on ``runtime.machine``.

``golden_program_counts.json`` was captured at the commit *before*
handles were interned (PR 18), when a ``Ref`` rooted its object by a
count kept in ``__init__``/``__del__``.  Root enumeration order is
observable — a copying collector evacuates in the order it meets the
roots — so a change to the rooting model that moved a death time or an
order-sensitive count by one word fails here in seconds, not in a 30 s
benchmark round.  Re-pinned once since, deliberately (PR 22), when the
ports stopped leaking handles into Python reference cycles: the nboyer
rows (their old values were the leak itself) and nucleic2's, whose final
collection no longer traces three candidate transforms (183 words) that
a recursive closure kept rooted after the search returned.

Cells: ``lattice``, ``nbody``, ``10dynamic`` and ``nucleic2`` at scale 0
under all seven kinds, at a quarter of the stock
geometry (nbody, 10dynamic and nucleic2 then collect 2 to 99 times a
cell; lattice fits the nursery and pins the mutator's counts); each pins
``[words_allocated, words_traced, collections, max_pause_work,
operations, repr(result)]``.  A cell that outgrows a collector whose
spaces do not grow pins the ``HeapExhausted`` text instead of the
result.  The benchmark's own ``nboyer`` cells are pinned too, and run
after no, one and five warm-up passes with CPython's cycle collector
*on*: the counts must not depend on what the process did before (they
did while ``one_way_unify`` leaked handles into reference cycles; see
``test_no_handle_garbage.py``).  Keys end in the name of the heap they
were captured on (``/flat``), the only one there is.

Regenerate (only when the *intended* semantics change):
``PYTHONPATH=src python -m tests.runtime.test_program_counts``.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.programs.registry import get_benchmark
from repro.runtime.machine import Machine

GOLDEN_PATH = Path(__file__).with_name("golden_program_counts.json")
GEOMETRY = GcGeometry().scaled(1, 4)
EXACT_PROGRAMS = ("lattice", "nbody", "10dynamic", "nucleic2")
#: The benchmark's own nboyer cells.
NBOYER_KINDS = ("stop-and-copy", "generational")


def run_cell(program: str, kind: str, backend: str) -> list:
    """What ``bench/programs.py`` calls a cell: the program at scale 0,
    then one final full collection."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 200_000))
    machine = Machine(collector_factory(kind, GEOMETRY), heap_backend=backend)
    try:
        try:
            result = repr(get_benchmark(program).run(machine, 0))
            machine.collect()
        except HeapExhausted as error:
            result = f"exhausted: {error}"
        stats = machine.stats
        return [
            stats.words_allocated,
            stats.words_traced,
            stats.collections,
            stats.max_pause_work,
            machine.operations,
            result,
        ]
    finally:
        closer = getattr(machine.collector, "close", None)
        if closer is not None:
            closer()


def capture() -> dict:
    cells = [(program, COLLECTOR_KINDS) for program in EXACT_PROGRAMS]
    cells.append(("nboyer", NBOYER_KINDS))
    return {
        f"{program}/{kind}/flat": run_cell(program, kind, "flat")
        for program, kinds in cells
        for kind in kinds
    }


GOLDEN = {} if __name__ == "__main__" else json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
@pytest.mark.parametrize("program", EXACT_PROGRAMS)
def test_counts_match_golden(program, kind, backend):
    assert run_cell(program, kind, backend) == GOLDEN[
        f"{program}/{kind}/{backend}"
    ]


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", NBOYER_KINDS)
def test_nboyer_counts_match_golden(kind, backend):
    assert gc.isenabled()
    for warm_up_passes in (0, 1, 5):
        # What ``bench/programs.py`` warms up with: nbody under every
        # kind.  It shifts when the cycle collector next runs.
        for _ in range(warm_up_passes):
            for warm_kind in COLLECTOR_KINDS:
                run_cell("nbody", warm_kind, "flat")
        assert run_cell("nboyer", kind, backend) == GOLDEN[
            f"nboyer/{kind}/{backend}"
        ], f"after {warm_up_passes} warm-up passes"


def test_golden_covers_every_cell():
    assert len(GOLDEN) == (
        len(EXACT_PROGRAMS) * len(COLLECTOR_KINDS) + len(NBOYER_KINDS)
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
