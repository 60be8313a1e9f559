"""Hit ≡ miss: the allocation fast path changes no observable.

:class:`~repro.runtime.machine.Machine`'s constructors allocate straight
into ``collector.bump_space`` while ``bump_space.used + n <=
collector.bump_limit`` and enter the collector (``allocate_id``)
otherwise.  The collector's promise is that on a hit ``_reserve(n)``
would have returned that space and done nothing else, so a run that
takes every hit and a run that takes none must leave the same heap, the
same collector state, the same work accounting (pause log included: the
tri-color collectors' slices and the hybrid's §8.3 valve fire at the
same clocks) and the same operation count.

The all-miss run is made from here — an allocation hook zeroes
``bump_limit`` after every allocation, so the next one misses — because
``src/`` has, by design, no switch for it.
"""

from __future__ import annotations

import pytest

from repro.gc.collector import HeapExhausted
from repro.gc.hybrid import HybridCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.programs.registry import benchmark_names, get_benchmark
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum

#: The committed benchmark's geometry (10dynamic fits non-predictive's
#: steps; nboyer outgrows the kinds whose spaces do not grow, and must
#: do so at the same word either way).
PROGRAM_GEOMETRY = GcGeometry().scaled(4, 1)

#: Small enough that a few hundred rounds of :func:`churn` fill the
#: nursery, renumber steps, flip semispaces and open mark cycles.
SMALL_GEOMETRY = GcGeometry(
    nursery_words=64,
    semispace_words=512,
    step_words=64,
    step_count=8,
    slice_budget=8,
)


class Run:
    """One machine, its (successful) misses counted, optionally with
    every allocation forced to be one."""

    def __init__(self, factory, backend: str, *, all_miss: bool) -> None:
        self.machine = machine = Machine(factory, heap_backend=backend)
        collector = machine.collector
        self.misses = 0
        allocate_id = collector.allocate_id

        def counted(*args):
            obj_id = allocate_id(*args)  # may raise HeapExhausted
            self.misses += 1
            return obj_id

        collector.allocate_id = counted
        if all_miss:
            machine.add_allocation_hook(
                lambda obj_id: setattr(collector, "bump_limit", 0)
            )

    def observe(self) -> dict:
        machine = self.machine
        return {
            "heap": machine.heap.export_state(),
            "collector": machine.collector.export_state(),
            "stats": machine.stats.export_state(),
            "operations": machine.operations,
        }

    def close(self) -> None:
        closer = getattr(self.machine.collector, "close", None)
        if closer is not None:
            closer()


def both_ways(factory, backend: str, scenario) -> tuple[Run, Run]:
    """Run ``scenario(machine)`` taking every hit, then taking none;
    assert the two runs cannot be told apart and return them."""
    runs = []
    seen = []
    for all_miss in (False, True):
        run = Run(factory, backend, all_miss=all_miss)
        try:
            try:
                outcome = repr(scenario(run.machine))
            except HeapExhausted as error:
                outcome = f"exhausted: {error}"
            seen.append({"outcome": outcome, **run.observe()})
        finally:
            run.close()
        runs.append(run)
    took_hits, all_misses = seen
    for key in took_hits:
        assert all_misses[key] == took_hits[key], key
    # The forcing forced: no allocation of the second run was a hit.
    assert runs[1].misses == runs[1].machine.stats.objects_allocated
    return runs[0], runs[1]


def churn(machine: Machine, rounds: int, keep: int = 12) -> list:
    """A deterministic mutator: pairs, vectors of four lengths and
    flonums, initialising and later pointer stores, pointer deletions,
    reads, and a sliding window of survivors."""
    live: list = []
    for i in range(rounds):
        older = live[(i * 5) % len(live)] if live and i % 3 else None
        pair = machine.cons(Fixnum(i % 50), older)
        vector = machine.make_vector(i % 4, pair if i % 2 else None)
        x = machine.make_flonum(i / 8)
        machine.set_car(pair, machine.fl_add(x, x))
        if machine.vector_length(vector):
            machine.vector_set(vector, 0, x)
        live.append(machine.cons(vector, pair))
        if len(live) > keep:
            victim = live.pop((i * 7) % len(live))
            machine.set_cdr(victim, None)
            machine.car(victim)
    return live


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
@pytest.mark.parametrize("name", benchmark_names())
def test_program_hit_equals_miss(name, kind, backend):
    def program(machine: Machine):
        value = get_benchmark(name).run(machine, 0)
        machine.collect()
        return value

    took_hits, _ = both_ways(
        collector_factory(kind, PROGRAM_GEOMETRY), backend, program
    )
    # And the first run did take hits — most allocations, except under
    # the tri-color kinds, whose open cycles are misses by design.
    allocated = took_hits.machine.stats.objects_allocated
    assert took_hits.misses < allocated
    if kind not in ("incremental", "concurrent"):
        assert took_hits.misses * 10 < allocated


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", ("incremental", "concurrent"))
def test_cycle_opening_mid_run(kind, backend):
    """Hits up to the mark trigger, misses while the cycle is open,
    hits again once it has closed."""
    opened_at: list[int] = []

    def scenario(machine: Machine):
        collector = machine.collector
        live = []
        for _ in range(6):
            live = churn(machine, 40)
            if collector.cycle_open:
                opened_at.append(machine.clock)
                assert collector.bump_limit == 0
        return live

    took_hits, _ = both_ways(
        collector_factory(kind, SMALL_GEOMETRY), backend, scenario
    )
    assert opened_at
    assert took_hits.machine.stats.collections >= 2
    assert 0 < took_hits.misses < took_hits.machine.stats.objects_allocated


@pytest.mark.parametrize("backend", ["flat"])
def test_non_predictive_mark_sweep_mode_publishes_no_fast_path(backend):
    """Its step search is by size, so no limit is safe: every
    allocation is a miss, with or without the forcing."""

    def factory(heap, roots):
        return NonPredictiveCollector(
            heap, roots, 8, 64, algorithm="mark-sweep"
        )

    took_hits, _ = both_ways(
        factory, backend, lambda machine: churn(machine, 300)
    )
    stats = took_hits.machine.stats
    assert stats.collections >= 2
    assert took_hits.misses == stats.objects_allocated
    assert took_hits.machine.collector.bump_limit == 0


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_around_full_collect_to_static(kind, backend):
    """The promotion empties the dynamic spaces behind the collector's
    back; the next allocation must be a miss that re-reads them."""

    def scenario(machine: Machine):
        live = churn(machine, 60)
        promoted = machine.full_collect_to_static()
        assert machine.collector.bump_limit == 0
        del live
        return promoted, churn(machine, 120)

    both_ways(collector_factory(kind, SMALL_GEOMETRY), backend, scenario)


@pytest.mark.parametrize("backend", ["flat"])
@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_collections_requested_from_outside(kind, backend):
    """``collector.collect()`` (and the hybrid's ``collect_nursery()``)
    called between allocations flip semispaces, move the allocation
    step, grow heaps and open or close cycles: each leaves no fast path
    behind."""

    def scenario(machine: Machine):
        collector = machine.collector
        live = []
        for i in range(8):
            live.append(churn(machine, 25))
            if isinstance(collector, HybridCollector) and i % 2:
                collector.collect_nursery()
            else:
                collector.collect()
            assert collector.bump_limit == 0
            del live[: i % 3]
        return live

    took_hits, _ = both_ways(
        collector_factory(kind, SMALL_GEOMETRY), backend, scenario
    )
    assert took_hits.machine.stats.collections >= 8
