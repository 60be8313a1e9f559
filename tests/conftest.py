"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import multiprocessing
import sys

import pytest

from repro.gc.concurrent import ConcurrentCollector
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.incremental import IncrementalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.runtime.machine import Machine
from repro.trace.collector import TracingCollector

# The Boyer benchmark's if-trees recurse deeply.
sys.setrecursionlimit(200_000)


@pytest.fixture
def heap() -> FlatHeap:
    return FlatHeap()


@pytest.fixture
def roots() -> RootSet:
    return RootSet()


@pytest.fixture
def new_workers():
    """Callable: the child processes forked since the test began that
    are still alive.  Relative, not ``active_children()`` itself — an
    earlier test's dropped pool may still be winding its workers down."""
    before = set(multiprocessing.active_children())
    return lambda: set(multiprocessing.active_children()) - before


@pytest.fixture
def no_cycle_gc():
    """CPython's cycle collector off for one test.  A ``Ref`` caught in
    a Python reference cycle stops being a root when the cycle collector
    next runs, which depends on what the process allocated before
    (nboyer leaves such handles); with it off they stay roots to the
    end."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def tracing_machine() -> Machine:
    """A machine that never collects (unbounded tracing collector)."""
    return Machine(TracingCollector)


#: name -> factory usable with Machine(...), small heaps suited to tests.
COLLECTOR_FACTORIES = {
    "mark-sweep": lambda heap, roots: MarkSweepCollector(heap, roots, 4_000),
    "stop-and-copy": lambda heap, roots: StopAndCopyCollector(
        heap, roots, 2_000
    ),
    "generational": lambda heap, roots: GenerationalCollector(
        heap, roots, [600, 2_400]
    ),
    "non-predictive": lambda heap, roots: NonPredictiveCollector(
        heap, roots, 8, 500
    ),
    "hybrid": lambda heap, roots: HybridCollector(heap, roots, 600, 8, 400),
    "incremental": lambda heap, roots: IncrementalCollector(
        heap, roots, 4_000, slice_budget=64
    ),
    "concurrent": lambda heap, roots: ConcurrentCollector(heap, roots, 4_000),
}


@pytest.fixture(params=sorted(COLLECTOR_FACTORIES))
def any_machine(request) -> Machine:
    """A machine parameterized over every collector kind."""
    return Machine(COLLECTOR_FACTORIES[request.param])
