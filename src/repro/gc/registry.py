"""The collector registry: one catalogue of every collector kind.

Every surface that enumerates collectors — the CLI, the differential
verifier, the benchmark matrix, the chaos harness, the metrics sweep —
used to carry its own list of kinds and its own construction if-chain.
This module is now the single source of truth: :data:`COLLECTOR_KINDS`
names every kind, :func:`make_collector` builds one from a
:class:`GcGeometry`, and :func:`collector_factory` wraps that as the
``Machine``-compatible ``(heap, roots) -> Collector`` callable.

Adding a collector means adding it here (a name, an ``elif`` arm) and
regenerating the golden artifacts; every registry consumer picks it up
without edits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.gc.collector import Collector
from repro.gc.concurrent import ConcurrentCollector
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.incremental import IncrementalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet

__all__ = [
    "COLLECTOR_KINDS",
    "GcGeometry",
    "collector_factory",
    "make_collector",
]

#: Every collector kind the registry can build, in canonical order.
#: "mark-sweep" stays first: the differential and budget-invariance
#: suites use it as the reference implementation.
COLLECTOR_KINDS: tuple[str, ...] = (
    "mark-sweep",
    "stop-and-copy",
    "generational",
    "non-predictive",
    "hybrid",
    "incremental",
    "concurrent",
)


@dataclass(frozen=True)
class GcGeometry:
    """Scaled-down heap geometry for the Table 3 experiment.

    The paper used a 1 MB youngest generation over programs with
    1-10 MB peaks; the simulator default keeps a comparable
    nursery-to-peak ratio at word scale.
    """

    nursery_words: int = 8_192
    semispace_words: int = 16_384
    step_words: int = 4_096
    step_count: int = 8
    load_factor: float = 2.0
    #: The paper adjusted the generational collector's dynamic area
    #: "to ensure that the generational collector would touch a little
    #: less storage than the stop-and-copy collector"; a lighter load
    #: factor on the oldest generation is that adjustment.
    gen_oldest_load_factor: float = 3.0
    #: Mark words per incremental slice; ``None`` drains the whole
    #: wavefront in one pause (the degenerate stop-the-world budget).
    slice_budget: int | None = 64
    #: Worker processes for the concurrent collector's marker; ``0``
    #: runs the marker inline at the handoff, which is the
    #: deterministic reference mode the oracles replay.
    marker_workers: int = 0
    #: Grow spaces by the load factor when live storage crowds them.
    #: ``False`` pins the geometry: allocation beyond it surfaces as a
    #: graceful :class:`~repro.gc.collector.HeapExhausted` — the mode
    #: the multi-tenant service runs, where one tenant outgrowing its
    #: lease must get backpressure rather than more of the host's
    #: memory.  (The non-predictive and hybrid collectors have fixed
    #: step arenas and already behave this way.)
    auto_expand: bool = True

    def scaled(
        self, numerator: int, denominator: int, *, floor: int = 64
    ) -> "GcGeometry":
        """This geometry with every space scaled by a rational factor.

        The multi-tenant service hosts thousands of heaps per process;
        each tenant gets the default shape shrunk (or grown) by
        ``numerator/denominator``, with ``floor`` words as the minimum
        space size so tiny tenants still fit their largest objects.
        The slice budget scales too (floored at 8 words) so the
        incremental collector's pause/throughput trade-off keeps its
        proportions at any scale; step count, load factors, and marker
        workers are shape, not size, and pass through unchanged.
        """
        if numerator < 1 or denominator < 1:
            raise ValueError(
                f"scale must be a positive rational, got "
                f"{numerator}/{denominator}"
            )

        def scale(words: int) -> int:
            return max(floor, words * numerator // denominator)

        budget = self.slice_budget
        if budget is not None:
            budget = max(8, budget * numerator // denominator)
        return replace(
            self,
            nursery_words=scale(self.nursery_words),
            semispace_words=scale(self.semispace_words),
            step_words=scale(self.step_words),
            slice_budget=budget,
        )


def make_collector(
    kind: str,
    heap: FlatHeap,
    roots: RootSet,
    geometry: GcGeometry,
) -> Collector:
    """Build one collector of ``kind`` over ``heap`` with ``geometry``."""
    # The single-space kinds share §5's sizing rule and the geometry's
    # word for whether it may grow.
    sizing = {
        "load_factor": geometry.load_factor,
        "auto_expand": geometry.auto_expand,
    }
    if kind == "mark-sweep":
        return MarkSweepCollector(
            heap, roots, 2 * geometry.semispace_words, **sizing
        )
    if kind == "stop-and-copy":
        return StopAndCopyCollector(
            heap, roots, geometry.semispace_words, **sizing
        )
    if kind == "generational":
        return GenerationalCollector(
            heap,
            roots,
            [geometry.nursery_words, 4 * geometry.nursery_words],
            oldest_load_factor=geometry.gen_oldest_load_factor,
            auto_expand_oldest=geometry.auto_expand,
        )
    if kind == "non-predictive":
        return NonPredictiveCollector(
            heap, roots, geometry.step_count, geometry.step_words
        )
    if kind == "hybrid":
        return HybridCollector(
            heap,
            roots,
            geometry.nursery_words,
            geometry.step_count,
            geometry.step_words,
        )
    if kind == "incremental":
        # Same total capacity as mark-sweep, so pause comparisons
        # between the two measure incrementality, not heap size.
        return IncrementalCollector(
            heap,
            roots,
            2 * geometry.semispace_words,
            slice_budget=geometry.slice_budget,
            **sizing,
        )
    if kind == "concurrent":
        # The incremental geometry with the mark phase off-thread, so
        # pause comparisons between the two measure concurrency.
        return ConcurrentCollector(
            heap,
            roots,
            2 * geometry.semispace_words,
            marker_workers=geometry.marker_workers,
            **sizing,
        )
    raise ValueError(f"unknown collector kind {kind!r}")


def collector_factory(
    kind: str, geometry: GcGeometry | None = None
) -> Callable[[FlatHeap, RootSet], Collector]:
    """A machine-compatible factory for one of the registered collectors."""
    geometry = geometry if geometry is not None else GcGeometry()

    def build(heap: FlatHeap, roots: RootSet) -> Collector:
        return make_collector(kind, heap, roots, geometry)

    return build
