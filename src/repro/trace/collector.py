"""A non-collecting "collector" used for lifetime measurement runs.

Lifetime measurement must observe deaths without a real collection
policy interfering, so measurement runs use this collector: a single
unbounded space, no automatic collections.  The
:class:`~repro.trace.recorder.LifetimeRecorder` reclaims unreachable
objects itself at epoch boundaries (so memory stays bounded) and logs
their death times.
"""

from __future__ import annotations

from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet

__all__ = ["TracingCollector"]


class TracingCollector(Collector):
    """Unbounded allocation, no policy: the measurement substrate."""

    name = "tracing"

    def __init__(self, heap: FlatHeap, roots: RootSet) -> None:
        super().__init__(heap, roots)
        self.space = heap.add_space("trace-heap", None)

    def _reserve(self, size: int) -> FlatSpace:
        return self.space

    def managed_spaces(self) -> None:
        """Unknown by design: the LifetimeRecorder frees objects behind
        this collector's back at epoch boundaries, so the auditor's
        stats-conservation check cannot apply."""
        return None

    def collect(self) -> None:
        """Reclaim unreachable objects without any work accounting.

        Provided so that mutator-requested full collections (some
        benchmarks call them between phases) behave sensibly during a
        measurement run; the recorder's own epoch sweeps are the usual
        reclamation path.
        """
        reached = self.heap.reachable_from(self.roots.ids())
        self.heap.partition_space(self.space, reached)
