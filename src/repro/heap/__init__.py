"""The simulated memory system: objects, spaces, roots, remembered sets."""

from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.flat import (
    FlatHeap,
    FlatSpace,
    HeapError,
    SpaceFull,
)
from repro.heap.remset import RememberedSet, SlotRef
from repro.heap.roots import Frame, RootSet

__all__ = [
    "FlatHeap",
    "FlatSpace",
    "Frame",
    "HeapError",
    "RememberedSet",
    "RootSet",
    "SlotRef",
    "SpaceFull",
    "WriteBarrier",
    "make_heap",
]
