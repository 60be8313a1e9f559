"""The heap's name, for callers that pass one.

:class:`~repro.heap.flat.FlatHeap` is the only heap.  Its name,
``FlatHeap.backend_name == "flat"``, still travels in every snapshot
payload, every tenant ``open`` request and every ``<kind>/<backend>``
metric label, so wire bytes, digests and plan fingerprints read as
they always have.  :func:`make_heap` — and through it
``Machine(heap_backend=...)`` and ``TenantSession(backend=...)`` —
accepts that name and no other.
"""

from __future__ import annotations

from repro.heap.flat import FlatHeap

__all__ = ["make_heap"]


def make_heap(
    backend: str = FlatHeap.backend_name, *, checked: bool = False
) -> FlatHeap:
    """A fresh heap; ``checked`` arms the per-store dangling-id probe.

    Raises:
        ValueError: ``backend`` is not ``"flat"``.
    """
    if backend != FlatHeap.backend_name:
        raise ValueError(
            f"unknown heap backend {backend!r} "
            f"(known: {FlatHeap.backend_name})"
        )
    return FlatHeap(checked=checked)
