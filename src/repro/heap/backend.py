"""Heap backend selection: one contract, two representations.

A *heap backend* is anything that implements the heap contract the
seven collectors are written against:

* the public object surface of
  :class:`repro.heap.heap.SimulatedHeap` — spaces, ``allocate`` /
  ``free`` / ``move`` / ``get``, field access, ``reachable_from``,
  ``check_integrity``, ``occupancy``;
* the shared collection kernels — ``allocate_id``, ``trace_region``,
  ``cheney_evacuate``, ``free_unmarked``, ``partition_space``,
  ``extract_live``, ``extract_all``, ``place_id``, ``move_ids``,
  ``count_slot_refs_into`` — and
* the id-level accessors, the one currency between the heap and its
  clients.  The collectors' half: ``size_of``, ``birth_of``,
  ``slot_count_of``, ``slots_of``, ``ref_slots``, ``space_if_live``,
  ``slot_ref``.  The mutator's half (:mod:`repro.runtime.machine`
  builds no object handle per access): ``kind_of`` (which is also the
  dangling-id test ``get`` makes), ``payload_of`` / ``set_payload``,
  ``load_slot`` (bounds-checked), ``load_ref`` (``load_slot`` plus
  ``kind_of``'s dangling-id test on a reference value, in one call:
  what the machine's slot reads use, because the handle they return
  may come from a table that outlives the object) and ``store_slot``
  (bounds-checked, and probing for dangling ids in checked mode);
  ``read_slot`` and ``write_slot`` are their object-taking delegates.

Two backends exist:

``object``
    :class:`~repro.heap.heap.SimulatedHeap` — one Python object per
    heap object.  Simple, and the historical reference semantics.
``flat``
    :class:`~repro.heap.flat.FlatHeap` — struct-of-arrays arenas
    indexed by id.  Several times faster on allocation; proven
    byte-identical to ``object`` by the differential backend
    equivalence suite (``repro.verify`` with a backend axis).

Every run picks its backend once, here: the ``--heap-backend`` CLI
flag wins, then the ``REPRO_HEAP_BACKEND`` environment variable, then
the default (``flat``).  Tests that poke at backend internals
construct :class:`SimulatedHeap`/:class:`FlatHeap` directly.
"""

from __future__ import annotations

import os

from repro.heap.flat import FlatHeap
from repro.heap.heap import SimulatedHeap

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "HEAP_BACKENDS",
    "default_backend_name",
    "make_heap",
    "resolve_backend_name",
]

#: Recognised backend names, in documentation order.
HEAP_BACKENDS: tuple[str, ...] = ("object", "flat")

#: The backend used when neither the CLI nor the environment says
#: otherwise.  ``flat`` — the equivalence suite holds, so the fast
#: representation is the default.
DEFAULT_BACKEND = "flat"

#: Environment variable consulted by :func:`default_backend_name`.
ENV_BACKEND = "REPRO_HEAP_BACKEND"

_BACKENDS = {"object": SimulatedHeap, "flat": FlatHeap}


def resolve_backend_name(name: str | None) -> str:
    """Normalize and validate a backend name (None → default)."""
    if name is None:
        return default_backend_name()
    name = name.strip().lower()
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown heap backend {name!r} (known: {known})")
    return name


def default_backend_name() -> str:
    """The backend to use absent an explicit choice.

    Honours ``REPRO_HEAP_BACKEND``; an unset or empty variable means
    :data:`DEFAULT_BACKEND`.
    """
    name = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not name:
        return DEFAULT_BACKEND
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(
            f"{ENV_BACKEND}={name!r} names no heap backend (known: {known})"
        )
    return name


def make_heap(backend: str | None = None, *, checked: bool = False):
    """Construct a heap of the selected backend.

    Args:
        backend: "object", "flat", or None for the run default
            (``REPRO_HEAP_BACKEND`` or :data:`DEFAULT_BACKEND`).
        checked: arm the per-store dangling-id probe.
    """
    return _BACKENDS[resolve_backend_name(backend)](checked=checked)
