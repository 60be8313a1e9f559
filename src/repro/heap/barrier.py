"""The write barrier (Section 8.5).

Every mutator store of a reference goes through a
:class:`WriteBarrier`.  The barrier itself is policy-free: it counts
stores (the paper's §6 caveat that the analysis omits barrier cost is
addressed by reporting this count) and forwards each pointer store to
the active collector's ``remember_store_id`` hook, which decides whether
the store creates a remembered-set entry.

The barrier does not distinguish *why* a store is interesting — the
paper notes that situations 3 and 6 of §8.4 are "detected by the write
barrier, which does not distinguish between them" — so a collector's
hook receives only source, slot and target, as object ids:
``Collector.remember_store_id(src_id, slot, target_id)``, like PyPy's
barrier a test on the source's header word.
:class:`~repro.runtime.machine.Machine`'s inlined store paths bump
this barrier's counters and call that hook themselves; the replay
interpreter, which tenant sessions run, calls only the hook.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["WriteBarrier"]

#: Signature of the collector hook invoked on every store: source id,
#: slot, target id (None when the new value is not a pointer).
RememberStoreHook = Callable[[int, int, "int | None"], None]


class WriteBarrier:
    """Counts mutator stores and dispatches them to the collector.

    Attributes:
        stores: total stores seen (including stores of None).
        pointer_stores: stores where the new value is a reference.
    """

    __slots__ = ("_hook", "stores", "pointer_stores")

    def __init__(self, hook: RememberStoreHook | None = None) -> None:
        self._hook = hook
        self.stores = 0
        self.pointer_stores = 0

    def on_store(self, src_id: int, slot: int, target_id: int | None) -> None:
        """Record one mutator store; called before the heap write.

        The hook fires for *every* store — including overwrites with
        ``None`` — because a snapshot-at-the-beginning collector must
        see the deleted old value of a slot even when the new value is
        not a pointer.  Hooks that only care about pointer creation
        (the remembered-set collectors) return immediately on a None
        target.
        """
        self.stores += 1
        if target_id is not None:
            self.pointer_stores += 1
        if self._hook is not None:
            self._hook(src_id, slot, target_id)
