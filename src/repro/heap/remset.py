"""Remembered sets (Sections 8.3 and 8.4 of the paper).

A remembered set records the slots a partial collection must treat as
roots because they may hold pointers from uncollected regions into the
region being collected.  Entries here are *slot-precise*: a pair
``(obj_id, slot)``.

Section 8.4 distinguishes entries that arrived via *promotion*
(situation 5: an object promoted into the protected steps containing a
pointer into the collectable steps) from entries that arrived via
*side effect* (situations 3 and 6: the write barrier).  The paper keeps
these separate because the promotion-entered portion can be discarded
wholesale when the protected generation is renumbered away; this class
keeps the same separation and the tests check it.

A remembered set is conservative: an entry may describe a slot that no
longer holds an interesting pointer (the store was overwritten).  The
:meth:`prune` operation re-examines entries against a predicate, which
models the paper's §8.4 cleanup during root tracing.
"""

from __future__ import annotations

from typing import Callable, Iterator

__all__ = ["RememberedSet", "SlotRef"]

#: A remembered-set entry: (object id, slot index).
SlotRef = tuple[int, int]


class RememberedSet:
    """Slot-precise remembered set with barrier/promotion separation."""

    __slots__ = (
        "name",
        "_barrier_entries",
        "_promotion_entries",
        "barrier_records",
        "promotion_records",
        "peak_size",
    )

    def __init__(self, name: str = "remset") -> None:
        self.name = name
        self._barrier_entries: set[SlotRef] = set()
        self._promotion_entries: set[SlotRef] = set()
        #: Lifetime counters, for reporting remset pressure (§8.3).
        self.barrier_records = 0
        self.promotion_records = 0
        self.peak_size = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_barrier(self, obj_id: int, slot: int) -> None:
        """Record a slot discovered by the write barrier (situations 3/6)."""
        entry = (obj_id, slot)
        if entry not in self._barrier_entries:
            self._barrier_entries.add(entry)
            self._promotion_entries.discard(entry)
        self.barrier_records += 1
        self._update_peak()

    def record_promotion(self, obj_id: int, slot: int) -> None:
        """Record a slot discovered while tracing a promoted object (sit. 5)."""
        entry = (obj_id, slot)
        if entry not in self._barrier_entries:
            self._promotion_entries.add(entry)
        self.promotion_records += 1
        self._update_peak()

    def _update_peak(self) -> None:
        size = len(self)
        if size > self.peak_size:
            self.peak_size = size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[SlotRef]:
        """All entries, barrier-entered first."""
        yield from self._barrier_entries
        yield from self._promotion_entries

    def object_ids(self) -> set[int]:
        """The distinct objects that have at least one remembered slot."""
        ids = {obj_id for obj_id, _ in self._barrier_entries}
        ids.update(obj_id for obj_id, _ in self._promotion_entries)
        return ids

    def __len__(self) -> int:
        return len(self._barrier_entries) + len(self._promotion_entries)

    def __contains__(self, entry: SlotRef) -> bool:
        return entry in self._barrier_entries or entry in self._promotion_entries

    @property
    def barrier_size(self) -> int:
        return len(self._barrier_entries)

    @property
    def promotion_size(self) -> int:
        return len(self._promotion_entries)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Empty the set (e.g. after a full collection, §8.4)."""
        self._barrier_entries.clear()
        self._promotion_entries.clear()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of the entries and lifetime counters.

        Entries are stored sorted: both portions are true sets and
        every consumer is order-insensitive, so a canonical order keeps
        snapshots byte-stable.
        """
        return {
            "name": self.name,
            "barrier": sorted(self._barrier_entries),
            "promotion": sorted(self._promotion_entries),
            "barrier_records": self.barrier_records,
            "promotion_records": self.promotion_records,
            "peak_size": self.peak_size,
        }

    def import_state(self, state: dict) -> None:
        """Replace entries and counters with a snapshot's."""
        self._barrier_entries = {
            (int(obj_id), int(slot)) for obj_id, slot in state["barrier"]
        }
        self._promotion_entries = {
            (int(obj_id), int(slot)) for obj_id, slot in state["promotion"]
        }
        self.barrier_records = state["barrier_records"]
        self.promotion_records = state["promotion_records"]
        self.peak_size = state["peak_size"]

    def prune(self, still_needed: Callable[[SlotRef], bool]) -> int:
        """Drop entries the predicate rejects; returns how many were dropped.

        Models the §8.4 optimization: when an entry is traced the
        collector can notice that the slot no longer holds a
        cross-generational pointer and remove it.
        """
        before = len(self)
        self._barrier_entries = {
            entry for entry in self._barrier_entries if still_needed(entry)
        }
        self._promotion_entries = {
            entry for entry in self._promotion_entries if still_needed(entry)
        }
        return before - len(self)

    def __repr__(self) -> str:
        return (
            f"RememberedSet(name={self.name!r}, barrier="
            f"{len(self._barrier_entries)}, promotion="
            f"{len(self._promotion_entries)})"
        )
