"""The heap's reference semantics, as a plain dict model.

:class:`~repro.heap.flat.FlatHeap` keeps residency in packed state
words over lazily deleted id lists and every slot in one shared arena.
This model states what that encoding must mean, with nothing but
dicts: an object is a record, a space is an insertion-ordered dict of
resident ids, and a move re-inserts at the end.  That order is
observable — the non-predictive and hybrid collectors enumerate
survivors in it — so the model pins it exactly.  It is a test oracle
(``test_reference_model.py`` drives both after every operation), not a
heap anyone runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ModelFull(Exception):
    """The model's :class:`~repro.heap.flat.SpaceFull`."""


class ModelDangling(Exception):
    """The model's :class:`~repro.heap.flat.HeapError` for a dead id."""


@dataclass
class ModelObject:
    size: int
    birth: int
    kind: str
    slots: list
    space: str | None
    payload: object = None


@dataclass
class ModelSpace:
    capacity: int | None
    used: int = 0
    #: Resident ids in insertion order (values unused).
    residents: dict = field(default_factory=dict)

    def fits(self, words: int) -> bool:
        return self.capacity is None or self.used + words <= self.capacity


class ModelHeap:
    """Allocate, load/store slots, free, move, spaces, reachability."""

    def __init__(self) -> None:
        self.objects: dict[int, ModelObject] = {}
        self.spaces: dict[str, ModelSpace] = {}
        self.next_id = 0
        self.clock = 0
        self.objects_allocated = 0

    # -- spaces ---------------------------------------------------------

    def add_space(self, name: str, capacity: int | None) -> None:
        self.spaces[name] = ModelSpace(capacity)

    def _attach(self, oid: int, name: str) -> None:
        space = self.spaces[name]
        space.residents[oid] = None
        space.used += self.objects[oid].size
        self.objects[oid].space = name

    def _detach(self, oid: int) -> None:
        obj = self.objects[oid]
        if obj.space is not None:
            space = self.spaces[obj.space]
            del space.residents[oid]
            space.used -= obj.size
            obj.space = None

    # -- objects --------------------------------------------------------

    def allocate(
        self,
        size: int,
        field_count: int,
        name: str,
        kind: str = "data",
        advance_clock: bool = True,
    ) -> int:
        if not self.spaces[name].fits(size):
            raise ModelFull(name)
        oid = self.next_id
        self.next_id += 1
        self.objects[oid] = ModelObject(
            size, self.clock, kind, [None] * field_count, None
        )
        self._attach(oid, name)
        if advance_clock:
            self.clock += size
            self.objects_allocated += 1
        return oid

    def free(self, oid: int) -> None:
        self._detach(oid)
        del self.objects[oid]

    def move(self, oid: int, name: str) -> None:
        """One object to the end of ``name`` (a no-op if already
        there); full targets refuse."""
        obj = self.objects[oid]
        if obj.space == name:
            return
        if not self.spaces[name].fits(obj.size):
            raise ModelFull(name)
        self._detach(oid)
        self._attach(oid, name)

    def move_ids(self, oids: list[int], name: str) -> None:
        """The collectors' bulk move: no capacity check, and a resident
        of ``name`` is re-inserted at its end too."""
        for oid in oids:
            self._detach(oid)
            self._attach(oid, name)

    def detach(self, oid: int) -> None:
        self._detach(oid)

    def attach(self, oid: int, name: str) -> None:
        if not self.spaces[name].fits(self.objects[oid].size):
            raise ModelFull(name)
        self._attach(oid, name)

    def free_unmarked(self, name: str, marked: set[int]) -> int:
        """Sweep: free the unmarked residents, survivors keep order."""
        residents = self.spaces[name].residents
        dead = [oid for oid in residents if oid not in marked]
        reclaimed = sum(self.objects[oid].size for oid in dead)
        for oid in dead:
            self.free(oid)
        return reclaimed

    # -- slots ----------------------------------------------------------

    def store_slot(self, oid: int, slot: int, value: object) -> None:
        self.objects[oid].slots[slot] = value

    # -- observations ---------------------------------------------------

    @property
    def live_words(self) -> int:
        return sum(space.used for space in self.spaces.values())

    def dangling(self) -> bool:
        """Whether a live object's slot names a freed id."""
        return any(
            type(ref) is int and ref not in self.objects
            for obj in self.objects.values()
            for ref in obj.slots
        )

    def reachable_from(self, roots: list[int]) -> set[int]:
        reached: set[int] = set()
        stack = list(roots)
        while stack:
            oid = stack.pop()
            if oid in reached:
                continue
            if oid not in self.objects:
                raise ModelDangling(oid)
            reached.add(oid)
            stack.extend(
                ref for ref in self.objects[oid].slots if type(ref) is int
            )
        return reached
