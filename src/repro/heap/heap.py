"""The simulated heap: object table, allocation clock, and space registry.

:class:`SimulatedHeap` owns every object and every space.  It provides
word-accurate allocation (advancing an allocation clock that the whole
reproduction uses as its notion of time, exactly as the paper measures
time "by the number of objects that have been allocated" — here
generalized to words), object movement between spaces, field reads and
writes, and reachability tracing.

The heap knows nothing about collection policy; collectors are built on
top of it in :mod:`repro.gc`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Iterable, Iterator

from repro.heap.object_model import HeapObject
from repro.heap.space import Space, SpaceFull

__all__ = ["HeapError", "SimulatedHeap"]


class HeapError(Exception):
    """Structural misuse of the simulated heap (dangling ids, bad slots)."""


class SimulatedHeap:
    """A word-accurate simulated heap (the *object* backend).

    One Python :class:`~repro.heap.object_model.HeapObject` per heap
    object.  The struct-of-arrays alternative is
    :class:`repro.heap.flat.FlatHeap`; both implement the same public
    surface plus the shared collection kernels (``trace_region``,
    ``cheney_evacuate``, ``free_unmarked``, ...), which is what lets
    the seven collectors run unmodified on either backend.

    Attributes:
        clock: total words allocated so far — the reproduction's time
            axis.  Never decreases.
        objects_allocated: count of allocation events.
        checked: when true, :meth:`write_slot` probes every stored
            reference against the object table and rejects dangling
            ids.  Off by default: the probe costs a dict lookup on
            *every* pointer store, and a correct mutator never stores a
            dangling id.  Checked mode (``repro-gc verify``, the heap
            auditor) turns it on; ``check_integrity`` catches dangling
            slots after the fact either way.
    """

    backend_name = "object"

    __slots__ = (
        "_objects",
        "_spaces",
        "_next_id",
        "_colors",
        "clock",
        "objects_allocated",
        "checked",
        "event_sink",
    )

    def __init__(self, *, checked: bool = False) -> None:
        self._objects: dict[int, HeapObject] = {}
        self._spaces: dict[str, Space] = {}
        self._next_id = 0
        #: Tri-color mark state for the incremental collector; absent
        #: ids are white.  Reset per mark epoch, never on allocation —
        #: objects born inside an epoch are classified by birth clock,
        #: so the allocation hot path stays untouched.
        self._colors: dict[int, int] = {}
        self.clock = 0
        self.objects_allocated = 0
        self.checked = checked
        #: Optional telemetry sink (:class:`repro.metrics.EventStream`).
        #: ``None`` — the default — emits nothing; geometry changes
        #: (space creation/removal) are cold paths, so the guard costs
        #: nothing on allocation.
        self.event_sink = None

    # ------------------------------------------------------------------
    # Spaces
    # ------------------------------------------------------------------

    def add_space(self, name: str, capacity: int | None) -> Space:
        """Create and register a new space."""
        if name in self._spaces:
            raise ValueError(f"space {name!r} already exists")
        space = Space(name, capacity)
        self._spaces[name] = space
        if self.event_sink is not None:
            self.event_sink.emit(
                "space-created", space=name, capacity=capacity
            )
        return space

    def remove_space(self, space: Space) -> None:
        """Unregister an empty space."""
        if not space.is_empty():
            raise HeapError(f"cannot remove non-empty space {space.name!r}")
        if self._spaces.get(space.name) is not space:
            raise KeyError(f"space {space.name!r} is not registered")
        del self._spaces[space.name]
        if self.event_sink is not None:
            self.event_sink.emit("space-removed", space=space.name)

    def space(self, name: str) -> Space:
        try:
            return self._spaces[name]
        except KeyError:
            raise KeyError(f"no space named {name!r}") from None

    def spaces(self) -> Iterator[Space]:
        return iter(self._spaces.values())

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def live_words(self) -> int:
        """Total words occupied by resident objects across all spaces.

        "Live" here means *resident*: garbage not yet collected still
        counts, exactly as it occupies memory in a real heap.
        """
        return sum(space.used for space in self._spaces.values())

    def allocate(
        self,
        size: int,
        field_count: int,
        space: Space,
        kind: str = "data",
        *,
        advance_clock: bool = True,
    ) -> HeapObject:
        """Allocate a new object in ``space`` and advance the clock.

        Static-area allocation (interned symbols, constants) passes
        ``advance_clock=False`` so that the time axis counts dynamic
        allocation only, as the paper's measurements do.

        Raises:
            SpaceFull: if the space lacks room; the clock is *not*
                advanced in that case, so a collector may retry after
                collecting.
        """
        capacity = space.capacity
        if capacity is not None and space.used + size > capacity:
            raise SpaceFull(space, size)
        obj_id = self._next_id
        obj = HeapObject(obj_id, size, field_count, self.clock, kind)
        self._next_id = obj_id + 1
        self._objects[obj_id] = obj
        space._objects[obj_id] = obj
        space.used += size
        obj.space = space
        if advance_clock:
            self.clock += size
            self.objects_allocated += 1
        return obj

    def allocate_id(
        self,
        size: int,
        field_count: int,
        space: Space,
        kind: str = "data",
        *,
        advance_clock: bool = True,
    ) -> int:
        """Allocate and return the raw id (see :meth:`allocate`)."""
        return self.allocate(
            size, field_count, space, kind, advance_clock=advance_clock
        ).obj_id

    def shape(
        self, size: int, field_count: int, kind: str
    ) -> tuple[int, int, str]:
        """An object layout for :meth:`bump_allocate`, which validates
        it at every use (the flat backend validates here, once)."""
        return size, field_count, kind

    def bump_allocate(
        self,
        shape: tuple[int, int, str],
        space: Space,
        payload: object = None,
    ) -> int:
        """Allocate an object of a :meth:`shape` in a space the caller
        has seen to have room.  The flat backend skips its checks on
        that promise; this one is the reference model and makes them
        all again."""
        size, field_count, kind = shape
        obj = self.allocate(size, field_count, space, kind)
        obj.payload = payload
        return obj.obj_id

    def bulk_allocate(self, count: int, size: int, space: Space) -> tuple[int, int]:
        """Allocate ``count`` field-less ``data`` objects.

        Returns the half-open id range.  The flat backend materializes
        the range at C speed; here it is a plain loop — the caller (a
        collector allocation window) has already reserved capacity.
        """
        if count <= 0:
            raise ValueError(f"window must cover >= 1 object, got {count!r}")
        first = self._next_id
        for _ in range(count):
            self.allocate(size, 0, space)
        return first, first + count

    def free(self, obj: HeapObject) -> None:
        """Remove a dead object from the heap entirely."""
        if self._objects.pop(obj.obj_id, None) is None:
            raise HeapError(f"object {obj.obj_id} is not in the heap")
        space = obj.space
        if space is not None:
            del space._objects[obj.obj_id]
            space.used -= obj.size
            obj.space = None

    def move(self, obj: HeapObject, to_space: Space) -> None:
        """Move an object between spaces (the simulator's "copy")."""
        obj_id = obj.obj_id
        if obj_id not in self._objects:
            raise HeapError(f"object {obj_id} is not in the heap")
        from_space = obj.space
        if from_space is to_space:
            return
        size = obj.size
        capacity = to_space.capacity
        if capacity is not None and to_space.used + size > capacity:
            raise SpaceFull(to_space, size)
        if from_space is not None:
            del from_space._objects[obj_id]
            from_space.used -= size
        to_space._objects[obj_id] = obj
        to_space.used += size
        obj.space = to_space

    def get(self, obj_id: int) -> HeapObject:
        """Resolve an object id; dangling ids are a structural error."""
        try:
            return self._objects[obj_id]
        except KeyError:
            raise HeapError(f"dangling object id {obj_id}") from None

    def contains_id(self, obj_id: int) -> bool:
        return obj_id in self._objects

    def all_objects(self) -> Iterator[HeapObject]:
        return iter(self._objects.values())

    def resident_words(self, spaces: Iterable[Space]) -> int:
        """Total words occupied across the given spaces."""
        return sum(space.used for space in spaces)

    def dangling_ids(self, ids: Iterable[int]) -> list[int]:
        """The subset of ``ids`` that do not resolve to a live object.

        Used by the heap auditor to report dangling roots precisely
        instead of crashing on the first :meth:`get`.
        """
        return [obj_id for obj_id in ids if obj_id not in self._objects]

    def occupancy(self) -> dict:
        """A JSON-able per-space occupancy snapshot for diagnostics.

        :class:`~repro.gc.collector.HeapExhausted` attaches this so a
        workload that dies near the ``n ≈ h/ln 2`` equilibrium reports
        *where* the words went instead of just that they ran out.
        """
        return {
            "clock": self.clock,
            "objects_allocated": self.objects_allocated,
            "object_count": len(self._objects),
            "live_words": self.live_words,
            "spaces": [
                {
                    "name": space.name,
                    "used": space.used,
                    "capacity": space.capacity,
                    "free": None if space.capacity is None else space.free,
                    "objects": space.object_count,
                }
                for space in self._spaces.values()
            ],
        }

    # ------------------------------------------------------------------
    # Fields
    # ------------------------------------------------------------------

    def read_field(self, obj: HeapObject, slot: int) -> HeapObject | None:
        """Read a reference slot, resolving it to an object (or None).

        Raises on a slot holding an immediate; use :meth:`read_slot`
        for untyped access.
        """
        ref = self.read_slot(obj, slot)
        if ref is None:
            return None
        if type(ref) is not int:
            raise HeapError(
                f"slot {slot} of object {obj.obj_id} holds an immediate, "
                f"not a reference"
            )
        return self.get(ref)

    def read_slot(self, obj: HeapObject, slot: int) -> object:
        """Read a slot's raw value: an id, None, or an immediate."""
        return self.load_slot(obj.obj_id, slot)

    def write_field(
        self, obj: HeapObject, slot: int, target: HeapObject | None
    ) -> None:
        """Write a reference slot (raw — no write barrier).

        Collector-aware code goes through
        :meth:`repro.runtime.machine.Machine.write_field`, which applies
        the write barrier before delegating here.
        """
        self.write_slot(obj, slot, None if target is None else target.obj_id)

    def write_slot(self, obj: HeapObject, slot: int, value: object) -> None:
        """Write a slot's raw value: an id, None, or an immediate.

        In :attr:`checked` mode, a stored reference is probed against
        the object table so dangling stores fail at the store site;
        otherwise they surface later via :meth:`check_integrity` or a
        dangling :meth:`get`.
        """
        self.store_slot(obj.obj_id, slot, value)

    # ------------------------------------------------------------------
    # Id-level accessors (shared kernel surface)
    # ------------------------------------------------------------------

    def size_of(self, oid: int) -> int:
        return self._objects[oid].size

    def birth_of(self, oid: int) -> int:
        return self._objects[oid].birth

    def slot_count_of(self, oid: int) -> int:
        return len(self._objects[oid].fields)

    def kind_of(self, oid: int) -> str:
        """The kind tag of a live object; like :meth:`get`, a dangling
        id is a structural error."""
        return self.get(oid).kind

    def payload_of(self, oid: int) -> object:
        return self._objects[oid].payload

    def set_payload(self, oid: int, value: object) -> None:
        self._objects[oid].payload = value

    def load_slot(self, oid: int, slot: int) -> object:
        """A slot's raw value: an id, None, or an immediate."""
        fields = self._objects[oid].fields
        if not 0 <= slot < len(fields):
            raise HeapError(
                f"object {oid} has no slot {slot} (it has {len(fields)})"
            )
        return fields[slot]

    def load_ref(self, oid: int, slot: int) -> object:
        """:meth:`load_slot` for a reader that will follow the value:
        an id is returned only if it names a live object (the test
        :meth:`kind_of` makes), else it is a structural error."""
        objects = self._objects
        fields = objects[oid].fields
        if not 0 <= slot < len(fields):
            raise HeapError(
                f"object {oid} has no slot {slot} (it has {len(fields)})"
            )
        value = fields[slot]
        if type(value) is int and value not in objects:
            raise HeapError(f"dangling object id {value}")
        return value

    def store_slot(self, oid: int, slot: int, value: object) -> None:
        """Write a slot's raw value (no write barrier); checked mode
        rejects a dangling id at the store site."""
        fields = self._objects[oid].fields
        if not 0 <= slot < len(fields):
            raise HeapError(
                f"object {oid} has no slot {slot} (it has {len(fields)})"
            )
        if (
            self.checked
            and type(value) is int
            and value not in self._objects
        ):
            raise HeapError(f"cannot store dangling object id {value}")
        fields[slot] = value

    def slots_of(self, oid: int) -> list[object]:
        """A snapshot copy of the object's raw slot values."""
        return list(self._objects[oid].fields)

    def ref_slots(self, oid: int) -> list[tuple[int, int]]:
        """``(slot, ref_id)`` pairs for reference-holding slots."""
        return [
            (slot, ref)
            for slot, ref in enumerate(self._objects[oid].fields)
            if type(ref) is int
        ]

    def space_if_live(self, oid: int) -> Space | None:
        """The space of ``oid``, or None if freed/detached/dangling."""
        obj = self._objects.get(oid)
        return None if obj is None else obj.space

    def slot_ref(self, obj_id: int, slot: int) -> tuple[Space, int] | None:
        """``(source_space, ref_id)`` for a remset probe, else None.

        None when the source is dead/detached, the slot is out of
        range, or the slot holds a non-reference.
        """
        obj = self._objects.get(obj_id)
        if obj is None or obj.space is None:
            return None
        fields = obj.fields
        if slot >= len(fields):
            return None
        ref = fields[slot]
        if type(ref) is not int:
            return None
        return obj.space, ref

    # ------------------------------------------------------------------
    # Tri-color mark state (incremental collector)
    # ------------------------------------------------------------------

    def begin_mark_epoch(self) -> None:
        """Reset every object's mark color to white (0).

        The incremental collector calls this when it opens a mark
        cycle; colors written before the call are stale and discarded.
        """
        self._colors.clear()

    def color_of(self, oid: int) -> int:
        """The object's mark color: 0 white, 1 gray, 2 black."""
        return self._colors.get(oid, 0)

    def set_color(self, oid: int, color: int) -> None:
        self._colors[oid] = color

    def drain_gray(
        self,
        gray: list[int],
        space: Space,
        epoch: int,
        limit: int | None = None,
    ) -> int:
        """Scan gray objects until the wavefront drains or ``limit``
        words have been examined; returns the words scanned.

        Object-backend twin of :meth:`repro.heap.flat.FlatHeap.drain_gray`
        — same pop/skip/blacken/gray-white-pre-epoch-referents loop, with
        the dict lookups hoisted.  Colors: 0 white, 1 gray, 2 black.
        """
        objects = self._objects
        colors = self._colors
        color_get = colors.get
        obj_get = objects.get
        pop = gray.pop
        push = gray.append
        work = 0
        while gray and (limit is None or work < limit):
            oid = pop()
            if color_get(oid, 0) != 1:
                continue  # conservative duplicate entry; already scanned
            colors[oid] = 2
            obj = objects[oid]
            for ref in obj.fields:
                if type(ref) is int:
                    target = obj_get(ref)
                    if target is None:
                        raise HeapError(f"dangling object id {ref}")
                    if (
                        target.space is space
                        and target.birth < epoch
                        and color_get(ref, 0) == 0
                    ):
                        colors[ref] = 1
                        push(ref)
            work += obj.size
        return work

    def sweep_epoch(
        self, space: Space, epoch: int, marked: "Collection[int]" = ()
    ) -> int:
        """Close a tri-color cycle over ``space``: free exactly the
        residents that are white, born before ``epoch`` and not in
        ``marked`` (a mark set kept off the color table — the
        concurrent marker's).

        Returns words reclaimed; survivors keep their relative order.
        """
        color_get = self._colors.get
        return self._free_residents(
            space,
            [
                obj
                for oid, obj in space._objects.items()
                if obj.birth < epoch
                and not color_get(oid, 0)
                and oid not in marked
            ],
        )

    def export_mark_snapshot(
        self, space: Space, root_ids: Iterable[int]
    ) -> dict:
        """Package the reachability-relevant heap state for an
        off-process marker (:mod:`repro.gc.concurrent`).

        The object backend has no arenas to memcpy, so this is the
        pickle fallback: a plain dict of ``oid -> (size, ref_ids)`` for
        the space's residents, plus the set of all known ids so the
        marker can distinguish a boundary reference (skip) from a
        dangling one (raise) exactly like the in-process trace.
        """
        objects = {}
        for oid, obj in self._objects.items():
            if obj.space is space:
                objects[oid] = (
                    obj.size,
                    tuple(ref for ref in obj.fields if type(ref) is int),
                )
        return {
            "backend": "object",
            "objects": objects,
            "known": frozenset(self._objects),
            "roots": list(root_ids),
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """A complete, JSON-serializable image of the heap.

        Everything behaviorally observable is captured in order: the
        global object table (iteration order is visible through
        ``all_objects``), each space's resident order, every slot value
        (ids, None, and JSON-representable immediates), birth clocks,
        and the tri-color mark state of an open cycle.  Restoring the
        image with :meth:`import_state` onto a heap with the same
        spaces reproduces the original byte for byte.
        """
        objects = []
        for obj in self._objects.values():
            record: dict = {
                "id": obj.obj_id,
                "size": obj.size,
                "birth": obj.birth,
                "kind": obj.kind,
                "space": None if obj.space is None else obj.space.name,
                "fields": list(obj.fields),
            }
            if obj.payload is not None:
                record["payload"] = obj.payload
            objects.append(record)
        return {
            "backend": "object",
            "clock": self.clock,
            "objects_allocated": self.objects_allocated,
            "next_id": self._next_id,
            "colors": sorted(
                [oid, color] for oid, color in self._colors.items() if color
            ),
            "spaces": [
                {
                    "name": space.name,
                    "capacity": space.capacity,
                    "used": space.used,
                    "ids": list(space._objects),
                }
                for space in self._spaces.values()
            ],
            "objects": objects,
        }

    def import_state(self, state: dict) -> None:
        """Replace the heap's contents with an exported image.

        The heap must already hold spaces with exactly the snapshot's
        names (a freshly constructed collector recreates them); their
        capacities and residents are overwritten in snapshot order.
        """
        if state.get("backend") != "object":
            raise HeapError(
                f"snapshot backend {state.get('backend')!r} cannot restore "
                f"into an object heap"
            )
        by_name = {space.name: space for space in self._spaces.values()}
        snapshot_names = {entry["name"] for entry in state["spaces"]}
        if set(by_name) != snapshot_names:
            raise HeapError(
                f"snapshot spaces {sorted(snapshot_names)} do not match "
                f"this heap's spaces {sorted(by_name)}"
            )
        self.clock = state["clock"]
        self.objects_allocated = state["objects_allocated"]
        self._next_id = state["next_id"]
        self._colors = {
            int(oid): int(color) for oid, color in state["colors"]
        }
        self._objects = {}
        for record in state["objects"]:
            obj = HeapObject(
                record["id"],
                record["size"],
                0,
                record["birth"],
                record["kind"],
            )
            obj.fields = list(record["fields"])
            obj.payload = record.get("payload")
            self._objects[obj.obj_id] = obj
        for entry in state["spaces"]:
            space = by_name[entry["name"]]
            space.capacity = entry["capacity"]
            space._objects = {}
            used = 0
            for oid in entry["ids"]:
                obj = self._objects[oid]
                space._objects[oid] = obj
                obj.space = space
                used += obj.size
            if used != entry["used"]:
                raise HeapError(
                    f"snapshot space {space.name!r} accounting off: "
                    f"recorded {entry['used']}, residents sum to {used}"
                )
            space.used = used

    def place_id(self, oid: int, space: Space, size: int | None = None) -> None:
        """Attach a detached object to ``space`` (no capacity check)."""
        obj = self._objects[oid]
        space._objects[oid] = obj
        space.used += obj.size if size is None else size
        obj.space = space

    def move_ids(self, oids: Iterable[int], target: Space) -> int:
        """Move resident objects to ``target`` (no capacity check).

        Returns the words moved; source-space occupancy is updated.
        """
        objects = self._objects
        target_objects = target._objects
        moved = 0
        for oid in oids:
            obj = objects[oid]
            source = obj.space
            size = obj.size
            if source is not None:
                del source._objects[oid]
                source.used -= size
            target_objects[oid] = obj
            obj.space = target
            moved += size
        target.used += moved
        return moved

    def count_slot_refs_into(
        self, oids: Iterable[int], spaces: "set[Space]"
    ) -> int:
        """Count reference slots of ``oids`` that point into ``spaces``."""
        objects = self._objects
        total = 0
        for oid in oids:
            for ref in objects[oid].fields:
                if type(ref) is not int:
                    continue
                try:
                    target = objects[ref]
                except KeyError:
                    raise HeapError(f"dangling object id {ref}") from None
                if target.space in spaces:
                    total += 1
        return total

    # ------------------------------------------------------------------
    # Collection kernels
    # ------------------------------------------------------------------

    def trace_region(
        self, region: Iterable[Space], seed_ids: Iterable[int]
    ) -> tuple[set[int], int]:
        """Mark the closure of ``seed_ids`` restricted to ``region``.

        Returns ``(marked_ids, words_marked)``.  References leaving the
        region are not followed; dangling seeds or slots raise
        :class:`HeapError`.
        """
        if not isinstance(region, (set, frozenset)):
            region = set(region)
        objects = self._objects
        marked: set[int] = set()
        mark = marked.add
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        words = 0
        for oid in seed_ids:
            if oid not in marked:
                try:
                    obj = objects[oid]
                except KeyError:
                    raise HeapError(f"dangling object id {oid}") from None
                if obj.space in region:
                    mark(oid)
                    push(oid)
        while stack:
            oid = pop()
            obj = objects[oid]
            words += obj.size
            for ref in obj.fields:
                if type(ref) is int and ref not in marked:
                    try:
                        target = objects[ref]
                    except KeyError:
                        raise HeapError(
                            f"dangling object id {ref}"
                        ) from None
                    if target.space in region:
                        mark(ref)
                        push(ref)
        return marked, words

    def cheney_evacuate(
        self,
        from_space: Space,
        to_space: Space,
        root_ids: Iterable[int],
    ) -> tuple[int, int]:
        """Copy the live closure out of ``from_space`` into ``to_space``.

        Breadth-first (Cheney order), abandoning everything left in
        ``from_space`` afterwards.  Returns ``(words_copied,
        words_reclaimed)``; occupancies are updated and ``from_space``
        is left empty.
        """
        objects = self._objects
        condemned = from_space._objects
        survivors = to_space._objects
        copied: set[int] = set()
        mark = copied.add
        queue: deque[int] = deque()
        push = queue.append
        pop = queue.popleft
        work = 0
        for oid in root_ids:
            if oid in copied:
                continue
            try:
                obj = objects[oid]
            except KeyError:
                raise HeapError(f"dangling object id {oid}") from None
            if obj.space is not from_space:
                continue
            del condemned[oid]
            survivors[oid] = obj
            obj.space = to_space
            mark(oid)
            push(oid)
            work += obj.size
        while queue:
            oid = pop()
            for ref in objects[oid].fields:
                if type(ref) is int and ref not in copied:
                    try:
                        target = objects[ref]
                    except KeyError:
                        raise HeapError(
                            f"dangling object id {ref}"
                        ) from None
                    if target.space is from_space:
                        del condemned[ref]
                        survivors[ref] = target
                        target.space = to_space
                        mark(ref)
                        push(ref)
                        work += target.size
        reclaimed = 0
        for obj in condemned.values():
            reclaimed += obj.size
            obj.space = None
            del objects[obj.obj_id]
        condemned.clear()
        from_space.used = 0
        to_space.used += work
        return work, reclaimed

    def free_unmarked(self, space: Space, marked: "set[int]") -> int:
        """Sweep ``space`` in place, freeing unmarked objects.

        Returns words reclaimed; survivors keep their relative order.
        """
        return self._free_residents(
            space,
            [
                obj
                for obj in space._objects.values()
                if obj.obj_id not in marked
            ],
        )

    def _free_residents(self, space: Space, dead: list[HeapObject]) -> int:
        """Free ``dead``, all residents of ``space``; words reclaimed."""
        objects = self._objects
        space_objects = space._objects
        reclaimed = 0
        for obj in dead:
            oid = obj.obj_id
            del objects[oid]
            del space_objects[oid]
            obj.space = None
            reclaimed += obj.size
        space.used -= reclaimed
        return reclaimed

    def partition_space(
        self, space: Space, marked: "set[int]"
    ) -> tuple[list[int], int]:
        """Free dead objects; return surviving ids in space order.

        Survivors remain resident in ``space``.
        """
        objects = self._objects
        space_objects = space._objects
        survivors: list[int] = []
        dead: list[HeapObject] = []
        for obj in space_objects.values():
            if obj.obj_id in marked:
                survivors.append(obj.obj_id)
            else:
                dead.append(obj)
        reclaimed = 0
        for obj in dead:
            oid = obj.obj_id
            del objects[oid]
            del space_objects[oid]
            obj.space = None
            reclaimed += obj.size
        space.used -= reclaimed
        return survivors, reclaimed

    def extract_live(
        self, space: Space, marked: "set[int]"
    ) -> tuple[list[int], int]:
        """Empty ``space``: free the dead, detach survivors in order.

        Returns ``(survivors, words_reclaimed)``; survivors are left
        detached for the caller to repack.
        """
        objects = self._objects
        space_objects = space._objects
        survivors: list[int] = []
        reclaimed = 0
        for obj in list(space_objects.values()):
            if obj.obj_id in marked:
                obj.space = None
                survivors.append(obj.obj_id)
            else:
                del objects[obj.obj_id]
                obj.space = None
                reclaimed += obj.size
        space_objects.clear()
        space.used = 0
        return survivors, reclaimed

    def extract_all(self, space: Space) -> list[int]:
        """Detach every resident of ``space`` in order (compaction)."""
        out: list[int] = []
        for obj in space._objects.values():
            obj.space = None
            out.append(obj.obj_id)
        space._objects.clear()
        space.used = 0
        return out

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def reachable_from(
        self,
        root_ids: Iterable[int],
        *,
        visit: Callable[[HeapObject], None] | None = None,
    ) -> set[int]:
        """Transitive closure of the reference graph from the given roots.

        Args:
            root_ids: seed object ids (dangling ids are an error — a
                root must never point at a freed object).
            visit: optional callback invoked once per reached object,
                in discovery order; used by collectors to account for
                marking work.

        Returns:
            The set of reached object ids.
        """
        objects = self._objects
        reached: set[int] = set()
        add = reached.add
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        for obj_id in root_ids:
            if obj_id not in reached:
                add(obj_id)
                push(obj_id)
        while stack:
            obj_id = pop()
            try:
                obj = objects[obj_id]
            except KeyError:
                raise HeapError(f"dangling object id {obj_id}") from None
            if visit is not None:
                visit(obj)
            for ref in obj.fields:
                if type(ref) is int and ref not in reached:
                    add(ref)
                    push(ref)
        return reached

    def check_integrity(self) -> None:
        """Validate structural invariants; raises HeapError on violation.

        Checks that every object belongs to exactly the space that
        claims it, that space occupancy matches resident object sizes,
        and that no reference slot dangles.  Intended for tests and
        debugging; O(heap size).
        """
        seen: set[int] = set()
        for space in self._spaces.values():
            used = 0
            for obj in space.objects():
                if obj.obj_id in seen:
                    raise HeapError(
                        f"object {obj.obj_id} resides in two spaces"
                    )
                seen.add(obj.obj_id)
                if obj.space is not space:
                    raise HeapError(
                        f"object {obj.obj_id} back-pointer disagrees with "
                        f"space {space.name!r}"
                    )
                if obj.obj_id not in self._objects:
                    raise HeapError(
                        f"space {space.name!r} holds freed object "
                        f"{obj.obj_id}"
                    )
                used += obj.size
            if used != space.used:
                raise HeapError(
                    f"space {space.name!r} accounting off: tracked "
                    f"{space.used}, actual {used}"
                )
        for obj in self._objects.values():
            if obj.obj_id not in seen:
                raise HeapError(f"object {obj.obj_id} is in no space")
            for ref in obj.references():
                if ref not in self._objects:
                    raise HeapError(
                        f"object {obj.obj_id} points at freed object {ref}"
                    )
