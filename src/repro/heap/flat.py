"""The simulated heap: headers and slots in struct-of-arrays arenas.

:class:`FlatHeap` owns every object and every space.  It provides
word-accurate allocation (advancing an allocation clock that the whole
reproduction uses as its notion of time, exactly as the paper measures
time "by the number of objects that have been allocated" — here
generalized to words), object movement between spaces, field reads and
writes, reachability tracing, and the collection kernels the seven
collectors in :mod:`repro.gc` are written against; it knows nothing
about collection policy.  Every per-object attribute lives in flat
``array('q')`` arenas indexed by object id, the representation the
PyPy ``SemiSpaceGC`` lineage uses for real heaps:

========  ============================================================
arena     contents (one entry per object id, never reused)
========  ============================================================
_hdr      ``size | field_count << 24 | kind_code << 44`` (packed bits)
_birth    allocation clock at birth
_state    ``0`` dead · ``1`` detached (mid-collection) ·
          ``(pos << 16) | token`` resident at position ``pos`` of the
          space whose token is ``token`` (tokens start at 2)
_slot_base  index of the object's first slot in the shared ``_slots``
          list arena (slots hold ids, ``None``, or immediates, so the
          slot arena is a Python list, not an ``array``)
========  ============================================================

``kind`` strings are interned to small integers; rare ``payload``
values live in a side table.  A :class:`FlatSpace` keeps an
append-only id list with *lazy deletion*: an entry at position ``i``
is valid iff the object's packed state is exactly
``(i << 16) | token``, which reproduces dict insertion-order semantics
(iteration order, re-insert-at-end) without per-removal compaction.
The survivor-enumeration order of the non-predictive and hybrid
collectors is observable (it drives packing, renumbering, and reclaim
timing).  ``tests/heap/reference_model.py`` states these semantics as
a plain dict model, and a state machine holds this heap to it after
every operation.

Every client names an object by its id: collectors through the
kernel methods (``trace_region``, ``cheney_evacuate``,
``partition_space`` and ``extract_live`` over one sweep kernel, ...),
mutators through the id-level accessors (``allocate_id``, ``kind_of``,
``load_slot``, ``store_slot``, ``payload_of``, ...), and space
membership through ``FlatSpace.add``/``remove``/``contains``,
``free`` and ``move``.  :meth:`FlatHeap.get` returns a read-only
:class:`FlatObject` view of one row for readers that want its
attributes together; nothing else builds one.

The arenas themselves (``_hdr``, ``_birth``, ``_state``,
``_slot_base``, ``_slots``, ``_payloads``) and the packing constants
above are a contract with exactly three readers and writers outside
the accessors: this module's kernels, the runtime machine's unit
operations (:mod:`repro.runtime.machine` indexes them inline, one
Python frame per ``car``, keeping every check the accessors make), and
the fault injectors (:mod:`repro.resilience.faults` corrupt them behind
every probe and barrier).  Everything else goes through the methods;
CI greps ``src/`` for arena access anywhere else.

References between objects are stored as integer object ids rather
than Python references, so reachability is whatever the simulated
graph says, never what CPython's own GC happens to keep alive.  A slot
may also hold an *immediate*: any value that is not an ``int`` and not
``None`` (the Scheme-ish runtime stores booleans, characters and
wrapped fixnums this way).  Immediates are opaque to the collector:
``type(value) is int`` is the tagging test every tracing loop makes,
which excludes ``bool`` deliberately, so booleans can be stored raw.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Collection, Iterable, Iterator

__all__ = [
    "FlatHeap",
    "FlatObject",
    "FlatSpace",
    "HeapError",
    "SpaceFull",
]

# Header packing: size in the low 24 bits, field count in the next 20,
# kind code above.  Sizes stay far below 2**24 words in every workload
# (the validator rejects larger objects).
_SIZE_BITS = 24
_SIZE_MASK = (1 << _SIZE_BITS) - 1
_FC_SHIFT = _SIZE_BITS
_FC_BITS = 20
_FC_MASK = (1 << _FC_BITS) - 1
_KIND_SHIFT = _FC_SHIFT + _FC_BITS

# State packing: low 16 bits are the residency token, the rest is the
# position inside the owning space's id list.
_DEAD = 0
_DETACHED = 1
_TOKEN_BITS = 16
_TOKEN_MASK = (1 << _TOKEN_BITS) - 1
_POS_SHIFT = _TOKEN_BITS
_FIRST_TOKEN = 2

# Compact a space's id list when stale entries outnumber live ones
# this many times over (deterministic: depends only on the operation
# sequence, and list positions are not observable).
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 64


class HeapError(Exception):
    """Structural misuse of the simulated heap (dangling ids, bad slots)."""


class SpaceFull(Exception):
    """Raised when an allocation or move would overflow a space."""

    def __init__(self, space: "FlatSpace", requested: int) -> None:
        super().__init__(
            f"space {space.name!r} cannot fit {requested} words "
            f"({space.free} of {space.capacity} free)"
        )
        self.space = space
        self.requested = requested


class FlatSpace:
    """A bounded region of the heap, backed by an append-only id list.

    Collectors build their heap geometry out of spaces: a mark/sweep
    collector uses one space, a stop-and-copy collector two semispaces,
    a generational collector one or more per generation, and the
    non-predictive collector ``k`` equally sized *steps*.  ``used`` is
    the sum of resident object sizes, ``free`` is ``capacity - used``,
    and a space never accepts an object that would overflow it: the
    resulting :class:`SpaceFull` is what triggers collection.  A
    ``None`` capacity is unbounded (trace-collection harnesses that
    never collect).  Membership is the packed state word in the owning
    :class:`FlatHeap`.
    """

    __slots__ = ("name", "capacity", "used", "_heap", "_token", "_ids", "_count")

    def __init__(self, heap: "FlatHeap", name: str, capacity: int | None,
                 token: int) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity!r}")
        self.name = name
        self.capacity = capacity
        self.used = 0
        # Weak: the heap owns its spaces, and a back-reference that
        # counted would keep a dropped heap's arenas until CPython's
        # cycle collector next ran.
        self._heap = weakref.proxy(heap)
        self._token = token
        self._ids: list[int] = []
        self._count = 0

    # -- occupancy ------------------------------------------------------

    @property
    def free(self) -> int:
        if self.capacity is None:
            return 2**62
        return self.capacity - self.used

    @property
    def object_count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def fits(self, words: int) -> bool:
        return self.capacity is None or self.used + words <= self.capacity

    # -- membership -----------------------------------------------------

    def add(self, oid: int) -> None:
        """Place a detached object here, updating occupancy."""
        heap = self._heap
        if self.contains(oid):
            raise ValueError(f"object {oid} is already in space {self.name!r}")
        size = heap._hdr[oid] & _SIZE_MASK
        if not self.fits(size):
            raise SpaceFull(self, size)
        heap.place_id(oid, self, size)

    def remove(self, oid: int) -> None:
        """Detach a resident object, updating occupancy."""
        heap = self._heap
        if not self.contains(oid):
            raise KeyError(f"object {oid} is not in space {self.name!r}")
        heap._state[oid] = _DETACHED
        self.used -= heap._hdr[oid] & _SIZE_MASK
        self._count -= 1

    def contains(self, oid: int) -> bool:
        state = self._heap._state
        if not 0 <= oid < len(state):
            return False
        packed = state[oid]
        return (
            packed & _TOKEN_MASK == self._token
            and (packed >> _POS_SHIFT) < len(self._ids)
            and self._ids[packed >> _POS_SHIFT] == oid
        )

    def object_ids(self) -> Iterator[int]:
        """Resident ids in insertion order (skipping stale entries)."""
        state = self._heap._state
        token = self._token
        for pos, oid in enumerate(self._ids):
            if state[oid] == (pos << _POS_SHIFT) | token:
                yield oid

    def _compact_ids(self) -> None:
        """Drop stale entries, renumbering live positions."""
        if not self._count:
            self._ids = []
            return
        state = self._heap._state
        token = self._token
        fresh: list[int] = []
        append = fresh.append
        for pos, oid in enumerate(self._ids):
            if state[oid] == (pos << _POS_SHIFT) | token:
                state[oid] = (len(fresh) << _POS_SHIFT) | token
                append(oid)
        self._ids = fresh

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else str(self.capacity)
        return (
            f"FlatSpace(name={self.name!r}, used={self.used}/{cap}, "
            f"objects={self._count})"
        )


class FlatObject:
    """A read-only view of one arena row, built by :meth:`FlatHeap.get`.

    Every attribute reads through to the arenas, so two views of the
    same id always agree; views have no identity guarantee (compare
    ``obj_id``).  Nothing writes through a view: the heap's id-level
    methods are the only way to change an object.
    """

    __slots__ = ("heap", "obj_id")

    def __init__(self, heap: "FlatHeap", obj_id: int) -> None:
        self.heap = heap
        self.obj_id = obj_id

    @property
    def size(self) -> int:
        return self.heap.size_of(self.obj_id)

    @property
    def birth(self) -> int:
        return self.heap.birth_of(self.obj_id)

    @property
    def kind(self) -> str:
        heap = self.heap
        return heap._kind_names[heap._hdr[self.obj_id] >> _KIND_SHIFT]

    @property
    def space(self) -> FlatSpace | None:
        return self.heap.space_if_live(self.obj_id)

    @property
    def payload(self) -> object:
        return self.heap.payload_of(self.obj_id)

    def __repr__(self) -> str:
        space = self.space
        where = space.name if space is not None else "nowhere"
        return (
            f"FlatObject(id={self.obj_id}, size={self.size}, "
            f"kind={self.kind!r}, space={where})"
        )


class FlatHeap:
    """A word-accurate simulated heap over struct-of-arrays arenas.

    Attributes:
        clock: total words allocated so far — the reproduction's time
            axis.  Never decreases.
        objects_allocated: count of allocation events.
        checked: when true, :meth:`store_slot` probes every stored
            reference and rejects dangling ids.  Off by default: a
            correct mutator never stores a dangling id.  Checked mode
            (``repro-gc verify``, the heap auditor) turns it on;
            :meth:`check_integrity` catches dangling slots after the
            fact either way.
        event_sink: optional telemetry sink
            (:class:`repro.metrics.events.EventStream`) for space creation and
            removal; ``None`` emits nothing.
    """

    backend_name = "flat"

    __slots__ = (
        "_hdr",
        "_birth",
        "_state",
        "_color",
        "_slot_base",
        "_slots",
        "_payloads",
        "_kind_codes",
        "_kind_names",
        "_spaces",
        "_space_by_token",
        "_live_count",
        "clock",
        "objects_allocated",
        "checked",
        "event_sink",
        "__weakref__",
    )

    def __init__(self, *, checked: bool = False) -> None:
        self._hdr = array("q")
        self._birth = array("q")
        self._state = array("q")
        #: Tri-color mark-state arena (one word per id), sized lazily
        #: at each ``begin_mark_epoch`` so the allocation hot path
        #: never touches it; ids past its end are white, and objects
        #: born inside an epoch are classified by birth clock instead.
        self._color = array("q")
        self._slot_base = array("q")
        self._slots: list[object] = []
        self._payloads: dict[int, object] = {}
        self._kind_codes: dict[str, int] = {"data": 0}
        self._kind_names: list[str] = ["data"]
        self._spaces: dict[str, FlatSpace] = {}
        self._space_by_token: list[FlatSpace | None] = [None, None]
        self._live_count = 0
        self.clock = 0
        self.objects_allocated = 0
        self.checked = checked
        self.event_sink = None

    # ------------------------------------------------------------------
    # Spaces
    # ------------------------------------------------------------------

    def add_space(self, name: str, capacity: int | None) -> FlatSpace:
        if name in self._spaces:
            raise ValueError(f"space {name!r} already exists")
        token = len(self._space_by_token)
        space = FlatSpace(self, name, capacity, token)
        self._space_by_token.append(space)
        self._spaces[name] = space
        if self.event_sink is not None:
            self.event_sink.emit(
                "space-created", space=name, capacity=capacity
            )
        return space

    def space(self, name: str) -> FlatSpace:
        try:
            return self._spaces[name]
        except KeyError:
            raise KeyError(f"no space named {name!r}") from None

    def spaces(self) -> Iterator[FlatSpace]:
        return iter(self._spaces.values())

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return self._live_count

    @property
    def live_words(self) -> int:
        return sum(space.used for space in self._spaces.values())

    def _kind_code(self, kind: str) -> int:
        code = self._kind_codes.get(kind)
        if code is None:
            code = len(self._kind_names)
            self._kind_codes[kind] = code
            self._kind_names.append(kind)
        return code

    def allocate_id(
        self,
        size: int,
        field_count: int,
        space: FlatSpace,
        kind: str = "data",
        *,
        advance_clock: bool = True,
    ) -> int:
        """Allocate a new object in ``space``, advance the clock (unless
        told not to) and return the object's id."""
        capacity = space.capacity
        used = space.used
        if capacity is not None and used + size > capacity:
            raise SpaceFull(space, size)
        if not 1 <= size <= _SIZE_MASK:
            raise ValueError(f"object size must be >= 1 word, got {size!r}")
        if not 0 <= field_count <= size:
            raise ValueError(
                f"field count {field_count!r} does not fit in {size} words"
            )
        oid = len(self._hdr)
        kind_code = self._kind_codes.get(kind)
        if kind_code is None:
            kind_code = self._kind_code(kind)
        self._hdr.append(size | (field_count << _FC_SHIFT)
                         | (kind_code << _KIND_SHIFT))
        self._birth.append(self.clock)
        slots = self._slots
        self._slot_base.append(len(slots))
        if field_count:
            slots += (None,) * field_count
        ids = space._ids
        self._state.append((len(ids) << _POS_SHIFT) | space._token)
        ids.append(oid)
        space._count += 1
        space.used = used + size
        self._live_count += 1
        if advance_clock:
            self.clock += size
            self.objects_allocated += 1
        return oid

    def shape(
        self, size: int, field_count: int, kind: str
    ) -> tuple[int, int, tuple[None, ...]]:
        """Validate an object layout once and return what
        :meth:`bump_allocate` stores for it — the packed header word,
        the size, the empty slots — which :meth:`allocate_id` re-derives
        from its arguments on every call."""
        if not 1 <= size <= _SIZE_MASK:
            raise ValueError(f"object size must be >= 1 word, got {size!r}")
        if not 0 <= field_count <= size:
            raise ValueError(
                f"field count {field_count!r} does not fit in {size} words"
            )
        header = (
            size
            | (field_count << _FC_SHIFT)
            | (self._kind_code(kind) << _KIND_SHIFT)
        )
        return header, size, (None,) * field_count

    def bump_allocate(
        self,
        shape: tuple[int, int, tuple[None, ...]],
        space: FlatSpace,
        payload: object = None,
    ) -> int:
        """:meth:`allocate_id` for a caller that holds a :meth:`shape`
        and has just seen that ``space`` has room (a collector's
        published ``bump_limit``): no argument is validated again and
        the space is not tested for overflow.  Always advances the
        clock."""
        header, size, empty_slots = shape
        hdr = self._hdr
        oid = len(hdr)
        hdr.append(header)
        self._birth.append(self.clock)
        slots = self._slots
        self._slot_base.append(len(slots))
        if empty_slots:
            slots += empty_slots
        ids = space._ids
        self._state.append((len(ids) << _POS_SHIFT) | space._token)
        ids.append(oid)
        space._count += 1
        space.used += size
        self._live_count += 1
        self.clock += size
        self.objects_allocated += 1
        if payload is not None:
            self._payloads[oid] = payload
        return oid

    def bulk_allocate(
        self, count: int, size: int, space: FlatSpace
    ) -> tuple[int, int]:
        """Materialize ``count`` field-less ``data`` objects at C speed.

        Returns the half-open id range ``(first, first + count)``.  The
        caller (a collector's allocation window) has already reserved
        capacity; observable state afterwards — clock, stats, space
        contents, ids — is exactly as if :meth:`allocate_id` had run
        ``count`` times, which is what keeps windowed benchmark runs
        byte-identical to plain allocation for uniform object sizes.
        """
        if count <= 0:
            raise ValueError(f"window must cover >= 1 object, got {count!r}")
        first = len(self._hdr)
        clock = self.clock
        self._hdr.extend(array("q", [size]) * count)
        self._birth.extend(array("q", range(clock, clock + count * size, size)))
        base = len(self._slots)
        self._slot_base.extend(array("q", [base]) * count)
        ids = space._ids
        token = (len(ids) << _POS_SHIFT) | space._token
        self._state.extend(
            array("q", range(token, token + (count << _POS_SHIFT),
                             1 << _POS_SHIFT))
        )
        ids.extend(range(first, first + count))
        space._count += count
        space.used += count * size
        self._live_count += count
        self.clock = clock + count * size
        self.objects_allocated += count
        return first, first + count

    def free(self, oid: int) -> None:
        """Remove a dead object from the heap entirely."""
        state = self._state
        if not 0 <= oid < len(state) or state[oid] == _DEAD:
            raise HeapError(f"object {oid} is not in the heap")
        packed = state[oid]
        if packed != _DETACHED:
            space = self._space_by_token[packed & _TOKEN_MASK]
            space.used -= self._hdr[oid] & _SIZE_MASK
            space._count -= 1
        state[oid] = _DEAD
        self._live_count -= 1
        self._payloads.pop(oid, None)

    def move(self, oid: int, to_space: FlatSpace) -> None:
        """Move an object between spaces (the simulator's "copy")."""
        state = self._state
        if not 0 <= oid < len(state) or state[oid] == _DEAD:
            raise HeapError(f"object {oid} is not in the heap")
        packed = state[oid]
        from_space = (
            None if packed == _DETACHED
            else self._space_by_token[packed & _TOKEN_MASK]
        )
        if from_space is to_space:
            return
        size = self._hdr[oid] & _SIZE_MASK
        capacity = to_space.capacity
        if capacity is not None and to_space.used + size > capacity:
            raise SpaceFull(to_space, size)
        if from_space is not None:
            from_space.used -= size
            from_space._count -= 1
            self._maybe_compact(from_space)
        self.place_id(oid, to_space, size)

    def _maybe_compact(self, space: FlatSpace) -> None:
        ids = space._ids
        if len(ids) > _COMPACT_FACTOR * space._count + _COMPACT_SLACK:
            space._compact_ids()

    def get(self, obj_id: int) -> FlatObject:
        """A read-only view of a live object; dangling ids are a
        structural error."""
        if not self.contains_id(obj_id):
            raise HeapError(f"dangling object id {obj_id}")
        return FlatObject(self, obj_id)

    def contains_id(self, obj_id: int) -> bool:
        state = self._state
        return (
            type(obj_id) is int
            and 0 <= obj_id < len(state)
            and state[obj_id] != _DEAD
        )

    def object_ids(self) -> Iterator[int]:
        """Every live id, ascending."""
        state = self._state
        for oid in range(len(state)):
            if state[oid] != _DEAD:
                yield oid

    def dangling_ids(self, ids: Iterable[int]) -> list[int]:
        return [obj_id for obj_id in ids if not self.contains_id(obj_id)]

    def occupancy(self) -> dict:
        """A JSON-able per-space occupancy snapshot for diagnostics."""
        return {
            "clock": self.clock,
            "objects_allocated": self.objects_allocated,
            "object_count": self._live_count,
            "live_words": self.live_words,
            "spaces": [
                {
                    "name": space.name,
                    "used": space.used,
                    "capacity": space.capacity,
                    "free": None if space.capacity is None else space.free,
                    "objects": space._count,
                }
                for space in self._spaces.values()
            ],
        }

    # ------------------------------------------------------------------
    # Id-level accessors
    # ------------------------------------------------------------------

    def size_of(self, oid: int) -> int:
        return self._hdr[oid] & _SIZE_MASK

    def birth_of(self, oid: int) -> int:
        return self._birth[oid]

    def slot_count_of(self, oid: int) -> int:
        return (self._hdr[oid] >> _FC_SHIFT) & _FC_MASK

    def kind_of(self, oid: int) -> str:
        """The kind tag of a live object; like :meth:`get`, a dangling
        id is a structural error."""
        state = self._state
        if (
            type(oid) is not int
            or not 0 <= oid < len(state)
            or state[oid] == _DEAD
        ):
            raise HeapError(f"dangling object id {oid}")
        return self._kind_names[self._hdr[oid] >> _KIND_SHIFT]

    def payload_of(self, oid: int) -> object:
        return self._payloads.get(oid)

    def set_payload(self, oid: int, value: object) -> None:
        self._payloads[oid] = value

    def load_slot(self, oid: int, slot: int) -> object:
        """A slot's raw value: an id, None, or an immediate."""
        count = (self._hdr[oid] >> _FC_SHIFT) & _FC_MASK
        if not 0 <= slot < count:
            raise HeapError(
                f"object {oid} has no slot {slot} (it has {count})"
            )
        return self._slots[self._slot_base[oid] + slot]

    def store_slot(self, oid: int, slot: int, value: object) -> None:
        """Write a slot's raw value (no write barrier); checked mode
        rejects a dangling id at the store site."""
        count = (self._hdr[oid] >> _FC_SHIFT) & _FC_MASK
        if not 0 <= slot < count:
            raise HeapError(
                f"object {oid} has no slot {slot} (it has {count})"
            )
        if self.checked and type(value) is int and not self.contains_id(value):
            raise HeapError(f"cannot store dangling object id {value}")
        self._slots[self._slot_base[oid] + slot] = value

    def slots_of(self, oid: int) -> list[object]:
        """A snapshot copy of the object's raw slot values."""
        base = self._slot_base[oid]
        count = (self._hdr[oid] >> _FC_SHIFT) & _FC_MASK
        return self._slots[base:base + count]

    def ref_slots(self, oid: int) -> list[tuple[int, int]]:
        """``(slot, ref_id)`` pairs for reference-holding slots."""
        base = self._slot_base[oid]
        count = (self._hdr[oid] >> _FC_SHIFT) & _FC_MASK
        slots = self._slots
        return [
            (slot, slots[base + slot])
            for slot in range(count)
            if type(slots[base + slot]) is int
        ]

    def space_of(self, oid: int) -> FlatSpace | None:
        """The space of a live object, or None while it is detached;
        like :meth:`get`, a dangling id is a structural error."""
        if not self.contains_id(oid):
            raise HeapError(f"dangling object id {oid}")
        return self.space_if_live(oid)

    def space_if_live(self, oid: int) -> FlatSpace | None:
        """The space of ``oid``, or None if freed/detached/dangling."""
        state = self._state
        if type(oid) is not int or not 0 <= oid < len(state):
            return None
        packed = state[oid]
        if packed == _DEAD or packed == _DETACHED:
            return None
        return self._space_by_token[packed & _TOKEN_MASK]

    def slot_ref(self, obj_id: int, slot: int) -> tuple[FlatSpace, int] | None:
        """``(source_space, ref_id)`` for a remset probe, else None.

        None when the source is dead/detached, the slot is out of
        range, or the slot holds a non-reference.
        """
        space = self.space_if_live(obj_id)
        if space is None:
            return None
        count = (self._hdr[obj_id] >> _FC_SHIFT) & _FC_MASK
        if slot >= count:
            return None
        ref = self._slots[self._slot_base[obj_id] + slot]
        if type(ref) is not int:
            return None
        return space, ref

    # ------------------------------------------------------------------
    # Tri-color mark state (incremental collector)
    # ------------------------------------------------------------------

    def begin_mark_epoch(self) -> None:
        """Reset every object's mark color to white (0).

        Rebuilds the color arena zeroed over every id allocated so
        far; ids allocated after the call fall off its end and read as
        white (the incremental collector treats them as allocate-black
        via the birth clock, so they are never recolored).
        """
        self._color = array("q", bytes(8 * len(self._hdr)))

    def color_of(self, oid: int) -> int:
        """The object's mark color: 0 white, 1 gray, 2 black."""
        color = self._color
        return color[oid] if oid < len(color) else 0

    def set_color(self, oid: int, color: int) -> None:
        self._color[oid] = color

    def drain_gray(
        self,
        gray: list[int],
        space: FlatSpace,
        epoch: int,
        limit: int | None = None,
    ) -> int:
        """Scan gray objects until the wavefront drains or ``limit``
        words have been examined; returns the words scanned.

        The flat kernel behind the incremental collector's mark loop:
        identical semantics to popping ``gray`` and walking
        ``ref_slots``/``space_if_live``/``birth_of``/``color_of`` one
        call at a time, with the arena lookups hoisted out of the loop.
        Colors: 0 white, 1 gray, 2 black.  Every id on ``gray`` was
        recolored through :meth:`set_color` and every grayed ref is
        pre-epoch, so direct color-arena indexing is in range.
        """
        state = self._state
        hdr = self._hdr
        birth = self._birth
        color = self._color
        sbase = self._slot_base
        slots = self._slots
        token = space._token
        n = len(state)
        pop = gray.pop
        push = gray.append
        work = 0
        while gray and (limit is None or work < limit):
            oid = pop()
            if color[oid] != 1:
                continue  # conservative duplicate entry; already scanned
            color[oid] = 2
            header = hdr[oid]
            count = (header >> _FC_SHIFT) & _FC_MASK
            if count:
                base = sbase[oid]
                for ref in slots[base:base + count]:
                    if type(ref) is int:
                        if not 0 <= ref < n:
                            raise HeapError(f"dangling object id {ref}")
                        packed = state[ref]
                        if packed == _DEAD:
                            raise HeapError(f"dangling object id {ref}")
                        if (
                            packed != _DETACHED
                            and packed & _TOKEN_MASK == token
                            and birth[ref] < epoch
                            and color[ref] == 0
                        ):
                            color[ref] = 1
                            push(ref)
            work += header & _SIZE_MASK
        return work

    def _splits_at_epoch(
        self, old: list[int], new: list[int], epoch: int
    ) -> bool:
        """True when ``old`` holds only pre-epoch ids inside the color
        arena — so the color alone decides — and ``new`` only ids born
        in the epoch.  Ids are issued in birth order, so the youngest
        of ``old`` and the oldest of ``new`` speak for the rest."""
        birth = self._birth
        if old:
            youngest = max(old)
            if youngest >= len(self._color) or birth[youngest] >= epoch:
                return False
        return not new or birth[min(new)] >= epoch

    def sweep_epoch(
        self, space: FlatSpace, epoch: int, marked: "Collection[int]" = ()
    ) -> int:
        """Close a tri-color cycle over ``space``: free exactly the
        residents that are white, born before ``epoch`` and not in
        ``marked`` (a mark set kept off the color arena — the
        concurrent marker's).

        Returns words reclaimed.  Survivors keep their relative order
        (positions are renumbered, which is unobservable).
        """
        state = self._state
        hdr = self._hdr
        birth = self._birth
        color = self._color
        ncolor = len(color)
        token = space._token
        ids = space._ids
        stride = 1 << _POS_SHIFT
        payloads = self._payloads or None
        reclaimed = 0
        # Allocate-black newborns are appended after the epoch opens and
        # their ids fall off the color arena's end, so they are normally
        # a suffix of the id list that survives wholesale: only the
        # pre-epoch prefix needs classifying.  Anything else (stale
        # entries, an object moved in mid-epoch, a color arena that is
        # not this epoch's) takes the per-entry loop.
        split = bisect_left(ids, ncolor)
        old = ids[:split]
        new = ids[split:]
        if space._count == len(ids) and self._splits_at_epoch(
            old, new, epoch
        ):
            fresh: list[int] = []
            append = fresh.append
            for oid in old:
                if color[oid] or oid in marked:
                    append(oid)
                else:
                    state[oid] = _DEAD
                    reclaimed += hdr[oid] & _SIZE_MASK
                    if payloads is not None:
                        payloads.pop(oid, None)
            if len(fresh) == len(old):
                return 0
            fresh += new
            packed = token
            for oid in fresh:
                state[oid] = packed
                packed += stride
        else:
            fresh = []
            append = fresh.append
            for pos, oid in enumerate(ids):
                if state[oid] == (pos << _POS_SHIFT) | token:
                    if (
                        (oid < ncolor and color[oid])
                        or birth[oid] >= epoch
                        or oid in marked
                    ):
                        state[oid] = (len(fresh) << _POS_SHIFT) | token
                        append(oid)
                    else:
                        state[oid] = _DEAD
                        reclaimed += hdr[oid] & _SIZE_MASK
                        if payloads is not None:
                            payloads.pop(oid, None)
        self._live_count -= space._count - len(fresh)
        space._ids = fresh
        space._count = len(fresh)
        space.used -= reclaimed
        return reclaimed

    def export_mark_snapshot(
        self, space: FlatSpace, root_ids: Iterable[int]
    ) -> dict:
        """Package the reachability-relevant arenas for an off-process
        marker (:mod:`repro.gc.concurrent`).

        Only the space's id span ships: every resident has an id of at
        least ``lo = min(space._ids)``, so the header/state/slot-base
        arenas are sliced from ``lo`` (``array('q')`` slices, one
        memcpy each, which the marker reads as they are and pickle
        carries to a worker as they are) and the slot arena from
        ``_slot_base[lo]`` — slots are laid out in id order.  The slot
        arena is a Python list (it holds ids, ``None``, and
        immediates), so it is lowered, one element at a time with no
        intermediate list, to a packed ``array('q')`` ref plane with
        non-references encoded as ``-1``; ids are non-negative, so the
        encoding is unambiguous.  ``below``
        lists the live ids under ``lo`` (residents of other spaces;
        empty whenever this space holds every live object), which is
        what lets the marker tell a boundary reference from a dangling
        one without the arenas' head.  Birth clocks are deliberately
        absent: every snapshot-resident id is pre-epoch by
        construction (the epoch opens at export).
        """
        state = self._state
        slots = self._slots
        lo = min(space._ids, default=len(state))
        slot_lo = self._slot_base[lo] if lo < len(state) else len(slots)
        refs = array(
            "q",
            (
                x if type(x) is int else -1
                for x in islice(slots, slot_lo, None)
            ),
        )
        below = (
            []
            if self._live_count == space._count
            else [oid for oid in range(lo) if state[oid] != _DEAD]
        )
        return {
            "lo": lo,
            "slot_lo": slot_lo,
            "hdr": self._hdr[lo:],
            "state": state[lo:],
            "slot_base": self._slot_base[lo:],
            "refs": refs,
            "below": below,
            "token": space._token,
            "roots": list(root_ids),
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-serializable snapshot of the full heap state.

        Arenas ship as plain integer lists (portable and diffable; the
        simulated workloads keep them small).  Per-space id lists are
        serialized verbatim *including stale lazy-deletion entries* —
        positions are baked into the packed state words, so dropping
        stale entries would desynchronize every survivor.  Payload
        values must themselves be JSON-serializable.
        """
        return {
            "backend": "flat",
            "clock": self.clock,
            "objects_allocated": self.objects_allocated,
            "hdr": list(self._hdr),
            "birth": list(self._birth),
            "state": list(self._state),
            "color": list(self._color),
            "slot_base": list(self._slot_base),
            "slots": list(self._slots),
            "payloads": sorted(
                [oid, payload] for oid, payload in self._payloads.items()
            ),
            "kind_names": list(self._kind_names),
            "live_count": self._live_count,
            "token_count": len(self._space_by_token),
            "spaces": [
                {
                    "name": space.name,
                    "capacity": space.capacity,
                    "used": space.used,
                    "token": space._token,
                    "count": space._count,
                    "ids": list(space._ids),
                }
                for space in self._spaces.values()
            ],
        }

    def import_state(self, state: dict) -> None:
        """Replace all heap state with an :meth:`export_state` snapshot.

        The registered spaces must match the snapshot by name (the
        collector that owns them is restored first and recreates its
        space structure); each space's token, capacity, occupancy, and
        id list are overwritten from the snapshot, and the token table
        is rebuilt at the snapshot's indices.  Ends with a full
        :meth:`check_integrity` pass so a structurally inconsistent
        snapshot fails here rather than corrupting a later collection.
        The ``"backend"`` key is not read: what heap a snapshot is for
        is checked once, with its envelope, by
        :func:`repro.resilience.snapshot.verify_snapshot`.
        """
        names ={entry["name"] for entry in state["spaces"]}
        if names != set(self._spaces):
            raise HeapError(
                f"snapshot spaces {sorted(names)} do not match heap spaces "
                f"{sorted(self._spaces)}"
            )
        self.clock = int(state["clock"])
        self.objects_allocated = int(state["objects_allocated"])
        self._hdr = array("q", state["hdr"])
        self._birth = array("q", state["birth"])
        self._state = array("q", state["state"])
        self._color = array("q", state["color"])
        self._slot_base = array("q", state["slot_base"])
        self._slots = list(state["slots"])
        self._payloads = {int(oid): payload for oid, payload in state["payloads"]}
        self._kind_names = list(state["kind_names"])
        self._kind_codes = {
            name: code for code, name in enumerate(self._kind_names)
        }
        self._live_count = int(state["live_count"])
        self._space_by_token = [None] * int(state["token_count"])
        for entry in state["spaces"]:
            space = self._spaces[entry["name"]]
            space.capacity = entry["capacity"]
            space.used = int(entry["used"])
            space._token = int(entry["token"])
            space._count = int(entry["count"])
            space._ids = [int(oid) for oid in entry["ids"]]
            self._space_by_token[space._token] = space
        self.check_integrity()

    def place_id(self, oid: int, space: FlatSpace, size: int) -> None:
        """Attach a detached object of ``size`` words to ``space`` (no
        capacity check)."""
        ids = space._ids
        self._state[oid] = (len(ids) << _POS_SHIFT) | space._token
        ids.append(oid)
        space._count += 1
        space.used += size

    def move_ids(self, oids: Iterable[int], target: FlatSpace) -> int:
        """Move resident objects to ``target`` (no capacity check).

        Returns the words moved.  Source-space occupancy is updated;
        stale source id-list entries are invalidated lazily by the
        state rewrite.
        """
        state = self._state
        hdr = self._hdr
        by_token = self._space_by_token
        tids = target._ids
        append = tids.append
        stride = 1 << _POS_SHIFT
        packed_target = (len(tids) << _POS_SHIFT) | target._token
        # Movers overwhelmingly arrive grouped by source space
        # (survivor lists are per-space), so cache the token lookup.
        last_token = -1
        source: FlatSpace | None = None
        moved = 0
        count = 0
        touched: list[FlatSpace] = []
        for oid in oids:
            packed = state[oid]
            size = hdr[oid] & _SIZE_MASK
            if packed != _DETACHED:
                token = packed & _TOKEN_MASK
                if token != last_token:
                    last_token = token
                    source = by_token[token]
                    touched.append(source)
                source.used -= size
                source._count -= 1
            state[oid] = packed_target
            packed_target += stride
            append(oid)
            moved += size
            count += 1
        target._count += count
        target.used += moved
        # Source id-lists now carry stale entries for every mover;
        # compact eagerly-enough that the sweep kernels' no-stale fast
        # paths stay available (emptied spaces compact in O(1)).
        for space in touched:
            if space is not target:
                self._maybe_compact(space)
        return moved

    def count_slot_refs_into(
        self, oids: Iterable[int], spaces: "set[FlatSpace]"
    ) -> int:
        """Count reference slots of ``oids`` that point into ``spaces``."""
        state = self._state
        hdr = self._hdr
        sbase = self._slot_base
        slots = self._slots
        by_token = self._space_by_token
        n = len(state)
        total = 0
        for oid in oids:
            count = (hdr[oid] >> _FC_SHIFT) & _FC_MASK
            if not count:
                continue
            base = sbase[oid]
            for ref in slots[base:base + count]:
                if type(ref) is not int:
                    continue
                if not 0 <= ref < n:
                    raise HeapError(f"dangling object id {ref}")
                packed = state[ref]
                if packed == _DEAD:
                    raise HeapError(f"dangling object id {ref}")
                if packed != _DETACHED and by_token[packed & _TOKEN_MASK] in spaces:
                    total += 1
        return total

    # ------------------------------------------------------------------
    # Collection kernels
    # ------------------------------------------------------------------

    def trace_region(
        self, region: Iterable[FlatSpace], seed_ids: Iterable[int]
    ) -> tuple[set[int], int]:
        """Mark the closure of ``seed_ids`` restricted to ``region``.

        Returns ``(marked_ids, words_marked)``.  References leaving the
        region are not followed; dangling seeds or slots raise
        :class:`HeapError`.
        """
        state = self._state
        hdr = self._hdr
        sbase = self._slot_base
        slots = self._slots
        tokens = frozenset(space._token for space in region)
        n = len(state)
        marked: set[int] = set()
        mark = marked.add
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        words = 0
        for oid in seed_ids:
            if oid not in marked:
                if not 0 <= oid < n:
                    raise HeapError(f"dangling object id {oid}")
                packed = state[oid]
                if packed == _DEAD:
                    raise HeapError(f"dangling object id {oid}")
                if packed & _TOKEN_MASK in tokens:
                    mark(oid)
                    push(oid)
        while stack:
            oid = pop()
            header = hdr[oid]
            words += header & _SIZE_MASK
            count = (header >> _FC_SHIFT) & _FC_MASK
            if count:
                base = sbase[oid]
                for ref in slots[base:base + count]:
                    if type(ref) is int and ref not in marked:
                        if not 0 <= ref < n:
                            raise HeapError(f"dangling object id {ref}")
                        packed = state[ref]
                        if packed == _DEAD:
                            raise HeapError(f"dangling object id {ref}")
                        if packed & _TOKEN_MASK in tokens:
                            mark(ref)
                            push(ref)
        return marked, words

    def cheney_evacuate(
        self,
        from_space: FlatSpace,
        to_space: FlatSpace,
        root_ids: Iterable[int],
    ) -> tuple[int, int]:
        """Copy the live closure out of ``from_space`` into ``to_space``.

        Breadth-first (Cheney order), abandoning everything left in
        ``from_space`` afterwards.  Returns ``(words_copied,
        words_reclaimed)``; occupancies are updated and ``from_space``
        is left empty.
        """
        state = self._state
        hdr = self._hdr
        sbase = self._slot_base
        slots = self._slots
        ftoken = from_space._token
        ttoken = to_space._token
        tids = to_space._ids
        append = tids.append
        stride = 1 << _POS_SHIFT
        packed_target = (len(tids) << _POS_SHIFT) | ttoken
        n = len(state)
        copied: set[int] = set()
        mark = copied.add
        queue: deque[int] = deque()
        push = queue.append
        pop = queue.popleft
        work = 0
        for oid in root_ids:
            if oid in copied:
                continue
            if not 0 <= oid < n:
                raise HeapError(f"dangling object id {oid}")
            packed = state[oid]
            if packed == _DEAD:
                raise HeapError(f"dangling object id {oid}")
            if packed & _TOKEN_MASK != ftoken:
                continue
            state[oid] = packed_target
            packed_target += stride
            append(oid)
            mark(oid)
            push(oid)
            work += hdr[oid] & _SIZE_MASK
        while queue:
            oid = pop()
            count = (hdr[oid] >> _FC_SHIFT) & _FC_MASK
            if not count:
                continue
            base = sbase[oid]
            for ref in slots[base:base + count]:
                if type(ref) is int and ref not in copied:
                    if not 0 <= ref < n:
                        raise HeapError(f"dangling object id {ref}")
                    packed = state[ref]
                    if packed == _DEAD:
                        raise HeapError(f"dangling object id {ref}")
                    if packed & _TOKEN_MASK == ftoken:
                        state[ref] = packed_target
                        packed_target += stride
                        append(ref)
                        mark(ref)
                        push(ref)
                        work += hdr[ref] & _SIZE_MASK
        payloads = self._payloads or None
        fids = from_space._ids
        if payloads is None and from_space._count == len(fids):
            # No stale entries: whatever was not copied is dead, so the
            # reclaimed total needs no per-corpse header reads and the
            # residency test is a bare token compare.
            reclaimed = from_space.used - work
            for oid in fids:
                if state[oid] & _TOKEN_MASK == ftoken:
                    state[oid] = _DEAD
        else:
            reclaimed = 0
            for pos, oid in enumerate(fids):
                if state[oid] == (pos << _POS_SHIFT) | ftoken:
                    state[oid] = _DEAD
                    reclaimed += hdr[oid] & _SIZE_MASK
                    if payloads is not None:
                        payloads.pop(oid, None)
        self._live_count -= from_space._count - len(copied)
        from_space._ids = []
        from_space._count = 0
        from_space.used = 0
        to_space._count += len(copied)
        to_space.used += work
        return work, reclaimed

    def _free_dead(
        self, space: FlatSpace, marked: "set[int]"
    ) -> tuple[list[int], int]:
        """The sweep kernel: free every resident of ``space`` not in
        ``marked``; return the survivors in space order and the words
        freed.

        The caller finishes the job: it rewrites every survivor's state
        word (the fast path may have zeroed them with the dead) and
        resets the space's id list, count and occupancy.
        """
        state = self._state
        hdr = self._hdr
        # The payload side-table is almost always empty; skipping the
        # per-corpse dict.pop when it is keeps the sweep loop tight.
        payloads = self._payloads or None
        ids = space._ids
        if payloads is None and space._count == len(ids):
            # No stale entries: every listed id is resident, so the
            # classification collapses to C-speed comprehensions.
            survivors = [oid for oid in ids if oid in marked]
            survivor_words = sum(hdr[oid] & _SIZE_MASK for oid in survivors)
            reclaimed = space.used - survivor_words
            if len(survivors) != len(ids):
                # Distinct ids (no stale entries), so max-min+1 == len
                # proves the set is exactly an interval regardless of
                # order (a freshly bump-allocated space, typically):
                # kill the whole range in one slice store; the caller
                # re-points the survivors.
                lo, hi = min(ids), max(ids)
                if hi - lo + 1 == len(ids):
                    state[lo:hi + 1] = array("q", bytes(8 * len(ids)))
                else:
                    for oid in ids:
                        if oid not in marked:
                            state[oid] = _DEAD
        else:
            survivors = []
            append = survivors.append
            reclaimed = 0
            token = space._token
            for pos, oid in enumerate(ids):
                if state[oid] == (pos << _POS_SHIFT) | token:
                    if oid in marked:
                        append(oid)
                    else:
                        state[oid] = _DEAD
                        reclaimed += hdr[oid] & _SIZE_MASK
                        if payloads is not None:
                            payloads.pop(oid, None)
        self._live_count -= space._count - len(survivors)
        return survivors, reclaimed

    def partition_space(
        self, space: FlatSpace, marked: "set[int]"
    ) -> tuple[list[int], int]:
        """Sweep ``space`` in place: free dead objects; return surviving
        ids in space order and the words reclaimed.

        Survivors remain resident in ``space``, in their relative order
        (positions are renumbered, which is unobservable) — callers may
        move some of them out afterwards (generational promotion).
        """
        survivors, reclaimed = self._free_dead(space, marked)
        state = self._state
        packed = space._token
        stride = 1 << _POS_SHIFT
        for oid in survivors:
            state[oid] = packed
            packed += stride
        # The space keeps the kernel's list and the caller gets a copy,
        # made after the old id list is released.
        space._ids = survivors
        space._count = len(survivors)
        space.used -= reclaimed
        return list(survivors), reclaimed

    def extract_live(
        self, space: FlatSpace, marked: "set[int]"
    ) -> tuple[list[int], int]:
        """Empty ``space``: free the dead, detach survivors in order.

        Returns ``(survivors, words_reclaimed)``.  Survivors are
        left detached for the caller to repack (evacuation/renumbering
        in the non-predictive and hybrid collectors).
        """
        survivors, reclaimed = self._free_dead(space, marked)
        state = self._state
        for oid in survivors:
            state[oid] = _DETACHED
        space._ids = []
        space._count = 0
        space.used = 0
        return survivors, reclaimed

    def extract_all(self, space: FlatSpace) -> list[int]:
        """Detach every resident of ``space`` in order (compaction)."""
        state = self._state
        token = space._token
        out: list[int] = []
        append = out.append
        for pos, oid in enumerate(space._ids):
            if state[oid] == (pos << _POS_SHIFT) | token:
                state[oid] = _DETACHED
                append(oid)
        space._ids = []
        space._count = 0
        space.used = 0
        return out

    # ------------------------------------------------------------------
    # Tracing / integrity
    # ------------------------------------------------------------------

    def reachable_from(self, root_ids: Iterable[int]) -> set[int]:
        """Transitive closure of the reference graph from the roots."""
        state = self._state
        hdr = self._hdr
        sbase = self._slot_base
        slots = self._slots
        n = len(state)
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
            oid = pop()
            if (
                type(oid) is not int
                or not 0 <= oid < n
                or state[oid] == _DEAD
            ):
                raise HeapError(f"dangling object id {oid}")
            count = (hdr[oid] >> _FC_SHIFT) & _FC_MASK
            if count:
                base = sbase[oid]
                for ref in slots[base:base + count]:
                    if type(ref) is int and ref not in reached:
                        add(ref)
                        push(ref)
        return reached

    def check_integrity(self) -> None:
        """Validate structural invariants; raises HeapError on violation."""
        state = self._state
        hdr = self._hdr
        n = len(state)
        seen: set[int] = set()
        for space in self._spaces.values():
            used = 0
            count = 0
            token = space._token
            for pos, oid in enumerate(space._ids):
                if state[oid] != (pos << _POS_SHIFT) | token:
                    continue
                if oid in seen:
                    raise HeapError(f"object {oid} resides in two spaces")
                seen.add(oid)
                used += hdr[oid] & _SIZE_MASK
                count += 1
            if used != space.used:
                raise HeapError(
                    f"space {space.name!r} accounting off: tracked "
                    f"{space.used}, actual {used}"
                )
            if count != space._count:
                raise HeapError(
                    f"space {space.name!r} object count off: tracked "
                    f"{space._count}, actual {count}"
                )
        live = 0
        for oid in range(n):
            packed = state[oid]
            if packed == _DEAD:
                continue
            live += 1
            if oid not in seen:
                if packed == _DETACHED:
                    raise HeapError(f"object {oid} is in no space")
                space = self._space_by_token[packed & _TOKEN_MASK]
                where = "a removed space" if space is None else (
                    f"space {space.name!r} without a valid id entry"
                )
                raise HeapError(f"object {oid} claims {where}")
            for _, ref in self.ref_slots(oid):
                if not (0 <= ref < n and state[ref] != _DEAD):
                    raise HeapError(
                        f"object {oid} points at freed object {ref}"
                    )
        if live != self._live_count:
            raise HeapError(
                f"live object count off: tracked {self._live_count}, "
                f"actual {live}"
            )
