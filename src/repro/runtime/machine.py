"""The runtime machine: heap + collector + write barrier + roots.

:class:`Machine` is the mutator-facing façade the benchmark programs
run against.  It wires together a simulated heap, a collector, the
write barrier, the root set, and a static area for interned symbols,
and exposes Scheme-flavoured constructors and accessors (``cons``,
``car``, ``vector_set``, flonum arithmetic, ...).

Rooting model: a :class:`~repro.runtime.values.Ref` handle that Python
code holds is a GC root.  Handles are *interned* — the machine's table
maps an object id to the one ``Ref`` of that object, and every reader
gets that one — so "held" is a question CPython already answers: the
root provider reports the ids whose ``Ref`` has a reference beyond the
table's own (:func:`sys.getrefcount`) and forgets the rest.  This
mirrors the stack maps/handle scopes of real runtimes and lets
benchmark code be written as ordinary Python while remaining GC-safe (a
collection can strike inside any constructor).

Static area discipline: objects in the static area (symbols and their
names) are immutable after creation and may only reference other
static objects.  Collectors treat the static area as a boundary — it
is never condemned — so a static-to-dynamic pointer would be unsound;
the machine rejects such stores.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

from repro.gc.collector import Collector
from repro.gc.stats import GcStats
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.flat import (
    _DEAD,
    _FC_MASK,
    _FC_SHIFT,
    _KIND_SHIFT,
    _TOKEN_MASK,
    FlatHeap,
    HeapError,
)
from repro.heap.roots import RootSet
from repro.runtime.values import (
    FLONUM_WORDS,
    PAIR_WORDS,
    SYMBOL_WORDS,
    Fixnum,
    Ref,
    SchemeValue,
    word_size_of_string,
    word_size_of_vector,
)

__all__ = ["CollectorFactory", "Machine"]

#: Builds a collector over a freshly created heap and root set.
CollectorFactory = Callable[[FlatHeap, RootSet], Collector]


#: Immediates a slot holds as they are (:meth:`Machine._encode`'s
#: commonest cases, which the store paths test without calling it).
_PLAIN_IMMEDIATES = frozenset({type(None), bool, Fixnum})

#: The handle table is swept from the insert path when it outgrows
#: this many entries, or twice the handles found held by the last such
#: sweep if that is more: it stays near the number of handles in use
#: however many distinct objects a program reads between collections.
_MIN_HANDLE_LIMIT = 512


def _rooted_ids(handles: dict[int, Ref], idle: int) -> list[int]:
    """The ids whose handle something besides ``handles`` references,
    in insertion order; every other entry is deleted.

    ``idle`` is the reference count this loop reads on a handle that
    only the table holds (:func:`_idle_refcount`).  An idle entry names
    an object no Python code can reach through a handle any more, which
    is exactly when a ``__del__``-maintained table would already have
    lost it.  No ``Ref`` is freed inside the loop, so nothing can mutate
    the table under it.
    """
    getrefcount = sys.getrefcount
    rooted = []
    forgotten = []
    for ref in handles.values():
        if getrefcount(ref) > idle:
            rooted.append(ref.obj_id)
        else:
            forgotten.append(ref.obj_id)
    for obj_id in forgotten:
        del handles[obj_id]
    return rooted


def _measure_idle(scan: Callable[[dict[int, Ref], int], list[int]]) -> int:
    """The reference count ``scan`` reads on a handle only its table
    holds: what a plain loop over a table reads (table, loop variable,
    call argument), checked against ``scan`` itself.

    On one-entry tables the scan must call the probe rooted below that
    count and idle at it, and with one outside reference rooted at it
    and idle one above; anything else raises.  A lower or non-additive
    reading means :func:`sys.getrefcount` does not count references
    here; a higher one means the scan holds a reference of its own to
    the probe, and one entry cannot tell whether it would hold one to
    *every* entry (harmless) or only to some (the others would read
    below ``idle`` while held, and lose their root).
    """

    def rooted(held: bool, threshold: int) -> bool:
        table = {0: Ref(0, "probe")}
        holder = table[0] if held else None  # the outside reference
        return bool(scan(table, threshold))

    table = {0: Ref(0, "probe")}
    for ref in table.values():
        idle = sys.getrefcount(ref)
    del ref
    verdicts = [
        rooted(False, idle - 1),
        rooted(False, idle),
        rooted(True, idle),
        rooted(True, idle + 1),
    ]
    if verdicts != [True, False, True, False]:
        raise RuntimeError(
            f"cannot root handles by reference count on this interpreter: "
            f"a plain loop reads {idle} on an idle table entry, but the "
            f"scan calls an idle probe rooted at thresholds {idle - 1}, "
            f"{idle} and a held one at {idle}, {idle + 1}: {verdicts} "
            f"(expected [True, False, True, False])"
        )
    return idle


@functools.cache
def _idle_refcount() -> int:
    """:func:`_measure_idle` of the real scan, once per process — at the
    first :class:`Machine`, not at import: every process that imports
    :mod:`repro` imports this module."""
    return _measure_idle(_rooted_ids)


class Machine:
    """A complete simulated runtime for one benchmark execution.

    ``heap_backend`` names the heap (:func:`repro.heap.backend.make_heap`
    accepts only ``"flat"``).
    """

    def __init__(
        self,
        collector_factory: CollectorFactory,
        *,
        heap_backend: str = FlatHeap.backend_name,
    ) -> None:
        self.heap = make_heap(heap_backend)
        self.roots = RootSet()
        self.collector = collector_factory(self.heap, self.roots)
        self.barrier = WriteBarrier(self.collector.remember_store_id)
        #: The collector's barrier hook, or None if it is the base
        #: class's no-op (mark-sweep, stop-and-copy).  The store paths
        #: below bump the barrier's counters and call it themselves, a
        #: frame less than ``barrier.on_store``.
        remember = self.collector.remember_store_id
        self._remember = (
            None
            if getattr(remember, "__func__", None)
            is Collector.remember_store_id
            else remember
        )
        self.static = self.heap.add_space("static", None)
        #: Object id -> *the* handle of that object, for every object
        #: Python code may still hold one of (and, until the next sweep,
        #: some it no longer does).
        self._handles: dict[int, Ref] = {}
        self._handle_limit = _MIN_HANDLE_LIMIT
        idle = _idle_refcount()
        # The provider is the table's only reader.  It closes over the
        # table, not the machine, and a Ref holds only its id and kind:
        # nothing the machine owns points back at it, so
        # dropping the last reference frees it (and the heap's arenas)
        # at once instead of leaving it to CPython's cycle collector —
        # which float-heavy programs, whose only tracked allocations
        # are short-lived handles, never trigger.
        handles = self._handles
        self.roots.add_provider(lambda: _rooted_ids(handles, idle))
        self._symbols: dict[str, Ref] = {}
        # Object layouts the constructors allocate, validated and
        # packed by the heap once instead of at every allocation.
        self._pair_shape = self.heap.shape(PAIR_WORDS, 2, "pair")
        self._flonum_shape = self.heap.shape(FLONUM_WORDS, 0, "flonum")
        #: Vector length -> (words, shape), entered by the first vector
        #: of that length (which took the checked path).
        self._vector_shapes: dict[int, tuple[int, object]] = {}
        #: Callbacks invoked with the id of each dynamically allocated
        #: object.
        self._allocation_hooks: list[Callable[[int], None]] = []
        #: Mutator operations executed (reads, stores, arithmetic).
        #: Together with words allocated this is the simulator's proxy
        #: for "mutator time" in Table 3: programs like sboyer that
        #: trade allocation for pointer comparisons keep their mutator
        #: cost while shedding their GC cost.
        self.operations = 0

    # ------------------------------------------------------------------
    # Handles (Python-side roots)
    # ------------------------------------------------------------------

    def _new_handle(self, obj_id: int, kind: str) -> Ref:
        """Build and intern the handle of an object the table lacks.

        The allocation and read paths inline this body: a frame per
        allocation or table miss is measurable on the programs.
        """
        handles = self._handles
        handles[obj_id] = ref = Ref(obj_id, kind)
        if len(handles) > self._handle_limit:
            self._sweep_handles()
        return ref

    def _sweep_handles(self) -> None:
        """Forget the idle entries; sweep again when the table has
        doubled.  The caller's new handle is held by its frame."""
        self._handle_limit = max(
            _MIN_HANDLE_LIMIT,
            2 * len(_rooted_ids(self._handles, _idle_refcount())),
        )

    @property
    def handle_count(self) -> int:
        """Objects rooted by a handle right now."""
        return len(_rooted_ids(self._handles, _idle_refcount()))

    # ------------------------------------------------------------------
    # Value encoding
    # ------------------------------------------------------------------

    def _encode(self, value: SchemeValue) -> object:
        """Program value -> slot value (id for handles, raw immediates)."""
        if isinstance(value, Ref):
            return value.obj_id
        if value is None or isinstance(value, (bool, Fixnum)):
            return value
        if isinstance(value, str) and len(value) == 1:
            return value  # a character immediate
        if isinstance(value, (int, float)):
            raise TypeError(
                f"raw Python numbers cannot be stored in the heap; wrap "
                f"ints with Fixnum and box floats with make_flonum "
                f"(got {value!r})"
            )
        raise TypeError(f"not a storable Scheme value: {value!r}")

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def _store(self, obj_id: int, slot: int, value: SchemeValue) -> None:
        """Store ``value`` into an existing slot of ``obj_id`` through
        the write barrier: barrier, then write, since the SATB barrier
        reads the slot's old value.  The caller has checked the slot
        index; the slot arena is written directly."""
        self.operations += 1
        barrier = self.barrier
        heap = self.heap
        remember = self._remember
        if isinstance(value, Ref):
            # A live handle pins its object, so the handle's id *is*
            # the store target.  Residency in the static area is the
            # state word's space token (dead and detached words carry
            # none).
            target_id = value.obj_id
            state = heap._state
            static_token = self.static._token
            if (
                state[obj_id] & _TOKEN_MASK == static_token
                and state[target_id] & _TOKEN_MASK != static_token
            ):
                raise HeapError(
                    "static objects may only reference static objects"
                )
            barrier.stores += 1
            barrier.pointer_stores += 1
            if remember is not None:
                remember(obj_id, slot, target_id)
            if heap.checked and not heap.contains_id(target_id):
                raise HeapError(f"cannot store dangling object id {target_id}")
            heap._slots[heap._slot_base[obj_id] + slot] = target_id
        else:
            if type(value) not in _PLAIN_IMMEDIATES:
                value = self._encode(value)
            barrier.stores += 1
            # The SATB barrier must see pointer *deletions* too:
            # overwriting a reference slot with an immediate kills an
            # edge just as surely as storing None.
            if remember is not None:
                remember(obj_id, slot, None)
            heap._slots[heap._slot_base[obj_id] + slot] = value

    def _require(self, value: SchemeValue, kind: str) -> int:
        """The object id behind a handle of the given kind."""
        if not isinstance(value, Ref) or value.kind != kind:
            raise TypeError(f"expected a {kind}, got {value!r}")
        return value.obj_id

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    def _notify(self, obj_id: int) -> None:
        for hook in self._allocation_hooks:
            hook(obj_id)

    def add_allocation_hook(self, hook: Callable[[int], None]) -> None:
        self._allocation_hooks.append(hook)

    def cons(self, car: SchemeValue, cdr: SchemeValue) -> Ref:
        """Allocate a pair (2 words).

        The two initializing stores are inlined from :meth:`_store`: a
        fresh pair is never in the static area, so the static-reference
        check cannot fire.  Barrier counts and the remember-store hook
        are identical to ``_store``.

        The stores stay separate from the allocation and in barrier,
        then slot, order: the SATB barrier reads the slot's *old* value.
        """
        heap = self.heap
        # The allocation fast path, inlined here and in make_flonum and
        # make_vector like _new_handle below (one frame per allocation
        # is measurable on the allocation-bound programs).  Hit: the
        # collector's published space has room under its published
        # limit, so _reserve would do nothing — bump there.  Miss:
        # enter the collector, which may collect and publishes anew.
        collector = self.collector
        space = collector.bump_space
        if space.used + PAIR_WORDS <= collector.bump_limit:
            obj_id = heap.bump_allocate(self._pair_shape, space)
            stats = collector.stats
            stats.words_allocated += PAIR_WORDS
            stats.objects_allocated += 1
        else:
            obj_id = collector.allocate_id(PAIR_WORDS, 2, "pair")
        handles = self._handles
        handles[obj_id] = ref = Ref(obj_id, "pair")
        if len(handles) > self._handle_limit:
            self._sweep_handles()
        slots = heap._slots
        base = heap._slot_base[obj_id]
        remember = self._remember
        barrier = self.barrier
        self.operations += 2
        barrier.stores += 2
        if isinstance(car, Ref):
            target_id = car.obj_id
            barrier.pointer_stores += 1
            if remember is not None:
                remember(obj_id, 0, target_id)
            if heap.checked and not heap.contains_id(target_id):
                raise HeapError(f"cannot store dangling object id {target_id}")
            slots[base] = target_id
        elif type(car) in _PLAIN_IMMEDIATES:
            slots[base] = car
        else:
            slots[base] = self._encode(car)
        if isinstance(cdr, Ref):
            target_id = cdr.obj_id
            barrier.pointer_stores += 1
            if remember is not None:
                remember(obj_id, 1, target_id)
            if heap.checked and not heap.contains_id(target_id):
                raise HeapError(f"cannot store dangling object id {target_id}")
            slots[base + 1] = target_id
        elif type(cdr) in _PLAIN_IMMEDIATES:
            slots[base + 1] = cdr
        else:
            slots[base + 1] = self._encode(cdr)
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_vector(self, length: int, fill: SchemeValue = None) -> Ref:
        """Allocate a vector (length + 1 words)."""
        collector = self.collector
        space = collector.bump_space
        known = self._vector_shapes.get(length)
        if known is not None and space.used + known[0] <= collector.bump_limit:
            size, shape = known
            obj_id = self.heap.bump_allocate(shape, space)
            stats = collector.stats
            stats.words_allocated += size
            stats.objects_allocated += 1
        else:
            size = word_size_of_vector(length)
            obj_id = collector.allocate_id(size, length, "vector")
            if known is None:
                self._vector_shapes[length] = (
                    size,
                    self.heap.shape(size, length, "vector"),
                )
        handles = self._handles
        handles[obj_id] = ref = Ref(obj_id, "vector")
        if len(handles) > self._handle_limit:
            self._sweep_handles()
        if fill is not None:
            for slot in range(length):
                self._store(obj_id, slot, fill)
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_flonum(self, value: float) -> Ref:
        """Box an IEEE double (4 words, §7.2's flonum representation)."""
        payload = float(value)
        heap = self.heap
        collector = self.collector
        space = collector.bump_space
        if space.used + FLONUM_WORDS <= collector.bump_limit:
            obj_id = heap.bump_allocate(self._flonum_shape, space, payload)
            stats = collector.stats
            stats.words_allocated += FLONUM_WORDS
            stats.objects_allocated += 1
        else:
            obj_id = collector.allocate_id(FLONUM_WORDS, 0, "flonum")
            heap.set_payload(obj_id, payload)
        handles = self._handles
        handles[obj_id] = ref = Ref(obj_id, "flonum")
        if len(handles) > self._handle_limit:
            self._sweep_handles()
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_string(self, text: str) -> Ref:
        """Allocate a string (1 + ceil(n/4) words)."""
        obj_id = self.collector.allocate_id(
            word_size_of_string(len(text)), 0, "string"
        )
        self.heap.set_payload(obj_id, text)
        ref = self._new_handle(obj_id, "string")
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def intern(self, name: str) -> Ref:
        """Return the interned symbol for ``name`` (static area).

        Symbols and their print names live in the static area, are
        never collected, and do not advance the allocation clock —
        matching the paper's setup, where the static area holds "code,
        constants, and global data" outside the measured heap.
        """
        existing = self._symbols.get(name)
        if existing is not None:
            return existing
        heap = self.heap
        string_id = heap.allocate_id(
            word_size_of_string(len(name)),
            0,
            self.static,
            "string",
            advance_clock=False,
        )
        heap.set_payload(string_id, name)
        symbol_id = heap.allocate_id(
            SYMBOL_WORDS, 1, self.static, "symbol", advance_clock=False
        )
        heap.set_payload(symbol_id, name)
        heap.store_slot(symbol_id, 0, string_id)
        ref = self._new_handle(symbol_id, "symbol")
        self._symbols[name] = ref
        return ref

    # ------------------------------------------------------------------
    # Pairs
    # ------------------------------------------------------------------

    def car(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        # A pair has two slots by kind: no field count to decode.
        heap = self.heap
        value = heap._slots[heap._slot_base[pair.obj_id]]
        if type(value) is int:
            # The load vouches for the id: a table entry alone would
            # not, it can outlive an object the heap has freed.
            state = heap._state
            if not 0 <= value < len(state) or state[value] == _DEAD:
                raise HeapError(f"dangling object id {value}")
            handles = self._handles
            ref = handles.get(value)
            if ref is None:
                handles[value] = ref = Ref(
                    value, heap._kind_names[heap._hdr[value] >> _KIND_SHIFT]
                )
                if len(handles) > self._handle_limit:
                    self._sweep_handles()
            return ref
        return value

    def cdr(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        heap = self.heap
        value = heap._slots[heap._slot_base[pair.obj_id] + 1]
        if type(value) is int:
            state = heap._state
            if not 0 <= value < len(state) or state[value] == _DEAD:
                raise HeapError(f"dangling object id {value}")
            handles = self._handles
            ref = handles.get(value)
            if ref is None:
                handles[value] = ref = Ref(
                    value, heap._kind_names[heap._hdr[value] >> _KIND_SHIFT]
                )
                if len(handles) > self._handle_limit:
                    self._sweep_handles()
            return ref
        return value

    def set_car(self, pair: SchemeValue, value: SchemeValue) -> None:
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        self._store(pair.obj_id, 0, value)

    def set_cdr(self, pair: SchemeValue, value: SchemeValue) -> None:
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        self._store(pair.obj_id, 1, value)

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def _vector_index_error(self, obj_id: int, index: int) -> IndexError:
        length = self.heap.slot_count_of(obj_id)
        return IndexError(
            f"vector index {index} out of range 0..{length - 1}"
        )

    def vector_length(self, vector: SchemeValue) -> int:
        return self.heap.slot_count_of(self._require(vector, "vector"))

    def vector_ref(self, vector: SchemeValue, index: int) -> SchemeValue:
        self.operations += 1
        if not isinstance(vector, Ref) or vector.kind != "vector":
            raise TypeError(f"expected a vector, got {vector!r}")
        heap = self.heap
        obj_id = vector.obj_id
        # The bounds come from the header's field count, before the
        # load: a bad index is the caller's IndexError, and only a
        # loaded id that names no live object is a HeapError.
        if not 0 <= index < (heap._hdr[obj_id] >> _FC_SHIFT) & _FC_MASK:
            raise self._vector_index_error(obj_id, index)
        value = heap._slots[heap._slot_base[obj_id] + index]
        if type(value) is int:
            state = heap._state
            if not 0 <= value < len(state) or state[value] == _DEAD:
                raise HeapError(f"dangling object id {value}")
            handles = self._handles
            ref = handles.get(value)
            if ref is None:
                handles[value] = ref = Ref(
                    value, heap._kind_names[heap._hdr[value] >> _KIND_SHIFT]
                )
                if len(handles) > self._handle_limit:
                    self._sweep_handles()
            return ref
        return value

    def vector_set(
        self, vector: SchemeValue, index: int, value: SchemeValue
    ) -> None:
        if not isinstance(vector, Ref) or vector.kind != "vector":
            raise TypeError(f"expected a vector, got {vector!r}")
        obj_id = vector.obj_id
        # Checked here, not left to the store: an out-of-range index
        # must not reach the barrier or the counters.
        if not 0 <= index < (self.heap._hdr[obj_id] >> _FC_SHIFT) & _FC_MASK:
            raise self._vector_index_error(obj_id, index)
        self._store(obj_id, index, value)

    # ------------------------------------------------------------------
    # Strings and symbols
    # ------------------------------------------------------------------

    def string_value(self, string: SchemeValue) -> str:
        return str(self.heap.payload_of(self._require(string, "string")))

    def symbol_name(self, symbol: SchemeValue) -> str:
        return str(self.heap.payload_of(self._require(symbol, "symbol")))

    # ------------------------------------------------------------------
    # Flonums
    # ------------------------------------------------------------------

    def flonum_value(self, flonum: SchemeValue) -> float:
        self.operations += 1
        if not isinstance(flonum, Ref) or flonum.kind != "flonum":
            raise TypeError(f"expected a flonum, got {flonum!r}")
        payload = self.heap._payloads.get(flonum.obj_id)
        assert isinstance(payload, float)
        return payload

    # The arithmetic below reads both operands as flonum_value does
    # (one operation each), inline and straight from the payload table:
    # a flonum operation is the unit of work of the float-heavy
    # programs, and each frame shows.

    def fl_add(self, a: SchemeValue, b: SchemeValue) -> Ref:
        """Flonum addition: allocates the boxed result, as Larceny does."""
        self.operations += 2
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        if not isinstance(b, Ref) or b.kind != "flonum":
            raise TypeError(f"expected a flonum, got {b!r}")
        payload = self.heap._payloads.get
        x, y = payload(a.obj_id), payload(b.obj_id)
        assert isinstance(x, float) and isinstance(y, float)
        return self.make_flonum(x + y)

    def fl_sub(self, a: SchemeValue, b: SchemeValue) -> Ref:
        self.operations += 2
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        if not isinstance(b, Ref) or b.kind != "flonum":
            raise TypeError(f"expected a flonum, got {b!r}")
        payload = self.heap._payloads.get
        x, y = payload(a.obj_id), payload(b.obj_id)
        assert isinstance(x, float) and isinstance(y, float)
        return self.make_flonum(x - y)

    def fl_mul(self, a: SchemeValue, b: SchemeValue) -> Ref:
        self.operations += 2
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        if not isinstance(b, Ref) or b.kind != "flonum":
            raise TypeError(f"expected a flonum, got {b!r}")
        payload = self.heap._payloads.get
        x, y = payload(a.obj_id), payload(b.obj_id)
        assert isinstance(x, float) and isinstance(y, float)
        return self.make_flonum(x * y)

    def fl_div(self, a: SchemeValue, b: SchemeValue) -> Ref:
        self.operations += 2
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        if not isinstance(b, Ref) or b.kind != "flonum":
            raise TypeError(f"expected a flonum, got {b!r}")
        payload = self.heap._payloads.get
        x, y = payload(a.obj_id), payload(b.obj_id)
        assert isinstance(x, float) and isinstance(y, float)
        return self.make_flonum(x / y)

    def fl_sqrt(self, a: SchemeValue) -> Ref:
        self.operations += 1
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        x = self.heap._payloads.get(a.obj_id)
        assert isinstance(x, float)
        return self.make_flonum(x**0.5)

    def fl_less(self, a: SchemeValue, b: SchemeValue) -> bool:
        self.operations += 2
        if not isinstance(a, Ref) or a.kind != "flonum":
            raise TypeError(f"expected a flonum, got {a!r}")
        if not isinstance(b, Ref) or b.kind != "flonum":
            raise TypeError(f"expected a flonum, got {b!r}")
        payload = self.heap._payloads.get
        x, y = payload(a.obj_id), payload(b.obj_id)
        assert isinstance(x, float) and isinstance(y, float)
        return x < y

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Request a full collection (the paper's mutator-initiated GC)."""
        self.collector.collect()

    def full_collect_to_static(self) -> int:
        """§8.4's full collection: promote all live storage to static.

        "A full collection empties the remembered set and promotes all
        live storage to the static area.  Full collections occur only
        when requested explicitly by the mutator."  Returns the words
        promoted.  Promoted objects fall under the static-area
        discipline: later stores into them may only reference static
        objects (new dynamic data must not be reachable from the
        uncollected static area).
        """
        heap = self.heap
        static = self.static
        reached = heap.reachable_from(self.roots.ids())
        promoted = 0
        for obj_id in reached:
            if heap.space_if_live(obj_id) is not static:
                heap.move(obj_id, static)
                promoted += heap.size_of(obj_id)
        # Everything left in a dynamic space is garbage.
        for space in list(heap.spaces()):
            if space is static:
                continue
            for obj_id in list(space.object_ids()):
                heap.free(obj_id)
        self.collector.on_static_promotion()
        return promoted

    @property
    def stats(self) -> GcStats:
        return self.collector.stats

    @property
    def clock(self) -> int:
        """Words of dynamic allocation so far (the time axis)."""
        return self.heap.clock

    @property
    def mutator_work(self) -> int:
        """Mutator time proxy: words allocated plus operations executed."""
        return self.stats.words_allocated + self.operations

    def live_words(self) -> int:
        """Words currently reachable from the roots (an exact trace)."""
        heap = self.heap
        return sum(
            heap.size_of(obj_id)
            for obj_id in heap.reachable_from(self.roots.ids())
            if heap.space_if_live(obj_id) is not self.static
        )

    def describe(self) -> str:
        return f"machine({self.collector.describe()})"
