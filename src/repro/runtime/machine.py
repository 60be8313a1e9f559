"""The runtime machine: heap + collector + write barrier + roots.

:class:`Machine` is the mutator-facing façade the benchmark programs
run against.  It wires together a simulated heap, a collector, the
write barrier, the root set, and a static area for interned symbols,
and exposes Scheme-flavoured constructors and accessors (``cons``,
``car``, ``vector_set``, flonum arithmetic, ...).

Rooting model: every live :class:`~repro.runtime.values.Ref` handle
held by Python code is a GC root, via a root provider registered with
the root set.  This mirrors the stack maps/handle scopes of real
runtimes and lets benchmark code be written as ordinary Python while
remaining GC-safe (a collection can strike inside any constructor).

Static area discipline: objects in the static area (symbols and their
names) are immutable after creation and may only reference other
static objects.  Collectors treat the static area as a boundary — it
is never condemned — so a static-to-dynamic pointer would be unsound;
the machine rejects such stores.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.gc.collector import Collector
from repro.gc.stats import GcStats
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.heap import HeapError, SimulatedHeap
from repro.heap.object_model import HeapObject
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
CollectorFactory = Callable[[SimulatedHeap, RootSet], Collector]


class Machine:
    """A complete simulated runtime for one benchmark execution."""

    def __init__(
        self,
        collector_factory: CollectorFactory,
        *,
        heap_backend: str | None = None,
    ) -> None:
        self.heap = make_heap(heap_backend)
        self.roots = RootSet()
        self.collector = collector_factory(self.heap, self.roots)
        self.barrier = WriteBarrier(self.collector.remember_store)
        #: The collector's id-level barrier hook.  The store paths below
        #: bump the barrier's counters and call it themselves rather
        #: than building two handles for ``barrier.on_store``.
        self._remember = self.collector.remember_store_id
        self.static = self.heap.add_space("static", None)
        self._handles: dict[int, int] = {}
        # The provider closes over the table, not the machine, and a
        # Ref holds the table and the heap, not the machine: nothing
        # the machine owns points back at it, so dropping the last
        # reference frees it (and the heap's arenas) at once instead of
        # leaving it to CPython's cycle collector — which float-heavy
        # programs, whose only tracked allocations are short-lived
        # handles, never trigger.  The snapshot: a handle's __del__ may
        # run at any bytecode, and mutating the dict during root
        # enumeration would be an error.
        handles = self._handles
        self.roots.add_provider(lambda: list(handles))
        self._symbols: dict[str, Ref] = {}
        #: Callbacks invoked with each dynamically allocated object.
        self._allocation_hooks: list[Callable[[HeapObject], None]] = []
        #: Mutator operations executed (reads, stores, arithmetic).
        #: Together with words allocated this is the simulator's proxy
        #: for "mutator time" in Table 3: programs like sboyer that
        #: trade allocation for pointer comparisons keep their mutator
        #: cost while shedding their GC cost.
        self.operations = 0

    # ------------------------------------------------------------------
    # Handles (Python-side roots)
    # ------------------------------------------------------------------

    def _retain(self, obj_id: int) -> None:
        self._handles[obj_id] = self._handles.get(obj_id, 0) + 1

    def _release(self, obj_id: int) -> None:
        count = self._handles.get(obj_id)
        if count is None:
            return
        if count <= 1:
            del self._handles[obj_id]
        else:
            self._handles[obj_id] = count - 1

    @property
    def handle_count(self) -> int:
        return len(self._handles)

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

    def _decode(self, slot_value: object) -> SchemeValue:
        """Slot value -> program value (ids become fresh handles)."""
        if type(slot_value) is int:
            # kind_of is also the dangling-id test.
            return Ref(self, slot_value, self.heap.kind_of(slot_value))
        return slot_value

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def _store(self, obj_id: int, slot: int, value: SchemeValue) -> None:
        self.operations += 1
        barrier = self.barrier
        heap = self.heap
        if isinstance(value, Ref):
            # A live handle pins its object, so the handle's id *is*
            # the store target.
            target_id = value.obj_id
            static = self.static
            if (
                heap.space_if_live(obj_id) is static
                and heap.space_if_live(target_id) is not static
            ):
                raise HeapError(
                    "static objects may only reference static objects"
                )
            barrier.stores += 1
            barrier.pointer_stores += 1
            self._remember(obj_id, slot, target_id)
            heap.store_slot(obj_id, slot, target_id)
        else:
            encoded = self._encode(value)
            barrier.stores += 1
            # The SATB barrier must see pointer *deletions* too:
            # overwriting a reference slot with an immediate kills an
            # edge just as surely as storing None.
            self._remember(obj_id, slot, None)
            heap.store_slot(obj_id, slot, encoded)

    def _require(self, value: SchemeValue, kind: str) -> int:
        """The object id behind a handle of the given kind."""
        if not isinstance(value, Ref) or value.kind != kind:
            raise TypeError(f"expected a {kind}, got {value!r}")
        return value.obj_id

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    def _notify(self, obj_id: int) -> None:
        obj = self.heap.get(obj_id)
        for hook in self._allocation_hooks:
            hook(obj)

    def add_allocation_hook(self, hook: Callable[[HeapObject], None]) -> None:
        self._allocation_hooks.append(hook)

    def cons(self, car: SchemeValue, cdr: SchemeValue) -> Ref:
        """Allocate a pair (2 words).

        The two initializing stores are inlined from :meth:`_store`: a
        fresh pair is never in the static area, so the static-reference
        check cannot fire.  Barrier counts and the remember-store hook
        are identical to ``_store``.
        """
        obj_id = self.collector.allocate_id(PAIR_WORDS, 2, "pair")
        ref = Ref(self, obj_id, "pair")
        store_slot = self.heap.store_slot
        barrier = self.barrier
        self.operations += 2
        barrier.stores += 2
        if isinstance(car, Ref):
            target_id = car.obj_id
            barrier.pointer_stores += 1
            self._remember(obj_id, 0, target_id)
            store_slot(obj_id, 0, target_id)
        else:
            store_slot(obj_id, 0, self._encode(car))
        if isinstance(cdr, Ref):
            target_id = cdr.obj_id
            barrier.pointer_stores += 1
            self._remember(obj_id, 1, target_id)
            store_slot(obj_id, 1, target_id)
        else:
            store_slot(obj_id, 1, self._encode(cdr))
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_vector(self, length: int, fill: SchemeValue = None) -> Ref:
        """Allocate a vector (length + 1 words)."""
        obj_id = self.collector.allocate_id(
            word_size_of_vector(length), length, "vector"
        )
        ref = Ref(self, obj_id, "vector")
        if fill is not None:
            for slot in range(length):
                self._store(obj_id, slot, fill)
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_flonum(self, value: float) -> Ref:
        """Box an IEEE double (4 words, §7.2's flonum representation)."""
        obj_id = self.collector.allocate_id(FLONUM_WORDS, 0, "flonum")
        self.heap.set_payload(obj_id, float(value))
        ref = Ref(self, obj_id, "flonum")
        if self._allocation_hooks:
            self._notify(obj_id)
        return ref

    def make_string(self, text: str) -> Ref:
        """Allocate a string (1 + ceil(n/4) words)."""
        obj_id = self.collector.allocate_id(
            word_size_of_string(len(text)), 0, "string"
        )
        self.heap.set_payload(obj_id, text)
        ref = Ref(self, obj_id, "string")
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
        ref = Ref(self, symbol_id, "symbol")
        self._symbols[name] = ref
        return ref

    # ------------------------------------------------------------------
    # Pairs
    # ------------------------------------------------------------------

    def car(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        heap = self.heap
        value = heap.load_slot(pair.obj_id, 0)
        if type(value) is int:
            return Ref(self, value, heap.kind_of(value))
        return value

    def cdr(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        if not isinstance(pair, Ref) or pair.kind != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        heap = self.heap
        value = heap.load_slot(pair.obj_id, 1)
        if type(value) is int:
            return Ref(self, value, heap.kind_of(value))
        return value

    def set_car(self, pair: SchemeValue, value: SchemeValue) -> None:
        self._store(self._require(pair, "pair"), 0, value)

    def set_cdr(self, pair: SchemeValue, value: SchemeValue) -> None:
        self._store(self._require(pair, "pair"), 1, value)

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
        heap = self.heap
        obj_id = self._require(vector, "vector")
        try:
            value = heap.load_slot(obj_id, index)
        except HeapError:
            raise self._vector_index_error(obj_id, index) from None
        if type(value) is int:
            return Ref(self, value, heap.kind_of(value))
        return value

    def vector_set(
        self, vector: SchemeValue, index: int, value: SchemeValue
    ) -> None:
        obj_id = self._require(vector, "vector")
        # Checked here, not left to the store: an out-of-range index
        # must not reach the barrier or the counters.
        if not 0 <= index < self.heap.slot_count_of(obj_id):
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
        payload = self.heap.payload_of(self._require(flonum, "flonum"))
        assert isinstance(payload, float)
        return payload

    def _flonum_binop(
        self, a: SchemeValue, b: SchemeValue, op: Callable[[float, float], float]
    ) -> Ref:
        return self.make_flonum(op(self.flonum_value(a), self.flonum_value(b)))

    def fl_add(self, a: SchemeValue, b: SchemeValue) -> Ref:
        """Flonum addition: allocates the boxed result, as Larceny does."""
        return self._flonum_binop(a, b, operator.add)

    def fl_sub(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, operator.sub)

    def fl_mul(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, operator.mul)

    def fl_div(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, operator.truediv)

    def fl_sqrt(self, a: SchemeValue) -> Ref:
        return self.make_flonum(self.flonum_value(a) ** 0.5)

    def fl_less(self, a: SchemeValue, b: SchemeValue) -> bool:
        return self.flonum_value(a) < self.flonum_value(b)

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
        reached = heap.reachable_from(self.roots.ids())
        promoted = 0
        for obj_id in reached:
            obj = heap.get(obj_id)
            if obj.space is not self.static:
                heap.move(obj, self.static)
                promoted += obj.size
        # Everything left in a dynamic space is garbage.
        for space in list(heap.spaces()):
            if space is self.static:
                continue
            for obj in list(space.objects()):
                heap.free(obj)
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
        total = 0
        for obj_id in self.heap.reachable_from(self.roots.ids()):
            obj = self.heap.get(obj_id)
            if obj.space is not self.static:
                total += obj.size
        return total

    def describe(self) -> str:
        return f"machine({self.collector.describe()})"
