"""Tests for the runtime machine: handles, constructors, barrier routing."""

from __future__ import annotations

import gc as python_gc
import weakref

import pytest

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.heap.flat import FlatObject, HeapError
from repro.programs.registry import get_benchmark
from repro.runtime.machine import Machine
from repro.runtime.values import FLONUM_WORDS, PAIR_WORDS, Fixnum, Ref
from repro.trace.collector import TracingCollector


@pytest.fixture
def machine():
    return Machine(TracingCollector)


class TestHandles:
    def test_handle_roots_object(self, machine):
        pair = machine.cons(Fixnum(1), None)
        assert pair.obj_id in set(machine.roots.ids())

    def test_dropping_handle_unroots(self, machine):
        pair = machine.cons(Fixnum(1), None)
        obj_id = pair.obj_id
        del pair
        python_gc.collect()
        assert obj_id not in set(machine.roots.ids())

    def test_multiple_handles_counted(self, machine):
        pair = machine.cons(Fixnum(1), None)
        other = machine.car(machine.cons(pair, None))  # a second handle
        assert isinstance(other, Ref)
        del pair
        python_gc.collect()
        assert other.obj_id in set(machine.roots.ids())

    def test_heap_reference_keeps_object_without_handle(self, machine):
        outer = machine.cons(None, None)
        inner = machine.cons(Fixnum(42), None)
        machine.set_car(outer, inner)
        inner_id = inner.obj_id
        del inner
        python_gc.collect()
        machine.collect()
        assert machine.heap.contains_id(inner_id)
        assert machine.car(machine.car(outer)) == Fixnum(42)


class TestConstructors:
    def test_cons_size_and_kind(self, machine):
        pair = machine.cons(Fixnum(1), Fixnum(2))
        assert pair.is_pair()
        assert machine.heap.size_of(pair.obj_id) == PAIR_WORDS
        assert machine.car(pair) == Fixnum(1)
        assert machine.cdr(pair) == Fixnum(2)

    def test_vector(self, machine):
        vec = machine.make_vector(3, fill=Fixnum(0))
        assert vec.is_vector()
        assert machine.heap.size_of(vec.obj_id) == 4
        assert machine.vector_length(vec) == 3
        machine.vector_set(vec, 1, Fixnum(9))
        assert machine.vector_ref(vec, 1) == Fixnum(9)
        assert machine.vector_ref(vec, 0) == Fixnum(0)

    def test_vector_bounds_checked(self, machine):
        vec = machine.make_vector(2)
        with pytest.raises(IndexError):
            machine.vector_ref(vec, 2)
        with pytest.raises(IndexError):
            machine.vector_set(vec, -1, None)

    def test_flonum_is_boxed_four_words(self, machine):
        flo = machine.make_flonum(3.25)
        assert flo.is_flonum()
        assert machine.heap.size_of(flo.obj_id) == FLONUM_WORDS
        assert machine.flonum_value(flo) == 3.25

    def test_string(self, machine):
        s = machine.make_string("hello")
        assert s.is_string()
        assert machine.heap.size_of(s.obj_id) == 1 + (5 + 3) // 4
        assert machine.string_value(s) == "hello"

    def test_type_errors(self, machine):
        flo = machine.make_flonum(1.0)
        with pytest.raises(TypeError):
            machine.car(flo)
        with pytest.raises(TypeError):
            machine.vector_ref(flo, 0)

    def test_raw_python_numbers_rejected_in_slots(self, machine):
        pair = machine.cons(None, None)
        with pytest.raises(TypeError):
            machine.set_car(pair, 5)
        with pytest.raises(TypeError):
            machine.set_car(pair, 2.5)


class TestSymbols:
    def test_interning_is_idempotent(self, machine):
        a = machine.intern("foo")
        b = machine.intern("foo")
        assert a == b
        assert machine.symbol_name(a) == "foo"

    def test_symbols_live_in_static_area(self, machine):
        sym = machine.intern("bar")
        assert machine.heap.space_if_live(sym.obj_id) is machine.static

    def test_static_allocation_does_not_advance_clock(self, machine):
        before = machine.clock
        machine.intern("baz")
        assert machine.clock == before

    def test_static_to_dynamic_store_rejected(self, machine):
        sym = machine.intern("quux")
        pair = machine.cons(None, None)
        with pytest.raises(HeapError):
            machine._store(sym.obj_id, 0, pair)

    def test_symbols_survive_collection(self, machine):
        sym = machine.intern("keep")
        machine.collect()
        assert machine.heap.contains_id(sym.obj_id)


class TestFlonumArithmetic:
    def test_each_operation_allocates(self, machine):
        a = machine.make_flonum(1.5)
        b = machine.make_flonum(2.5)
        before = machine.stats.words_allocated
        c = machine.fl_add(a, b)
        assert machine.flonum_value(c) == 4.0
        assert machine.stats.words_allocated - before == FLONUM_WORDS

    def test_operations(self, machine):
        a = machine.make_flonum(6.0)
        b = machine.make_flonum(2.0)
        assert machine.flonum_value(machine.fl_sub(a, b)) == 4.0
        assert machine.flonum_value(machine.fl_mul(a, b)) == 12.0
        assert machine.flonum_value(machine.fl_div(a, b)) == 3.0
        assert machine.flonum_value(machine.fl_sqrt(machine.make_flonum(9.0))) == 3.0
        assert machine.fl_less(b, a)
        assert not machine.fl_less(a, b)


class TestBarrierRouting:
    def test_stores_counted(self, machine):
        pair = machine.cons(Fixnum(1), None)  # 2 initializing stores
        machine.set_car(pair, Fixnum(2))
        assert machine.barrier.stores == 3

    def test_pointer_stores_counted(self, machine):
        inner = machine.cons(None, None)  # 2 stores, 0 pointer stores
        machine.cons(inner, None)  # car store is a pointer store
        assert machine.barrier.pointer_stores == 1

    def test_live_words_excludes_static(self, machine):
        machine.intern("sym")
        pair = machine.cons(None, None)
        assert machine.live_words() == PAIR_WORDS
        del pair


class TestAllocationHooks:
    def test_hooks_see_every_dynamic_allocation(self, machine):
        seen = []
        machine.add_allocation_hook(
            lambda obj_id: seen.append(machine.heap.kind_of(obj_id))
        )
        machine.cons(None, None)
        machine.make_flonum(1.0)
        machine.intern("not-dynamic")
        assert seen == ["pair", "flonum"]


class TestIdLevelPath:
    def test_no_handle_is_built_per_access(self, monkeypatch):
        """The mutator addresses the flat heap by id: a run with no
        allocation hook builds no slot view and no per-access object
        handle.  A count, so it cannot flake the way a timing gate
        would."""
        built = {FlatObject: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__):
                built[_cls] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        machine = Machine(
            collector_factory("generational", GcGeometry().scaled(1, 4)),
            heap_backend="flat",
        )
        get_benchmark("nbody").run(machine, 0)
        machine.collect()
        assert machine.stats.collections > 1
        assert machine.stats.objects_allocated > 1000
        assert built == {FlatObject: 0}

    @pytest.mark.parametrize("kind", COLLECTOR_KINDS)
    def test_dropped_machine_is_freed_without_the_cycle_collector(
        self, kind, no_cycle_gc
    ):
        """nbody's only tracked allocations are short-lived handles, so
        a run of such cells never triggers CPython's cycle collector:
        a machine that needed it would pile up, arenas and all."""
        machine = Machine(
            collector_factory(kind, GcGeometry()), heap_backend="flat"
        )
        get_benchmark("nbody").run(machine, 0)
        machine.intern("a-symbol")
        machine.collector.collect()
        watched = [
            weakref.ref(target)
            for target in (machine, machine.heap, machine.collector)
        ]
        del machine
        assert [ref() for ref in watched] == [None, None, None]

    def test_ref_has_no_finalizer(self):
        """Nothing runs when a handle is dropped: the reference count
        CPython keeps is the only record, read at root enumeration."""
        assert not hasattr(Ref, "__del__")

    def test_reads_reuse_the_interned_handle(self, monkeypatch):
        """A slot read returns the object's existing handle.  The parent
        commit built a handle per read, 1,557,124 of them on this run;
        interning builds about a third as many.  A count, not a time."""
        built = 0

        def counting(self, *args, _init=Ref.__init__):
            nonlocal built
            built += 1
            _init(self, *args)

        monkeypatch.setattr(Ref, "__init__", counting)
        machine = Machine(
            collector_factory("generational", GcGeometry().scaled(4, 1)),
            heap_backend="flat",
        )
        get_benchmark("nboyer").run(machine, 0)
        assert machine.stats.objects_allocated == 187_065
        assert built <= 0.4 * 1_557_124

    def test_table_stays_near_the_held_handles(self):
        """Reading 100k distinct live objects with no collection in
        between (this collector never collects) must not leave 100k
        idle entries behind: the insert path sweeps the table."""
        machine = Machine(TracingCollector, heap_backend="flat")
        elements = None
        for _ in range(100_000):
            elements = machine.cons(machine.cons(None, None), elements)
        held = []
        cursor = elements
        while cursor is not None:
            element = machine.car(cursor)
            if len(held) < 2_000 and element.obj_id % 50 == 0:
                held.append(element)
            cursor = machine.cdr(cursor)
            # + elements, cursor, element.
            assert len(machine._handles) <= 2 * (len(held) + 3) + 512
        assert len(held) == 2_000
        assert machine.stats.collections == 0

    def test_dropped_machine_is_freed_with_the_table_populated(
        self, no_cycle_gc
    ):
        """machine -> table -> Ref, and the provider closes over the
        table: no cycle, whatever the table holds."""
        machine = Machine(
            collector_factory("generational", GcGeometry()),
            heap_backend="flat",
        )
        machine.intern("a-symbol")
        outer = machine.cons(machine.cons(None, None), None)
        machine.car(outer)  # leaves an idle entry
        assert len(machine._handles) == 3
        machine_gone, collector_gone, heap_gone = (
            weakref.ref(target)
            for target in (machine, machine.collector, machine.heap)
        )
        del machine
        # A handle still in use holds only its id and kind.
        assert outer.is_pair()
        assert machine_gone() is None and collector_gone() is None
        assert heap_gone() is None

    def test_hook_still_receives_an_object(self):
        seen = []
        machine = Machine(TracingCollector, heap_backend="flat")
        heap = machine.heap
        machine.add_allocation_hook(
            lambda obj_id: seen.append(
                (heap.kind_of(obj_id), heap.size_of(obj_id), obj_id)
            )
        )
        vec = machine.make_vector(2)
        s = machine.make_string("abc")
        assert seen == [("vector", 3, vec.obj_id), ("string", 2, s.obj_id)]


@pytest.mark.parametrize("backend", ["flat"])
class TestChecksKept:
    """One negative test per check the id-level path must still make."""

    def test_wrong_kind(self, backend):
        machine = Machine(TracingCollector, heap_backend=backend)
        vec = machine.make_vector(1)
        for access in (machine.car, machine.cdr, machine.flonum_value):
            with pytest.raises(TypeError, match="expected a (pair|flonum)"):
                access(vec)
        with pytest.raises(TypeError, match="expected a pair"):
            machine.set_car(vec, None)
        with pytest.raises(TypeError, match="expected a pair"):
            machine.car(Fixnum(1))

    def test_vector_bounds_message(self, backend):
        machine = Machine(TracingCollector, heap_backend=backend)
        vec = machine.make_vector(2)
        with pytest.raises(IndexError, match=r"^vector index 2 out of range 0\.\.1$"):
            machine.vector_ref(vec, 2)
        with pytest.raises(IndexError, match=r"^vector index -1 out of range 0\.\.1$"):
            machine.vector_ref(vec, -1)
        stores = machine.barrier.stores
        with pytest.raises(IndexError, match=r"^vector index 2 out of range 0\.\.1$"):
            machine.vector_set(vec, 2, None)
        # The bad store reached neither the barrier nor the counters.
        assert machine.barrier.stores == stores

    def test_decoding_a_freed_id_raises(self, backend):
        machine = Machine(TracingCollector, heap_backend=backend)
        inner = machine.cons(None, None)
        outer = machine.cons(inner, inner)
        vec = machine.make_vector(1, inner)
        machine.heap.free(inner.obj_id)
        for read in (
            lambda: machine.car(outer),
            lambda: machine.cdr(outer),
            lambda: machine.vector_ref(vec, 0),
        ):
            with pytest.raises(HeapError, match="dangling object id"):
                read()

    def test_static_area_discipline(self, backend):
        machine = Machine(TracingCollector, heap_backend=backend)
        sym = machine.intern("quux")
        pair = machine.cons(None, None)
        with pytest.raises(HeapError, match="static objects"):
            machine._store(sym.obj_id, 0, pair)
        machine._store(sym.obj_id, 0, machine.intern("other"))

    def test_checked_mode_dangling_store_raises(self, backend):
        machine = Machine(TracingCollector, heap_backend=backend)
        machine.heap.checked = True
        pair = machine.cons(None, None)
        doomed = machine.cons(None, None)
        machine.heap.free(doomed.obj_id)
        with pytest.raises(HeapError, match="cannot store dangling"):
            machine.set_car(pair, doomed)
        with pytest.raises(HeapError, match="cannot store dangling"):
            machine.cons(doomed, None)

    def test_allocation_fast_path_vets_and_coerces(self, backend):
        machine = Machine(
            collector_factory("stop-and-copy", GcGeometry()),
            heap_backend=backend,
        )
        machine.make_vector(2)  # a miss: publishes the fast path

        def no_miss(*args):
            raise AssertionError(f"allocate_id{args} on the hit path")

        machine.collector.allocate_id = no_miss
        # A length no vector was made with takes the checked path,
        # whose first act is to reject it.
        with pytest.raises(
            ValueError, match="vector length must be non-negative, got -1"
        ):
            machine.make_vector(-1)
        assert machine.vector_length(machine.make_vector(2)) == 2
        boxed = machine.flonum_value(machine.make_flonum(3))
        assert type(boxed) is float and boxed == 3.0
        with pytest.raises(ValueError, match="could not convert"):
            machine.make_flonum("three")

    def test_immediate_store_reaches_the_satb_hook(self, backend):
        machine = Machine(
            collector_factory("incremental", GcGeometry(slice_budget=1)),
            heap_backend=backend,
        )
        collector = machine.collector
        victim = machine.cons(Fixnum(7), None)
        holder = machine.cons(victim, None)
        victim_id = victim.obj_id
        del victim
        collector._open_cycle("test")
        assert collector.cycle_open
        assert machine.heap.color_of(victim_id) == 0  # white
        # Overwriting the only edge with an immediate deletes it; the
        # snapshot-at-the-beginning barrier must gray the old referent.
        machine.set_car(holder, Fixnum(0))
        assert collector.satb_grays == 1
        assert victim_id in collector.gray_stack
        machine.collect()
        assert machine.heap.contains_id(victim_id)  # floats to next cycle


def test_only_the_flat_heap_is_accepted():
    machine = Machine(TracingCollector, heap_backend="flat")
    assert machine.heap.backend_name == "flat"
    with pytest.raises(ValueError, match="unknown heap backend 'object'"):
        Machine(TracingCollector, heap_backend="object")
