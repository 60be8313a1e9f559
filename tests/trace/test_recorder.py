"""Tests for the lifetime recorder."""

from __future__ import annotations

import pytest

from repro.gc.marksweep import MarkSweepCollector
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum
from repro.trace.collector import TracingCollector
from repro.trace.recorder import LifetimeRecorder, record_run


class TestRecorder:
    def test_records_every_allocation(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=100)
        for index in range(5):
            machine.cons(Fixnum(index), None)
        trace = recorder.finish()
        assert trace.object_count == 5
        assert trace.words_allocated == 10

    def test_death_quantized_to_epoch(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=100)
        machine.cons(Fixnum(0), None)  # dropped immediately
        keeper = []
        while machine.clock < 250:
            keeper.append(machine.cons(Fixnum(1), None))
        trace = recorder.finish()
        doomed = trace.records[0]
        assert doomed.death is not None
        # Death observed at the first sample at/after the 100-word
        # epoch boundary.
        assert 100 <= doomed.death <= 110

    def test_survivors_have_no_death(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=50)
        keeper = machine.cons(Fixnum(1), None)
        for _ in range(100):
            machine.cons(Fixnum(0), None)
        trace = recorder.finish()
        assert trace.records[0].death is None
        assert trace.records[0].obj_id == keeper.obj_id

    def test_dead_objects_reclaimed_from_heap(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=50)
        for _ in range(100):
            machine.cons(Fixnum(0), None)
        recorder.sample()
        # Memory is bounded: the dead were freed by the sampler.
        assert machine.heap.object_count <= 60

    def test_finish_idempotent(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=50)
        machine.cons(Fixnum(0), None)
        trace1 = recorder.finish()
        trace2 = recorder.finish()
        assert trace1 is trace2

    def test_allocations_after_finish_ignored(self):
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch_words=50)
        trace = recorder.finish()
        machine.cons(Fixnum(0), None)
        assert trace.object_count == 0

    def test_requires_tracing_collector(self):
        machine = Machine(
            lambda heap, roots: MarkSweepCollector(heap, roots, 1_000)
        )
        with pytest.raises(TypeError):
            LifetimeRecorder(machine, epoch_words=10)

    def test_rejects_bad_epoch(self):
        machine = Machine(TracingCollector)
        with pytest.raises(ValueError):
            LifetimeRecorder(machine, epoch_words=0)

    def test_record_run_helper(self):
        def program(machine: Machine) -> None:
            keep = machine.cons(Fixnum(1), None)
            for _ in range(20):
                machine.cons(Fixnum(0), None)

        trace = record_run(program, epoch_words=10)
        assert trace.object_count == 21
        # Everything died by the end (the keeper's handle was dropped
        # when the program returned... but finish() samples before the
        # local goes away, so at least the churn is dead).
        dead = sum(1 for record in trace.records if record.death is not None)
        assert dead >= 19
