"""Recording object lifetimes while a program runs.

A :class:`LifetimeRecorder` attaches to a
:class:`~repro.runtime.machine.Machine` built over a
:class:`~repro.trace.collector.TracingCollector` and produces a
:class:`~repro.trace.events.LifetimeTrace`:

* every dynamic allocation creates an :class:`ObjectRecord`;
* every ``epoch_words`` of allocation, the recorder traces the heap
  from the roots; objects that became unreachable since the previous
  epoch are recorded as dead at the current clock and reclaimed.

Death times are therefore quantized to the epoch size — precisely the
granularity of the paper's tables ("shown as the percentage that
survives the next 100,000 bytes of allocation") and figures ("each
color represents the survivors from a 100,000-byte epoch").
"""

from __future__ import annotations

from repro.runtime.machine import Machine
from repro.trace.collector import TracingCollector
from repro.trace.events import LifetimeTrace, ObjectRecord

__all__ = ["LifetimeRecorder", "record_run"]


class LifetimeRecorder:
    """Observes one machine and accumulates a lifetime trace.

    Args:
        machine: the machine to observe (its collector should be a
            :class:`TracingCollector`; a policy collector would reclaim
            objects without telling the recorder).
        epoch_words: sampling granularity in words.
    """

    def __init__(self, machine: Machine, epoch_words: int) -> None:
        if epoch_words <= 0:
            raise ValueError(
                f"epoch size must be positive, got {epoch_words!r}"
            )
        if not isinstance(machine.collector, TracingCollector):
            raise TypeError(
                "LifetimeRecorder requires a machine built over a "
                "TracingCollector; other collectors reclaim objects "
                "behind the recorder's back"
            )
        self.machine = machine
        self.epoch_words = epoch_words
        self.trace = LifetimeTrace(start_clock=machine.clock)
        self._records: dict[int, ObjectRecord] = {}
        self._next_epoch = machine.clock + epoch_words
        self._finished = False
        machine.add_allocation_hook(self._on_allocate)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _on_allocate(self, obj_id: int) -> None:
        if self._finished:
            return
        heap = self.machine.heap
        record = ObjectRecord(
            obj_id=obj_id, size=heap.size_of(obj_id),
            birth=heap.birth_of(obj_id), kind=heap.kind_of(obj_id),
        )
        self._records[obj_id] = record
        self.trace.records.append(record)
        if self.machine.clock >= self._next_epoch:
            self.sample()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self) -> None:
        """Trace the heap; record and reclaim newly unreachable objects."""
        machine = self.machine
        clock = machine.clock
        reached = machine.heap.reachable_from(machine.roots.ids())
        for obj_id, record in list(self._records.items()):
            if record.death is not None:
                continue
            if obj_id not in reached:
                record.death = clock
                del self._records[obj_id]
                if machine.heap.contains_id(obj_id):
                    machine.heap.free(obj_id)
        # Records of still-live objects stay in _records; dead ones are
        # dropped so the dict tracks exactly the live population.
        while self._next_epoch <= clock:
            self._next_epoch += self.epoch_words

    def finish(self) -> LifetimeTrace:
        """Take a final sample and seal the trace."""
        if not self._finished:
            self.sample()
            self.trace.end_clock = self.machine.clock
            self._finished = True
        return self.trace

    @property
    def live_object_count(self) -> int:
        return len(self._records)


def record_run(program, epoch_words: int) -> LifetimeTrace:
    """Run a program under a tracing machine and return its trace.

    Args:
        program: a callable taking a :class:`Machine`; its allocation
            behaviour is what gets measured.
        epoch_words: sampling granularity.
    """
    machine = Machine(TracingCollector)
    recorder = LifetimeRecorder(machine, epoch_words)
    program(machine)
    return recorder.finish()
