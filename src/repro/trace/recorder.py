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


def register(subparsers) -> None:
    """``repro-gc trace record|survival|profile``."""
    from repro.cli import positive_int
    from repro.programs.registry import benchmark_names

    sub = subparsers.add_parser(
        "trace", help="record and analyze lifetime traces"
    )
    trace_sub = sub.add_subparsers(dest="trace_command", required=True)
    rec = trace_sub.add_parser("record", help="record a benchmark's trace")
    rec.add_argument("benchmark", choices=benchmark_names())
    rec.add_argument("-o", "--output", required=True)
    rec.add_argument("--scale", type=int, default=0, choices=(0, 1, 2))
    rec.add_argument(
        "--epochs",
        type=positive_int,
        default=50,
        help="death-time resolution: samples per run",
    )
    rec.set_defaults(func=_cmd_record)
    srv = trace_sub.add_parser(
        "survival", help="survival-by-age table from a saved trace"
    )
    srv.add_argument("file")
    srv.add_argument("--age-step", type=positive_int)
    srv.add_argument("--brackets", type=positive_int, default=9)
    srv.set_defaults(func=_cmd_analyze)
    prof = trace_sub.add_parser(
        "profile", help="live-storage profile from a saved trace"
    )
    prof.add_argument("file")
    prof.add_argument("--epoch", type=positive_int)
    prof.set_defaults(func=_cmd_analyze)


def _cmd_record(args) -> int:
    from repro.programs.registry import get_benchmark
    from repro.trace.io import save_trace

    benchmark = get_benchmark(args.benchmark)
    # A dry run sizes the sampling epoch from the total allocation.
    dry = Machine(TracingCollector)
    benchmark.run(dry, args.scale)
    epoch = max(1, dry.stats.words_allocated // args.epochs)
    trace = record_run(
        lambda machine: benchmark.run(machine, args.scale), epoch
    )
    save_trace(trace, args.output)
    print(
        f"recorded {trace.object_count:,} objects "
        f"({trace.words_allocated:,} words, epoch {epoch:,}) "
        f"to {args.output}"
    )
    return 0


def _cmd_analyze(args) -> int:
    """``trace survival`` and ``trace profile``: read a saved trace."""
    import sys

    from repro.trace.io import load_trace
    from repro.trace.profile import storage_profile
    from repro.trace.survival import survival_table

    try:
        trace = load_trace(args.file)
    except (OSError, ValueError) as exc:  # TraceFormatError, bad bytes
        print(
            f"repro-gc trace {args.trace_command}: error: {exc}",
            file=sys.stderr,
        )
        return 2
    span = max(1, trace.end_clock - trace.start_clock)
    if args.trace_command == "survival":
        age_step = args.age_step or max(1, span // 12)
        table = survival_table(trace, age_step, bracket_count=args.brackets)
        print(table.to_text())
        return 0
    epoch = args.epoch or max(1, span // 20)
    print(storage_profile(trace, epoch).to_text())
    return 0
