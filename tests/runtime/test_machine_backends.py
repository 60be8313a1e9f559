"""The runtime path's backend-equivalence oracle, kept as goldens.

Until the object backend was retired, these tests ran every program
under every collector on both heap representations and required every
observable a Table 3 run reads to come out the same: the program's
result, the work accounting, the pause log, the barrier and
remembered-set counts, and the heap that is left.  What they agreed on
is pinned in ``golden_machine_observables.json`` as the SHA-256 of
:func:`run_program`, captured while flat ≡ object still held.

Regenerate with
``PYTHONPATH=src python -m tests.runtime.test_machine_backends``
only when the runtime's semantics are meant to change.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gc.collector import HeapExhausted
from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.programs.registry import benchmark_names, get_benchmark
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum
from repro.verify.audit import enable_checked_mode

GOLDEN_PATH = Path(__file__).with_name("golden_machine_observables.json")

#: The committed benchmark's geometry: at anything smaller 10dynamic
#: does not fit non-predictive's steps (which do not grow).
PROGRAM_GEOMETRY = GcGeometry().scaled(4, 1)

#: A few dozen words per space, so a hundred random actions fill the
#: nursery, promote, renumber steps and open incremental mark cycles.
TINY_GEOMETRY = GcGeometry(
    nursery_words=24,
    semispace_words=96,
    step_words=24,
    step_count=8,
    slice_budget=8,
)

#: One collector per shape of ``remember_store_id``: generation
#: comparison, nursery + step remsets, SATB deletion barrier.
HOOK_KINDS = ("generational", "hybrid", "incremental")


def remembered_sets(collector) -> list:
    remsets = getattr(collector, "remsets", None) or [
        getattr(collector, name)
        for name in ("remset", "remset_young", "remset_steps")
        if hasattr(collector, name)
    ]
    return [
        (r.name, len(r), r.barrier_records, r.promotion_records, r.peak_size)
        for r in remsets
    ]


def observe(machine: Machine) -> dict:
    """Everything a run leaves behind, in representation-neutral terms."""
    heap = machine.heap
    return {
        "stats": machine.stats.export_state(),
        "operations": machine.operations,
        "stores": machine.barrier.stores,
        "pointer_stores": machine.barrier.pointer_stores,
        "remsets": remembered_sets(machine.collector),
        "clock": machine.clock,
        "live_graph": [
            (
                obj_id,
                heap.kind_of(obj_id),
                heap.size_of(obj_id),
                heap.birth_of(obj_id),
                # None: detached, when a collection died of exhaustion.
                getattr(heap.space_if_live(obj_id), "name", None),
                heap.slots_of(obj_id),
                heap.payload_of(obj_id),
            )
            for obj_id in sorted(heap.reachable_from(machine.roots.ids()))
        ],
    }


def close(machine: Machine) -> None:
    closer = getattr(machine.collector, "close", None)
    if closer is not None:
        closer()


def run_program(name: str, kind: str) -> dict:
    machine = Machine(collector_factory(kind, PROGRAM_GEOMETRY))
    try:
        try:
            value = get_benchmark(name).run(machine, 0)
            machine.collect()
            result = repr(value)
        except HeapExhausted as error:
            # nboyer outgrows the collectors whose spaces do not grow;
            # it must do so at the same word every time.
            result = f"exhausted: {error}"
        seen = observe(machine)
        seen["result"] = result
        return seen
    finally:
        close(machine)


def program_digest(name: str, kind: str) -> str:
    """SHA-256 of everything :func:`run_program` observed."""
    return hashlib.sha256(repr(run_program(name, kind)).encode()).hexdigest()


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
@pytest.mark.parametrize("name", benchmark_names())
def test_program_is_backend_independent(name, kind, no_cycle_gc):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert program_digest(name, kind) == golden[name][kind]


#: One mutator action: (opcode, three operands reduced modulo whatever
#: the action indexes).
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "cons", "cons", "vector", "flonum", "set_car", "set_cdr",
                "vector_set", "read", "drop", "collect",
            ]
        ),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=150,
)


def run_actions(machine: Machine, actions) -> list:
    """Interpret ``actions``; returns a log of what the mutator saw."""
    live: list = []
    log: list = []

    def value(operand: int):
        # A live handle, the empty list or a fixnum: pointer stores,
        # pointer deletions and immediate stores all occur.
        if live and operand % 3 == 0:
            return live[(operand // 3) % len(live)]
        return None if operand % 3 == 1 else Fixnum(operand % 100)

    def pick(kind: str, operand: int):
        matching = [ref for ref in live if ref.kind == kind]
        return matching[operand % len(matching)] if matching else None

    for step, (opcode, a, b, c) in enumerate(actions):
        try:
            if opcode == "cons":
                live.append(machine.cons(value(a), value(b)))
            elif opcode == "vector":
                live.append(machine.make_vector(a % 5, value(b)))
            elif opcode == "flonum":
                live.append(machine.make_flonum(a / 7))
            elif opcode in ("set_car", "set_cdr"):
                pair = pick("pair", a)
                if pair is not None:
                    getattr(machine, opcode)(pair, value(b))
            elif opcode == "vector_set":
                vector = pick("vector", a)
                if vector is not None and machine.vector_length(vector):
                    machine.vector_set(
                        vector, b % machine.vector_length(vector), value(c)
                    )
            elif opcode == "read":
                pair = pick("pair", a)
                if pair is not None:
                    log.append((step, repr(machine.car(pair))))
            elif opcode == "drop" and live:
                live.pop(a % len(live))
            elif opcode == "collect":
                machine.collect()
        except HeapExhausted:
            log.append((step, "exhausted"))
            break
    log.append([repr(ref) for ref in live])
    return log


@pytest.mark.parametrize("kind", HOOK_KINDS)
@given(actions=ACTIONS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_mutator_is_backend_independent(kind, actions):
    """Checked mode audits every collection and probes every stored id;
    a second run on a fresh heap sees exactly what the first did, so
    what a run observes depends on the actions alone (the property the
    program goldens rest on)."""
    seen = []
    for _ in range(2):
        machine = Machine(collector_factory(kind, TINY_GEOMETRY))
        enable_checked_mode(machine.collector)
        log = run_actions(machine, actions)
        machine.heap.check_integrity()
        seen.append((log, observe(machine)))
    (reference_log, reference), (candidate_log, candidate) = seen
    assert candidate_log == reference_log
    for key in reference:
        assert candidate[key] == reference[key], key


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    gc.collect()
    gc.disable()
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                name: {
                    kind: program_digest(name, kind)
                    for kind in COLLECTOR_KINDS
                }
                for name in benchmark_names()
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
