"""Deterministic mutator scripts: generate, normalize, replay.

A :class:`MutatorScript` is a flat list of mutator operations over
*script-level* object handles (uids), independent of any collector:

* ``("alloc", uid, size, field_count)`` — allocate and root a new
  object under ``uid``;
* ``("store", src_uid, slot, dst_uid_or_None)`` — write a reference
  slot through the write barrier;
* ``("drop", uid)`` — remove ``uid``'s root (the object may stay
  reachable through other objects' fields);
* ``("collect",)`` — request a full collection;
* ``("check",)`` — take a checkpoint: fingerprint the live graph.

Because the simulated heap assigns object ids sequentially and
collectors never allocate objects of their own, replaying one script
under different collectors produces *identical object ids*, so the
live-graph fingerprints taken at ``check`` ops are directly comparable
across collectors — the foundation of the differential oracle in
:mod:`repro.verify.differential`.

Scripts are *valid* when every ``store`` names uids that are reachable
from the surviving roots at that point (a correct collector can then
never have freed them) and every ``drop`` names a uid that was
allocated.  :func:`generate_script` only emits valid scripts, and
:func:`normalize_ops` repairs an edited op list (as the shrinker's
chunk deletion produces) back to validity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.gc.collector import Collector
from repro.heap.flat import FlatHeap, HeapError
from repro.heap.roots import RootSet
from repro.verify.audit import enable_checked_mode

__all__ = [
    "Checkpoint",
    "MutatorScript",
    "ReplayContext",
    "ReplayCrash",
    "ReplayError",
    "ReplayResult",
    "generate_script",
    "normalize_ops",
    "replay",
]

#: One script operation, e.g. ``("alloc", 3, 2, 1)``.
Op = tuple

#: Builds a collector over a fresh heap and root set.
CollectorFactory = Callable[[FlatHeap, RootSet], Collector]


class ReplayError(Exception):
    """A script could not be replayed (malformed or invalid op)."""


class ReplayCrash(ReplayError):
    """An op raised inside the collector or heap during replay.

    In a differential run a crash is itself a verdict: a correct
    collector replays any valid script without raising.
    """

    def __init__(self, op_index: int, op: Op, cause: BaseException) -> None:
        super().__init__(
            f"op {op_index} {op!r} crashed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.op_index = op_index
        self.op = op
        self.cause = cause


@dataclass(frozen=True)
class MutatorScript:
    """A deterministic mutator schedule (see module docstring)."""

    ops: tuple[Op, ...]
    seed: int | None = None
    note: str = ""

    def __len__(self) -> int:
        return len(self.ops)

    def to_text(self) -> str:
        """A printable rendering, one op per line."""
        header = f"# seed={self.seed} ops={len(self.ops)}"
        if self.note:
            header += f" note={self.note}"
        lines = [header]
        for index, op in enumerate(self.ops):
            lines.append(f"{index:4d}: {' '.join(str(part) for part in op)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Checkpoint:
    """The live-graph fingerprint taken at one ``check`` op.

    Attributes:
        op_index: position of the check in the script (``len(ops)``
            for the implicit final checkpoint).
        clock: heap allocation clock at the checkpoint.
        live_words: words reachable from the surviving roots.
        graph: canonical live graph — a sorted tuple of
            ``(obj_id, size, fields)`` triples over reachable objects,
            with reference fields as object ids.
    """

    op_index: int
    clock: int
    live_words: int
    graph: tuple

    def brief(self) -> str:
        return (
            f"op {self.op_index}: clock={self.clock} "
            f"live={self.live_words}w objects={len(self.graph)}"
        )


@dataclass(frozen=True)
class ReplayResult:
    """One collector's replay of one script.

    Beyond the checkpoints, the result carries every observable the
    equivalence engine (:mod:`repro.verify.differential`) can relate:
    ``stats`` (the sorted :meth:`~repro.gc.stats.GcStats.snapshot`
    items) and ``pauses`` (the full pause log) say two replays did
    byte-identical *work*, not merely kept the same objects alive;
    ``survivors`` is the sorted ids resident in the heap at the end
    (reachable or floating).
    """

    collector: str
    checkpoints: tuple[Checkpoint, ...]
    words_allocated: int
    collections: int
    stats: tuple[tuple[str, int], ...] = ()
    pauses: tuple = ()
    survivors: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# Script model (shared by the generator and the normalizer)
# ----------------------------------------------------------------------


class _ScriptModel:
    """Collector-independent shadow of a script's object graph.

    Tracks, per uid: field contents and rootedness, and answers exact
    reachability queries so the generator (and the shrinker's
    normalizer) only ever reference uids a correct collector is
    guaranteed to keep alive.
    """

    def __init__(self) -> None:
        self.sizes: dict[int, int] = {}
        self.fields: dict[int, list[int | None]] = {}
        self.rooted: set[int] = set()
        self._reachable: set[int] = set()
        self._dirty = False

    def alloc(self, uid: int, size: int, field_count: int) -> None:
        self.sizes[uid] = size
        self.fields[uid] = [None] * field_count
        self.rooted.add(uid)
        if not self._dirty:
            self._reachable.add(uid)

    def store(self, src: int, slot: int, dst: int | None) -> None:
        old = self.fields[src][slot]
        self.fields[src][slot] = dst
        # Overwriting a reference can only shrink reachability; adding
        # an edge between two already-reachable uids cannot grow it.
        if old is not None and old != dst:
            self._dirty = True

    def drop(self, uid: int) -> None:
        self.rooted.discard(uid)
        self._dirty = True

    def reachable(self) -> set[int]:
        if self._dirty:
            reached: set[int] = set()
            stack = [uid for uid in self.rooted]
            while stack:
                uid = stack.pop()
                if uid in reached:
                    continue
                reached.add(uid)
                for ref in self.fields[uid]:
                    if ref is not None and ref not in reached:
                        stack.append(ref)
            self._reachable = reached
            self._dirty = False
        return self._reachable

    def live_words(self) -> int:
        return sum(self.sizes[uid] for uid in self.reachable())


def normalize_ops(ops: Iterable[Op]) -> tuple[Op, ...]:
    """Drop ops an edited script can no longer replay validly.

    A ``store`` survives only if both ends were allocated by a kept
    ``alloc`` *and* are still reachable at that point (a correct
    collector may legitimately have freed an unreachable object, and
    which collectors have done so by then differs — mutating such an
    object would make replays diverge for uninteresting reasons).  A
    ``drop`` survives only if its uid was allocated and is currently
    rooted.  ``alloc``/``collect``/``check`` always survive.
    """
    model = _ScriptModel()
    kept: list[Op] = []
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            _, uid, size, field_count = op
            model.alloc(uid, size, field_count)
            kept.append(op)
        elif kind == "store":
            _, src, slot, dst = op
            if src not in model.sizes:
                continue
            if dst is not None and dst not in model.sizes:
                continue
            if slot >= len(model.fields[src]):
                continue
            reachable = model.reachable()
            if src not in reachable:
                continue
            if dst is not None and dst not in reachable:
                continue
            model.store(src, slot, dst)
            kept.append(op)
        elif kind == "drop":
            _, uid = op
            if uid not in model.rooted:
                continue
            model.drop(uid)
            kept.append(op)
        elif kind in ("collect", "check"):
            kept.append(op)
        else:
            raise ReplayError(f"unknown op kind {kind!r}")
    return tuple(kept)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def generate_script(
    op_count: int,
    seed: int,
    *,
    max_live_words: int = 40,
    max_object_words: int = 4,
    max_fields: int = 3,
    check_interval: int = 64,
) -> MutatorScript:
    """Generate a deterministic, valid mutator script.

    The mix is allocation-heavy (roughly half the ops) with stores,
    root drops and explicit collections interleaved, and a ``check``
    op every ``check_interval`` ops plus one at the end.  Live storage
    is kept at or below ``max_live_words`` by force-dropping roots
    before an allocation that would exceed it, so the script replays
    without exhausting any reasonably sized heap.
    """
    if op_count < 1:
        raise ValueError(f"op count must be positive, got {op_count!r}")
    if max_live_words < max_object_words:
        raise ValueError(
            f"live budget {max_live_words} cannot fit even one object "
            f"of {max_object_words} words"
        )
    rng = random.Random(seed)
    model = _ScriptModel()
    ops: list[Op] = []
    next_uid = 0

    def emit_alloc() -> None:
        nonlocal next_uid
        size = rng.randint(1, max_object_words)
        # An object's reference slots fit inside its size (model.py's
        # field_count <= size constraint).
        field_count = rng.randint(0, min(size, max_fields))
        # Stay under the live budget: drop roots until the allocation
        # fits (dropping every root always frees everything).
        while model.rooted and model.live_words() + size > max_live_words:
            victim = rng.choice(sorted(model.rooted))
            model.drop(victim)
            ops.append(("drop", victim))
        uid = next_uid
        next_uid += 1
        model.alloc(uid, size, field_count)
        ops.append(("alloc", uid, size, field_count))

    def emit_store() -> bool:
        reachable = sorted(model.reachable())
        sources = [uid for uid in reachable if model.fields[uid]]
        if not sources:
            return False
        src = rng.choice(sources)
        slot = rng.randrange(len(model.fields[src]))
        if rng.random() < 0.15:
            dst: int | None = None
        else:
            dst = rng.choice(reachable)
        model.store(src, slot, dst)
        ops.append(("store", src, slot, dst))
        return True

    def emit_drop() -> bool:
        if not model.rooted:
            return False
        victim = rng.choice(sorted(model.rooted))
        model.drop(victim)
        ops.append(("drop", victim))
        return True

    while len(ops) < op_count:
        if check_interval and len(ops) and len(ops) % check_interval == 0:
            ops.append(("check",))
            continue
        roll = rng.random()
        if roll < 0.50:
            emit_alloc()
        elif roll < 0.78:
            if not emit_store():
                emit_alloc()
        elif roll < 0.98:
            if not emit_drop():
                emit_alloc()
        else:
            # Explicit full collections are rare so that most
            # collections are the natural, allocation-triggered kind
            # (minor/promoting paths included).
            ops.append(("collect",))
    if ops[-1] != ("check",):
        ops.append(("check",))
    return MutatorScript(
        ops=tuple(ops), seed=seed, note=f"generated op_count={op_count}"
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


class ReplayContext:
    """The heap, roots and collector a script's ops act on.

    The one interpreter of the mutator's ops, which addresses the heap
    by object id only: :meth:`apply` reads one op from a script,
    resolving its uids, and runs ``alloc`` and ``store`` through the
    methods of those names.  :func:`replay` drives a
    whole script through it, harnesses that interleave their own steps
    (the chaos matrix's fault injection) or keep the collector
    afterwards (snapshot capture) call :meth:`apply`/:meth:`run`
    themselves, and each tenant session of the service validates a
    request and calls the op.
    """

    def __init__(
        self,
        factory: CollectorFactory,
        *,
        checked: bool = False,
    ) -> None:
        self.checked = checked
        self.uid_to_id: dict[int, int] = {}
        #: Allocation safepoints passed so far.
        self.allocations = 0
        heap = FlatHeap()
        roots = RootSet()
        self._install(heap, roots, factory(heap, roots))

    @classmethod
    def restored(
        cls, document: dict, uid_to_id: dict[int, int]
    ) -> "ReplayContext":
        """An unchecked context over a restored snapshot ``document``
        whose objects the script names by ``uid_to_id``."""
        from repro.resilience.snapshot import restore  # see restart

        context = cls.__new__(cls)
        context.checked = False
        context.uid_to_id = uid_to_id
        context.allocations = 0
        context._install(*restore(document))
        return context

    def _install(self, heap, roots: RootSet, collector: Collector) -> None:
        self.heap, self.roots, self.collector = heap, roots, collector
        if self.checked:
            enable_checked_mode(collector)

    def apply(self, op: Op) -> None:
        """Apply one ``alloc``/``store``/``drop``/``collect`` op."""
        kind = op[0]
        if kind == "alloc":
            self.alloc(*op[1:])
        elif kind == "store":
            _, src_uid, slot, dst_uid = op
            src = self._resolve(src_uid)
            dst = None if dst_uid is None else self._resolve(dst_uid)
            self.store(src, slot, dst)
        elif kind == "drop":
            self.roots.remove_global(f"u{op[1]}")
        elif kind == "collect":
            self.collector.collect()
        else:
            raise ReplayError(f"unknown op kind {kind!r}")

    def alloc(self, uid: int, size: int, field_count: int) -> int:
        """Allocate and root an object under ``uid``; returns its id."""
        obj_id = self.collector.allocate_id(size, field_count)
        self.uid_to_id[uid] = obj_id
        self.roots.set_global(f"u{uid}", obj_id)
        self.allocations += 1
        return obj_id

    def store(self, src_id: int, slot: int, dst_id: int | None) -> None:
        """Barrier, then write: the snapshot-at-the-beginning barrier
        reads the slot's old value."""
        self.collector.remember_store_id(src_id, slot, dst_id)
        self.heap.store_slot(src_id, slot, dst_id)

    def _resolve(self, uid: int) -> int:
        """The id of the live object under ``uid``; a freed one is a
        structural error of the heap."""
        try:
            obj_id = self.uid_to_id[uid]
        except KeyError:
            raise ReplayError(
                f"script references uid {uid} before its alloc"
            ) from None
        if not self.heap.contains_id(obj_id):
            raise HeapError(f"dangling object id {obj_id}")
        return obj_id

    def checkpoint(self, op_index: int) -> Checkpoint:
        """Fingerprint the graph reachable from the surviving roots."""
        heap = self.heap
        # Ids are unique, so ordering by id orders the entries.  Built
        # from a list: a tuple grown from a generator strands every
        # resized tuple in the interpreter's per-size free lists.
        graph = tuple([
            (obj_id, heap.size_of(obj_id), tuple(heap.slots_of(obj_id)))
            for obj_id in sorted(heap.reachable_from(list(self.roots.ids())))
        ])
        return Checkpoint(
            op_index=op_index,
            clock=heap.clock,
            live_words=sum(entry[1] for entry in graph),
            graph=graph,
        )

    def restart(self, kind: str, geometry) -> None:
        """Checkpoint, drop the context, restore from the wire form.

        The document round-trips through its canonical JSON text
        (parse + checksum verification included), so the restore path
        is the one a cold process would take after a crash.  Object
        ids survive it, so the script needs no translation.
        """
        # Imported here: repro.resilience's package init imports the
        # chaos harness, which imports this module.
        from repro.resilience.snapshot import checkpoint, restore

        wire = json.dumps(
            checkpoint(self.collector, kind, geometry), sort_keys=True
        )
        self.close()
        self._install(*restore(json.loads(wire)))

    def close(self) -> None:
        """Release whatever the collector holds (a marker pool)."""
        self.collector.close()

    def run(
        self,
        script: MutatorScript,
        *,
        name: str = "",
        resume: tuple | None = None,
    ) -> ReplayResult:
        """Replay ``script`` on this context (see :func:`replay`)."""
        checkpoints: list[Checkpoint] = []
        restart_at = self.allocations + resume[0] if resume else None
        # A final fingerprint so even check-free scripts are comparable.
        ops = script.ops + (("check",),)
        for op_index, op in enumerate(ops):
            try:
                if op[0] == "check":
                    checkpoints.append(self.checkpoint(op_index))
                    continue
                self.apply(op)
                if self.allocations == restart_at:
                    self.restart(*resume[1:])
                    restart_at += resume[0]
            except ReplayError:
                raise
            except Exception as exc:
                raise ReplayCrash(op_index, op, exc) from exc
        stats = self.collector.stats
        return ReplayResult(
            collector=name or self.collector.name,
            checkpoints=tuple(checkpoints),
            words_allocated=stats.words_allocated,
            collections=stats.collections,
            stats=tuple(sorted(stats.snapshot().items())),
            pauses=tuple(stats.pauses),
            survivors=tuple(self.heap.object_ids()),
        )


def replay(
    script: MutatorScript,
    factory: CollectorFactory,
    *,
    checked: bool = False,
    name: str = "",
    resume: tuple | None = None,
) -> ReplayResult:
    """Replay a script under a freshly built collector.

    Args:
        script: the script to replay (must be valid; see module doc).
        factory: builds the collector over a fresh heap and root set.
        checked: install the heap auditor as a post-collection hook,
            so every collection is audited as it completes.
        name: label for the result (defaults to the collector's name).
        resume: ``(interval, kind, geometry)`` — after every
            ``interval``-th allocation, :meth:`ReplayContext.restart`.

    Raises:
        ReplayCrash: an op raised inside the collector or heap —
            including :class:`~repro.verify.audit.AuditError` from
            checked mode.
        ReplayError: the script itself is malformed.
    """
    context = ReplayContext(factory, checked=checked)
    return context.run(script, name=name, resume=resume)
