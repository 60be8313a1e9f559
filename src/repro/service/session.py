"""One tenant's heap session: the mutator surface behind the service.

A :class:`TenantSession` owns a private ``(heap, roots, collector)``
context built from the tenant's chosen collector kind and
:class:`~repro.gc.registry.GcGeometry` — nothing is shared between
tenants, which is the whole point: the isolation oracle
(:mod:`repro.service.isolation`) proves that a tenant's checkpoints and
:class:`~repro.gc.stats.GcStats` through the service are byte-identical
to replaying its ops serially through a standalone heap
(:func:`repro.verify.replay.replay`).

Op semantics deliberately mirror :mod:`repro.verify.replay` — same
root naming (``u{uid}``), same write-barrier-then-write store order,
same live-graph fingerprint — so the two sides are comparable without
translation.  Like :class:`~repro.runtime.machine.Machine`, the session
addresses the heap by object id: ``allocate_id``, the collector's
id-level barrier hook ``remember_store_id`` followed by
``heap.store_slot``, and ``size_of``/``slots_of`` for reads and the
fingerprint — no object handle is built on any op.  A uid whose object
a collection reclaimed (dropped, then unreachable) answers
``unknown-uid`` like a uid that was never allocated.

Sessions are *migratable*: :meth:`capture` freezes the session into a
JSON-able state blob built on the PR 9 snapshot machinery
(:func:`repro.resilience.snapshot.checkpoint`, checksummed envelope
included), and :meth:`TenantSession.from_state` revives it in another
process.  Resume equivalence (proven per collector by
``resume_suite`` in :mod:`repro.verify.differential`) is what lets the
sharded executor replay a batch on a respawned worker without any
tenant noticing.

Metric accounting is *cadence-independent by construction*: instead of
observing collections as they happen (whose batching would make
telemetry depend on how the service chunked the traffic),
:meth:`drain_metrics` walks the pause log and stats counters forward
from high-water marks stored **in the session state**.  Draining after
every batch, or once at close, or at any mixture, yields byte-identical
registries — which is what makes per-shard metrics merge exactly across
inline and worker-process execution at any jobs level.  So the shard
drains when it must, not per batch
(:class:`~repro.service.shard.ShardRuntime`): before its registries
are read, before a session is captured (the marks travel in the blob),
at ``close``, and before an evicted session is dropped — an evicted
tenant's registry therefore counts every op it had acknowledged.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Any

from repro.gc.collector import HeapExhausted
from repro.gc.registry import GcGeometry, make_collector
from repro.heap.backend import make_heap
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.registry import MetricRegistry
from repro.resilience.snapshot import SnapshotError
from repro.resilience.snapshot import checkpoint as snapshot_checkpoint
from repro.resilience.snapshot import restore as snapshot_restore
from repro.service.protocol import (
    ProtocolError,
    encode_json,
    geometry_from_payload,
)

__all__ = [
    "OpRejected",
    "TenantSession",
    "graph_digest",
    "pauses_digest",
    "pause_family",
]


class OpRejected(Exception):
    """An op was refused by policy, not by a malformed request.

    The session survives; the shard turns this into a structured error
    response (``heap-exhausted`` with the occupancy snapshot attached,
    for the only current producer).
    """

    def __init__(self, kind: str, detail: str, **extra: Any) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.extra = extra


def graph_digest(graph: tuple) -> str:
    """SHA-256 over the canonical live-graph fingerprint.

    ``graph`` is the sorted ``(obj_id, size, fields)`` tuple built by
    both :func:`repro.verify.replay.replay` checkpoints and
    :meth:`TenantSession.checkpoint_payload`; hashing the canonical
    JSON of the same structure makes the two directly comparable.  The
    tuples encode as the arrays ``[[obj_id, size, [fields...]], ...]``.
    """
    blob = encode_json(graph)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pauses_digest(pauses) -> str:
    """SHA-256 over a pause log (any iterable of PauseRecord)."""
    blob = encode_json(
        [[p.clock, p.kind, p.work, p.reclaimed, p.live] for p in pauses]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pause_family(kind: str) -> str:
    """Collapse per-generation pause kinds ("minor-3") to a family."""
    return "minor" if kind.startswith("minor") else kind


class TenantSession:
    """A live tenant context plus its uid↔object-id bookkeeping.

    ``backend`` names the heap; only ``"flat"`` exists (the protocol
    answers any other name on ``open`` with ``bad-request``).  It rides
    in the metric label and the state blob.
    """

    def __init__(
        self,
        tenant: str,
        *,
        kind: str,
        backend: str = FlatHeap.backend_name,
        geometry: GcGeometry | None = None,
    ) -> None:
        self.tenant = tenant
        self.kind = kind
        self.backend = backend
        self.geometry = geometry if geometry is not None else GcGeometry()
        self.heap = make_heap(backend)
        self.roots = RootSet()
        self.collector = make_collector(
            kind, self.heap, self.roots, self.geometry
        )
        self.uid_to_id: dict[int, int] = {}
        self.id_to_uid: dict[int, int] = {}
        self.checkpoints = 0
        # Metric drain high-water marks (carried in the state blob so
        # draining never double-counts across capture/restore).
        self._pauses_drained = 0
        self._last_pause_clock = 0
        self._stats_drained: dict[str, int] = {
            key: 0 for key in self.collector.stats.snapshot()
        }

    # ------------------------------------------------------------------
    # Op surface
    # ------------------------------------------------------------------

    def _resolve(self, uid: int) -> int:
        """The live object id under ``uid``.

        A uid that was never allocated, and one whose object a
        collection has reclaimed, are both the client's stale handle:
        ``unknown-uid``, and the session is untouched.
        """
        obj_id = self.uid_to_id.get(uid)
        if obj_id is None:
            raise ProtocolError(
                f"tenant {self.tenant!r} has no object under uid {uid}",
                kind="unknown-uid",
            )
        if not self.heap.contains_id(obj_id):
            raise ProtocolError(
                f"tenant {self.tenant!r}: the object under uid {uid} was "
                f"dropped and has been collected",
                kind="unknown-uid",
            )
        return obj_id

    def apply(self, request: dict) -> dict:
        """Apply one validated tenant op; returns the response payload.

        Raises:
            ProtocolError: uid-level state errors (``unknown-uid``).
            OpRejected: policy refusals (``heap-exhausted``).
        """
        op = request["op"]
        if op == "alloc":
            return self._op_alloc(request)
        if op == "write":
            return self._op_write(request)
        if op == "drop":
            return self._op_drop(request)
        if op == "read":
            return self._op_read(request)
        if op == "checkpoint":
            self.checkpoints += 1
            return self.checkpoint_payload()
        if op == "collect":
            return self._op_collect()
        raise ProtocolError(f"op {op!r} is not a session op")

    def _op_alloc(self, request: dict) -> dict:
        uid = request["uid"]
        if uid in self.uid_to_id:
            raise ProtocolError(
                f"uid {uid} already allocated for tenant {self.tenant!r}",
                kind="bad-request",
            )
        try:
            obj_id = self.collector.allocate_id(
                request["size"], request.get("fields", 0)
            )
        except HeapExhausted as exc:
            raise OpRejected(
                "heap-exhausted",
                str(exc),
                requested=exc.requested,
                phase=exc.phase,
                occupancy=exc.snapshot,
            ) from exc
        self.uid_to_id[uid] = obj_id
        self.id_to_uid[obj_id] = uid
        # The cell ``RootSet.set_global`` writes, written by id: its
        # signature takes a handle, and this path builds none.
        self.roots._globals[f"u{uid}"] = obj_id
        return {"uid": uid, "clock": self.heap.clock}

    def _op_write(self, request: dict) -> dict:
        src = self._resolve(request["src"])
        slot = request["slot"]
        heap = self.heap
        count = heap.slot_count_of(src)
        if slot >= count:
            raise ProtocolError(
                f"slot {slot} out of range for uid {request['src']} "
                f"({count} fields)",
                kind="bad-request",
            )
        dst_uid = request.get("dst")
        dst = None if dst_uid is None else self._resolve(dst_uid)
        # Barrier, then write: the order replay and Machine use.
        self.collector.remember_store_id(src, slot, dst)
        heap.store_slot(src, slot, dst)
        return {}

    def _op_drop(self, request: dict) -> dict:
        uid = request["uid"]
        self._resolve(uid)  # unknown-uid check, same error surface
        self.roots.remove_global(f"u{uid}")
        return {}

    def _op_read(self, request: dict) -> dict:
        obj_id = self._resolve(request["uid"])
        id_to_uid = self.id_to_uid
        fields = [
            None if ref is None else id_to_uid.get(ref)
            for ref in self.heap.slots_of(obj_id)
        ]
        return {"size": self.heap.size_of(obj_id), "fields": fields}

    def _op_collect(self) -> dict:
        try:
            self.collector.collect()
        except HeapExhausted as exc:
            raise OpRejected(
                "heap-exhausted",
                str(exc),
                requested=exc.requested,
                phase=exc.phase,
                occupancy=exc.snapshot,
            ) from exc
        return {"collections": self.collector.stats.collections}

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------

    def live_graph(self) -> tuple:
        """The canonical live-graph tuple (replay checkpoint form)."""
        heap = self.heap
        size_of = heap.size_of
        slots_of = heap.slots_of
        # Ids are unique, so ordering by id is ordering the entries.
        reached = sorted(heap.reachable_from(list(self.roots.ids())))
        # From a list, not a generator: ``tuple`` sizes it exactly
        # instead of growing it, which would strand every resized
        # tuple in the interpreter's per-size free lists.
        return tuple([
            (obj_id, size_of(obj_id), tuple(slots_of(obj_id)))
            for obj_id in reached
        ])

    def checkpoint_payload(self) -> dict:
        graph = self.live_graph()
        live = sum(entry[1] for entry in graph)
        return {
            "clock": self.heap.clock,
            "live_words": live,
            "objects": len(graph),
            "digest": graph_digest(graph),
        }

    def close_payload(self) -> dict:
        """The final fingerprint bundle returned by a ``close`` op."""
        stats = self.collector.stats
        return {
            "final": self.checkpoint_payload(),
            "checkpoints": self.checkpoints,
            "stats": sorted(stats.snapshot().items()),
            "pauses": len(stats.pauses),
            "pauses_digest": pauses_digest(stats.pauses),
            "collections": stats.collections,
            "words_allocated": stats.words_allocated,
        }

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def metrics_label(self) -> str:
        return f"{self.kind}/{self.backend}"

    def drain_metrics(self, registry: MetricRegistry) -> None:
        """Fold everything since the last drain into ``registry``.

        Pure function of the session state: each pause is recorded
        exactly once (the high-water index rides in the state blob),
        and counter deltas telescope, so any drain cadence produces
        the same merged registry.
        """
        stats = self.collector.stats
        pauses = stats.pauses
        for pause in pauses[self._pauses_drained :]:
            registry.histogram("pause_words").record(pause.work)
            registry.histogram(
                f"pause_words.{pause_family(pause.kind)}"
            ).record(pause.work)
            registry.histogram("reclaimed_per_collection").record(
                pause.reclaimed
            )
            registry.histogram("live_at_collection").record(pause.live)
            registry.histogram("alloc_between_collections").record(
                max(0, pause.clock - self._last_pause_clock)
            )
            self._last_pause_clock = pause.clock
            registry.gauge("live_words_peak").set_max(pause.live)
        self._pauses_drained = len(pauses)

        snap = stats.snapshot()
        drained = self._stats_drained
        for key, value in snap.items():
            delta = value - drained[key]
            if delta:
                registry.counter(key).inc(delta)
        self._stats_drained = snap

    # ------------------------------------------------------------------
    # Capture / restore (the shard migration unit)
    # ------------------------------------------------------------------

    def capture(self) -> dict:
        """Freeze the session into a JSON-able, checksummed state blob."""
        return {
            "tenant": self.tenant,
            "kind": self.kind,
            "backend": self.backend,
            "geometry": asdict(self.geometry),
            "snapshot": snapshot_checkpoint(
                self.collector, self.kind, self.geometry
            ),
            "uid_to_id": sorted(self.uid_to_id.items()),
            "checkpoints": self.checkpoints,
            "pauses_drained": self._pauses_drained,
            "last_pause_clock": self._last_pause_clock,
            "stats_drained": self._stats_drained,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TenantSession":
        """Revive a captured session (possibly in another process).

        Raises:
            SnapshotError: the blob is for a heap this build does not
                have, or its snapshot fails verification or restore.
        """
        if state["backend"] != FlatHeap.backend_name:
            raise SnapshotError(
                f"session blob for heap backend {state['backend']!r} "
                f"(known: {FlatHeap.backend_name})"
            )
        session = cls.__new__(cls)
        session.tenant = state["tenant"]
        session.kind = state["kind"]
        session.backend = state["backend"]
        session.geometry = geometry_from_payload(dict(state["geometry"]))
        heap, roots, collector = snapshot_restore(state["snapshot"])
        session.heap = heap
        session.roots = roots
        session.collector = collector
        session.uid_to_id = {
            int(uid): int(obj_id) for uid, obj_id in state["uid_to_id"]
        }
        session.id_to_uid = {
            obj_id: uid for uid, obj_id in session.uid_to_id.items()
        }
        session.checkpoints = int(state["checkpoints"])
        session._pauses_drained = int(state["pauses_drained"])
        session._last_pause_clock = int(state["last_pause_clock"])
        session._stats_drained = {
            key: int(value) for key, value in state["stats_drained"].items()
        }
        return session
