"""One tenant's heap session: the mutator surface behind the service.

A :class:`TenantSession` owns a private
:class:`~repro.verify.replay.ReplayContext` — heap, roots and collector
built from the tenant's chosen collector kind and
:class:`~repro.gc.registry.GcGeometry` — and nothing is shared between
tenants, which is the whole point: the isolation oracle
(:mod:`repro.service.isolation`) proves that a tenant's checkpoints and
:class:`~repro.gc.stats.GcStats` through the service are byte-identical
to replaying its ops serially through a standalone heap
(:func:`repro.verify.replay.replay`).

The session is a request adapter over that one interpreter of the
mutator's ops: it validates a request against the tenant's uids
(``unknown-uid``, ``bad-request``), turns policy refusals into
:class:`OpRejected` (``heap-exhausted``), and runs ``alloc``,
``write``, ``drop`` and ``collect`` as the context's ``alloc``,
``store``, ``drop`` and ``collect`` ops; ``checkpoint`` is the
context's fingerprint.  A uid whose object a collection reclaimed
(dropped, then unreachable) answers ``unknown-uid`` like a uid that was
never allocated.  ``tests/service/golden_session_responses.json`` pins
every answer.

Sessions are *migratable*: :meth:`capture` freezes the session into a
JSON-able state blob built on the snapshot machinery
(:func:`repro.resilience.snapshot.checkpoint`, checksummed envelope
included), and :meth:`TenantSession.from_state` revives it in another
process.  Resume equivalence (proven per collector by
``resume_suite`` in :mod:`repro.verify.differential`) is what lets the
sharded executor replay a batch on a respawned worker without any
tenant noticing.

Metric accounting is *cadence-independent by construction*:
:meth:`drain_metrics` walks the pause log and stats counters forward
from high-water marks stored **in the session state**, so any drain
cadence yields byte-identical registries, inline or in a worker
process.  When the shard drains is
:class:`~repro.service.shard.ShardRuntime`'s business.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Any

from repro.gc.collector import HeapExhausted
from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.metrics.registry import MetricRegistry
from repro.resilience.snapshot import SnapshotError
from repro.resilience.snapshot import checkpoint as snapshot_checkpoint
from repro.service.protocol import (
    ProtocolError,
    encode_json,
    geometry_from_payload,
)
from repro.verify.replay import ReplayContext

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

    ``graph`` is the sorted ``(obj_id, size, fields)`` tuple of a
    :class:`~repro.verify.replay.Checkpoint`, which both
    :func:`repro.verify.replay.replay` and
    :meth:`TenantSession.checkpoint_payload` take; hashing its canonical
    JSON makes the two directly comparable.  The tuples encode as the
    arrays ``[[obj_id, size, [fields...]], ...]``.
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
    """A live tenant context plus its id-to-uid bookkeeping.

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
        if backend != FlatHeap.backend_name:
            raise ValueError(
                f"unknown heap backend {backend!r} "
                f"(known: {FlatHeap.backend_name})"
            )
        self.tenant = tenant
        self.kind = kind
        self.backend = backend
        self.geometry = geometry if geometry is not None else GcGeometry()
        self.context = ReplayContext(collector_factory(kind, self.geometry))
        self.id_to_uid: dict[int, int] = {}
        self.checkpoints = 0
        # Metric drain high-water marks (carried in the state blob so
        # draining never double-counts across capture/restore).
        self._pauses_drained = 0
        self._last_pause_clock = 0
        self._stats_drained: dict[str, int] = {
            key: 0 for key in self.context.collector.stats.snapshot()
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
        obj_id = self.context.uid_to_id.get(uid)
        if obj_id is None:
            raise ProtocolError(
                f"tenant {self.tenant!r} has no object under uid {uid}",
                kind="unknown-uid",
            )
        if not self.context.heap.contains_id(obj_id):
            raise ProtocolError(
                f"tenant {self.tenant!r}: the object under uid {uid} was "
                f"dropped and has been collected",
                kind="unknown-uid",
            )
        return obj_id

    def apply(self, request: dict) -> dict:
        """Apply one validated tenant op; returns the response payload.

        Raises:
            ProtocolError: uid-level state errors (``unknown-uid``,
                ``bad-request``).
            OpRejected: policy refusals (``heap-exhausted``); the
                session survives them.
        """
        try:
            return self._apply(request)
        except HeapExhausted as exc:
            raise OpRejected(
                "heap-exhausted",
                str(exc),
                requested=exc.requested,
                phase=exc.phase,
                occupancy=exc.snapshot,
            ) from exc

    def _apply(self, request: dict) -> dict:
        op = request["op"]
        context = self.context
        heap = context.heap
        if op == "alloc":
            uid = request["uid"]
            if uid in context.uid_to_id:
                raise ProtocolError(
                    f"uid {uid} already allocated for tenant "
                    f"{self.tenant!r}",
                    kind="bad-request",
                )
            obj_id = context.alloc(
                uid, request["size"], request.get("fields", 0)
            )
            self.id_to_uid[obj_id] = uid
            return {"uid": uid, "clock": heap.clock}
        if op == "write":
            src = self._resolve(request["src"])
            slot = request["slot"]
            count = heap.slot_count_of(src)
            if slot >= count:
                raise ProtocolError(
                    f"slot {slot} out of range for uid {request['src']} "
                    f"({count} fields)",
                    kind="bad-request",
                )
            dst_uid = request.get("dst")
            dst = None if dst_uid is None else self._resolve(dst_uid)
            context.store(src, slot, dst)
            return {}
        if op == "drop":
            self._resolve(request["uid"])
            context.apply(("drop", request["uid"]))
            return {}
        if op == "read":
            obj_id = self._resolve(request["uid"])
            id_to_uid = self.id_to_uid
            fields = [
                None if ref is None else id_to_uid.get(ref)
                for ref in heap.slots_of(obj_id)
            ]
            return {"size": heap.size_of(obj_id), "fields": fields}
        if op == "checkpoint":
            self.checkpoints += 1
            return self.checkpoint_payload()
        if op == "collect":
            context.apply(("collect",))
            return {"collections": context.collector.stats.collections}
        raise ProtocolError(f"op {op!r} is not a session op")

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------

    def checkpoint_payload(self) -> dict:
        checkpoint = self.context.checkpoint(self.checkpoints)
        return {
            "clock": checkpoint.clock,
            "live_words": checkpoint.live_words,
            "objects": len(checkpoint.graph),
            "digest": graph_digest(checkpoint.graph),
        }

    def close_payload(self) -> dict:
        """The final fingerprint bundle returned by a ``close`` op."""
        stats = self.context.collector.stats
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
        stats = self.context.collector.stats
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
                self.context.collector, self.kind, self.geometry
            ),
            "uid_to_id": sorted(self.context.uid_to_id.items()),
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
        uid_to_id = {
            int(uid): int(obj_id) for uid, obj_id in state["uid_to_id"]
        }
        session.context = ReplayContext.restored(state["snapshot"], uid_to_id)
        session.id_to_uid = {obj_id: uid for uid, obj_id in uid_to_id.items()}
        session.checkpoints = int(state["checkpoints"])
        session._pauses_drained = int(state["pauses_drained"])
        session._last_pause_clock = int(state["last_pause_clock"])
        session._stats_drained = {
            key: int(value) for key, value in state["stats_drained"].items()
        }
        return session
