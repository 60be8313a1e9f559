"""Sharded tenant execution over the hardened parallel engine.

A *shard* owns a disjoint set of tenants (assignment is a stable
content hash of the tenant name, so every process that can see the
shard count routes identically).  The execution unit is a **batch**:
the ordered list of validated requests a shard has pending.  A batch
is applied by :func:`run_shard_batch` — a pure, picklable,
module-level function from ``(state, ops)`` to ``(responses, state')``
— which is exactly the shape :meth:`repro.perf.parallel.WorkerPool.map`
hardens: per-batch timeouts, attempt-bounded retry, worker-crash
recovery by killing the workers and forking new ones.

That purity is the crash story.  Shard state between batches lives in
the *parent* as a map of tenant → checksummed snapshot blob
(:meth:`repro.service.session.TenantSession.capture`, built on the
PR 9 snapshot machinery).  A worker that dies mid-batch never
acknowledged anything: the pool replays the identical batch from the
identical committed state on a fresh worker, and — by resume
equivalence (``resume_suite`` in :mod:`repro.verify.differential`) —
produces the identical responses.  No committed tenant state can be
lost, because committed state is precisely what the parent already
holds.

Two execution modes, one semantics:

``jobs == 0`` (inline)
    Persistent :class:`ShardRuntime` objects in the calling process;
    sessions stay live between batches.  The deterministic reference
    mode the isolation oracle replays.
``jobs >= 1`` (pool)
    Each batch opens a :class:`~repro.perf.parallel.WorkerPool` of up
    to ``jobs`` workers (one per shard the batch touches) and ships to
    it; a worker lazily revives only the tenants the batch touches and
    captures them back afterwards.  Holding a pool *means*
    out-of-process, so a one-shard batch is not padded and ``--jobs N``
    is N workers.  A batch that exhausts its retry budget is *drained*:
    every request in it gets a structured ``shard-failed`` response,
    the state stays at the last committed blobs, and the next batch
    revives the shard from them (the respawn).  A batch is a pure
    function of the blobs shipped with it, so nothing but the pool's
    lifetime ties it to its workers (why that lifetime is one batch:
    ``docs/IMPLEMENTATION.md``).

The byte-identity of the two modes — responses and per-shard metric
registries alike — is asserted by the service test suite; it follows
from resume equivalence plus the cadence-independent metric draining
in :mod:`repro.service.session`.
"""

from __future__ import annotations

import hashlib
import os
import time
from functools import lru_cache
from typing import Any, Iterable, Mapping

from repro.gc.registry import COLLECTOR_KINDS
from repro.heap.flat import FlatHeap
from repro.metrics.registry import MetricRegistry, merge_registries
from repro.perf.parallel import TaskFailure, WorkerPool
from repro.service.protocol import (
    ProtocolError,
    error_response,
    geometry_from_payload,
    ok_response,
)
from repro.service.session import OpRejected, TenantSession

__all__ = [
    "ShardExecutor",
    "ShardRuntime",
    "run_shard_batch",
    "shard_of",
]


#: Most routes :func:`shard_of` remembers.  Tenant names are chosen by
#: the client, so the memo is bounded in entries (least recently used
#: goes first) and, by the length test in :func:`shard_of`, in bytes.
SHARD_MEMO_ENTRIES = 1 << 14


def _hash_shard(tenant: str, shards: int) -> int:
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


_remembered_shard = lru_cache(maxsize=SHARD_MEMO_ENTRIES)(_hash_shard)


def shard_of(tenant: str, shards: int) -> int:
    """The owning shard: a stable content hash, PYTHONHASHSEED-proof.

    A tenant is routed once per request, so the hash of a name of
    ordinary length is remembered; a name can be as long as a request
    line, and one that long is hashed every time rather than kept.
    """
    if len(tenant) > 64:
        return _hash_shard(tenant, shards)
    return _remembered_shard(tenant, shards)


class ShardRuntime:
    """Live sessions and metric registries for one shard.

    ``state`` seeds the runtime with captured session blobs; sessions
    are revived lazily on first touch, so a batch that addresses 3 of
    500 tenants pays for 3 restores.  The same class serves both
    execution modes — the inline executor keeps one runtime alive for
    the whole run, the pool worker builds a fresh one per batch.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        state: Mapping[str, dict] | None = None,
        tenant_cap: int | None = None,
        external_tenants: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.tenant_cap = tenant_cap
        self.sessions: dict[str, TenantSession] = {}
        self._cold: dict[str, dict] = dict(state or {})
        # Tenants the parent holds that were not shipped with this
        # batch (pool mode ships only the blobs a batch touches);
        # counted so the admission cap sees true shard occupancy.
        self.external_tenants = external_tenants
        self.closed: list[str] = []
        self._registries: dict[str, MetricRegistry] = {}
        # Tenants that ran ops since their session was last drained.
        self._undrained: set[str] = set()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def registries(self) -> dict[str, MetricRegistry]:
        """The shard's metric registries (label → registry), with every
        session's metrics drained into them first."""
        self._flush_metrics()
        return self._registries

    def registry(self, label: str) -> MetricRegistry:
        registry = self._registries.get(label)
        if registry is None:
            registry = MetricRegistry(label)
            self._registries[label] = registry
        return registry

    def _flush_metrics(self) -> None:
        """Drain every session that ran ops since its last drain.

        Draining is cadence-independent (:mod:`repro.service.session`),
        so the shard drains only when its registries are about to be
        read or its sessions captured, not after every batch.
        """
        # ``close`` and eviction discard their tenant, so every
        # undrained tenant still has a live session.
        for tenant in self._undrained:
            self._drain(self.sessions[tenant])
        self._undrained.clear()

    def _drain(self, session: TenantSession) -> None:
        session.drain_metrics(self.registry(session.metrics_label))

    @property
    def open_tenants(self) -> int:
        return (
            len(self.sessions) + len(self._cold) + self.external_tenants
        )

    def has_tenant(self, tenant: str) -> bool:
        return tenant in self.sessions or tenant in self._cold

    def _session(self, tenant: str) -> TenantSession | None:
        session = self.sessions.get(tenant)
        if session is None:
            blob = self._cold.pop(tenant, None)
            if blob is None:
                return None
            session = TenantSession.from_state(blob)
            self.sessions[tenant] = session
        return session

    def export_state(self) -> dict[str, dict]:
        """Capture every session back into blob form (plus cold ones).

        Drains first: the high-water marks travel in the blobs, and a
        blob captured ahead of its drain would count its metrics again
        on the next batch.
        """
        self._flush_metrics()
        state = dict(self._cold)
        for tenant, session in self.sessions.items():
            state[tenant] = session.capture()
        return state

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------

    def apply_batch(self, ops: Iterable[dict]) -> list[dict]:
        """Apply validated requests in order; one response each.

        No op may raise out of this method: malformed state references,
        policy refusals, and even unexpected internal errors all become
        structured error responses scoped to their own request.

        Sessions are not drained here.  A tenant the batch touched is
        marked undrained and drained when the registries are next read
        (:attr:`registries`) or the sessions captured
        (:meth:`export_state`, which a pool worker calls once per
        batch).  ``close`` drains its session, and the blast-radius
        fence drains an evicted session before dropping it, so the
        registry of an evicted tenant counts every op it acknowledged,
        in either execution mode.
        """
        service = self.registry("service")
        # Counted per batch: one counter lookup per op kind and outcome
        # the batch saw, not two per request.
        requested: dict[str, int] = {}
        refused: dict[str, int] = {}
        responses: list[dict] = []
        for request in ops:
            op = request["op"]
            requested[op] = requested.get(op, 0) + 1
            response = self._apply_one(request)
            if not response.get("ok"):
                kind = response["error"]["kind"]
                refused[kind] = refused.get(kind, 0) + 1
            responses.append(response)
        for op, count in requested.items():
            service.counter(f"requests.{op}").inc(count)
        answered_ok = len(responses) - sum(refused.values())
        if answered_ok:
            service.counter("responses_ok").inc(answered_ok)
        for kind, count in refused.items():
            service.counter(f"errors.{kind}").inc(count)
        return responses

    def _apply_one(self, request: dict) -> dict:
        op = request["op"]
        tenant = request["tenant"]
        request_id = request["id"]
        try:
            if op == "open":
                return self._op_open(request)
            session = self._session(tenant)
            if session is None:
                return error_response(
                    request_id,
                    "unknown-tenant",
                    f"tenant {tenant!r} has no open session on shard "
                    f"{self.shard_id}",
                )
            if op == "close":
                self._undrained.discard(tenant)
                self._drain(session)
                payload = session.close_payload()
                del self.sessions[tenant]
                self.closed.append(tenant)
                self.registry("service").counter("tenants_closed").inc()
                return ok_response(request_id, **payload)
            self._undrained.add(tenant)
            return ok_response(request_id, **session.apply(request))
        except ProtocolError as exc:
            return error_response(request_id, exc.kind, exc.detail)
        except OpRejected as exc:
            return error_response(
                request_id, exc.kind, exc.detail, **exc.extra
            )
        except Exception as exc:  # tenant blast-radius fence
            session = self.sessions.pop(tenant, None)
            self._undrained.discard(tenant)
            if session is not None:
                self._drain(session)
            self._cold.pop(tenant, None)
            self.closed.append(tenant)
            self.registry("service").counter("tenants_evicted").inc()
            return error_response(
                request_id,
                "internal",
                f"op {op!r} failed inside tenant {tenant!r} "
                f"(session evicted): {type(exc).__name__}: {exc}",
            )

    def _op_open(self, request: dict) -> dict:
        tenant = request["tenant"]
        if self.has_tenant(tenant):
            return error_response(
                request["id"],
                "tenant-exists",
                f"tenant {tenant!r} already has an open session",
            )
        if (
            self.tenant_cap is not None
            and self.open_tenants >= self.tenant_cap
        ):
            return error_response(
                request["id"],
                "backpressure",
                f"shard {self.shard_id} is at its tenant cap",
                shard=self.shard_id,
                open_tenants=self.open_tenants,
                tenant_cap=self.tenant_cap,
            )
        try:
            session = TenantSession(
                tenant,
                kind=request.get("kind", COLLECTOR_KINDS[0]),
                backend=request.get("backend", FlatHeap.backend_name),
                geometry=geometry_from_payload(request.get("geometry")),
            )
        except ValueError as exc:
            # Well-typed geometry the chosen collector cannot be built
            # with: the request's fault, and no session ever existed.
            return error_response(request["id"], "bad-request", str(exc))
        self.sessions[tenant] = session
        self.registry("service").counter("tenants_opened").inc()
        return ok_response(
            request["id"],
            tenant=tenant,
            kind=session.kind,
            backend=session.backend,
            shard=self.shard_id,
        )


# ----------------------------------------------------------------------
# The picklable batch task (pool mode)
# ----------------------------------------------------------------------


def run_shard_batch(item: dict, attempt: int = 0) -> dict:
    """One shard batch as a pure function — the ``WorkerPool.map`` task.

    ``item`` carries the shard id, the committed state blobs, the
    ordered validated requests, and the executor config.  The result
    carries the responses, the new committed state, and the batch's
    metric-registry deltas in JSON form.  ``attempt`` is the engine's
    retry counter; the batch itself is deterministic, so a retry
    recomputes identical results — ``attempt`` is consulted only by
    the chaos pseudo-ops below.

    Chaos pseudo-ops (honoured only when the executor was built with
    ``chaos=True``; the server never emits them) make the fault drills
    real instead of simulated: ``_chaos-exit`` kills the worker
    process mid-batch with ``os._exit`` (a genuinely dead worker, as
    the pool sees it), ``_chaos-spin`` wedges it past the task
    timeout.  Both stand down once ``attempt`` reaches their
    ``attempts`` count, so the drill exercises the full
    die → respawn → replay path.
    """
    config = item.get("config", {})
    chaos = bool(config.get("chaos"))
    ops: list[dict] = []
    for request in item["ops"]:
        kind = request.get("op")
        if kind in ("_chaos-exit", "_chaos-spin"):
            if chaos and attempt < int(request.get("attempts", 1)):
                if kind == "_chaos-exit":
                    os._exit(3)
                time.sleep(float(request.get("seconds", 30.0)))
            continue
        ops.append(request)
    runtime = ShardRuntime(
        item["shard"],
        state=item["state"],
        tenant_cap=config.get("tenant_cap"),
        external_tenants=int(config.get("external_tenants", 0)),
    )
    responses = runtime.apply_batch(ops)
    return {
        "shard": item["shard"],
        "responses": responses,
        "state": runtime.export_state(),
        "closed": runtime.closed,
        "metrics": {
            label: registry.to_jsonable()
            for label, registry in runtime.registries.items()
        },
    }


# ----------------------------------------------------------------------
# The executor: state ownership, fan-out, drain/respawn
# ----------------------------------------------------------------------


class ShardExecutor:
    """Owns the shards' committed state and routes batches to them.

    The parent-side half of the service: :meth:`execute` takes one
    batch per shard and returns responses per shard, fanning the
    non-empty shards across worker processes (``jobs >= 1``) or
    applying them to persistent in-process runtimes (``jobs == 0``).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        jobs: int = 0,
        tenant_cap: int | None = None,
        chaos: bool = False,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        self.jobs = jobs
        #: Batches are applied in the calling process — no pool to
        #: block on, so a caller gains nothing from a thread.
        self.inline = jobs == 0
        self.tenant_cap = tenant_cap
        self.chaos = chaos
        self.timeout = timeout
        self.retries = retries
        self.batches = 0
        self.respawns = [0] * shards
        if self.inline:
            self._runtimes: list[ShardRuntime] | None = [
                ShardRuntime(index, tenant_cap=tenant_cap)
                for index in range(shards)
            ]
            self._state: list[dict[str, dict]] | None = None
            self._metrics: list[dict[str, MetricRegistry]] | None = None
        else:
            self._runtimes = None
            self._state = [dict() for _ in range(shards)]
            self._metrics = [dict() for _ in range(shards)]

    # ------------------------------------------------------------------

    def shard_of(self, tenant: str) -> int:
        return shard_of(tenant, self.shards)

    def open_tenants(self, shard: int) -> int:
        if self._runtimes is not None:
            return self._runtimes[shard].open_tenants
        return len(self._state[shard])

    def shard_metrics(self, shard: int) -> dict[str, MetricRegistry]:
        """The shard's merged metric registries (label → registry)."""
        if self._runtimes is not None:
            return self._runtimes[shard].registries
        return self._metrics[shard]

    def merged_metrics(self) -> list[MetricRegistry]:
        """Service-wide registries: shard registries merged per label."""
        by_label: dict[str, list[MetricRegistry]] = {}
        for shard in range(self.shards):
            for label, registry in self.shard_metrics(shard).items():
                by_label.setdefault(label, []).append(registry)
        return [
            merge_registries(group, label)
            for label, group in sorted(by_label.items())
        ]

    def shard_state(self, shard: int) -> dict[str, dict]:
        """The shard's committed state blobs (captured live if inline)."""
        if self._runtimes is not None:
            return self._runtimes[shard].export_state()
        return self._state[shard]

    # ------------------------------------------------------------------

    def execute(
        self, batches: Mapping[int, list[dict]]
    ) -> dict[int, list[dict]]:
        """Apply one ordered batch per shard; responses per shard.

        Batches for distinct shards are independent by construction
        (tenants are partitioned), so fan-out order cannot change any
        response — results are keyed by shard, never by completion
        order.
        """
        work = {
            shard: ops for shard, ops in sorted(batches.items()) if ops
        }
        if not work:
            return {}
        self.batches += 1
        if self._runtimes is not None:
            return {
                shard: self._runtimes[shard].apply_batch(
                    self._strip_chaos(ops)
                )
                for shard, ops in work.items()
            }

        # Ship only the blobs this batch can touch: per-batch cost
        # scales with batch size, not with how many tenants the shard
        # hosts.  The worker learns the unshipped count so the
        # admission cap still measures true occupancy.
        items = []
        for shard, ops in work.items():
            state = self._state[shard]
            touched = {
                request["tenant"]
                for request in ops
                if "tenant" in request
            }
            shipped = {
                tenant: state[tenant]
                for tenant in touched
                if tenant in state
            }
            items.append(
                {
                    "shard": shard,
                    "state": shipped,
                    "ops": ops,
                    "config": {
                        "tenant_cap": self.tenant_cap,
                        "chaos": self.chaos,
                        "external_tenants": len(state) - len(shipped),
                    },
                }
            )
        # Pool mode exists for crash isolation: tenant heaps never run
        # inside the calling process, however few shards a batch touches.
        with WorkerPool(min(self.jobs, len(items))) as pool:
            outcomes = pool.map(
                run_shard_batch,
                items,
                timeout=self.timeout,
                retries=self.retries,
            )
        responses: dict[int, list[dict]] = {}
        for (shard, ops), outcome in zip(work.items(), outcomes):
            if isinstance(outcome, TaskFailure):
                # Drained: state unchanged, every request answered
                # with a structured failure, shard revives next batch.
                self.respawns[shard] += 1
                responses[shard] = [
                    error_response(
                        request.get("id"),
                        "shard-failed",
                        f"shard {shard} lost its worker "
                        f"({outcome.kind} after {outcome.attempts} "
                        f"attempt(s)); committed state preserved",
                        shard=shard,
                    )
                    for request in ops
                    if not str(request.get("op", "")).startswith("_chaos")
                ]
                continue
            state = self._state[shard]
            for tenant in outcome["closed"]:
                state.pop(tenant, None)
            state.update(outcome["state"])
            merged = self._metrics[shard]
            for label, payload in outcome["metrics"].items():
                delta = MetricRegistry.from_jsonable(payload)
                if label in merged:
                    merged[label].merge(delta)
                else:
                    merged[label] = delta
            responses[shard] = outcome["responses"]
        return responses

    @staticmethod
    def _strip_chaos(ops: list[dict]) -> list[dict]:
        """Inline mode has no worker to kill; chaos ops are dropped
        (matching pool mode's response stream, which skips them too)."""
        return [
            request
            for request in ops
            if not str(request.get("op", "")).startswith("_chaos")
        ]

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-able occupancy snapshot of the whole executor."""
        return {
            "shards": self.shards,
            "jobs": self.jobs,
            "tenant_cap": self.tenant_cap,
            "batches": self.batches,
            "respawns": list(self.respawns),
            "open_tenants": [
                self.open_tenants(shard) for shard in range(self.shards)
            ],
        }
