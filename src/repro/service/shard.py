"""Sharded tenant execution, inline or in pinned worker processes.

A *shard* owns a disjoint set of tenants (assignment is a stable
content hash of the tenant name, so every process that can see the
shard count routes identically).  The execution unit is a **batch**:
the ordered list of validated requests a shard has pending, applied
by a :class:`ShardRuntime` — the shard's live sessions and metric
registries — one response per request.

Two execution modes, one semantics:

``jobs == 0`` (inline)
    Persistent :class:`ShardRuntime` objects in the calling process.
    The deterministic reference mode the isolation oracle replays.
``jobs >= 1`` (pool)
    One long-lived :class:`~repro.perf.parallel.PinnedWorker` process
    holds every shard's runtime resident from batch to batch: a batch
    message carries only the shards' requests and an attempt counter,
    never a heap.  Holding the worker *means* out-of-process, so a
    one-shard batch is not padded, and no tenant heap ever runs in the
    parent.  Any ``jobs >= 1`` forks that one worker: two measured no
    faster on the ``serve-pool`` benchmark.

A caller either blocks in :meth:`ShardExecutor.execute` (the isolation
oracle, the in-process load runner) or awaits
:meth:`ShardExecutor.execute_lane` on an event loop (the server: one
dispatcher, and no thread is involved).  Both run the same protocol;
only the wait for the worker's reply differs.

The crash story is replay.  What the parent holds for a pool-mode
shard is its *committed* state — the session blobs
(:meth:`repro.service.session.TenantSession.capture`, checksummed) and
metric registries from the shard's last commit point — plus the
*suffix*: every batch acknowledged since, with the responses the
clients were sent.  A commit point drains and captures in the worker
(:meth:`ShardRuntime.commit`) and empties the suffix; there is one
every :data:`COMMIT_EVERY_BATCHES` batches, at every parent-side read
(:meth:`ShardExecutor.shard_state`, :meth:`~ShardExecutor.shard_metrics`,
:meth:`~ShardExecutor.lane_metrics` and so the ``metrics`` op) and at
:meth:`ShardExecutor.close`.  When the worker dies — mid-batch or idle
— or overruns the task timeout, the parent kills it, and every shard
it held is rebuilt as the next batch or commit point reaches it: the
parent forks a replacement, sends it the committed blobs and replays
the suffix, then retries the batch at ``attempt + 1``.  By resume
equivalence (``resume_suite`` in :mod:`repro.verify.differential`) the
replay reproduces the lost worker's state exactly, so no acknowledged
op can be lost; and the replay is checked, not trusted: the rebuilt
worker returns the responses it produced, and one that differs from
what was acknowledged drains the shard with ``shard-failed`` naming the
first differing request instead of serving from a state that diverged.
A batch that exhausts its retry budget is *drained*: every request in
it gets ``shard-failed``, and the state stays committed + suffix for
the next batch to rebuild.

The byte-identity of the two modes — responses, per-shard metric
registries and committed blobs alike — is asserted by the service test
suite; it follows from resume equivalence plus the cadence-independent
metric draining in :mod:`repro.service.session`.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Generator, Iterable, Mapping

from repro.gc.registry import COLLECTOR_KINDS
from repro.heap.flat import FlatHeap
from repro.metrics.registry import MetricRegistry, merge_registries
from repro.perf.parallel import PinnedWorker, WorkerLost
from repro.service.protocol import (
    ProtocolError,
    error_response,
    geometry_from_payload,
    ok_response,
)
from repro.service.session import OpRejected, TenantSession

__all__ = [
    "COMMIT_EVERY_BATCHES",
    "ShardExecutor",
    "ShardRuntime",
    "run_shard_batch",
    "shard_of",
]


#: Most batches a pool-mode shard acknowledges past its last commit
#: point: reaching it makes a commit point, so a rebuild replays at
#: most this many batches and the parent holds at most this many.
COMMIT_EVERY_BATCHES = 64

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
    execution modes — the inline executor keeps its runtimes in the
    calling process, the pinned pool worker keeps every shard's runtime
    resident between batches.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        state: Mapping[str, dict] | None = None,
        tenant_cap: int | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.tenant_cap = tenant_cap
        self.sessions: dict[str, TenantSession] = {}
        self._cold: dict[str, dict] = dict(state or {})
        self._registries: dict[str, MetricRegistry] = {}
        # Tenants that ran ops since their session was last drained.
        self._undrained: set[str] = set()
        # Tenants opened or run since the last commit point.
        self._touched: set[str] = set()

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
        return len(self.sessions) + len(self._cold)

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

    def commit(
        self,
    ) -> tuple[dict[str, dict], list[str], dict[str, MetricRegistry]]:
        """A commit point: what a pool-mode parent needs to hold the
        shard without its worker.

        Drains first, like :meth:`export_state`, then captures only the
        tenants opened or run since the last commit point — the parent
        keeps its blob of every other one.  Returns those blobs, every
        tenant the shard holds, and the registries.
        """
        self._flush_metrics()
        blobs = {
            tenant: self.sessions[tenant].capture()
            for tenant in self._touched
        }
        self._touched.clear()
        return blobs, [*self._cold, *self.sessions], self._registries

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
        (:meth:`export_state`, :meth:`commit`).  ``close`` drains its
        session, and the blast-radius fence drains an evicted session
        before dropping it, so the registry of an evicted tenant counts
        every op it acknowledged, in either execution mode.
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
                self._touched.discard(tenant)
                self._drain(session)
                payload = session.close_payload()
                del self.sessions[tenant]
                self.registry("service").counter("tenants_closed").inc()
                return ok_response(request_id, **payload)
            self._undrained.add(tenant)
            self._touched.add(tenant)
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
            self._touched.discard(tenant)
            if session is not None:
                self._drain(session)
            self._cold.pop(tenant, None)
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
        self._touched.add(tenant)
        self.registry("service").counter("tenants_opened").inc()
        return ok_response(
            request["id"],
            tenant=tenant,
            kind=session.kind,
            backend=session.backend,
            shard=self.shard_id,
        )


# ----------------------------------------------------------------------
# The pinned worker's side (pool mode)
# ----------------------------------------------------------------------


#: The shard runtimes this process keeps resident (a pinned worker's).
_RESIDENT: dict[int, ShardRuntime] = {}


def run_shard_batch(item: dict, attempt: int = 0) -> dict:
    """One shard batch on this process's resident runtime for the shard.

    ``item`` carries the shard id, the ordered validated requests and
    the executor config; the runtime is created empty by the shard's
    first batch in this process.  The result carries the responses and
    the shard's open-tenant count.  ``attempt`` is the executor's retry
    counter; a retry runs on a rebuilt runtime and recomputes identical
    results, so ``attempt`` is consulted only by the chaos pseudo-ops
    below.

    Chaos pseudo-ops (honoured only when the executor was built with
    ``chaos=True``; the server never emits them) make the fault drills
    real instead of simulated: ``_chaos-exit`` kills the worker
    process mid-batch with ``os._exit`` (a genuinely dead worker, as
    the executor sees it), ``_chaos-spin`` wedges it past the task
    timeout.  Both stand down once ``attempt`` reaches their
    ``attempts`` count, so the drill exercises the full
    die → rebuild → replay → retry path.
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
    shard = item["shard"]
    runtime = _RESIDENT.get(shard)
    if runtime is None:
        runtime = _RESIDENT[shard] = ShardRuntime(
            shard, tenant_cap=config.get("tenant_cap")
        )
    return {
        "responses": runtime.apply_batch(ops),
        "open_tenants": runtime.open_tenants,
    }


def _rebuild(
    config: dict,
    shard: int,
    blobs: dict[str, dict],
    registries: dict[str, MetricRegistry],
    suffix: list[list[dict]],
) -> list[list[dict]]:
    """Make the shard resident from committed state, replay the
    acknowledged suffix on it, and return the replay's responses."""
    runtime = ShardRuntime(
        shard, state=blobs, tenant_cap=config.get("tenant_cap")
    )
    runtime._registries = registries
    _RESIDENT[shard] = runtime
    return [runtime.apply_batch(ops) for ops in suffix]


def serve_shards(config: dict, message: tuple[str, list]) -> list:
    """A pinned worker's handler: ``(verb, items)`` → one reply per item.

    ``batch`` items are ``(shard, requests, attempt)``; ``rebuild``
    items are ``(shard, blobs, registries, suffix)``; ``commit`` items
    are shard ids, answered by :meth:`ShardRuntime.commit`.
    """
    verb, items = message
    if verb == "batch":
        return [
            run_shard_batch(
                {"shard": shard, "ops": ops, "config": config}, attempt
            )
            for shard, ops, attempt in items
        ]
    if verb == "rebuild":
        return [_rebuild(config, *item) for item in items]
    if verb == "commit":
        return [_RESIDENT[shard].commit() for shard in items]
    raise ValueError(f"unknown shard message {verb!r}")


# ----------------------------------------------------------------------
# The executor: committed state, the suffix, rebuild and drain
# ----------------------------------------------------------------------


@dataclass
class _Ledger:
    """What the parent holds for one pool-mode shard."""

    #: Session blobs and metric registries at the last commit point.
    blobs: dict[str, dict] = field(default_factory=dict)
    registries: dict[str, MetricRegistry] = field(default_factory=dict)
    #: ``(requests, responses)`` of every batch acknowledged since.
    suffix: list[tuple[list[dict], list[dict]]] = field(default_factory=list)
    #: The worker's open-tenant count after the last acknowledged batch.
    open_tenants: int = 0
    #: Whether the worker holds committed + suffix right now.
    resident: bool = True


def _evict(ledgers: list[_Ledger]) -> None:
    """The worker is gone: no shard is resident."""
    for ledger in ledgers:
        ledger.resident = False


#: What a protocol step waits for: the round's start and the seconds
#: the worker's reply is allowed from then (``None``: no bound).  The
#: runner answers with the reply or the WorkerLost.
_Wait = tuple[float, "float | None"]
_Steps = Generator[_Wait, Any, Any]


class ShardExecutor:
    """Owns the shards' committed state and routes batches to them.

    The parent-side half of the service: :meth:`execute` takes one
    batch per shard and returns responses per shard, sending the
    non-empty shards to the pinned worker process (``jobs >= 1``) or
    applying them to persistent in-process runtimes (``jobs == 0``).
    The owner releases the worker with :meth:`close` (or a ``with``
    block); state and registries stay readable afterwards.

    The pool-mode protocol — make resident (rebuild and checked
    replay), send, collect, acknowledge, retry, commit — is written
    once, as generators that yield whenever they need the worker's
    reply, and is run by one of two runners that differ only in how
    they wait:

    * the synchronous API (:meth:`execute`, :meth:`shard_metrics`,
      :meth:`merged_metrics`, :meth:`shard_state`, :meth:`close`)
      blocks the calling thread in ``connection.wait`` and holds one
      lock, so a read from another thread waits for the batch in
      flight;
    * the awaited API (:meth:`execute_lane`, :meth:`lane_metrics`)
      awaits the reply on the running event loop, which watches the
      worker's pipe and sentinel.  It holds one ``asyncio.Lock``, so
      one awaited batch or read runs at a time.

    The two APIs share the worker.  Once a loop has watched it, the
    synchronous API is called only from that loop's thread and never
    while an awaited batch is in flight: it refuses then, with
    ``RuntimeError``, rather than send to a worker the loop is waiting
    on.  (The server closes the executor this way, after its dispatcher
    has finished: the final commit round blocks the loop only at
    shutdown.)
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        jobs: int = 0,
        tenant_cap: int | None = None,
        chaos: bool = False,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if tenant_cap is not None and tenant_cap < 1:
            raise ValueError(f"tenant cap must be >= 1, got {tenant_cap}")
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.shards = shards
        self.jobs = jobs
        #: Batches are applied in the calling process — no worker to
        #: block on, so a caller gains nothing from a thread.
        self.inline = jobs == 0
        self.tenant_cap = tenant_cap
        self.chaos = chaos
        self.timeout = timeout
        self.retries = retries
        #: One per :meth:`execute` or :meth:`execute_lane` call.
        self.batches = 0
        self.respawns = [0] * shards
        if self.inline:
            self._runtimes: list[ShardRuntime] | None = [
                ShardRuntime(index, tenant_cap=tenant_cap)
                for index in range(shards)
            ]
            self._ledgers: list[_Ledger] | None = None
            self._worker: PinnedWorker | None = None
        else:
            self._runtimes = None
            self._ledgers = [_Ledger() for _ in range(shards)]
            # Forked by its first message; re-forked after a loss.
            self._worker = PinnedWorker(
                partial(
                    serve_shards, {"tenant_cap": tenant_cap, "chaos": chaos}
                ),
                on_exit=partial(_evict, self._ledgers),
            )
            self._lock = threading.Lock()
            self._awaited = asyncio.Lock()

    def close(self) -> None:
        """Commit every shard, then kill the worker process
        (idempotent; inline has none)."""
        if self._worker is None:
            return
        with self._blocking():
            try:
                self._run_blocking(self._commit_steps(range(self.shards)))
            finally:
                self._worker.kill()
                _evict(self._ledgers)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def shard_of(self, tenant: str) -> int:
        return shard_of(tenant, self.shards)

    def open_tenants(self, shard: int) -> int:
        if self._runtimes is not None:
            return self._runtimes[shard].open_tenants
        return self._ledgers[shard].open_tenants

    def shard_metrics(self, shard: int) -> dict[str, MetricRegistry]:
        """The shard's metric registries (label → registry); a commit
        point in pool mode."""
        if self._runtimes is not None:
            return self._runtimes[shard].registries
        self._run(self._commit_steps([shard]))
        return self._ledgers[shard].registries

    def merged_metrics(self) -> list[MetricRegistry]:
        """Service-wide registries: shard registries merged per label
        (a commit point on every shard in pool mode)."""
        if self._ledgers is not None:
            self._run(self._commit_steps(range(self.shards)))
        return self._merged()

    async def lane_metrics(self) -> list[MetricRegistry]:
        """:meth:`merged_metrics`, awaited: waits for the awaited batch
        in flight and holds the worker while every shard commits, so
        the registries count every batch dispatched before the call."""
        if self._ledgers is None:
            return self._merged()
        async with self._awaited:
            await self._run_awaited(self._commit_steps(range(self.shards)))
            return self._merged()

    def _merged(self) -> list[MetricRegistry]:
        by_label: dict[str, list[MetricRegistry]] = {}
        for shard in range(self.shards):
            registries = (
                self._runtimes[shard].registries
                if self._runtimes is not None
                else self._ledgers[shard].registries
            )
            for label, registry in registries.items():
                by_label.setdefault(label, []).append(registry)
        return [
            merge_registries(group, label)
            for label, group in sorted(by_label.items())
        ]

    def shard_state(self, shard: int) -> dict[str, dict]:
        """The shard's state blobs: captured live if inline, a commit
        point in pool mode."""
        if self._runtimes is not None:
            return self._runtimes[shard].export_state()
        self._run(self._commit_steps([shard]))
        return self._ledgers[shard].blobs

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
        return self._run(self._execute_steps(work))

    async def execute_lane(
        self, batches: Mapping[int, list[dict]]
    ) -> dict[int, list[dict]]:
        """:meth:`execute`, awaited.

        Inline it is :meth:`execute` itself, on the calling thread.  In
        pool mode the worker is sent the batch and the reply is
        awaited, as are a rebuild, its checked replay, a retry and a
        commit point: the loop serves every connection meanwhile.  One
        awaited batch runs at a time.
        """
        if self._runtimes is not None:
            return self.execute(batches)
        work = {
            shard: ops for shard, ops in sorted(batches.items()) if ops
        }
        if not work:
            return {}
        self.batches += 1
        async with self._awaited:
            return await self._run_awaited(self._execute_steps(work))

    # ------------------------------------------------------------------
    # The two runners
    # ------------------------------------------------------------------

    def _run(self, steps: _Steps) -> Any:
        """Drive ``steps`` in this thread, under the lock.  A worker
        that died while idle is reaped first; a loop watching it would
        have done that already."""
        with self._blocking():
            if self._worker.died_idle():
                _evict(self._ledgers)
            return self._run_blocking(steps)

    @contextlib.contextmanager
    def _blocking(self):
        """The synchronous API's lock, refused while an awaited batch
        is in flight: the worker is the loop's to wait on."""
        with self._lock:
            if self._awaited.locked():
                raise RuntimeError("an awaited batch is in flight")
            yield

    def _run_blocking(self, steps: _Steps) -> Any:
        """Run ``steps`` to its end, blocking for each reply."""
        try:
            wait = next(steps)
            while True:
                try:
                    outcome = self._worker.receive(_remaining(*wait))
                except WorkerLost as lost:
                    outcome = lost
                wait = steps.send(outcome)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    async def _run_awaited(self, steps: _Steps) -> Any:
        """Run ``steps`` to its end, awaiting each reply on the loop."""
        try:
            wait = next(steps)
            while True:
                try:
                    outcome = await self._worker.reply(_remaining(*wait))
                except WorkerLost as lost:
                    outcome = lost
                wait = steps.send(outcome)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    # ------------------------------------------------------------------
    # The protocol, written once
    # ------------------------------------------------------------------

    def _execute_steps(self, work: dict[int, list[dict]]) -> _Steps:
        """Run each batch on the worker, rebuilding a lost worker and
        retrying the batch until the budget is spent; responses in
        shard order."""
        responses: dict[int, list[dict]] = {}
        attempts = dict.fromkeys(work, 0)
        pending = dict(work)
        while pending:
            replies, lost, diverged = yield from self._call(
                "batch", pending, lambda s: (s, pending[s], attempts[s])
            )
            for shard, detail in diverged.items():
                responses[shard] = self._drain(shard, pending.pop(shard), detail)
            for shard, reply in replies.items():
                ledger = self._ledgers[shard]
                ledger.suffix.append(
                    (self._strip_chaos(pending.pop(shard)), reply["responses"])
                )
                ledger.open_tenants = reply["open_tenants"]
                responses[shard] = reply["responses"]
            for shard, failure in lost.items():
                if attempts[shard] < self.retries:
                    attempts[shard] += 1
                    continue
                responses[shard] = self._drain(
                    shard,
                    pending.pop(shard),
                    f"shard {shard} lost its worker ({failure.kind} after "
                    f"{attempts[shard] + 1} attempt(s)); committed state "
                    f"preserved",
                )
        yield from self._commit_steps(
            shard
            for shard in responses
            if len(self._ledgers[shard].suffix) >= COMMIT_EVERY_BATCHES
        )
        return {shard: responses[shard] for shard in work}

    def _drain(self, shard: int, ops: list[dict], detail: str) -> list[dict]:
        """Answer a batch that never ran: state stays committed +
        suffix, and the next batch rebuilds the shard from it."""
        self.respawns[shard] += 1
        return [
            error_response(
                request.get("id"), "shard-failed", detail, shard=shard
            )
            for request in self._strip_chaos(ops)
        ]

    def _commit_steps(self, shards: Iterable[int]) -> _Steps:
        """A commit point for ``shards``: the worker drains and
        captures what changed since the last one, and the suffix is
        emptied.  A shard the worker cannot be rebuilt with within the
        retry budget stays at committed + suffix."""
        due = [shard for shard in shards if self._ledgers[shard].suffix]
        for _attempt in range(self.retries + 1):
            if not due:
                return
            replies, lost, _diverged = yield from self._call(
                "commit", due, lambda s: s
            )
            for shard, (blobs, tenants, registries) in replies.items():
                ledger = self._ledgers[shard]
                ledger.blobs = {
                    tenant: blobs.get(tenant) or ledger.blobs[tenant]
                    for tenant in tenants
                }
                ledger.registries = registries
                ledger.suffix = []
            due = list(lost)

    def _call(
        self, verb: str, shards: Iterable[int], item: Callable[[int], Any]
    ) -> Generator[_Wait, Any, tuple]:
        """Make ``shards`` resident, then send the worker one ``verb``
        message carrying ``item(shard)`` for each of them.

        Returns the reply of every shard, or, if the worker was lost
        or a rebuild diverged (see :meth:`_make_resident`) on the way,
        the shards lost with the worker and the shards that diverged.
        """
        shards = list(shards)
        lost, diverged = yield from self._make_resident(shards)
        if lost or diverged:
            return {}, lost, diverged
        outcome = yield from self._round(
            verb, [item(shard) for shard in shards]
        )
        if isinstance(outcome, WorkerLost):
            return {}, dict.fromkeys(shards, outcome), {}
        return dict(zip(shards, outcome)), {}, {}

    def _make_resident(
        self, shards: list[int]
    ) -> Generator[_Wait, Any, tuple]:
        """Rebuild every shard of ``shards`` the worker does not hold.

        The rebuilt worker's replay of each suffix must answer exactly
        what was acknowledged; a worker whose replay diverged is killed.
        Returns the shards of ``shards`` lost with the worker on the
        way (a lost worker takes every shard with it) and, with a
        detail naming the first differing request, the shards whose
        replay diverged.
        """
        stale = [
            shard for shard in shards if not self._ledgers[shard].resident
        ]
        if not stale:
            return {}, {}
        outcome = yield from self._round(
            "rebuild",
            [
                (
                    shard,
                    self._ledgers[shard].blobs,
                    self._ledgers[shard].registries,
                    [ops for ops, _ in self._ledgers[shard].suffix],
                )
                for shard in stale
            ],
        )
        if not isinstance(outcome, WorkerLost) and self._worker.pid is None:
            # The loop saw it exit after replying: it holds nothing.
            outcome = WorkerLost(
                "worker-crash", "worker exited after its rebuild"
            )
        if isinstance(outcome, WorkerLost):
            return dict.fromkeys(shards, outcome), {}
        diverged: dict[int, str] = {}
        for shard, replayed in zip(stale, outcome):
            mismatch = _first_difference(self._ledgers[shard].suffix, replayed)
            if mismatch is None:
                self._ledgers[shard].resident = True
            else:
                diverged[shard] = (
                    f"shard {shard} failed its replay check: the rebuilt "
                    f"worker answered request {mismatch!r} differently "
                    f"from the acknowledged response; committed state "
                    f"preserved"
                )
        if not diverged:
            return {}, {}
        # A worker that diverged is trusted with no shard.
        self._worker.kill()
        _evict(self._ledgers)
        lost = WorkerLost(
            "crash", "a shard on the worker failed its replay check"
        )
        return {s: lost for s in shards if s not in diverged}, diverged

    def _round(
        self, verb: str, items: list
    ) -> Generator[_Wait, Any, Any]:
        """One message to the worker, then its reply.

        The send half sends the message; the collect half yields to
        the runner for the reply, which is due within the task timeout
        times the batches the message carries (a rebuild counts its
        suffixes), counted from the send.  A lost worker's outcome is
        its :class:`WorkerLost`, and no shard is resident any more.
        """
        started = time.monotonic()
        try:
            try:
                self._worker.send((verb, items))
            except WorkerLost as lost:
                outcome = lost
            else:
                budget = None
                if self.timeout is not None:
                    units = len(items)
                    if verb == "rebuild":
                        units += sum(len(item[3]) for item in items)
                    budget = self.timeout * units
                outcome = yield started, budget
        except BaseException:
            # A reply left unread would answer the next message.
            self._worker.kill()
            _evict(self._ledgers)
            raise
        if isinstance(outcome, WorkerLost):
            _evict(self._ledgers)
        return outcome

    @staticmethod
    def _strip_chaos(ops: list[dict]) -> list[dict]:
        """Chaos pseudo-ops never reach a session and get no response
        (inline has no worker to kill, a rebuild replays none)."""
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


def _remaining(started: float, budget: float | None) -> float | None:
    """What is left at this moment of ``budget`` seconds from
    ``started``."""
    if budget is None:
        return None
    return max(0.0, started + budget - time.monotonic())


def _first_difference(
    suffix: list[tuple[list[dict], list[dict]]], replayed: list[list[dict]]
) -> Any:
    """The id of the first replayed response that differs from the
    acknowledged one, or ``None`` when the replay matches."""
    acknowledged = [answer for _ops, answers in suffix for answer in answers]
    answers = [answer for batch in replayed for answer in batch]
    if answers == acknowledged:
        return None
    for expected, got in zip(acknowledged, answers):
        if got != expected:
            return expected.get("id")
    # One side ran out: the first response only the other has.
    extra = acknowledged[len(answers):] or answers[len(acknowledged):]
    return extra[0].get("id")
