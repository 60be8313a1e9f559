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
    Each shard is pinned to one of ``min(jobs, shards)`` long-lived
    :class:`~repro.perf.parallel.PinnedWorker` processes (shard ``s``
    to worker ``s % workers``), which keeps the shard's runtime
    resident from batch to batch: a batch message carries only the
    shard's requests and an attempt counter, never a heap.  Holding
    workers *means* out-of-process, so a one-shard batch is not
    padded, and no tenant heap ever runs in the parent.

The shards one worker runs form a *lane*.  A caller either blocks in
:meth:`ShardExecutor.execute` (the isolation oracle, the in-process
load runner) or awaits :meth:`ShardExecutor.execute_lane` on an event
loop (the server: one dispatcher per lane, so a slow worker holds up
only its own lane, and no thread is involved).  Both run the same
protocol; only the wait for a worker's reply differs.

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
:meth:`ShardExecutor.close`.  When a worker dies — mid-batch or idle —
or overruns the task timeout, the parent kills it, forks a replacement,
sends it the committed blobs and replays the suffix, then retries the
batch at ``attempt + 1``.  By resume equivalence (``resume_suite`` in
:mod:`repro.verify.differential`) the replay reproduces the lost
worker's state exactly, so no acknowledged op can be lost; and the
replay is checked, not trusted: the rebuilt worker returns the
responses it produced, and one that differs from what was acknowledged
drains the shard with ``shard-failed`` naming the first differing
request instead of serving from a state that diverged.  A batch that exhausts its retry
budget is *drained*: every request in it gets ``shard-failed``, and
the state stays committed + suffix for the next batch to rebuild.

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
    calling process, a pinned pool worker keeps its shards' runtimes
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
    #: Whether the shard's worker holds committed + suffix right now.
    resident: bool = True


def _evict(ledgers: list[_Ledger]) -> None:
    """A worker is gone: none of the shards it held is resident."""
    for ledger in ledgers:
        ledger.resident = False


#: What a protocol step waits for: the round's start and, per worker
#: index, the seconds its reply is allowed from then (``None``: no
#: bound).  The runner answers with each worker's reply or WorkerLost.
_Waits = tuple[float, dict[int, "float | None"]]
_Steps = Generator[_Waits, dict[int, Any], Any]


class ShardExecutor:
    """Owns the shards' committed state and routes batches to them.

    The parent-side half of the service: :meth:`execute` takes one
    batch per shard and returns responses per shard, sending the
    non-empty shards to their pinned worker processes (``jobs >= 1``)
    or applying them to persistent in-process runtimes (``jobs == 0``).
    The owner releases the workers with :meth:`close` (or a ``with``
    block); state and registries stay readable afterwards.

    The pool-mode protocol — make resident (rebuild and checked
    replay), send, collect, acknowledge, retry, commit — is written
    once, as generators that yield whenever they need replies, and is
    run by one of two runners that differ only in how they wait:

    * the synchronous API (:meth:`execute`, :meth:`shard_metrics`,
      :meth:`merged_metrics`, :meth:`shard_state`, :meth:`close`)
      blocks the calling thread in ``connection.wait`` and holds one
      lock, so a read from another thread waits for the batch in
      flight;
    * the awaited API (:meth:`execute_lane`, :meth:`lane_metrics`)
      awaits the replies on the running event loop, which watches every
      worker's pipe and sentinel.  A *lane* is the set of shards pinned
      to one worker (inline has one lane for all shards); each lane
      runs one batch at a time, lanes run side by side, and a read
      waits for every lane to go idle.

    The two APIs share the workers.  Once a loop has watched them, the
    synchronous API is called only from that loop's thread and never
    while a lane batch is in flight: it refuses then, with
    ``RuntimeError``, rather than send to a worker the lane is waiting
    on.  (The server closes the executor this way, after every lane
    has gone idle: the final commit round blocks the loop only at
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
        #: Batches are applied in the calling process — no pool to
        #: block on, so a caller gains nothing from a thread.
        self.inline = jobs == 0
        self.tenant_cap = tenant_cap
        self.chaos = chaos
        self.timeout = timeout
        self.retries = retries
        #: One per :meth:`execute` call and one per lane dispatch.
        self.batches = 0
        self.respawns = [0] * shards
        if self.inline:
            self._runtimes: list[ShardRuntime] | None = [
                ShardRuntime(index, tenant_cap=tenant_cap)
                for index in range(shards)
            ]
            self._ledgers: list[_Ledger] | None = None
            self._workers: list[PinnedWorker] | None = None
            self.lanes = 1
        else:
            self._runtimes = None
            self._ledgers = [_Ledger() for _ in range(shards)]
            self.lanes = min(jobs, shards)
            # The ledgers of the shards each worker holds.
            self._held = [
                self._ledgers[index :: self.lanes]
                for index in range(self.lanes)
            ]
            # Forked by their first message; re-forked after a loss.
            handler = partial(
                serve_shards, {"tenant_cap": tenant_cap, "chaos": chaos}
            )
            self._workers = [
                PinnedWorker(handler, on_exit=partial(_evict, held))
                for held in self._held
            ]
            self._lock = threading.Lock()
            self._lane_locks = [asyncio.Lock() for _ in self._workers]

    def close(self) -> None:
        """Commit every shard, then kill the worker processes
        (idempotent; inline has none)."""
        if self._workers is None:
            return
        with self._blocking():
            try:
                self._run_blocking(self._commit_steps(range(self.shards)))
            finally:
                for index, worker in enumerate(self._workers):
                    worker.kill()
                    self._lost(index)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def shard_of(self, tenant: str) -> int:
        return shard_of(tenant, self.shards)

    def lane_of(self, shard: int) -> int:
        """The lane that runs ``shard``'s batches."""
        return shard % self.lanes

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
        """:meth:`merged_metrics`, awaited: waits for every lane to go
        idle and holds them idle while every shard commits, so the
        registries count every batch dispatched before the call."""
        if self._ledgers is None:
            return self._merged()
        async with self._all_lanes():
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
        responses = self._run(self._execute_steps(work))
        return {shard: responses[shard] for shard in work}

    async def execute_lane(
        self, lane: int, batches: Mapping[int, list[dict]]
    ) -> dict[int, list[dict]]:
        """:meth:`execute` for the shards of one lane, awaited.

        Inline it is :meth:`execute` itself, on the calling thread.  In
        pool mode the lane's worker is sent the batch and the reply is
        awaited, as are a rebuild, its checked replay, a retry and a
        commit point: the loop serves every other lane and connection
        meanwhile.  A lane runs one batch at a time.
        """
        if self._runtimes is not None:
            return self.execute(batches)
        work = {
            shard: ops for shard, ops in sorted(batches.items()) if ops
        }
        if not work:
            return {}
        self.batches += 1
        async with self._lane_locks[lane]:
            responses = await self._run_awaited(self._execute_steps(work))
        return {shard: responses[shard] for shard in work}

    # ------------------------------------------------------------------
    # The two runners
    # ------------------------------------------------------------------

    def _run(self, steps: _Steps) -> Any:
        """Drive ``steps`` in this thread, under the lock.  A worker
        that died while idle is reaped first; a loop watching it would
        have done that already."""
        with self._blocking():
            for index, worker in enumerate(self._workers):
                if worker.died_idle():
                    self._lost(index)
            return self._run_blocking(steps)

    @contextlib.contextmanager
    def _blocking(self):
        """The synchronous API's lock, refused while a lane batch is in
        flight: its worker is the lane's to wait on."""
        with self._lock:
            if any(lock.locked() for lock in self._lane_locks):
                raise RuntimeError("a lane batch is in flight")
            yield

    def _run_blocking(self, steps: _Steps) -> Any:
        """Run ``steps`` to its end, blocking for each reply."""
        try:
            started, allowed = next(steps)
            while True:
                outcomes: dict[int, Any] = {}
                for index, budget in allowed.items():
                    try:
                        outcomes[index] = self._workers[index].receive(
                            _remaining(started, budget)
                        )
                    except WorkerLost as lost:
                        outcomes[index] = lost
                started, allowed = steps.send(outcomes)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    async def _run_awaited(self, steps: _Steps) -> Any:
        """Run ``steps`` to its end, awaiting each reply on the loop;
        the replies of one round are awaited side by side."""
        try:
            started, allowed = next(steps)
            while True:
                started, allowed = steps.send(
                    await self._replies(started, allowed)
                )
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    async def _replies(
        self, started: float, allowed: dict[int, float | None]
    ) -> dict[int, Any]:
        async def reply(index: int) -> Any:
            try:
                return await self._workers[index].reply(
                    _remaining(started, allowed[index])
                )
            except WorkerLost as lost:
                return lost

        if len(allowed) == 1:
            (index,) = allowed
            return {index: await reply(index)}
        outcomes = await asyncio.gather(*map(reply, allowed))
        return dict(zip(allowed, outcomes))

    @contextlib.asynccontextmanager
    async def _all_lanes(self):
        """Every lane, once each has gone idle (taken in lane order)."""
        async with contextlib.AsyncExitStack() as stack:
            for lock in self._lane_locks:
                await stack.enter_async_context(lock)
            yield

    # ------------------------------------------------------------------
    # The protocol, written once
    # ------------------------------------------------------------------

    def _execute_steps(self, work: dict[int, list[dict]]) -> _Steps:
        """Run each batch on its shard's worker, rebuilding a lost
        worker and retrying the batch until the budget is spent."""
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
        return responses

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
        """A commit point for ``shards``: each worker drains and
        captures what changed since the last one, and the suffix is
        emptied.  A shard whose worker cannot be rebuilt within the
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
    ) -> Generator[_Waits, dict[int, Any], tuple]:
        """Make ``shards`` resident, then send each worker one ``verb``
        message carrying ``item(shard)`` for each of its shards.

        Returns the reply of every shard that got one, the shards whose
        worker was lost on the way, and the shards whose rebuild
        diverged (see :meth:`_make_resident`), which were not sent.
        """
        lost, diverged = yield from self._make_resident(shards)
        groups = self._by_worker(
            [shard for shard in shards if shard not in lost | diverged.keys()]
        )
        outcomes = yield from self._round(
            verb,
            {
                index: [item(shard) for shard in group]
                for index, group in groups.items()
            },
        )
        replies: dict[int, Any] = {}
        for index, group in groups.items():
            outcome = outcomes[index]
            for position, shard in enumerate(group):
                if isinstance(outcome, WorkerLost):
                    lost[shard] = outcome
                else:
                    replies[shard] = outcome[position]
        return replies, lost, diverged

    def _make_resident(
        self, shards: Iterable[int]
    ) -> Generator[_Waits, dict[int, Any], tuple]:
        """Rebuild every shard of ``shards`` its worker does not hold.

        The rebuilt worker's replay of the suffix must answer exactly
        what was acknowledged; a worker whose replay diverged is killed.
        Returns the shards of ``shards`` whose worker was lost on the
        way (a lost worker takes every shard it held with it) and, with
        a detail naming the first differing request, the shards whose
        replay diverged.
        """
        shards = list(shards)
        groups = self._by_worker(
            [shard for shard in shards if not self._ledgers[shard].resident]
        )
        outcomes = yield from self._round(
            "rebuild",
            {
                index: [
                    (
                        shard,
                        self._ledgers[shard].blobs,
                        self._ledgers[shard].registries,
                        [ops for ops, _ in self._ledgers[shard].suffix],
                    )
                    for shard in group
                ]
                for index, group in groups.items()
            },
        )
        diverged: dict[int, str] = {}
        for index, group in groups.items():
            outcome = outcomes[index]
            if isinstance(outcome, WorkerLost):
                continue
            if self._workers[index].pid is None:
                # The loop saw it exit after replying: it holds nothing.
                outcomes[index] = WorkerLost(
                    "worker-crash", "worker exited after its rebuild"
                )
                continue
            for position, shard in enumerate(group):
                mismatch = _first_difference(
                    self._ledgers[shard].suffix, outcome[position]
                )
                if mismatch is None:
                    self._ledgers[shard].resident = True
                else:
                    diverged[shard] = (
                        f"shard {shard} failed its replay check: the "
                        f"rebuilt worker answered request {mismatch!r} "
                        f"differently from the acknowledged response; "
                        f"committed state preserved"
                    )
            if diverged.keys() & set(group):
                # A worker that diverged is trusted with no shard.
                self._workers[index].kill()
                self._lost(index)
                outcomes[index] = WorkerLost(
                    "crash", "a shard on this worker failed its replay check"
                )
        lost = {
            shard: outcomes[self.lane_of(shard)]
            for shard in shards
            if shard not in diverged
            and isinstance(outcomes.get(self.lane_of(shard)), WorkerLost)
        }
        return lost, diverged

    def _round(
        self, verb: str, groups: dict[int, list]
    ) -> Generator[_Waits, dict[int, Any], dict[int, Any]]:
        """One message to each worker in ``groups``, then every reply.

        The send half sends every message; the collect half yields to
        the runner for the replies.  A worker's reply is due within the
        task timeout times the batches its message carries (a rebuild
        counts its suffix), counted from the start of the round.  A
        lost worker's outcome is its :class:`WorkerLost`, and its
        shards are no longer resident.
        """
        if not groups:
            return {}
        outcomes: dict[int, Any] = {}
        started = time.monotonic()
        try:
            for index, items in groups.items():
                try:
                    self._workers[index].send((verb, items))
                except WorkerLost as lost:
                    outcomes[index] = lost
            allowed: dict[int, float | None] = {}
            for index, items in groups.items():
                if index in outcomes:
                    continue
                allowed[index] = None
                if self.timeout is not None:
                    units = len(items)
                    if verb == "rebuild":
                        units += sum(len(item[3]) for item in items)
                    allowed[index] = self.timeout * units
            if allowed:
                outcomes.update((yield started, allowed))
        except BaseException:
            # A reply left unread would answer the next message.
            for index in groups:
                self._workers[index].kill()
                self._lost(index)
            raise
        for index, outcome in outcomes.items():
            if isinstance(outcome, WorkerLost):
                self._lost(index)
        return outcomes

    def _by_worker(self, shards: Iterable[int]) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for shard in shards:
            groups.setdefault(self.lane_of(shard), []).append(shard)
        return groups

    def _lost(self, index: int) -> None:
        """Worker ``index`` is gone: none of its shards is resident."""
        _evict(self._held[index])

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
