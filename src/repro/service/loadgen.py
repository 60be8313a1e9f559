"""Closed-loop load generator for the multi-tenant heap service.

The generator is split into two halves on purpose:

* **Plan building is offline-pure.**  :func:`build_plan` turns
  ``(tenants, seed, profile, kinds, ops)`` into the complete
  per-tenant request streams — every op, every payload, every
  correlation id — without talking to any server.  The stream is a
  function of the seed alone, never of responses, so
  :func:`plan_fingerprint` can pin the byte-exact traffic in a golden
  test and the same plan can be replayed against a socket server, an
  in-process :class:`~repro.service.shard.ShardExecutor`, or a serial
  reference run.
* **Execution is closed-loop.**  Each tenant keeps exactly one request
  in flight and awaits the response before sending the next, so
  per-tenant ordering is the serial ordering the isolation oracle
  assumes, and measured latency is mutator-visible latency rather than
  queue depth.

Traffic profiles model the lifetime structures the paper cares about:

``decay``
    Radioactive decay: every rooted object faces the same per-op
    death hazard regardless of age, so lifetimes are exponential —
    the paper's null hypothesis against generational assumptions.
``burst``
    Request-cluster lifetimes: allocate a cluster, link and read it,
    checkpoint, then drop it wholesale — the young-die-fast extreme
    that generational collectors are built for.
``session-tail``
    A small set of session-lifetime objects survives from ``open`` to
    ``close`` and pins a trickle of cluster survivors into a long
    tail — the mixed distribution that stresses promotion policy.
``mixed``
    Tenant *i* uses profile ``PROFILES[i % 3]`` — a heterogeneous
    fleet on one server.

Plans avoid heap exhaustion by construction (a live-word budget far
under the smallest per-kind capacity at the service's tenant-scale
geometry); exhaustion and admission-control behaviour are exercised by
dedicated drills in the test suite, not by ambient load.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, field

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry
from repro.heap.flat import FlatHeap
from repro.perf.parallel import derive_seed
from repro.service.protocol import PROTOCOL_VERSION, encode_line
from repro.service.shard import ShardExecutor

__all__ = [
    "PROFILES",
    "LoadPlan",
    "LoadResult",
    "TenantOutcome",
    "TenantPlan",
    "build_plan",
    "plan_fingerprint",
    "run_load",
    "run_load_inline",
    "shutdown_server",
    "tenant_geometry",
]

#: The seeded traffic shapes (``mixed`` cycles through these).
PROFILES: tuple[str, ...] = ("decay", "burst", "session-tail")

#: Per-tenant live-word ceiling.  The tenant-scale geometry's tightest
#: capacity is the stop-and-copy semispace (256 words at the default
#: 1/64 scale); staying well below it keeps ambient load on the happy
#: allocation path for every collector kind.
_LIVE_BUDGET_WORDS = 120


def tenant_geometry(scale_denominator: int = 64) -> GcGeometry:
    """The per-tenant heap shape: the paper's geometry, shrunk.

    Thousands of tenants share one process, so each gets the default
    geometry at 1/64 scale — small enough to pack, tight enough that
    every collector kind (including mark-sweep's 512-word whole-heap
    budget) runs real collection cycles under an ordinary load plan.
    """
    return GcGeometry().scaled(1, scale_denominator)


@dataclass(frozen=True)
class TenantPlan:
    """One tenant's complete, self-contained request stream."""

    tenant: str
    kind: str
    backend: str
    profile: str
    requests: tuple[dict, ...]


@dataclass(frozen=True)
class LoadPlan:
    """A full load run: every tenant's stream plus the knobs that built it."""

    seed: int
    profile: str
    ops_per_tenant: int
    geometry: dict
    plans: tuple[TenantPlan, ...]

    @property
    def request_count(self) -> int:
        return sum(len(plan.requests) for plan in self.plans)


class _TenantScripter:
    """Builds one tenant's request stream while tracking rooted state.

    Every ``write``/``read``/``drop`` references only *currently
    rooted* uids, which are live by definition — so the stream is
    valid against any collector without simulating reachability.
    """

    def __init__(
        self,
        tenant: str,
        kind: str,
        geometry: dict,
        rng: random.Random,
    ) -> None:
        self.tenant = tenant
        self.rng = rng
        self.requests: list[dict] = []
        self.rooted: dict[int, tuple[int, int]] = {}  # uid -> (size, fields)
        self.live_words = 0
        self.next_uid = 0
        self._seq = 0
        # Every plan names the heap, as plans always have: the open
        # request's bytes (and so the plan fingerprint) stay the same.
        self._emit(
            "open",
            kind=kind,
            backend=FlatHeap.backend_name,
            geometry=geometry,
        )

    def _emit(self, op: str, **payload) -> None:
        request = {
            "v": PROTOCOL_VERSION,
            "id": f"{self.tenant}#{self._seq}",
            "op": op,
            "tenant": self.tenant,
        }
        request.update(payload)
        self.requests.append(request)
        self._seq += 1

    # -- mutator ops ---------------------------------------------------

    def alloc(self, size: int, fields: int) -> int:
        uid = self.next_uid
        self.next_uid += 1
        self._emit("alloc", uid=uid, size=size, fields=fields)
        self.rooted[uid] = (size, fields)
        self.live_words += size
        return uid

    def drop(self, uid: int) -> None:
        size, _ = self.rooted.pop(uid)
        self.live_words -= size
        self._emit("drop", uid=uid)

    def write(self, src: int, slot: int, dst: int | None) -> None:
        self._emit("write", src=src, slot=slot, dst=dst)

    def read(self, uid: int) -> None:
        self._emit("read", uid=uid)

    def checkpoint(self) -> None:
        self._emit("checkpoint")

    def collect(self) -> None:
        self._emit("collect")

    def close(self) -> None:
        self._emit("close")

    # -- helpers -------------------------------------------------------

    def random_rooted(self) -> int | None:
        if not self.rooted:
            return None
        return self.rng.choice(sorted(self.rooted))

    def random_writable(self) -> tuple[int, int] | None:
        """A rooted ``(uid, slot)`` with at least one reference slot."""
        sources = sorted(
            uid for uid, (_, fields) in self.rooted.items() if fields
        )
        if not sources:
            return None
        src = self.rng.choice(sources)
        return src, self.rng.randrange(self.rooted[src][1])

    def shed_to_budget(self) -> None:
        while self.live_words > _LIVE_BUDGET_WORDS and self.rooted:
            self.drop(self.random_rooted())


def _script_decay(scripter: _TenantScripter, ops: int) -> None:
    """Uniform per-op death hazard: exponential lifetimes."""
    rng = scripter.rng
    hazard = 0.08  # per rooted object, per mutator op
    while len(scripter.requests) < ops:
        roll = rng.random()
        if roll < 0.50:
            size = rng.randint(1, 6)
            fields = rng.randint(0, min(2, size))
            uid = scripter.alloc(size, fields)
            if fields and rng.random() < 0.5:
                dst = scripter.random_rooted()
                scripter.write(uid, rng.randrange(fields), dst)
        elif roll < 0.62:
            writable = scripter.random_writable()
            if writable is not None:
                src, slot = writable
                dst = scripter.random_rooted() if rng.random() < 0.8 else None
                scripter.write(src, slot, dst)
        elif roll < 0.72:
            uid = scripter.random_rooted()
            if uid is not None:
                scripter.read(uid)
        elif roll < 0.97:
            # The decay step: every rooted object faces the same hazard.
            for uid in sorted(scripter.rooted):
                if rng.random() < hazard:
                    scripter.drop(uid)
        else:
            scripter.collect()
        if len(scripter.requests) % 24 == 0:
            scripter.checkpoint()
        scripter.shed_to_budget()


def _script_burst(scripter: _TenantScripter, ops: int) -> None:
    """Allocate a cluster, use it, checkpoint, drop it wholesale."""
    rng = scripter.rng
    while len(scripter.requests) < ops:
        cluster: list[int] = []
        for _ in range(rng.randint(6, 12)):
            size = rng.randint(1, 4)
            fields = rng.randint(0, min(2, size))
            cluster.append(scripter.alloc(size, fields))
            scripter.shed_to_budget()
        linked = [u for u in cluster if u in scripter.rooted]
        for _ in range(rng.randint(2, 4)):
            sources = [u for u in linked if scripter.rooted[u][1]]
            if not sources:
                break
            src = rng.choice(sources)
            scripter.write(
                src,
                rng.randrange(scripter.rooted[src][1]),
                rng.choice(linked),
            )
        if linked:
            scripter.read(rng.choice(linked))
        scripter.checkpoint()
        if rng.random() < 0.15:
            scripter.collect()
        for uid in cluster:
            if uid in scripter.rooted:
                scripter.drop(uid)


def _script_session_tail(scripter: _TenantScripter, ops: int) -> None:
    """Session-lifetime pins plus a tail of cluster survivors."""
    rng = scripter.rng
    session = [scripter.alloc(3, 2) for _ in range(4)]
    while len(scripter.requests) < ops:
        cluster: list[int] = []
        for _ in range(rng.randint(4, 8)):
            size = rng.randint(1, 4)
            fields = rng.randint(0, min(2, size))
            cluster.append(scripter.alloc(size, fields))
            scripter.shed_to_budget()
        linked = [u for u in cluster if u in scripter.rooted]
        # Pin a survivor into a session slot while it is still rooted;
        # it outlives the cluster drop through the session reference.
        if linked:
            holder = rng.choice(session)
            scripter.write(holder, rng.randrange(2), rng.choice(linked))
        # ... and occasionally cut an old tail loose.
        if rng.random() < 0.3:
            scripter.write(rng.choice(session), rng.randrange(2), None)
        if linked and rng.random() < 0.5:
            scripter.read(rng.choice(linked))
        scripter.checkpoint()
        if rng.random() < 0.1:
            scripter.collect()
        for uid in cluster:
            if uid in scripter.rooted:
                scripter.drop(uid)


_SCRIPTERS = {
    "decay": _script_decay,
    "burst": _script_burst,
    "session-tail": _script_session_tail,
}


def build_plan(
    tenants: int,
    *,
    seed: int = 0,
    profile: str = "mixed",
    kinds: tuple[str, ...] = COLLECTOR_KINDS,
    ops_per_tenant: int = 120,
    geometry: GcGeometry | None = None,
) -> LoadPlan:
    """Build the complete request streams for ``tenants`` tenants.

    Tenant *i* gets collector ``kinds[i % len(kinds)]`` and the RNG
    seeded with ``derive_seed(seed, i)`` — so every kind sees every
    profile, and any single tenant's stream can be regenerated in
    isolation.
    """
    if profile != "mixed" and profile not in _SCRIPTERS:
        raise ValueError(
            f"unknown profile {profile!r} "
            f"(known: {', '.join(PROFILES)}, mixed)"
        )
    geometry = geometry if geometry is not None else tenant_geometry()
    geometry_overrides = asdict(geometry)
    plans: list[TenantPlan] = []
    for index in range(tenants):
        tenant = f"t{index:05d}"
        kind = kinds[index % len(kinds)]
        tenant_profile = (
            PROFILES[index % len(PROFILES)] if profile == "mixed" else profile
        )
        rng = random.Random(derive_seed(seed, index))
        scripter = _TenantScripter(tenant, kind, geometry_overrides, rng)
        _SCRIPTERS[tenant_profile](scripter, ops_per_tenant)
        scripter.checkpoint()
        scripter.close()
        plans.append(
            TenantPlan(
                tenant=tenant,
                kind=kind,
                backend=FlatHeap.backend_name,
                profile=tenant_profile,
                requests=tuple(scripter.requests),
            )
        )
    return LoadPlan(
        seed=seed,
        profile=profile,
        ops_per_tenant=ops_per_tenant,
        geometry=geometry_overrides,
        plans=tuple(plans),
    )


def plan_fingerprint(plan: LoadPlan) -> str:
    """SHA-256 over the canonical JSON of every request, in plan order.

    Two plans with the same fingerprint put byte-identical traffic on
    the wire; the golden test pins this so a generator change that
    silently alters traffic fails loudly.
    """
    digest = hashlib.sha256()
    for tenant_plan in plan.plans:
        for request in tenant_plan.requests:
            digest.update(
                json.dumps(
                    request, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class TenantOutcome:
    """One tenant's observed run: counts, digests, final payload."""

    tenant: str
    kind: str
    backend: str
    profile: str
    ok: int = 0
    errors: dict = field(default_factory=dict)
    checkpoints: list = field(default_factory=list)
    close: dict | None = None

    def record(self, request: dict, response: dict) -> None:
        if response.get("ok"):
            self.ok += 1
            if request["op"] == "checkpoint":
                self.checkpoints.append(response.get("digest"))
            elif request["op"] == "close":
                self.close = response
        else:
            kind = response.get("error", {}).get("kind", "internal")
            self.errors[kind] = self.errors.get(kind, 0) + 1


@dataclass
class LoadResult:
    """Everything a load run observed, ready for the scale report."""

    outcomes: list[TenantOutcome]
    elapsed: float
    requests_sent: int
    server_stats: dict | None = None
    metrics: dict | None = None

    @property
    def error_total(self) -> int:
        return sum(
            count
            for outcome in self.outcomes
            for count in outcome.errors.values()
        )


def run_load_inline(
    plan: LoadPlan, executor: ShardExecutor
) -> LoadResult:
    """Drive a plan against an in-process executor, closed-loop.

    Each round sends every still-active tenant's next request (one in
    flight per tenant — the same discipline as the socket client), so
    shard batches carry genuinely interleaved multi-tenant traffic.
    """
    outcomes = {
        plan_.tenant: TenantOutcome(
            plan_.tenant, plan_.kind, plan_.backend, plan_.profile
        )
        for plan_ in plan.plans
    }
    cursors = {plan_.tenant: 0 for plan_ in plan.plans}
    streams = {plan_.tenant: plan_.requests for plan_ in plan.plans}
    sent = 0
    started = time.perf_counter()
    while True:
        batches: dict[int, list[dict]] = {}
        order: dict[int, list[str]] = {}
        for tenant, cursor in cursors.items():
            if cursor >= len(streams[tenant]):
                continue
            shard = executor.shard_of(tenant)
            batches.setdefault(shard, []).append(streams[tenant][cursor])
            order.setdefault(shard, []).append(tenant)
            cursors[tenant] += 1
        if not batches:
            break
        responses = executor.execute(batches)
        for shard, tenants in order.items():
            shard_responses = responses.get(shard, [])
            for position, tenant in enumerate(tenants):
                request = streams[tenant][cursors[tenant] - 1]
                response = (
                    shard_responses[position]
                    if position < len(shard_responses)
                    else {"ok": False, "error": {"kind": "shard-failed"}}
                )
                outcomes[tenant].record(request, response)
                sent += 1
    return LoadResult(
        outcomes=[outcomes[plan_.tenant] for plan_ in plan.plans],
        elapsed=time.perf_counter() - started,
        requests_sent=sent,
    )


class _Connection:
    """One multiplexed client socket: ids in flight, futures resolved."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[object, asyncio.Future] = {}
        self._lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    continue
                future = self.pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self.pending.clear()

    async def request(self, payload: dict) -> dict:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[payload["id"]] = future
        async with self._lock:
            self.writer.write(encode_line(payload))
            await self.writer.drain()
        return await future

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def shutdown_server(host: str, port: int) -> None:
    """Send the server at ``host:port`` the ``shutdown`` op."""
    reader, writer = await asyncio.open_connection(host, port)
    connection = _Connection(reader, writer)
    await connection.request(
        {"v": PROTOCOL_VERSION, "id": "load:bye", "op": "shutdown"}
    )
    await connection.close()


async def run_load(
    plan: LoadPlan,
    host: str,
    port: int,
    *,
    connections: int = 8,
    fetch_metrics: bool = True,
) -> LoadResult:
    """Drive a plan against a live server, closed-loop per tenant.

    Tenants share a small pool of multiplexed connections (tenant *i*
    on connection ``i % connections``); each tenant awaits every
    response before sending its next op.
    """
    connections = max(1, min(connections, len(plan.plans) or 1))
    pool: list[_Connection] = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        pool.append(_Connection(reader, writer))

    async def drive(index: int, tenant_plan: TenantPlan) -> TenantOutcome:
        outcome = TenantOutcome(
            tenant_plan.tenant,
            tenant_plan.kind,
            tenant_plan.backend,
            tenant_plan.profile,
        )
        connection = pool[index % len(pool)]
        for request in tenant_plan.requests:
            response = await connection.request(request)
            outcome.record(request, response)
        return outcome

    started = time.perf_counter()
    try:
        outcomes = list(
            await asyncio.gather(
                *(
                    drive(index, tenant_plan)
                    for index, tenant_plan in enumerate(plan.plans)
                )
            )
        )
        elapsed = time.perf_counter() - started
        server_stats = metrics = None
        if fetch_metrics:
            stats_response = await pool[0].request(
                {"v": PROTOCOL_VERSION, "id": "load:stats", "op": "stats"}
            )
            if stats_response.get("ok"):
                server_stats = {
                    key: value
                    for key, value in stats_response.items()
                    if key not in ("v", "id", "ok")
                }
            metrics_response = await pool[0].request(
                {"v": PROTOCOL_VERSION, "id": "load:metrics", "op": "metrics"}
            )
            if metrics_response.get("ok"):
                metrics = metrics_response.get("registries")
    finally:
        for connection in pool:
            await connection.close()
    return LoadResult(
        outcomes=outcomes,
        elapsed=elapsed,
        requests_sent=plan.request_count,
        server_stats=server_stats,
        metrics=metrics,
    )


def register(subparsers) -> None:
    """``repro-gc load``."""
    from repro.cli import (
        collector_kinds,
        host_port,
        non_negative_float,
        non_negative_int,
        positive_int,
    )

    sub = subparsers.add_parser(
        "load",
        help=(
            "closed-loop load generator: seeded multi-tenant traffic "
            "against a live server (--connect) or a self-hosted one"
        ),
    )
    sub.add_argument("--tenants", type=positive_int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--profile",
        choices=("decay", "burst", "session-tail", "mixed"),
        default="mixed",
    )
    sub.add_argument(
        "--kinds",
        type=collector_kinds,
        help="comma-separated collector kinds (default: all seven)",
    )
    sub.add_argument(
        "--ops", type=positive_int, default=300, help="ops per tenant (approx)"
    )
    sub.add_argument("--connections", type=positive_int, default=8)
    sub.add_argument(
        "--connect",
        type=host_port,
        metavar="HOST:PORT",
        help="drive an already-running server instead of self-hosting",
    )
    sub.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown op after the load (with --connect)",
    )
    sub.add_argument(
        "--shards",
        type=positive_int,
        default=2,
        help="self-hosted server shards",
    )
    sub.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        help="self-hosted server jobs",
    )
    sub.add_argument("--tenant-cap", type=positive_int)
    sub.add_argument(
        "--report", help="write the scale report JSON to this path"
    )
    sub.add_argument(
        "--check",
        metavar="REPORT",
        help=(
            "gate against a committed scale report: schema validity "
            "plus p99 mutator-visible pause regression"
        ),
    )
    sub.add_argument(
        "--tolerance",
        type=non_negative_float,
        default=1.25,
        help="allowed p99 growth factor for --check",
    )
    sub.add_argument(
        "--fingerprint",
        action="store_true",
        help="print the plan fingerprint (no traffic) and exit",
    )
    sub.add_argument(
        "--allow-errors",
        action="store_true",
        help="do not fail the run on error responses",
    )
    sub.set_defaults(func=_cmd_load)


def _cmd_load(args) -> int:
    import sys

    from repro.resilience.atomic import atomic_write_json
    from repro.service.report import (
        build_scale_report,
        check_pause_regression,
        render_scale_report,
        validate_scale_report,
    )
    from repro.service.server import HeapServer

    if args.check:
        # The gate's baseline is read and validated before any traffic.
        try:
            with open(args.check, encoding="utf-8") as handle:
                committed = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"repro-gc load: error: --check: {exc}", file=sys.stderr)
            return 2
        problems = validate_scale_report(committed)
        if problems:
            for problem in problems:
                print(f"gate: {problem}")
            return 1
    plan = build_plan(
        args.tenants,
        seed=args.seed,
        profile=args.profile,
        kinds=args.kinds or COLLECTOR_KINDS,
        ops_per_tenant=args.ops,
    )
    if args.fingerprint:
        print(plan_fingerprint(plan))
        return 0

    async def run():
        if args.connect is not None:
            result = await run_load(
                plan, *args.connect, connections=args.connections
            )
            if args.shutdown:
                await shutdown_server(*args.connect)
            return result, "server"
        server = HeapServer(
            shards=args.shards, jobs=args.jobs, tenant_cap=args.tenant_cap
        )
        port = await server.start()
        try:
            result = await run_load(
                plan, "127.0.0.1", port, connections=args.connections
            )
        finally:
            await server.close()
        return result, "self-serve"

    try:
        result, mode = asyncio.run(run())
    except OSError as exc:  # nothing listening, or the server went away
        print(f"repro-gc load: error: {exc}", file=sys.stderr)
        return 1
    report = build_scale_report(plan, result, mode=mode)
    problems = validate_scale_report(report)
    print(render_scale_report(report))
    if problems:
        for problem in problems:
            print(f"schema: {problem}")
        return 1
    if result.error_total and not args.allow_errors:
        print(f"load run saw {result.error_total} error response(s)")
        return 1
    if args.report:
        atomic_write_json(args.report, report)
        print(f"wrote {args.report}")
    if args.check:
        gate = check_pause_regression(
            report, committed, tolerance=args.tolerance
        )
        if gate:
            for problem in gate:
                print(f"gate: {problem}")
            return 1
        print(f"gate: p99 pauses within {args.tolerance}x of {args.check}")
    return 0
