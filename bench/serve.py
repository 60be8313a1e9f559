"""The ``serve-inline`` and ``serve-pool`` workloads.

Both drive a live ``repro serve`` subprocess over TCP with the seeded
``loadgen`` plan (profile ``mixed``: all seven collector kinds, flat
backend), closed loop: one request in flight per tenant, all tenants
multiplexed over eight connections on one client event loop in this
single-threaded process.  ``serve-inline`` runs the shards inside the
server (``--jobs 0``); ``serve-pool`` ships every batch through
``resilient_map`` to worker processes (``--jobs 2``).

The load is a *stream*: every tenant opens, runs its ops, closes, and
starts over, so the number of requests in flight stays the same for the
whole run.  The stream is timed in *windows* of a second or two; between
windows the tenants hold their next request back until nothing is in
flight, and a host-speed probe runs (see ``hostspeed``).  Each timed
metric is the median over windows of the window's figure in reference
seconds.  Every exact count is the same in every pass of a tenant's
plan, because a closed tenant leaves nothing behind.

One thing about the load's shape is there to keep the server in one
operating regime, found by measurement.  The server's dispatcher sends
whatever is queued when it wakes, and a request that arrives while a
batch executes waits for the next one.  With symmetric connections it
settles, at random and for as long as the load lasts, either into one
batch of all eight connections or into two groups that take turns — in
pool mode, where a batch costs the same 16 ms whatever its size, the
two differ by a factor of 1.8 in throughput (440 and 240 requests a
second), and which one a run saw decided its result.  So connection 0
carries one tenant only: its next request cannot be in the socket when
its reply goes out, so it always arrives while the batch of the other
connections (whose next requests are already buffered) executes, and
the two-group regime — the one the symmetric load was in seven times
out of ten — is the only stable one.

``serve-inline`` is pinned (server on the first allowed CPU, this
client on the second) and its probes run on the server's CPU;
``serve-pool`` is not pinned (server, pool workers and client share the
CPUs as the scheduler sees fit) and its probes run wherever this client
happens to be.

Output check: every pass of every live tenant — checkpoint digests and
``close`` payload — must equal an in-process serial run of the same
plan; the pass a tenant was in when the run ended is cut short with a
``close`` and its digests must be a prefix of the serial run's.

The traced run cannot put spans inside the server from out here, so it
replays the identical plan in-process in the order the server calls
the layers (decode → validate → route → execute → encode) with a span
around each call, and charges the difference between the live wall per
request and that in-process sum to ``server.wire_dispatch_*``: time
requests waited rather than worked.  Per-layer timings are host
seconds, uncorrected.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import harness
import hostspeed
from harness import KINDS, BenchFailure, RunResult, Tracer

harness.add_source_path()

from repro.perf.parallel import resilient_map  # noqa: E402
from repro.resilience.snapshot import verify_snapshot  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    LoadPlan,
    TenantOutcome,
    build_plan,
    plan_fingerprint,
    run_load_inline,
)
from repro.service.protocol import (  # noqa: E402
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    geometry_from_payload,
    validate_request,
)
from repro.service.session import TenantSession  # noqa: E402
from repro.service.shard import ShardExecutor, run_shard_batch  # noqa: E402

SHARDS = 2
CONNECTIONS = 8
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
#: Nothing in flight completes for this long: the server is wedged, and
#: the run must still end inside the driver's per-run limit.
STALL_TIMEOUT_S = 90.0
SESSION_OPS = ("alloc", "write", "read", "drop", "checkpoint", "collect")
#: Mid-life sessions are captured and restored every this many ops.
CAPTURE_EVERY = 50
#: Tenants walked op by op for the ``session.*`` metrics.
SESSION_SAMPLE_TENANTS = 70
ROUNDTRIP_CALLS = 20


@dataclass(frozen=True)
class ServeSizes:
    jobs: int
    tenants: int
    ops: int
    warm_tenants: int
    warm_ops: int
    #: Pin the server to the first allowed CPU and the client to the
    #: second (only when two are available).
    pin: bool
    #: Seconds of traffic between two host-speed probes.
    window_s: float


#: The issue's sizes are 1000 tenants x 300 ops (inline) and 64 x 100
#: (pool).  A run has to see every tenant through its plan at least
#: once inside the driver's time cap, so tenant counts are the issue's
#: divided by one integer factor each (10 and 4); ops per tenant, and
#: so each tenant heap's history, are unchanged.
SIZES = {
    "serve-inline": ServeSizes(0, 100, 300, 16, 50, True, 1.0),
    "serve-pool": ServeSizes(2, 16, 100, 4, 10, False, 2.0),
}
QUICK_SIZES = {
    "serve-inline": ServeSizes(0, 21, 60, 7, 20, True, 0.2),
    "serve-pool": ServeSizes(2, 7, 30, 7, 10, False, 0.4),
}


# ----------------------------------------------------------------------
# The live server
# ----------------------------------------------------------------------


class LiveServer:
    """A ``repro serve`` subprocess and what can be read off it."""

    def __init__(self, jobs: int, log_path: Path, cpu: int | None) -> None:
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = log_path.open("a", encoding="utf-8")
        self._log.write(f"--- server start jobs={jobs} cpu={cpu}\n")
        self._log.flush()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--shards", str(SHARDS), "--jobs", str(jobs), "--port", "0",
            ],
            cwd=harness.ROOT,
            env=harness.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.process.pid, {cpu})
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select(
            [self.process.stdout], [], [], READY_TIMEOUT_S
        )
        line = self.process.stdout.readline() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise BenchFailure(
                f"server did not print its ready line (got {line!r}, "
                f"exit code {self.process.poll()})"
            )
        self._log.write(line)
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, read while it is alive."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchFailure("VmHWM missing from /proc status")

    def wait_closed(self) -> None:
        """After a ``shutdown`` op: wait for exit, keep the output."""
        try:
            out, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure("server did not exit after shutdown")
        self._log.write(out or "")
        self._log.write(f"--- server exit code {self.process.returncode}\n")
        self._log.close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        if not self._log.closed:
            self._log.close()


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------


class Connection:
    """One multiplexed client socket; replies resolve futures by id and
    are stamped on arrival, before they are parsed."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[object, asyncio.Future] = {}
        self.task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                arrived = time.perf_counter()
                if not line:
                    break
                response = json.loads(line)
                future = self.pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((response, arrived))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self.pending.clear()

    async def request(
        self, request_id: object, line: bytes
    ) -> tuple[dict, float, float]:
        """Send one encoded request; returns the response, the time of
        this write and the time of the reply's arrival."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        sent = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        response, arrived = await future
        return response, sent, arrived

    async def call(self, op: str) -> dict:
        request = {"v": PROTOCOL_VERSION, "id": f"bench:{op}", "op": op}
        response, _, _ = await self.request(
            request["id"], encode_line(request)
        )
        if not response.get("ok"):
            raise BenchFailure(f"server op {op!r} failed: {response}")
        return response

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@dataclass
class Window:
    """One timed stretch of the stream, between two host-speed probes."""

    started: float
    #: When the tenants were told to hold their next request back.
    closed: float
    #: Per request answered in the window, in arrival order: (arrival
    #: time, latency).  The last few arrive after ``closed``.
    completions: list[tuple[float, float]]
    #: Its number among the host-speed bracket's stretches.
    stretch: int
    #: Host seconds to reference seconds (set when the stream has ended).
    factor: float = 1.0

    @property
    def rate(self) -> float:
        """Requests answered per host second while the window was open."""
        answered = sum(
            1 for arrived, _ in self.completions if arrived <= self.closed
        )
        return answered / (self.closed - self.started)

    @property
    def latencies(self) -> list[float]:
        return [latency for _, latency in self.completions]


class Stream:
    """The closed loop: every tenant runs its plan over and over, one
    request in flight each, until told to stop.

    ``passes[i]`` holds tenant *i*'s finished passes; ``cut[i]`` the
    pass it was in when the stream stopped, ended early by a ``close``.
    """

    def __init__(
        self, pool: list[Connection], plan: LoadPlan, lines: list[list[bytes]]
    ) -> None:
        self.pool = pool
        self.plan = plan
        self.lines = lines
        self.passes: list[list[TenantOutcome]] = [[] for _ in plan.plans]
        self.cut: list[TenantOutcome | None] = [None] * len(plan.plans)
        self.sent = 0
        self._gate = asyncio.Event()
        self._quiet = asyncio.Event()
        self._quiet.set()
        self._in_flight = 0
        self._stopping = False
        self._completions: list[tuple[float, float]] = []

    def connection_of(self, index: int) -> Connection:
        """Tenant 0 has connection 0 to itself; the rest share the
        others (why: see the module docstring)."""
        if index == 0 or len(self.pool) == 1:
            return self.pool[0]
        return self.pool[1 + (index - 1) % (len(self.pool) - 1)]

    async def _drive(self, index: int) -> None:
        tenant_plan = self.plan.plans[index]
        connection = self.connection_of(index)
        requests = tenant_plan.requests
        lines = self.lines[index]
        while True:
            outcome = TenantOutcome(
                tenant_plan.tenant,
                tenant_plan.kind,
                tenant_plan.backend,
                tenant_plan.profile,
            )
            for position in range(len(requests)):
                if not self._gate.is_set():
                    await self._gate.wait()
                request, line = requests[position], lines[position]
                leaving = (
                    self._stopping
                    and bool(self.passes[index])
                    and position < len(requests) - 1
                )
                if leaving:
                    if position == 0:
                        return
                    request, line = requests[-1], lines[-1]
                self._in_flight += 1
                self._quiet.clear()
                self.sent += 1
                try:
                    response, sent, arrived = await connection.request(
                        request["id"], line
                    )
                finally:
                    self._in_flight -= 1
                    if not self._in_flight:
                        self._quiet.set()
                self._completions.append((arrived, arrived - sent))
                outcome.record(request, response)
                if leaving:
                    self.cut[index] = outcome
                    return
            self.passes[index].append(outcome)

    async def _finish(self, tasks: list[asyncio.Task]) -> None:
        """Let every tenant end its stream (after one full pass at
        least) and wait for all of them."""
        self._stopping = True
        self._gate.set()
        try:
            await asyncio.wait_for(asyncio.gather(*tasks), STALL_TIMEOUT_S)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise

    def _start(self) -> list[asyncio.Task]:
        return [
            asyncio.create_task(self._drive(index))
            for index in range(len(self.plan.plans))
        ]

    async def run_once(self) -> None:
        """Every tenant through its plan exactly once, untimed."""
        await self._finish(self._start())

    async def run(
        self, seconds: float, window_s: float, bracket: hostspeed.Bracket
    ) -> list[Window]:
        """Timed windows for ``seconds`` (and until every tenant has
        finished a pass); ``bracket`` probes the host's speed between
        windows, while nothing is in flight."""
        tasks = self._start()
        windows: list[Window] = []
        try:
            deadline = time.perf_counter() + seconds
            while True:
                self._completions = []
                started = time.perf_counter()
                self._gate.set()
                await asyncio.sleep(window_s)
                self._gate.clear()
                closed = time.perf_counter()
                await asyncio.wait_for(self._quiet.wait(), STALL_TIMEOUT_S)
                for task in tasks:
                    if task.done() and task.exception() is not None:
                        raise task.exception()
                windows.append(
                    Window(
                        started, closed, sorted(self._completions),
                        bracket.close(),
                    )
                )
                if time.perf_counter() >= deadline and all(self.passes):
                    break
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        self._completions = []
        await self._finish(tasks)
        for window in windows:
            window.factor = bracket.factor(window.stretch)
        return windows

    @property
    def first_passes(self) -> list[TenantOutcome]:
        return [passes[0] for passes in self.passes]

    def outcomes(self) -> list[TenantOutcome]:
        """Every pass, finished or cut short."""
        return [o for passes in self.passes for o in passes] + [
            o for o in self.cut if o is not None
        ]


def encode_plan(plan: LoadPlan) -> list[list[bytes]]:
    return [
        [encode_line(request) for request in tenant_plan.requests]
        for tenant_plan in plan.plans
    ]


# ----------------------------------------------------------------------
# Set-up and the live phase
# ----------------------------------------------------------------------


@dataclass
class Prepared:
    plan: LoadPlan
    #: The warm-up plan: its collections are in the server's metric
    #: registries too, so the serial reference runs it as well.
    warm: LoadPlan
    lines: list[list[bytes]]
    plan_build_s: float
    server: LiveServer
    pool: list[Connection]
    affinity: dict[str, Any]


async def prepare(
    workload: str, sizes: ServeSizes, seed: int
) -> Prepared:
    """One full set-up: plans, server up to its ready line, connections,
    warm-up traffic.  Everything before the first timed request."""
    started = time.perf_counter()
    plan = build_plan(
        sizes.tenants, seed=seed, profile="mixed", ops_per_tenant=sizes.ops
    )
    plan_build_s = time.perf_counter() - started
    lines = encode_plan(plan)
    warm = build_plan(
        sizes.warm_tenants,
        seed=seed + 1,
        profile="mixed",
        ops_per_tenant=sizes.warm_ops,
    )
    warm_lines = encode_plan(warm)

    cpus = harness.allowed_cpus()
    pinned = sizes.pin and len(cpus) >= 2
    affinity = {
        "server_cpu": cpus[0] if pinned else None,
        "client_cpu": cpus[1] if pinned else None,
    }
    server = LiveServer(
        sizes.jobs,
        harness.OUT_DIR / f"server-{workload}.log",
        affinity["server_cpu"],
    )
    pool: list[Connection] = []
    try:
        if pinned:
            os.sched_setaffinity(0, {cpus[1]})
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            pool.append(Connection(reader, writer))
        warmed = Stream(pool, warm, warm_lines)
        await warmed.run_once()
        ok = sum(outcome.ok for outcome in warmed.outcomes())
        if ok != warm.request_count:
            raise BenchFailure(
                f"warm-up: {warm.request_count - ok} of "
                f"{warm.request_count} requests failed"
            )
    except BaseException:
        await teardown_quietly(server, pool, cpus)
        raise
    return Prepared(plan, warm, lines, plan_build_s, server, pool, affinity)


async def teardown_quietly(
    server: LiveServer, pool: list[Connection], cpus: list[int]
) -> None:
    for connection in pool:
        await connection.close()
    server.kill()
    os.sched_setaffinity(0, cpus)


async def teardown(prepared: Prepared, cpus: list[int]) -> None:
    """Orderly end: ``shutdown`` op, close sockets, wait for exit."""
    await prepared.pool[0].call("shutdown")
    for connection in prepared.pool:
        await connection.close()
    prepared.server.wait_closed()
    os.sched_setaffinity(0, cpus)


@dataclass
class LivePhase:
    prepared: Prepared
    #: Each set-up's host seconds and its host-speed factor.
    setup_samples: list[tuple[float, float]]
    stream: Stream
    windows: list[Window]
    host_probes_s: list[float]
    server_stats: dict
    registries: dict
    peak_rss_mb: float


async def live_phase(
    workload: str,
    sizes: ServeSizes,
    seed: int,
    seconds: float,
    setup_repeats: int,
) -> LivePhase:
    cpus = harness.allowed_cpus()
    (harness.OUT_DIR / f"server-{workload}.log").unlink(missing_ok=True)
    setup_samples: list[tuple[float, float]] = []
    prepared = None
    for repeat in range(setup_repeats):
        if prepared is not None:
            await teardown(prepared, cpus)
        bracket = hostspeed.Bracket()
        started = time.perf_counter()
        prepared = await prepare(workload, sizes, seed)
        elapsed = time.perf_counter() - started
        setup_samples.append((elapsed, bracket.factor(bracket.close())))
    try:
        # The probe runs where the timed work does: on the server's
        # CPU, if it has one.
        bracket = hostspeed.Bracket(prepared.affinity["server_cpu"])
        stream = Stream(prepared.pool, prepared.plan, prepared.lines)
        windows = await stream.run(seconds, sizes.window_s, bracket)
        stats = await prepared.pool[0].call("stats")
        registries = (await prepared.pool[0].call("metrics"))["registries"]
        peak = prepared.server.peak_rss_mb()
    except BaseException:
        await teardown_quietly(prepared.server, prepared.pool, cpus)
        raise
    await teardown(prepared, cpus)
    return LivePhase(
        prepared, setup_samples, stream, windows, bracket.probes, stats,
        registries, peak,
    )


# ----------------------------------------------------------------------
# Output checks and counts
# ----------------------------------------------------------------------


def close_stats(outcome: TenantOutcome) -> dict[str, int]:
    return dict(outcome.close["stats"]) if outcome.close else {}


def close_payload(outcome: TenantOutcome) -> str | None:
    """A ``close`` response as canonical JSON, without the fields that
    merely echo the request — comparable between a reply that crossed
    the wire and one that did not."""
    if outcome.close is None:
        return None
    payload = {k: v for k, v in outcome.close.items() if k not in ("v", "id")}
    return json.dumps(payload, sort_keys=True)


def check_outcomes(
    result: RunResult,
    label: str,
    observed: list[TenantOutcome],
    reference: list[TenantOutcome],
) -> None:
    """Every tenant's digests and ``close`` payload equal the serial
    in-process run of the same plan."""
    result.check(
        len(observed) == len(reference),
        f"{label}: {len(observed)} tenants observed, "
        f"{len(reference)} in the reference run",
    )
    for seen, expected in zip(observed, reference):
        result.check(
            not seen.errors,
            f"{label}: tenant {seen.tenant} got errors {seen.errors}",
        )
        result.check(
            seen.checkpoints == expected.checkpoints,
            f"{label}: tenant {seen.tenant} checkpoint digests differ "
            f"from the serial run",
        )
        result.check(
            seen.close is not None
            and close_payload(seen) == close_payload(expected),
            f"{label}: tenant {seen.tenant} close payload differs from "
            f"the serial run",
        )


def pause_words_max(registries: dict, kind: str | None = None) -> int:
    """Largest single-collection work, from ``metrics``-op registries
    (labels are ``<kind>/<backend>``).  The registries cover the
    server's whole life, so the warm-up tenants' collections count."""
    largest = 0
    for label, registry in registries.items():
        if kind is not None and not label.startswith(kind + "/"):
            continue
        pauses = registry["metrics"].get("pause_words")
        if pauses is not None:
            largest = max(largest, pauses["max"])
    return largest


def exact_counts(
    outcomes: list[TenantOutcome], registries: dict
) -> dict[str, Any]:
    """The allocation-time counts of one round, overall and per kind."""
    per_kind: dict[str, dict[str, int]] = {
        kind: {"traced": 0, "allocated": 0, "collections": 0}
        for kind in KINDS
    }
    for outcome in outcomes:
        stats = close_stats(outcome)
        row = per_kind[outcome.kind]
        row["traced"] += stats["words_marked"] + stats["words_copied"]
        row["allocated"] += stats["words_allocated"]
        row["collections"] += stats["collections"]
    for kind, row in per_kind.items():
        row["pause_words_max"] = pause_words_max(registries, kind)
    return {
        "words_traced": sum(row["traced"] for row in per_kind.values()),
        "words_allocated": sum(row["allocated"] for row in per_kind.values()),
        "pause_words_max": pause_words_max(registries),
        "per_kind": per_kind,
    }


def reference_run(
    plan: LoadPlan, warm: LoadPlan
) -> tuple[list[TenantOutcome], dict]:
    """The serial in-process run every live tenant is compared with
    (warm-up first, as the live server saw it)."""
    executor = ShardExecutor(SHARDS, jobs=0)
    run_load_inline(warm, executor)
    outcomes = run_load_inline(plan, executor).outcomes
    registries = {
        registry.label: registry.to_jsonable()
        for registry in executor.merged_metrics()
    }
    return outcomes, registries


def check_cut_short(
    result: RunResult, seen: TenantOutcome, expected: TenantOutcome
) -> None:
    """The pass a tenant was in when the stream stopped: what it saw up
    to its early ``close`` must be the start of the serial run."""
    result.check(
        not seen.errors,
        f"last pass: tenant {seen.tenant} got errors {seen.errors}",
    )
    result.check(
        seen.close is not None
        and seen.checkpoints == expected.checkpoints[: len(seen.checkpoints)],
        f"last pass: tenant {seen.tenant} checkpoint digests are not a "
        f"prefix of the serial run's",
    )


def verify_live(result: RunResult, live: LivePhase) -> dict[str, Any]:
    """Check every pass against the serial run; returns the counts."""
    plan = live.prepared.plan
    stream = live.stream
    reference, reference_registries = reference_run(plan, live.prepared.warm)
    result.attempted += stream.sent
    result.failed += stream.sent - sum(o.ok for o in stream.outcomes())
    for index in range(max(len(passes) for passes in stream.passes)):
        members = [
            tenant
            for tenant, passes in enumerate(stream.passes)
            if len(passes) > index
        ]
        check_outcomes(
            result,
            f"pass {index}",
            [stream.passes[tenant][index] for tenant in members],
            [reference[tenant] for tenant in members],
        )
    for tenant, outcome in enumerate(stream.cut):
        if outcome is not None:
            check_cut_short(result, outcome, reference[tenant])
    counts = exact_counts(stream.first_passes, live.registries)
    expected = exact_counts(reference, reference_registries)
    result.check(
        counts == expected,
        "allocation-time counts read off the live server differ from "
        "the serial run",
    )
    return counts


def record_setup(
    result: RunResult, workload: str, sizes: ServeSizes, live: LivePhase
) -> None:
    plan = live.prepared.plan
    result.detail.update(
        {
            "sizes": {
                "tenants": sizes.tenants,
                "ops_per_tenant": sizes.ops,
                "requests_per_pass": plan.request_count,
                "requests_sent": live.stream.sent,
                "passes_finished": sum(len(p) for p in live.stream.passes),
                "windows": len(live.windows),
                "window_s": sizes.window_s,
                "shards": SHARDS,
                "jobs": sizes.jobs,
                "warm_up": [sizes.warm_tenants, sizes.warm_ops],
            },
            "plan_fingerprint": plan_fingerprint(plan),
            "client": {
                "connections": CONNECTIONS,
                "loop": "closed, one request in flight per tenant, tenant 0 "
                "alone on connection 0",
                "event_loop": type(asyncio.new_event_loop()).__name__,
                "processes": 1,
            },
            "affinity": live.prepared.affinity,
            "server_log": f"bench/out/server-{workload}.log",
            "server_stats": {
                key: value
                for key, value in live.server_stats.items()
                if key not in ("v", "id", "ok")
            },
        }
    )


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------


def run_end_to_end(
    result: RunResult,
    workload: str,
    seed: int,
    seconds: float,
    quick: bool,
    import_s: float,
) -> None:
    sizes = (QUICK_SIZES if quick else SIZES)[workload]
    live = asyncio.run(
        live_phase(workload, sizes, seed, seconds, SETUP_REPEATS)
    )
    counts = verify_live(result, live)
    record_setup(result, workload, sizes, live)

    result.put_setup(import_s, live.setup_samples)
    windows = live.windows
    result.put_median(
        "requests_per_s", [w.rate / w.factor for w in windows]
    )
    result.raw["requests_per_s"] = harness.median(w.rate for w in windows)
    for name, q in (("p50", 0.50), ("p90", 0.90)):
        host_ms = [1e3 * harness.percentile(w.latencies, q) for w in windows]
        result.put_median(
            f"request_latency_{name}_ms",
            [ms * w.factor for ms, w in zip(host_ms, windows)],
        )
        result.raw[f"request_latency_{name}_ms"] = harness.median(host_ms)
    result.detail["host_probes_s"] = live.host_probes_s
    result.detail["window_rates_host"] = [w.rate for w in windows]
    result.detail["latency_samples_per_window"] = harness.median(
        len(w.latencies) for w in windows
    )
    result.put(
        "words_per_s",
        put_ledger(result, live, result.metrics["requests_per_s"], counts),
    )
    result.put("peak_rss_mb", live.peak_rss_mb)
    result.exact.update(counts)


def put_ledger(
    result: RunResult, live: LivePhase, rate: float, counts: dict[str, Any]
) -> float:
    """Per-kind allocation rates and the exact counts; returns the
    overall allocation rate.

    Words are a fixed property of the plan, so an allocation rate is
    the request rate times the plan's words per request.  Tenants of
    every kind share one server: the per-kind figure is the rate
    delivered to that kind's tenants inside the mix, not the rate of
    the collector alone (that is alloc-decay's reading).
    """
    requests = live.prepared.plan.request_count
    for kind in KINDS:
        allocated = counts["per_kind"][kind]["allocated"]
        result.put(f"words_per_s.{kind}", rate * allocated / requests)
    result.put(
        "mark_cons_ratio", counts["words_traced"] / counts["words_allocated"]
    )
    result.put("pause_words_max", counts["pause_words_max"])
    return rate * counts["words_allocated"] / requests


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def replay_in_process(
    plan: LoadPlan, warm: LoadPlan, jobs: int, tracer: Tracer | None
) -> tuple[list[TenantOutcome], dict, dict[str, float]]:
    """The plan through the server's layers, in the server's order.

    Rounds of up to eight tenants (one per live connection), one
    request each: decode and validate every line, route it, execute
    the shard batches, encode every response.  With a ``tracer`` each
    call is a span carrying the request's id; without one the same
    calls are only timed, which is the untraced side of
    ``trace.overhead_share``.
    """
    call = tracer.call if tracer is not None else harness.plain_call
    executor = ShardExecutor(SHARDS, jobs=jobs)
    run_load_inline(warm, executor)
    outcomes = [
        TenantOutcome(p.tenant, p.kind, p.backend, p.profile)
        for p in plan.plans
    ]
    lines = encode_plan(plan)
    cursors = [0] * len(plan.plans)
    totals = {"decode": 0.0, "execute": 0.0, "encode": 0.0}
    sizes = {"requests": 0, "request_bytes": 0, "response_bytes": 0}
    clock = time.perf_counter
    started = clock()
    active = list(range(len(plan.plans)))
    while active:
        for offset in range(0, len(active), CONNECTIONS):
            group = active[offset : offset + CONNECTIONS]
            batches: dict[int, list[dict]] = {}
            order: dict[int, list[int]] = {}
            for index in group:
                line = lines[index][cursors[index]]
                cid = plan.plans[index].requests[cursors[index]]["id"]
                t0 = clock()
                payload = call("protocol.decode", cid, decode_line, line)
                request = call(
                    "protocol.validate", cid, validate_request, payload
                )
                totals["decode"] += clock() - t0
                shard = call(
                    "shard.route", cid, executor.shard_of, request["tenant"]
                )
                batches.setdefault(shard, []).append(request)
                order.setdefault(shard, []).append(index)
                sizes["request_bytes"] += len(line)
            t0 = clock()
            responses = call("shard.execute", None, executor.execute, batches)
            totals["execute"] += clock() - t0
            for shard, members in order.items():
                for index, response in zip(members, responses[shard]):
                    t0 = clock()
                    encoded = call(
                        "protocol.encode", response["id"], encode_line,
                        response,
                    )
                    totals["encode"] += clock() - t0
                    sizes["response_bytes"] += len(encoded)
                    sizes["requests"] += 1
                    request = plan.plans[index].requests[cursors[index]]
                    outcomes[index].record(request, response)
                    cursors[index] += 1
        active = [
            index
            for index in active
            if cursors[index] < len(plan.plans[index].requests)
        ]
    totals["wall"] = clock() - started
    totals.update(sizes)
    registries = {
        registry.label: registry.to_jsonable()
        for registry in executor.merged_metrics()
    }
    return outcomes, registries, totals


def session_layer(plan: LoadPlan) -> dict[str, float]:
    """``TenantSession`` costs by op, plus capture / restore / verify /
    pickle on mid-life sessions, over a sample of the plan's tenants."""
    clock = time.perf_counter
    apply_s = {op: 0.0 for op in SESSION_OPS}
    apply_n = {op: 0 for op in SESSION_OPS}
    capture, restore, verify, pickled, blob_bytes = [], [], [], [], []
    for tenant_plan in plan.plans[:SESSION_SAMPLE_TENANTS]:
        opening = tenant_plan.requests[0]
        session = TenantSession(
            tenant_plan.tenant,
            kind=opening["kind"],
            backend=opening["backend"],
            geometry=geometry_from_payload(opening["geometry"]),
        )
        for position, request in enumerate(tenant_plan.requests[1:-1], 1):
            op = request["op"]
            t0 = clock()
            session.apply(request)
            apply_s[op] += clock() - t0
            apply_n[op] += 1
            if position % CAPTURE_EVERY == 0:
                t0 = clock()
                blob = session.capture()
                t1 = clock()
                verify_snapshot(blob["snapshot"])
                t2 = clock()
                session = TenantSession.from_state(blob)
                t3 = clock()
                wire = pickle.dumps(blob)
                pickle.loads(wire)
                t4 = clock()
                capture.append(t1 - t0)
                verify.append(t2 - t1)
                restore.append(t3 - t2)
                pickled.append(t4 - t3)
                blob_bytes.append(len(wire))
    measured = {
        f"session.apply_us.{op}": 1e6 * apply_s[op] / max(1, apply_n[op])
        for op in SESSION_OPS
    }

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    measured["session.capture_us"] = 1e6 * mean(capture)
    measured["session.restore_us"] = 1e6 * mean(restore)
    measured["snapshot.verify_us"] = 1e6 * mean(verify)
    measured["parallel.pickle_us"] = 1e6 * mean(pickled)
    measured["snapshot.blob_bytes_mean"] = mean(blob_bytes)
    return measured


def pool_roundtrip_ms() -> float:
    """p50 of ``resilient_map`` over two empty shard batches: what every
    pool-mode batch pays before any tenant work."""
    items = [
        {"shard": shard, "state": {}, "ops": [], "config": {}}
        for shard in range(SHARDS)
    ]
    samples = []
    for _ in range(ROUNDTRIP_CALLS):
        t0 = time.perf_counter()
        resilient_map(run_shard_batch, items, jobs=2)
        samples.append(time.perf_counter() - t0)
    return 1e3 * harness.median(samples)


def run_traced(
    result: RunResult,
    workload: str,
    seed: int,
    quick: bool,
    zeros: dict[str, float],
) -> None:
    sizes = (QUICK_SIZES if quick else SIZES)[workload]
    # One pass of every tenant is all the per-layer ledger needs from
    # the wire.
    live = asyncio.run(live_phase(workload, sizes, seed, 0.0, 1))
    counts = verify_live(result, live)
    record_setup(result, workload, sizes, live)
    plan = live.prepared.plan
    observed = live.stream.first_passes
    latencies = [
        latency for window in live.windows for latency in window.latencies
    ]
    live_rate = harness.median(w.rate for w in live.windows)

    warm = live.prepared.warm
    plain_outcomes, plain_registries, plain = replay_in_process(
        plan, warm, sizes.jobs, None
    )
    tracer = Tracer()
    traced_outcomes, traced_registries, traced = replay_in_process(
        plan, warm, sizes.jobs, tracer
    )
    check_outcomes(result, "in-process replay", plain_outcomes, observed)
    check_outcomes(result, "traced replay", traced_outcomes, observed)
    result.check(
        exact_counts(traced_outcomes, traced_registries) == counts
        and exact_counts(plain_outcomes, plain_registries) == counts,
        "traced, untraced and live runs disagree on an exact count",
    )
    result.exact.update(counts)

    result.metrics.update(zeros)
    put_ledger(result, live, live_rate, counts)
    result.put(
        "request_latency_p90_ms", 1e3 * harness.percentile(latencies, 0.90)
    )
    requests = traced["requests"]
    per_req = {
        key: 1e6 * traced[key] / requests
        for key in ("decode", "execute", "encode")
    }
    live_us = 1e6 / live_rate
    in_process_us = sum(per_req.values())
    result.put("protocol.decode_us_per_req", per_req["decode"])
    result.put("protocol.encode_us_per_req", per_req["encode"])
    result.put("protocol.request_bytes_mean", traced["request_bytes"] / requests)
    result.put(
        "protocol.response_bytes_mean", traced["response_bytes"] / requests
    )
    result.put("shard.execute_us_per_req", per_req["execute"])
    batches = live.server_stats["batches"]
    # requests_served also counts the stats call itself; the warm-up's
    # requests and batches are part of both numbers.
    routed = live.server_stats["requests_served"] - 1
    result.put("server.batches", batches)
    result.put("server.batch_size_mean", routed / batches)
    result.put("server.wire_dispatch_us_per_req", live_us - in_process_us)
    result.put("server.wire_dispatch_share", 1.0 - in_process_us / live_us)
    result.put(
        "server.latency_p99_ms", 1e3 * harness.percentile(latencies, 0.99)
    )
    result.put("server.latency_max_ms", 1e3 * max(latencies))
    result.detail["live_us_per_req"] = live_us
    result.detail["in_process_us_per_req"] = in_process_us

    if sizes.jobs:
        roundtrip = pool_roundtrip_ms()
        result.put("parallel.roundtrip_ms", roundtrip)
        # Batches per request (over the server's life) times requests
        # per second: batches per second of live traffic.
        result.put(
            "parallel.roundtrip_share",
            roundtrip / 1e3 * batches / routed * live_rate,
        )
    for name, value in session_layer(plan).items():
        result.put(name, value)

    for kind in KINDS:
        row = counts["per_kind"][kind]
        result.put(f"gc.{kind}.mark_cons", row["traced"] / row["allocated"])
        result.put(f"gc.{kind}.collections", row["collections"])
        result.put(f"gc.{kind}.pause_words_max", row["pause_words_max"])
    result.put("plan.build_s", live.prepared.plan_build_s)
    result.put("trace.overhead_share", traced["wall"] / plain["wall"] - 1.0)

    tracer.dump(
        harness.OUT_DIR / f"trace-{workload}.json",
        workload=workload,
        seed=seed,
        note=(
            "in-process replay of the live plan in the server's call "
            "order; cid is the request id (null for a batch)"
        ),
    )
