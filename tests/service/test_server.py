"""The asyncio front door: sockets, multiplexing, server ops, shutdown."""

from __future__ import annotations

import asyncio
import json
import logging
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import server as server_module
from repro.service import shard as shard_module
from repro.service.loadgen import (
    TenantOutcome,
    _Connection,
    build_plan,
    run_load,
    run_load_inline,
)
from repro.service.protocol import PROTOCOL_VERSION, encode_line
from repro.service.report import build_scale_report, deterministic_rows
from repro.service.server import MAX_IN_FLIGHT, HeapServer
from repro.service.shard import ShardExecutor, shard_of

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **server_kwargs):
    server = HeapServer(**server_kwargs)
    port = await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    connection = _Connection(reader, writer)
    try:
        return await body(server, port, connection)
    finally:
        await connection.close()
        await server.close()


def _req(op: str, request_id, **payload) -> dict:
    request = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
    request.update(payload)
    return request


def _line(op: str, request_id, **payload) -> bytes:
    return encode_line(_req(op, request_id, **payload))


def _hold_batches(server: HeapServer) -> asyncio.Event:
    """Park every batch at the dispatcher, queues already swapped out,
    until the returned event is set, so a test decides what is in
    flight and for how long.  (Blocking inside the executor
    would park the whole loop: it runs on the loop thread.  A pool
    test can hold a batch in its worker instead: ``_HeldInWorker``.)"""
    release = asyncio.Event()
    execute = server._execute

    async def held(taken):
        await asyncio.wait_for(release.wait(), 30)
        return await execute(taken)

    server._execute = held
    return release


def _unread_socket(port: int) -> socket.socket:
    """A raw client socket for a test that does not read: nothing is
    taken off it behind the test's back, and its small receive buffer
    lets unread responses push the server's transport over its
    high-water mark."""
    client = socket.socket()
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    client.connect(("127.0.0.1", port))
    client.setblocking(False)
    return client


async def _read_responses(reader: asyncio.StreamReader, count: int) -> list:
    return [json.loads(await reader.readline()) for _ in range(count)]


async def _eventually(condition):
    """Poll until ``condition()`` is truthy; returns its value."""
    for _ in range(2000):
        value = condition()
        if value:
            return value
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


def test_ping_stats_and_metrics():
    async def body(server, port, connection):
        pong = await connection.request(_req("ping", 1))
        assert pong["ok"] and pong["pong"] is True

        await connection.request(
            _req("open", 2, tenant="t0", kind="mark-sweep")
        )
        stats = await connection.request(_req("stats", 3))
        assert stats["shards"] == 2
        assert sum(stats["open_tenants"]) == 1
        assert stats["requests_served"] >= 3

        metrics = await connection.request(_req("metrics", 4))
        assert "service" in metrics["registries"]

        prometheus = await connection.request(
            _req("metrics", 5, format="prometheus")
        )
        assert "requests" in prometheus["prometheus"]

    _run(_with_server(body, shards=2))


def test_full_tenant_lifecycle_over_socket():
    async def body(server, port, connection):
        assert (
            await connection.request(
                _req("open", 0, tenant="t", kind="generational")
            )
        )["ok"]
        for uid in range(3):
            response = await connection.request(
                _req("alloc", uid + 1, tenant="t", uid=uid, size=2, fields=1)
            )
            assert response["ok"]
        assert (
            await connection.request(
                _req("write", 4, tenant="t", src=0, slot=0, dst=1)
            )
        )["ok"]
        checkpoint = await connection.request(
            _req("checkpoint", 5, tenant="t")
        )
        assert checkpoint["live_words"] == 6
        assert checkpoint["objects"] == 3
        read = await connection.request(_req("read", 6, tenant="t", uid=0))
        assert read["fields"] == [1]
        closed = await connection.request(_req("close", 7, tenant="t"))
        assert closed["ok"]
        assert closed["final"]["digest"] == checkpoint["digest"]

    _run(_with_server(body, shards=2))


def test_malformed_lines_answered_not_fatal():
    async def body(server, port, connection):
        # Raw garbage on the same socket the connection multiplexes;
        # responses without a known id are dropped by the client, so
        # probe via a follow-up ping that must still be answered.
        connection.writer.write(b"this is not json\n")
        connection.writer.write(b'{"v":99,"id":1,"op":"ping"}\n')
        connection.writer.write(b'{"v":1,"id":2,"op":"teleport"}\n')
        await connection.writer.drain()
        pong = await connection.request(_req("ping", 3))
        assert pong["ok"]

    _run(_with_server(body))


def test_bad_request_error_shape_on_raw_socket():
    async def body():
        server = HeapServer()
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"not json\n")
        await writer.drain()
        response = json.loads(await reader.readline())
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["kind"] == "bad-request"

        writer.write(b'{"v":1,"id":7,"op":"warp","tenant":"t"}\n')
        await writer.drain()
        response = json.loads(await reader.readline())
        assert response["id"] == 7
        assert response["error"]["kind"] == "bad-request"
        writer.close()
        await writer.wait_closed()
        await server.close()

    _run(body())


def test_one_connection_multiplexes_many_tenants():
    async def body(server, port, connection):
        tenants = [f"t{i}" for i in range(6)]
        await asyncio.gather(
            *(
                connection.request(
                    _req("open", f"{tenant}:open", tenant=tenant)
                )
                for tenant in tenants
            )
        )

        async def mutate(tenant):
            for uid in range(4):
                response = await connection.request(
                    _req(
                        "alloc",
                        f"{tenant}:a{uid}",
                        tenant=tenant,
                        uid=uid,
                        size=2,
                        fields=0,
                    )
                )
                assert response["ok"]
            return await connection.request(
                _req("checkpoint", f"{tenant}:c", tenant=tenant)
            )

        checkpoints = await asyncio.gather(
            *(mutate(tenant) for tenant in tenants)
        )
        digests = {c["digest"] for c in checkpoints}
        assert len(digests) == 1  # identical workloads, identical heaps
        assert all(c["live_words"] == 8 for c in checkpoints)

    _run(_with_server(body, shards=2))


def test_shutdown_op_unblocks_serve_until_closed():
    async def body():
        server = HeapServer()
        port = await server.start()
        serve_task = asyncio.create_task(server.serve_until_closed())
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection = _Connection(reader, writer)
        response = await connection.request(_req("shutdown", 1))
        assert response["closing"] is True
        await asyncio.wait_for(serve_task, timeout=5)
        await connection.close()

    _run(body())


def test_shutdown_with_idle_connections_logs_nothing(caplog):
    """close() ends idle connection handlers itself; leaving them to
    asyncio.run's cancel sweep logs one traceback per connection.  A
    connection with requests in flight gets every response before its
    socket closes."""
    idle: list[socket.socket] = []
    in_flight = 20

    async def body():
        server = HeapServer()
        port = await server.start()
        release = _hold_batches(server)
        serve_task = asyncio.create_task(server.serve_until_closed())
        for _ in range(3):
            idle.append(socket.create_connection(("127.0.0.1", port)))
        busy_reader, busy_writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        busy_writer.write(
            _line("open", "open", tenant="busy")
            + b"".join(
                _line("alloc", uid, tenant="busy", uid=uid, size=2, fields=0)
                for uid in range(in_flight)
            )
            + _line("ping", "accepted")
        )
        # The ping is answered in place once the lines before it are
        # queued; their batch is held in the executor.
        assert (await _read_responses(busy_reader, 1))[0]["pong"]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection = _Connection(reader, writer)
        # One round trip, so the idle handlers are parked in readline().
        assert (await connection.request(_req("ping", 0)))["pong"]
        response = await connection.request(_req("shutdown", 1))
        assert response["closing"] is True
        release.set()
        await asyncio.wait_for(serve_task, timeout=5)
        answered = await _read_responses(busy_reader, in_flight + 1)
        assert [r["id"] for r in answered] == ["open", *range(in_flight)]
        assert all(r["ok"] for r in answered)
        assert await busy_reader.readline() == b""
        assert server._handlers == {}
        busy_writer.close()
        await connection.close()

    try:
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            _run(body())
        # The server hung up on every idle client.
        assert [client.recv(1) for client in idle] == [b""] * 3
    finally:
        for client in idle:
            client.close()
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


@pytest.mark.parametrize(
    "requests", [1, 20], ids=["one-response", "responses-still-buffered"]
)
def test_hang_up_sends_fin_while_a_forked_child_holds_the_socket(requests):
    """A forked child inherits every open socket, and closing the
    server's descriptor sends no FIN while the child lives.  Here the
    server is inline and a concurrent tenant's marker pool is that
    child, holding the socket of a connection opened before it forked:
    the connection's client sends FIN and must read every response and
    then EOF — also when the server still has responses buffered for
    it as it hangs up."""

    async def body(server, port, connection):
        loop = asyncio.get_running_loop()
        client = _unread_socket(port)
        try:
            (peer,) = await _eventually(
                lambda: [
                    p
                    for p in server._handlers.values()
                    if p.writer.get_extra_info("peername")
                    == client.getsockname()
                ]
            )
            # Small kernel buffers leave responses in the transport.
            peer.writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            opened = await connection.request(
                _req("open", 0, tenant="t", kind="concurrent",
                     geometry={"marker_workers": 1})
            )
            assert opened["ok"]
            assert (await connection.request(_req("collect", 1, tenant="t")))[
                "ok"
            ]
            await loop.sock_sendall(
                client,
                b"".join(
                    _line("metrics", index, format="prometheus")
                    for index in range(requests)
                ),
            )
            client.shutdown(socket.SHUT_WR)
            received = bytearray()

            async def read_to_eof():
                while chunk := await loop.sock_recv(client, 1 << 16):
                    received.extend(chunk)

            await asyncio.wait_for(read_to_eof(), 5)
        finally:
            client.close()
        answered = [json.loads(line) for line in received.splitlines()]
        assert [r["id"] for r in answered] == list(range(requests))

    _run(asyncio.wait_for(_with_server(body), 60))


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    # "pid (comm) state ...": comm may itself hold ") ".
    return stat.rpartition(")")[2].split()[0] != "Z"


def _children(pid: int) -> set[int]:
    """The running processes whose parent is ``pid``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.add(int(entry.name))
    return found


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_pool_workers_exit_when_their_server_is_killed():
    """``kill -9`` runs no cleanup in the server, so nothing tells its
    idle pool workers to stop: they must see that their parent is gone
    and exit by themselves."""
    tenants = [f"t{index}" for index in range(8)]
    assert {shard_of(tenant, 2) for tenant in tenants} == {0, 1}
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--shards", "2", "--jobs", "2", "--port", "0",
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=60) as client:
            client.sendall(
                b"".join(_line("open", tenant, tenant=tenant) for tenant in tenants)
            )
            replies = client.makefile("rb")
            answered = [json.loads(replies.readline()) for _ in tenants]
        assert all(response["ok"] for response in answered)
        workers = _children(server.pid)
        assert len(workers) == 1
    finally:
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        server.stdout.close()
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in workers if _alive(pid)]


def test_disconnect_with_requests_in_flight(caplog, monkeypatch):
    """A client that resets its connection with requests queued: they
    still execute and commit, the responses are dropped without a
    write to the dead transport, and the handler finishes."""
    # asyncio warns about writes to a lost connection only from the
    # fifth on; make the first one count.
    monkeypatch.setattr(
        asyncio.constants, "LOG_THRESHOLD_FOR_CONNLOST_WRITES", 1
    )
    allocs = 12

    async def body(server, port, connection):
        release = _hold_batches(server)
        gone = socket.create_connection(("127.0.0.1", port))
        gone.sendall(
            _line("open", 0, tenant="gone")
            + b"".join(
                _line("alloc", uid + 1, tenant="gone", uid=uid, size=2,
                      fields=0)
                for uid in range(allocs)
            )
        )
        await _eventually(
            lambda: sum(p.in_flight for p in server._handlers.values())
            == allocs + 1
        )
        # SO_LINGER 0: close() sends RST, the server's read fails.
        gone.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        gone.close()
        await _eventually(
            lambda: any(
                p.writer.transport.is_closing()
                for p in server._handlers.values()
            )
        )
        # The reader waits for its window to empty before it leaves.
        assert len(server._handlers) == 2
        release.set()
        await _eventually(lambda: len(server._handlers) == 1)
        checkpoint = await connection.request(
            _req("checkpoint", "c", tenant="gone")
        )
        assert checkpoint["objects"] == allocs
        assert checkpoint["live_words"] == 2 * allocs

    with caplog.at_level(logging.WARNING, logger="asyncio"):
        _run(asyncio.wait_for(_with_server(body), 30))
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


# ----------------------------------------------------------------------
# The pipelined request path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [0, 2])
def test_pipelined_tenants_on_one_connection_match_serial_runs(jobs):
    """24 tenants write their whole scripts up front on ONE socket:
    per tenant, responses come back in request order and every digest
    equals the serial reference."""
    plan = build_plan(24, seed=3, ops_per_tenant=40)
    position_of = {
        request["id"]: (index, position)
        for index, tenant_plan in enumerate(plan.plans)
        for position, request in enumerate(tenant_plan.requests)
    }

    async def body():
        server = HeapServer(shards=2, jobs=jobs)
        port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                b"".join(
                    encode_line(request)
                    for tenant_plan in plan.plans
                    for request in tenant_plan.requests
                )
            )
            responses = await _read_responses(reader, plan.request_count)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return responses

    responses = _run(asyncio.wait_for(body(), 120))
    outcomes = [
        TenantOutcome(p.tenant, p.kind, p.backend, p.profile)
        for p in plan.plans
    ]
    arrived: list[list[int]] = [[] for _ in plan.plans]
    for response in responses:
        index, position = position_of[response["id"]]
        arrived[index].append(position)
        outcomes[index].record(
            plan.plans[index].requests[position], response
        )
    for tenant_plan, positions in zip(plan.plans, arrived):
        assert positions == list(range(len(tenant_plan.requests)))

    serial = run_load_inline(plan, ShardExecutor(2, jobs=0))
    for outcome, reference in zip(outcomes, serial.outcomes):
        assert outcome.errors == {}
        assert outcome.checkpoints == reference.checkpoints
        assert outcome.close["final"] == reference.close["final"]


def test_one_write_of_many_tenants_is_a_few_batches():
    """Structure, not timing: what arrives together is dispatched
    together.  A handler that awaits each response needs 32 batches."""
    tenants = 32

    async def body():
        server = HeapServer(shards=2)
        port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                b"".join(
                    _line("open", index, tenant=f"t{index}")
                    for index in range(tenants)
                )
            )
            responses = await _read_responses(reader, tenants)
            writer.write(_line("stats", "stats"))
            (stats,) = await _read_responses(reader, 1)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return responses, stats

    responses, stats = _run(asyncio.wait_for(body(), 30))
    assert sorted(r["id"] for r in responses) == list(range(tenants))
    assert all(r["ok"] for r in responses)
    assert sum(stats["open_tenants"]) == tenants
    assert stats["batches"] <= 4


def test_inline_server_is_one_thread():
    """Inline batches run on the loop thread: serving them starts no
    thread (the default executor's workers would stay alive)."""
    ran_on: list[threading.Thread] = []

    async def body(server, port, connection):
        execute = server.executor.execute

        def recording(batches):
            ran_on.append(threading.current_thread())
            return execute(batches)

        server.executor.execute = recording
        threads = threading.active_count()
        assert (await connection.request(_req("open", 0, tenant="t")))["ok"]
        for uid in range(5):
            response = await connection.request(
                _req("alloc", uid + 1, tenant="t", uid=uid, size=2, fields=0)
            )
            assert response["ok"]
        assert threading.active_count() == threads

    _run(asyncio.wait_for(_with_server(body, jobs=0), 30))
    assert len(ran_on) == 6
    assert set(ran_on) == {threading.main_thread()}


class _HeldInWorker:
    """Pool workers forked from now on stop in the middle of their
    first batch that carries a request of ``tenant``, until
    :meth:`release`: a batch held in a worker, with nothing patched in
    the server or its executor."""

    def __init__(self, monkeypatch, tenant: str) -> None:
        self._entered_r, entered_w = os.pipe()
        release_r, self._release_w = os.pipe()
        self._fds = [self._entered_r, entered_w, release_r, self._release_w]
        run_shard_batch = shard_module.run_shard_batch
        holding = [True]

        def held(item, attempt=0):
            if holding[0] and any(
                request.get("tenant") == tenant for request in item["ops"]
            ):
                holding[0] = False
                os.write(entered_w, b"e")
                os.read(release_r, 1)
            return run_shard_batch(item, attempt)

        monkeypatch.setattr(shard_module, "run_shard_batch", held)

    def entered(self) -> bool:
        return bool(select.select([self._entered_r], [], [], 0)[0])

    def release(self) -> None:
        os.write(self._release_w, b"r")

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)


def test_pool_server_answers_in_place_while_a_batch_is_in_the_pool(
    monkeypatch,
):
    """A batch held in the worker holds the dispatcher, not the loop:
    the loop goes on reading and answering meanwhile."""
    held = _HeldInWorker(monkeypatch, "t")

    async def body(server, port, connection):
        opening = asyncio.create_task(
            connection.request(_req("open", 0, tenant="t"))
        )
        try:
            await _eventually(held.entered)
            assert (await connection.request(_req("ping", 1)))["pong"]
            assert not opening.done()
        finally:
            held.release()
        assert (await opening)["ok"]

    try:
        _run(asyncio.wait_for(_with_server(body, jobs=2), 60))
    finally:
        held.close()


def test_pool_server_is_one_thread():
    """Pool batches are sent, awaited and delivered on the loop thread:
    serving them starts no thread (an executor thread would stay
    alive), and one dispatcher sends them, one at a time, whichever
    shards they carry."""
    in_flight = most = 0

    async def body(server, port, connection):
        execute_lane = server.executor.execute_lane

        async def counted(batches):
            nonlocal in_flight, most
            in_flight += 1
            most = max(most, in_flight)
            try:
                return await execute_lane(batches)
            finally:
                in_flight -= 1

        server.executor.execute_lane = counted
        threads = threading.active_count()
        tenants = [f"t{index}" for index in range(8)]
        assert {server.executor.shard_of(t) for t in tenants} == {0, 1}
        opened = await asyncio.gather(
            *(
                connection.request(_req("open", t, tenant=t))
                for t in tenants
            )
        )
        assert all(response["ok"] for response in opened)
        for uid in range(5):
            answered = await asyncio.gather(
                *(
                    connection.request(
                        _req("alloc", f"{t}:{uid}", tenant=t, uid=uid,
                             size=2, fields=0)
                    )
                    for t in tenants
                )
            )
            assert all(response["ok"] for response in answered)
        assert (await connection.request(_req("metrics", "m")))["ok"]
        assert threading.active_count() == threads
        return server.stats()

    stats = _run(asyncio.wait_for(_with_server(body, jobs=2), 60))
    # Each of the six rounds is at least one dispatch, and no two
    # dispatches ever overlap.
    assert stats["batches"] >= 6
    assert most == 1


def test_metrics_waits_for_the_lanes_not_the_server(monkeypatch):
    """A pool-mode ``metrics`` op waits for the batch held in the worker
    and then for the commit point, but on the loop: another
    connection's ``ping`` is answered first, and the registries count
    the held batch's requests."""
    held = _HeldInWorker(monkeypatch, "t")

    async def body(server, port, connection):
        other = _Connection(*await asyncio.open_connection("127.0.0.1", port))
        try:
            opening = asyncio.create_task(
                connection.request(_req("open", 0, tenant="t"))
            )
            await _eventually(held.entered)
            metrics = asyncio.create_task(
                connection.request(_req("metrics", 1))
            )
            prometheus = asyncio.create_task(
                connection.request(_req("metrics", 2, format="prometheus"))
            )
            await _eventually(lambda: len(server._reads) == 2)
            assert (await other.request(_req("ping", 3)))["pong"]
            assert not (opening.done() or metrics.done() or prometheus.done())
            held.release()
            assert (await opening)["ok"]
            service = (await metrics)["registries"]["service"]["metrics"]
            assert service["requests.open"]["value"] == 1
            assert service["tenants_opened"]["value"] == 1
            assert (
                'repro_gc_tenants_opened_total{collector="service"} 1'
                in (await prometheus)["prometheus"]
            )
        finally:
            held.release()
            await other.close()

    try:
        _run(asyncio.wait_for(_with_server(body, shards=2, jobs=2), 60))
    finally:
        held.close()


def test_flooding_client_is_held_to_its_window():
    """A client that writes ten windows of requests and reads nothing
    never has more than one window queued; other connections are
    served meanwhile; when it finally reads, every response is there
    exactly once."""
    total = 10 * MAX_IN_FLIGHT

    async def body(server, port, connection):
        loop = asyncio.get_running_loop()
        release = _hold_batches(server)
        flooder = _unread_socket(port)
        try:
            await loop.sock_sendall(
                flooder,
                _line("open", 0, tenant="flood")
                + _line("alloc", 1, tenant="flood", uid=0, size=2, fields=0)
                + b"".join(
                    _line("read", index, tenant="flood", uid=0)
                    for index in range(2, total)
                ),
            )

            def queued() -> int:
                return max(p.in_flight for p in server._handlers.values())

            await _eventually(lambda: queued() == MAX_IN_FLIGHT)
            for _ in range(20):
                await asyncio.sleep(0.005)
                assert queued() == MAX_IN_FLIGHT
            assert sum(map(len, server._queues)) <= MAX_IN_FLIGHT
            assert (await connection.request(_req("ping", "p")))["pong"]

            observed = 0

            async def watch():
                nonlocal observed
                while True:
                    observed = max(observed, queued())
                    await asyncio.sleep(0)

            watcher = asyncio.create_task(watch())
            release.set()
            # Let the server run into the unread socket before reading.
            await asyncio.sleep(0.2)
            assert (await connection.request(_req("ping", "q")))["pong"]
            received = bytearray()
            while received.count(b"\n") < total:
                chunk = await loop.sock_recv(flooder, 1 << 16)
                assert chunk, "server closed the flooding connection"
                received += chunk
            watcher.cancel()
            assert observed <= MAX_IN_FLIGHT
        finally:
            flooder.close()
        responses = [json.loads(line) for line in received.splitlines()]
        assert [r["id"] for r in responses] == list(range(total))
        assert all(r["ok"] for r in responses)

    _run(asyncio.wait_for(_with_server(body), 60))


def test_close_cuts_off_a_client_that_never_reads(monkeypatch):
    """A transport flushes before it closes; a client that never reads
    would keep close() waiting for ever."""
    monkeypatch.setattr(server_module, "CLOSE_GRACE_S", 0.2)

    async def body():
        server = HeapServer()
        port = await server.start()
        loop = asyncio.get_running_loop()
        deaf = _unread_socket(port)
        flood = asyncio.create_task(
            loop.sock_sendall(deaf, _line("metrics", 0) * 100_000)
        )
        try:
            (peer,) = await _eventually(lambda: server._handlers.values())
            transport = peer.writer.transport
            await _eventually(
                lambda: transport.get_write_buffer_size()
                > transport.get_write_buffer_limits()[1]
            )
            await server.close()
            assert server._handlers == {}
        finally:
            flood.cancel()
            deaf.close()

    _run(asyncio.wait_for(body(), 30))


def test_malformed_lines_in_a_pipelined_burst():
    """Bad lines are answered in place, ahead of the queued ops around
    them, and those ops keep their ids and their order."""

    async def body(server, port, connection):
        release = _hold_batches(server)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            _line("open", "o", tenant="t")
            + _line("alloc", "a0", tenant="t", uid=0, size=2, fields=0)
            + b"this is not json\n"
            + _line("alloc", "a1", tenant="t", uid=1, size=2, fields=0)
            + _line("warp", "bad-op", tenant="t")
            + _line("alloc", "a1-again", tenant="t", uid=1, size=2, fields=0)
            + _line("checkpoint", "c", tenant="t")
        )
        rejected = await _read_responses(reader, 2)
        assert [r["id"] for r in rejected] == [None, "bad-op"]
        assert [r["error"]["kind"] for r in rejected] == ["bad-request"] * 2
        release.set()
        served = await _read_responses(reader, 5)
        assert [r["id"] for r in served] == ["o", "a0", "a1", "a1-again", "c"]
        assert [r["ok"] for r in served] == [True, True, True, False, True]
        assert served[-1]["objects"] == 2
        writer.close()
        await writer.wait_closed()

    _run(asyncio.wait_for(_with_server(body), 30))


def test_socket_load_run_matches_inline_reference():
    """The whole stack end to end: run_load over TCP produces the same
    deterministic scale-report rows as the inline executor."""
    plan = build_plan(8, seed=0, ops_per_tenant=60)

    async def over_socket():
        server = HeapServer(shards=2)
        port = await server.start()
        try:
            result = await run_load(
                plan, "127.0.0.1", port, connections=3
            )
        finally:
            await server.close()
        return result

    socket_result = _run(over_socket())
    assert socket_result.error_total == 0
    assert socket_result.requests_sent == plan.request_count
    assert socket_result.server_stats is not None
    assert socket_result.metrics is not None

    from repro.service.shard import ShardExecutor

    executor = ShardExecutor(2, jobs=0)
    inline_result = run_load_inline(plan, executor)
    socket_rows = deterministic_rows(
        build_scale_report(plan, socket_result, mode="socket")
    )
    inline_rows = deterministic_rows(
        build_scale_report(
            plan, inline_result, executor.merged_metrics(), mode="inline"
        )
    )
    assert socket_rows == inline_rows
