"""The asyncio front door: sockets, multiplexing, server ops, shutdown."""

from __future__ import annotations

import asyncio
import json
import logging
import socket

from repro.service.loadgen import (
    _Connection,
    build_plan,
    run_load,
    run_load_inline,
)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.report import build_scale_report, deterministic_rows
from repro.service.server import HeapServer


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
    asyncio.run's cancel sweep logs one traceback per connection."""
    idle: list[socket.socket] = []

    async def body():
        server = HeapServer()
        port = await server.start()
        serve_task = asyncio.create_task(server.serve_until_closed())
        for _ in range(3):
            idle.append(socket.create_connection(("127.0.0.1", port)))
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection = _Connection(reader, writer)
        # One round trip, so the idle handlers are parked in readline().
        assert (await connection.request(_req("ping", 0)))["pong"]
        response = await connection.request(_req("shutdown", 1))
        assert response["closing"] is True
        await asyncio.wait_for(serve_task, timeout=5)
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
