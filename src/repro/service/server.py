"""The asyncio front door: GC-as-a-service over line-delimited JSON.

One :class:`HeapServer` hosts every tenant heap behind a TCP listener.
Connections are cheap multiplexers: any connection may carry requests
for any number of tenants (the per-request ``id`` correlates
responses), so a load generator can drive thousands of tenants over a
handful of sockets.

The data path is queue → batch → shard:

1. a connection handler decodes and validates each line; malformed
   requests are answered immediately with ``bad-request`` and never
   reach a shard;
2. valid tenant ops are appended to the owning shard's queue (stable
   hash routing via :func:`repro.service.shard.shard_of`) with a
   future for the response;
3. a single dispatcher task drains all queues into one batch per
   shard and hands them to the :class:`~repro.service.shard.ShardExecutor`
   in a worker thread (the executor blocks on process-pool fan-out;
   the event loop keeps accepting traffic meanwhile), then resolves
   the futures.

Because the dispatcher swaps whole queues, per-tenant request order is
preserved end to end: a closed-loop client that awaits each response
before sending the next op observes exactly the serial semantics the
isolation oracle demands.

Server ops (``ping``/``stats``/``metrics``/``shutdown``) are answered
by the parent directly.  Backpressure and heap exhaustion are ordinary
*responses* on this path — a shard at its tenant cap refuses ``open``
with its occupancy attached, an exhausted heap refuses ``alloc`` with
the per-space snapshot attached, and in neither case does any session
or connection die.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.metrics.export import to_prometheus
from repro.service.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    validate_request,
)
from repro.service.shard import ShardExecutor

__all__ = ["HeapServer"]

#: Largest accepted request line, in bytes.  Far above any legitimate
#: op, far below a memory-pressure vector.
MAX_LINE_BYTES = 1 << 20


class HeapServer:
    """The multi-tenant heap service (see module docstring)."""

    def __init__(
        self,
        *,
        shards: int = 2,
        jobs: int = 0,
        tenant_cap: int | None = None,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        self.executor = ShardExecutor(
            shards,
            jobs=jobs,
            tenant_cap=tenant_cap,
            timeout=timeout,
            retries=retries,
        )
        self._queues: list[list[tuple[dict, asyncio.Future]]] = [
            [] for _ in range(shards)
        ]
        self._kick = asyncio.Event()
        self._closing = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_closed(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) lands."""
        await self._closing.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting, answer what is queued, end every connection.

        Connection handlers are finished here rather than left to
        ``asyncio.run``'s cancel sweep, which logs one traceback per
        handler it has to cancel.
        """
        self._closing.set()
        if self._server is not None:
            self._server.close()
        if self._dispatcher is not None:
            self._kick.set()
            await self._dispatcher
            self._dispatcher = None
        # An idle handler sits in readline(); closing its transport
        # feeds it EOF, and it leaves through its own finally block.
        handlers = dict(self._handlers)
        for writer in handlers.values():
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while not self._closing.is_set():
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionResetError,
                ):
                    break
                # Nothing read after shutdown began is served: the
                # dispatcher may already be gone.
                if not line or self._closing.is_set():
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                writer.write(encode_line(response))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            del self._handlers[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        self.requests_served += 1
        try:
            payload = decode_line(line)
        except ProtocolError as exc:
            return error_response(None, exc.kind, exc.detail)
        request_id = payload.get("id")
        if isinstance(request_id, bool) or not isinstance(
            request_id, (int, str)
        ):
            request_id = None
        try:
            request = validate_request(payload)
        except ProtocolError as exc:
            return error_response(request_id, exc.kind, exc.detail)
        op = request["op"]
        if op == "ping":
            return ok_response(request["id"], pong=True)
        if op == "stats":
            return ok_response(request["id"], **self.stats())
        if op == "metrics":
            return self._metrics_response(request)
        if op == "shutdown":
            self._closing.set()
            self._kick.set()
            return ok_response(request["id"], closing=True)
        shard = self.executor.shard_of(request["tenant"])
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._queues[shard].append((request, future))
        self._kick.set()
        return await future

    def _metrics_response(self, request: dict) -> dict:
        registries = self.executor.merged_metrics()
        if request.get("format") == "prometheus":
            return ok_response(
                request["id"], prometheus=to_prometheus(registries)
            )
        return ok_response(
            request["id"],
            registries={
                registry.label: registry.to_jsonable()
                for registry in registries
            },
        )

    def stats(self) -> dict[str, Any]:
        snapshot = self.executor.stats()
        snapshot["requests_served"] = self.requests_served
        return snapshot

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._kick.wait()
            self._kick.clear()
            if any(self._queues):
                batches: dict[int, list[dict]] = {}
                futures: dict[int, list[asyncio.Future]] = {}
                for shard, queue in enumerate(self._queues):
                    if not queue:
                        continue
                    self._queues[shard] = []
                    batches[shard] = [request for request, _ in queue]
                    futures[shard] = [future for _, future in queue]
                try:
                    responses = await loop.run_in_executor(
                        None, self.executor.execute, batches
                    )
                except Exception as exc:  # keep the dispatcher alive
                    responses = {
                        shard: [
                            error_response(
                                request.get("id"),
                                "internal",
                                f"dispatch failed: "
                                f"{type(exc).__name__}: {exc}",
                            )
                            for request in ops
                        ]
                        for shard, ops in batches.items()
                    }
                for shard, shard_futures in futures.items():
                    shard_responses = responses.get(shard, [])
                    for future, response in zip(
                        shard_futures, shard_responses
                    ):
                        if not future.done():
                            future.set_result(response)
                    # Chaos pseudo-ops produce no response; a real
                    # request can only be left behind by a bug, and a
                    # hung client is worse than a structured error.
                    for future in shard_futures[len(shard_responses):]:
                        if not future.done():
                            future.set_result(
                                error_response(
                                    None,
                                    "shard-failed",
                                    "batch returned no response",
                                    shard=shard,
                                )
                            )
            elif self._closing.is_set():
                return
            if self._closing.is_set() and not any(self._queues):
                return
