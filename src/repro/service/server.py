"""The asyncio front door: GC-as-a-service over line-delimited JSON.

One :class:`HeapServer` hosts every tenant heap behind a TCP listener.
Connections are cheap multiplexers: any connection may carry requests
for any number of tenants, so a load generator can drive thousands of
tenants over a handful of sockets.

The data path is pipelined — read → queue → batch → shard → write — and
nothing on it waits for a response before taking the next request:

1. a connection's reader takes whatever the socket has, splits it into
   lines once, and decodes, validates and routes each line without an
   ``await`` in between.  Malformed requests are answered in place
   with ``bad-request`` and never reach a shard; server ops
   (``ping``/``stats``/``shutdown``, and ``metrics`` inline) are
   answered in place by the parent;
2. a valid tenant op is appended, with its connection, to the owning
   shard's queue (stable hash routing via
   :func:`repro.service.shard.shard_of`), and the dispatcher is
   kicked;
3. the one dispatcher task lets every reader that has data take its
   turn, swaps the shards' queues out as one batch per shard and hands
   them to :meth:`~repro.service.shard.ShardExecutor.execute_lane`,
   then encodes the responses and issues one ``write`` per connection
   per batch.

Everything happens on the event-loop thread; the whole server is one
thread in either mode.  Inline (``--jobs 0``) the executor applies the
batch in this process, on the loop thread: the work is CPU-bound
Python, so a worker thread would buy no parallelism under the
interpreter lock and cost two hand-offs a batch plus a fight for the
lock on every ``recv``/``send``.  While a batch executes the kernel
buffers what the clients send, and the next batch is everything that
arrived meanwhile.  With a pool (``--jobs N``, any ``N >= 1``) one
pinned worker process holds every shard: the dispatcher sends the batch
down the worker's pipe and awaits the reply, which the loop notices by
watching the pipe, so the readers keep reading, queueing and answering
in place meanwhile.  A slow or lost worker, and the rebuild, replay and
retry that follow, hold up every shard's tenants until the task timeout
and the retry settle it.  A pool-mode ``metrics`` op waits for the
batch in flight and for the commit point that follows, on the loop as
well: it counts as one of its connection's requests in flight, and
every other connection is served meanwhile.

So what is in flight is bounded per tenant by the client, not per
socket by the server: a connection that multiplexes fourteen
closed-loop tenants has fourteen requests in a batch, not one.

**Ordering.**  Requests of one tenant that arrive on one connection
are applied, and answered, in arrival order: the reader is sequential,
a shard queue is FIFO, a batch is applied in order and its responses
are written in batch order.  A client may therefore write a tenant's
whole script without awaiting anything and observes exactly the serial
semantics the isolation oracle demands.  Responses of *different*
tenants on one connection may arrive in any order; match them by
``id``, which is what the correlation id is for.  Responses answered
in place (server ops, ``bad-request``) may overtake queued tenant ops
— but only queued ones: in pool mode they also overtake the batches
that are executing, inline no line is read while a batch executes, so
an in-place answer cannot overtake it.  A pool-mode ``metrics`` answer
comes after every batch dispatched before it was read.

**Backpressure.**  A connection may have :data:`MAX_IN_FLIGHT`
requests queued or executing; its reader accepts no further line while
that window is full, and reads (and answers in place) nothing while
the transport's write buffer is above its high-water mark, so a client
that floods, or never reads its responses, costs bounded memory and
stalls only itself.  The window is a constant, not an option: it only
has to stay above what one connection's tenants put into a batch (a
batch is whatever arrived while the previous one ran), and no caller
has a reason to want a different bound.

A client that goes away with requests in flight loses only the
responses: what was queued still executes and commits, and the reader
closes the socket once its window has emptied.  Shutdown answers
everything queued before any socket closes, then gives each connection
:data:`CLOSE_GRACE_S` to take its responses.  Admission refusal and
heap exhaustion are ordinary *responses* on this path — a shard at its
tenant cap refuses ``open`` with its occupancy attached, an exhausted
heap refuses ``alloc`` with the per-space snapshot attached, and in
neither case does any session or connection die.
"""

from __future__ import annotations

import asyncio
import socket
import sys
from typing import Any

from repro.metrics.export import to_prometheus
from repro.metrics.registry import MetricRegistry
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

#: Most requests one connection may have queued or executing before its
#: reader stops reading (see *Backpressure* in the module docstring).
MAX_IN_FLIGHT = 256

#: How long :meth:`HeapServer.close` lets a connection take its unread
#: responses before it is cut off.
CLOSE_GRACE_S = 5.0


def _hang_up(writer: asyncio.StreamWriter, *, abort: bool = False) -> None:
    """End a connection so that its client reads EOF.

    A forked child — a pool worker, a concurrent tenant's marker —
    inherits every socket open at the fork, and closing this process's
    descriptor sends no FIN while a copy lives.  ``shutdown`` acts on
    the connection, not the descriptor: a close first shuts down the
    sending side (``write_eof``), an abort both sides.  ``write_eof``
    on a transport with output still buffered only marks it, and a
    close that then flushes the buffer skips the shutdown, so a caller
    that can have output buffered drains it first.
    """
    transport = writer.transport
    try:
        if abort:
            transport.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
        else:
            writer.write_eof()
    except OSError:  # the client is already gone
        pass
    if abort:
        transport.abort()
    else:
        writer.close()


class _Peer:
    """One connection as the dispatcher sees it: where a response goes
    and how many the connection is still owed."""

    __slots__ = ("writer", "in_flight", "_delivered")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.in_flight = 0
        self._delivered = asyncio.Event()

    def deliver(self, lines: list[bytes]) -> None:
        """One batch's responses for this connection, in batch order."""
        self.in_flight -= len(lines)
        # A client that has gone away loses its responses; writing to
        # the dead transport would only log a warning per batch.
        if not self.writer.transport.is_closing():
            self.writer.write(b"".join(lines))
        self._delivered.set()

    async def wait_below(self, limit: int) -> None:
        """Return once fewer than ``limit`` requests are in flight."""
        while self.in_flight >= limit:
            self._delivered.clear()
            await self._delivered.wait()


class HeapServer:
    """The multi-tenant heap service (see module docstring)."""

    def __init__(
        self,
        *,
        shards: int = 2,
        jobs: int = 0,
        tenant_cap: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        self.executor = ShardExecutor(
            shards,
            jobs=jobs,
            tenant_cap=tenant_cap,
            timeout=timeout,
            retries=retries,
        )
        self._queues: list[list[tuple[dict, _Peer]]] = [
            [] for _ in range(shards)
        ]
        self._kick = asyncio.Event()
        self._closing = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._handlers: dict[asyncio.Task, _Peer] = {}
        # ``metrics`` ops waiting for the executor (pool mode).
        self._reads: set[asyncio.Task] = set()
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
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
        self._kick.set()
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            await dispatcher
        while self._reads:
            await asyncio.gather(*self._reads)
        # Every response is written by now and no batch runs again:
        # the workers go before any connection is hung up.  The final
        # commit round blocks the loop, which has nothing left to serve.
        self.executor.close()
        # An idle handler sits in read(); closing its transport feeds
        # it EOF, and it leaves through its own finally block.
        handlers = dict(self._handlers)
        for peer in handlers.values():
            _hang_up(peer.writer)
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=CLOSE_GRACE_S)
            # A transport flushes before it closes, and a client that
            # never reads never lets it: only an abort ends that one.
            for task in stuck:
                _hang_up(handlers[task].writer, abort=True)
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
        peer = self._handlers[task] = _Peer(writer)
        try:
            try:
                await self._read_requests(reader, peer)
            except OSError:  # dead peer
                pass
            # What was accepted still executes; its responses go out
            # (or are dropped, if the client is gone) before the close.
            await peer.wait_below(1)
        finally:
            del self._handlers[task]
            # drain() returns once the buffer is empty, so the hang-up's
            # shutdown is not skipped (see _hang_up).
            writer.transport.set_write_buffer_limits(0)
            try:
                await writer.drain()
            except OSError:
                pass
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_requests(
        self, reader: asyncio.StreamReader, peer: _Peer
    ) -> None:
        """Accept lines until EOF, shutdown or an oversized line.

        One read is split into lines once, and a line that is queued
        costs no ``await``: the reader suspends only for more data, for
        a full window, or behind a response it wrote in place.
        """
        writer = peer.writer
        tail = bytearray()  # the unterminated end of what has been read
        at_eof = False
        while not at_eof:
            await writer.drain()
            chunk = await reader.read(1 << 16)
            if b"\n" in chunk:
                *lines, rest = (bytes(tail) + chunk).split(b"\n")
                tail = bytearray(rest)
            elif chunk:
                tail += chunk
                if len(tail) > MAX_LINE_BYTES:
                    return
                continue
            else:  # FIN: an unterminated last line is still a request
                lines = [bytes(tail)]
                at_eof = True
            for line in lines:
                if len(line) > MAX_LINE_BYTES:
                    return
                if not line.strip():
                    continue
                if peer.in_flight >= MAX_IN_FLIGHT:
                    await peer.wait_below(MAX_IN_FLIGHT)
                    await writer.drain()
                # Nothing read after shutdown began is served: the
                # dispatcher may already be gone.
                if self._closing.is_set():
                    return
                response = self._accept(line, peer)
                if response is not None:
                    writer.write(encode_line(response))
                    # A deaf client that floods server ops is held by
                    # the high-water mark, not by the window.
                    await writer.drain()

    def _accept(self, line: bytes, peer: _Peer) -> dict | None:
        """Decode, validate and route one line.  Returns the response
        if the line is answered in place, ``None`` if it was queued."""
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
            if self.executor.inline:
                # No batch is executing while a reader runs.
                return self._metrics_response(
                    request, self.executor.merged_metrics()
                )
            peer.in_flight += 1
            read = asyncio.create_task(self._answer_metrics(request, peer))
            self._reads.add(read)
            read.add_done_callback(self._reads.discard)
            return None
        if op == "shutdown":
            self._closing.set()
            self._kick.set()
            return ok_response(request["id"], closing=True)
        shard = self.executor.shard_of(request["tenant"])
        self._queues[shard].append((request, peer))
        peer.in_flight += 1
        self._kick.set()
        return None

    async def _answer_metrics(self, request: dict, peer: _Peer) -> None:
        """A pool-mode ``metrics`` op: it waits for the batch in flight
        and awaits the commit point, while the loop serves every other
        connection.  It is one of its connection's requests in
        flight, so the connection (and ``close``) waits for it."""
        try:
            response = self._metrics_response(
                request, await self.executor.lane_metrics()
            )
        except Exception as exc:
            response = error_response(
                request["id"],
                "internal",
                f"metrics failed: {type(exc).__name__}: {exc}",
            )
        peer.deliver([encode_line(response)])

    @staticmethod
    def _metrics_response(
        request: dict, registries: list[MetricRegistry]
    ) -> dict:
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
        """The executor's occupancy snapshot and the lines served.

        Read on the loop thread, which is the only thread that touches
        the executor's ledgers, so the snapshot never races a batch.
        ``batches`` counts dispatches.
        """
        snapshot = self.executor.stats()
        snapshot["requests_served"] = self.requests_served
        return snapshot

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._kick.wait()
            # A batch is everything that has arrived, not what the
            # first reader to run had: every reader that is runnable
            # takes its turn before the queues are swapped out.
            await asyncio.sleep(0)
            self._kick.clear()
            taken = {
                shard: queue
                for shard, queue in enumerate(self._queues)
                if queue
            }
            for shard in taken:
                self._queues[shard] = []
            if taken:
                self._deliver(taken, await self._execute(taken))
            if self._closing.is_set() and not any(self._queues):
                return

    async def _execute(
        self, taken: dict[int, list[tuple[dict, _Peer]]]
    ) -> dict[int, list[dict]]:
        batches = {
            shard: [request for request, _ in queue]
            for shard, queue in taken.items()
        }
        try:
            return await self.executor.execute_lane(batches)
        except Exception as exc:  # keep the dispatcher alive
            return {
                shard: [
                    error_response(
                        request["id"],
                        "internal",
                        f"dispatch failed: {type(exc).__name__}: {exc}",
                    )
                    for request in ops
                ]
                for shard, ops in batches.items()
            }

    @staticmethod
    def _deliver(
        taken: dict[int, list[tuple[dict, _Peer]]],
        responses: dict[int, list[dict]],
    ) -> None:
        """Pair responses with requests by position, then one write
        per connection."""
        outboxes: dict[_Peer, list[bytes]] = {}
        for shard, queue in taken.items():
            answers = iter(responses.get(shard, ()))
            for request, peer in queue:
                response = next(answers, None)
                if response is None:
                    # Only a bug can leave a request unanswered, and a
                    # hung client is worse than a structured error.
                    response = error_response(
                        request["id"],
                        "shard-failed",
                        "batch returned no response",
                        shard=shard,
                    )
                outboxes.setdefault(peer, []).append(encode_line(response))
        for peer, lines in outboxes.items():
            peer.deliver(lines)


def register(subparsers) -> None:
    """``repro-gc serve``."""
    from repro.cli import non_negative_int, port, positive_float, positive_int

    sub = subparsers.add_parser(
        "serve",
        help=(
            "GC-as-a-service: host tenant heaps behind a line-JSON TCP "
            "server, sharded inline or in one worker process"
        ),
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument(
        "--port",
        type=port,
        default=0,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    sub.add_argument("--shards", type=positive_int, default=2)
    sub.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        help=(
            "0 runs shards inline in the server process (deterministic "
            "reference mode); any N >= 1 runs every shard in one pinned "
            "worker process"
        ),
    )
    sub.add_argument(
        "--tenant-cap",
        type=positive_int,
        help="per-shard open-tenant limit (admission control)",
    )
    sub.add_argument(
        "--task-timeout",
        type=positive_float,
        help="seconds before a wedged shard batch is drained",
    )
    sub.add_argument(
        "--task-retries",
        type=non_negative_int,
        default=1,
        help="replay attempts for a lost shard batch (default: 1)",
    )
    sub.set_defaults(func=_cmd_serve)


def _cmd_serve(args) -> int:
    server = HeapServer(
        shards=args.shards,
        jobs=args.jobs,
        tenant_cap=args.tenant_cap,
        timeout=args.task_timeout,
        retries=args.task_retries,
    )

    async def run() -> None:
        port = await server.start(args.host, args.port)
        # The bound port on one parseable line, flushed immediately, so
        # scripts (and the CI smoke job) can serve on port 0 and read
        # back where the listener landed.
        print(f"repro-gc serve: listening on {args.host}:{port}", flush=True)
        print(
            f"  shards={args.shards} jobs={args.jobs} "
            f"tenant_cap={args.tenant_cap}",
            flush=True,
        )
        try:
            await server.serve_until_closed()
        finally:
            stats = server.stats()
            print(f"repro-gc serve: closed after {stats}", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # Ctrl-C cancels serve_until_closed before server.close() runs.
        server.executor.close()
    except OSError as exc:  # the address is taken, or not ours to bind
        print(f"repro-gc serve: error: {exc}", file=sys.stderr)
        return 1
    return 0
