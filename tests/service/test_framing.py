"""Framing: how the byte stream is cut into writes cannot matter.

The server's reader takes whatever a socket read delivers and splits it
into lines itself, so the property is stated over *segmentations*: the
same bytes, cut anywhere — between requests, mid-line, inside a UTF-8
sequence — must produce the same responses, per tenant in the same
order, as one request per write.  :func:`serve_segments` and
:func:`per_tenant` are the reusable half (the protocol fuzzer of
ROADMAP 8a drives the same two with generated *content*; here only the
cuts are generated).
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import PROTOCOL_VERSION, encode_line
from repro.service.server import MAX_LINE_BYTES, HeapServer

#: One name per UTF-8 sequence length above one byte, so a cut can fall
#: inside a two-, three- and four-byte sequence.
TENANTS = ("café", "租户", "heap-\U0001f5d1")


def _req(op: str, tenant: str, seq: int, **payload) -> dict:
    request = {
        "v": PROTOCOL_VERSION,
        "id": f"{tenant}#{seq}",
        "op": op,
        "tenant": tenant,
    }
    request.update(payload)
    return request


def _script() -> list[dict]:
    """K = 30 requests over three tenants, interleaved round-robin."""
    kinds = ("mark-sweep", "generational", "incremental")
    streams = [
        [
            _req("open", tenant, 0, kind=kind),
            _req("alloc", tenant, 1, uid=0, size=3, fields=2),
            _req("alloc", tenant, 2, uid=1, size=2, fields=1),
            _req("write", tenant, 3, src=0, slot=0, dst=1),
            _req("read", tenant, 4, uid=0),
            _req("read", tenant, 5, uid=7),  # unknown-uid: an error shape
            _req("drop", tenant, 6, uid=1),
            _req("collect", tenant, 7),
            _req("checkpoint", tenant, 8),
            _req("close", tenant, 9),
        ]
        for tenant, kind in zip(TENANTS, kinds)
    ]
    return [request for round_ in zip(*streams) for request in round_]


SCRIPT = _script()
#: ``ensure_ascii`` would hide the multi-byte names behind escapes.
LINES = [
    (json.dumps(request, ensure_ascii=False) + "\n").encode("utf-8")
    for request in SCRIPT
]
STREAM = b"".join(LINES)


async def _send_segments(
    port: int, segments: Iterable[bytes], *, fin: bool = True
) -> list[bytes]:
    """Write each segment as its own ``send`` (Nagle off, one loop turn
    apart), half-close, and return the response lines up to EOF — or up
    to the reset, if the server hangs up on data it has not read."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    received: list[bytes] = []

    async def collect() -> None:
        try:
            while line := await reader.readline():
                received.append(line)
        except ConnectionError:
            pass

    collector = asyncio.create_task(collect())
    try:
        for segment in segments:
            writer.write(segment)
            await writer.drain()
            await asyncio.sleep(0)
        if fin:
            writer.write_eof()
    except ConnectionError:
        pass
    try:
        await collector
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return received


def serve_segments(segments: Sequence[bytes], **server_kwargs) -> list[bytes]:
    """The response lines a fresh server sends for one connection that
    writes ``segments`` and then FIN."""

    async def body():
        server = HeapServer(**server_kwargs)
        port = await server.start()
        try:
            return await _send_segments(port, segments)
        finally:
            await server.close()

    return asyncio.run(asyncio.wait_for(body(), 60))


def per_tenant(lines: Iterable[bytes]) -> dict[str, list[bytes]]:
    """Response lines grouped by the tenant their ``id`` names, in
    arrival order (responses of different tenants may interleave in any
    way; one tenant's may not)."""
    grouped: dict[str, list[bytes]] = {}
    for line in lines:
        tenant = str(json.loads(line)["id"]).partition("#")[0]
        grouped.setdefault(tenant, []).append(line)
    return grouped


def cut(stream: bytes, points: Iterable[int]) -> list[bytes]:
    """``stream`` cut at the given offsets (empty pieces dropped)."""
    bounds = [0, *sorted(set(points)), len(stream)]
    return [
        stream[start:end] for start, end in zip(bounds, bounds[1:]) if end > start
    ]


@pytest.fixture(scope="module")
def reference() -> dict[str, list[bytes]]:
    answered = per_tenant(serve_segments(LINES))
    assert sorted(answered) == sorted(TENANTS)
    assert all(len(lines) == 10 for lines in answered.values())
    return answered


def _mid_sequence_points() -> list[int]:
    """Every offset that falls strictly inside a UTF-8 sequence."""
    return [
        index
        for index, byte in enumerate(STREAM)
        if byte & 0xC0 == 0x80  # a continuation byte: cut before it
    ]


SEGMENTATIONS = {
    "one-request-per-write": LINES,
    "everything-in-one-write": [STREAM],
    "one-byte-per-write": cut(STREAM, range(len(STREAM))),
    "every-7-bytes": cut(STREAM, range(0, len(STREAM), 7)),
    "every-97-bytes": cut(STREAM, range(0, len(STREAM), 97)),
    "inside-every-utf8-sequence": cut(STREAM, _mid_sequence_points()),
    "newline-leads-the-next-write": cut(
        STREAM, [i for i, byte in enumerate(STREAM) if byte == 0x0A]
    ),
    "blank-lines-interleaved": [
        piece for line in LINES for piece in (b"\n", line, b"  \n\r\n")
    ],
    "crlf-endings": [line[:-1] + b"\r\n" for line in LINES],
    "unterminated-last-line-then-fin": [*LINES[:-1], LINES[-1][:-1]],
    "unterminated-last-line-in-one-write": [STREAM[:-1]],
}


@pytest.mark.parametrize("name", SEGMENTATIONS)
def test_segmentation_does_not_change_the_responses(name, reference):
    assert per_tenant(serve_segments(SEGMENTATIONS[name])) == reference


def test_the_utf8_cuts_really_split_sequences():
    pieces = SEGMENTATIONS["inside-every-utf8-sequence"]
    assert len(pieces) > 3 * len(TENANTS)
    for piece in pieces[:-1]:
        with pytest.raises(UnicodeDecodeError):
            piece.decode("utf-8")


def test_segmentation_does_not_change_the_responses_in_pool_mode(reference):
    segments = cut(STREAM, range(0, len(STREAM), 97))
    assert per_tenant(serve_segments(segments, jobs=2)) == reference


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, len(STREAM)), max_size=40))
def test_any_cut_points_give_the_reference(reference, points):
    assert per_tenant(serve_segments(cut(STREAM, points))) == reference


# ----------------------------------------------------------------------
# The line limit
# ----------------------------------------------------------------------


def _padded(request: dict, length: int) -> bytes:
    """A valid request padded with JSON whitespace to ``length`` bytes
    (newline not counted)."""
    line = encode_line(request)[:-1]
    return line + b" " * (length - len(line))


def test_a_line_of_exactly_the_limit_is_served():
    line = _padded(_req("open", "big", 0), MAX_LINE_BYTES)
    (response,) = serve_segments([line + b"\n"])
    assert json.loads(response)["ok"] is True


@pytest.mark.parametrize("terminated", [True, False])
def test_an_oversized_line_closes_only_its_connection(terminated):
    """No response and the socket is closed; what the connection sent
    before the line is applied, later connections are served, and a
    tenant the connection never named answers its checkpoint with the
    same bytes as before."""
    oversized = _padded(_req("checkpoint", "kept", "late"), MAX_LINE_BYTES + 1)
    if terminated:
        oversized += b"\n" + encode_line(_req("checkpoint", "kept", "after"))
    bystander = encode_line(_req("checkpoint", "bystander", "c"))

    async def body():
        server = HeapServer()
        port = await server.start()
        try:
            before = await _send_segments(
                port,
                [
                    encode_line(_req("open", "kept", 0)),
                    encode_line(_req("open", "bystander", 0)),
                    encode_line(_req("alloc", "bystander", 1, uid=0, size=2)),
                    bystander,
                ],
            )
            hostile = await _send_segments(
                port,
                [encode_line(_req("alloc", "kept", 1, uid=0, size=2)), oversized],
                fin=False,
            )
            after = await _send_segments(
                port,
                [
                    bystander,
                    encode_line(_req("checkpoint", "kept", 2)),
                    encode_line(_req("open", "fresh", 0)),
                ],
            )
            assert server._handlers == {}
        finally:
            await server.close()
        return before, hostile, after

    before, hostile, after = asyncio.run(asyncio.wait_for(body(), 60))
    # The alloc ahead of the oversized line is answered; nothing after.
    assert [json.loads(line)["id"] for line in hostile] == ["kept#1"]
    before, after = per_tenant(before), per_tenant(after)
    assert after["bystander"] == before["bystander"][-1:]
    assert json.loads(after["kept"][0])["objects"] == 1
    assert json.loads(after["fresh"][0])["ok"] is True
