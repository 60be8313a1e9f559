"""The GC-as-a-service wire protocol: versioned JSON ops over lines.

One request per line, one response per line, UTF-8 JSON.  Every
request carries the protocol version, a client-chosen correlation id
(echoed verbatim in the response, so one connection can interleave
many tenants), an op kind, and — for tenant ops — the tenant name:

``{"v": 1, "id": 7, "op": "alloc", "tenant": "t12", "uid": 3,
   "size": 2, "fields": 1}``

Responses are ``{"v": 1, "id": 7, "ok": true, ...payload}`` on
success and ``{"v": 1, "id": 7, "ok": false, "error": {"kind": ...,
"detail": ...}}`` on failure.  Failure is *structured and terminal
for the request only*: no op can crash a tenant session, and no
tenant can observe another tenant's failure.

Tenant ops (the mutator surface, mirroring
:mod:`repro.verify.replay` scripts so the isolation oracle can compare
service runs against standalone replays byte for byte):

``open``
    Create a tenant session: pick a collector ``kind`` (any
    :data:`repro.gc.registry.COLLECTOR_KINDS` entry) and optionally
    override :class:`~repro.gc.registry.GcGeometry` fields via
    ``geometry``.  An optional ``backend`` names the heap; ``"flat"``
    is the only one, and any other name is a ``bad-request``.
``alloc``
    Allocate ``size`` words with ``fields`` reference slots and root
    the object under the tenant-scoped handle ``uid``.
``write``
    Store ``dst`` (a uid, or ``null`` to clear) into slot ``slot`` of
    object ``src``, through the write barrier.
``drop``
    Unroot ``uid`` (the object may stay reachable through fields).
``read``
    Return ``uid``'s size and field contents (as uids) — the only
    pure read in the mutator surface.
``checkpoint``
    Fingerprint the live graph: clock, live words, object count, and
    a SHA-256 digest of the canonical graph.
``collect``
    Request an explicit full collection.
``close``
    Tear the session down; returns the final checkpoint digest, the
    cumulative :class:`~repro.gc.stats.GcStats` snapshot, and a
    digest of the full pause log.

Server ops (handled by the parent process, never routed to a shard):
``ping``, ``stats`` (occupancy of the service itself: shards, open
tenants, counters), ``metrics`` (merged per-shard registries, JSON or
Prometheus text), and ``shutdown``.

The error kinds a client must be prepared for:

* ``bad-request`` — malformed JSON, wrong version, unknown op,
  missing or mistyped fields;
* ``tenant-exists`` / ``unknown-tenant`` / ``unknown-uid`` — state
  errors, scoped to the offending request;
* ``backpressure`` — admission control refused an ``open`` (the
  owning shard is at its tenant cap); the error carries the shard's
  occupancy so clients can back off intelligently;
* ``heap-exhausted`` — an ``alloc`` failed after the collector's full
  degradation ladder; the error carries the per-space occupancy
  snapshot from :class:`~repro.gc.collector.HeapExhausted` and the
  session *stays open* (subsequent ops, including ``drop`` and
  ``collect``, proceed normally);
* ``shard-failed`` — the owning shard worker was lost and could not
  be revived for this batch; the tenant's last committed state is
  intact and the request may be retried;
* ``internal`` — an op raised unexpectedly inside the session.  The
  blast radius is exactly one tenant: its session is evicted (its
  state can no longer be trusted), every other tenant in the batch is
  untouched, and the shard keeps serving.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry
from repro.heap.flat import FlatHeap

__all__ = [
    "ERROR_KINDS",
    "PROTOCOL_VERSION",
    "SERVER_OPS",
    "TENANT_OPS",
    "ProtocolError",
    "decode_line",
    "encode_json",
    "encode_line",
    "error_response",
    "geometry_from_payload",
    "ok_response",
    "validate_request",
]

#: Wire protocol version; requests with any other ``v`` are rejected.
PROTOCOL_VERSION = 1

#: Ops routed to the tenant's owning shard, in documentation order.
TENANT_OPS: tuple[str, ...] = (
    "open",
    "alloc",
    "write",
    "drop",
    "read",
    "checkpoint",
    "collect",
    "close",
)

#: Ops answered by the server parent itself.
SERVER_OPS: tuple[str, ...] = ("ping", "stats", "metrics", "shutdown")

#: Every structured error kind a response can carry.
ERROR_KINDS: tuple[str, ...] = (
    "bad-request",
    "tenant-exists",
    "unknown-tenant",
    "unknown-uid",
    "backpressure",
    "heap-exhausted",
    "shard-failed",
    "internal",
)

#: GcGeometry fields a tenant may override at ``open``.
_GEOMETRY_FIELDS = frozenset(GcGeometry.__dataclass_fields__)

# The codec is built once.  ``json.dumps`` with these arguments builds
# a ``JSONEncoder`` per message, and ``JSONEncoder.encode`` builds its C
# encoder per message; this is that C encoder, built here, with the
# arguments ``json.dumps(sort_keys=True, separators=(",", ":"))`` passes
# it.  ``markers`` is None: no message or digest input is cyclic, and a
# shared markers dict would carry stale entries past a failed encode.
# ``json.loads`` re-checks its arguments per line.
_reference_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
if c_make_encoder is not None:
    _iterencode = c_make_encoder(
        None, _reference_encoder.default, encode_basestring_ascii, None,
        ":", ",", True, False, True,
    )
else:  # an interpreter without the C accelerator: the same text
    _iterencode = _reference_encoder.iterencode
_decode = json.JSONDecoder().decode


class ProtocolError(Exception):
    """A request failed validation.

    Carries the structured ``error`` payload the server should send
    back; raising it never tears down a connection or a session.
    """

    def __init__(self, detail: str, *, kind: str = "bad-request") -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def _require(payload: dict, field: str, types: tuple[type, ...], what: str):
    value = payload.get(field)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"field {field!r} must be {what}, got {value!r}"
        )
    return value


def _require_uid(payload: dict, field: str) -> int:
    uid = _require(payload, field, (int,), "a non-negative integer uid")
    if uid < 0:
        raise ProtocolError(f"field {field!r} must be >= 0, got {uid}")
    return uid


def geometry_from_payload(overrides: dict | None) -> GcGeometry:
    """Build a :class:`GcGeometry` from an ``open`` op's overrides.

    Unknown fields and non-integer values are rejected rather than
    ignored — a tenant that asks for a geometry it is not getting is
    a debugging nightmare at scale.
    """
    if overrides is None:
        return GcGeometry()
    if not isinstance(overrides, dict):
        raise ProtocolError(
            f"geometry must be an object, got {overrides!r}"
        )
    unknown = sorted(set(overrides) - _GEOMETRY_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown geometry fields: {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in overrides.items():
        if name == "auto_expand":
            if not isinstance(value, bool):
                raise ProtocolError(
                    f"geometry field {name!r} must be a boolean, "
                    f"got {value!r}"
                )
            kwargs[name] = value
        elif name == "load_factor" or name == "gen_oldest_load_factor":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError(
                    f"geometry field {name!r} must be a number, got {value!r}"
                )
            kwargs[name] = float(value)
        elif name == "slice_budget" and value is None:
            kwargs[name] = None
        else:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(
                    f"geometry field {name!r} must be an integer, "
                    f"got {value!r}"
                )
            kwargs[name] = value
    return GcGeometry(**kwargs)


def validate_request(payload: object) -> dict:
    """Validate one decoded request; returns a shallow copy of it.

    No default is filled in: a field the client left out stays out, and
    the op's handler (:mod:`repro.service.shard`,
    :mod:`repro.service.session`) owns its default.

    Raises:
        ProtocolError: any structural problem — the caller turns this
            into a ``bad-request`` response without touching a shard.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = payload.get("op")
    if op not in TENANT_OPS and op not in SERVER_OPS:
        raise ProtocolError(f"unknown op {op!r}")
    request_id = payload.get("id")
    if not isinstance(request_id, (int, str)) or isinstance(request_id, bool):
        raise ProtocolError("field 'id' must be an integer or string")
    if op in SERVER_OPS:
        return dict(payload)

    tenant = _require(payload, "tenant", (str,), "a string")
    if not tenant:
        raise ProtocolError("field 'tenant' must be non-empty")

    if op == "open":
        if "kind" in payload and payload["kind"] not in COLLECTOR_KINDS:
            raise ProtocolError(
                f"unknown collector kind {payload['kind']!r} "
                f"(known: {', '.join(COLLECTOR_KINDS)})"
            )
        backend = payload.get("backend", FlatHeap.backend_name)
        if backend != FlatHeap.backend_name:
            raise ProtocolError(
                f"unknown heap backend {backend!r} "
                f"(known: {FlatHeap.backend_name})"
            )
        geometry_from_payload(payload.get("geometry"))  # validate now
    elif op == "alloc":
        uid = _require_uid(payload, "uid")
        size = _require(payload, "size", (int,), "a positive integer")
        if size < 1:
            raise ProtocolError(f"field 'size' must be >= 1, got {size}")
        fields = payload.get("fields", 0)
        if not isinstance(fields, int) or isinstance(fields, bool):
            raise ProtocolError(
                f"field 'fields' must be an integer, got {fields!r}"
            )
        if not 0 <= fields <= size:
            raise ProtocolError(
                f"field 'fields' must be in [0, size={size}], got {fields}"
            )
        del uid
    elif op == "write":
        _require_uid(payload, "src")
        slot = _require(payload, "slot", (int,), "a non-negative integer")
        if slot < 0:
            raise ProtocolError(f"field 'slot' must be >= 0, got {slot}")
        dst = payload.get("dst")
        if dst is not None:
            if not isinstance(dst, int) or isinstance(dst, bool) or dst < 0:
                raise ProtocolError(
                    f"field 'dst' must be a uid or null, got {dst!r}"
                )
    elif op in ("drop", "read"):
        _require_uid(payload, "uid")
    # checkpoint / collect / close need nothing beyond tenant.
    return dict(payload)


def ok_response(request_id: int | str, **payload: Any) -> dict:
    response = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    response.update(payload)
    return response


def error_response(
    request_id: int | str | None,
    kind: str,
    detail: str,
    **extra: Any,
) -> dict:
    """A structured failure response; ``extra`` lands inside ``error``."""
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}")
    error: dict[str, Any] = {"kind": kind, "detail": detail}
    error.update(extra)
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def encode_json(value: Any) -> str:
    """``value`` as canonical JSON text (sorted keys, compact, ASCII):
    ``json.dumps(value, sort_keys=True, separators=(",", ":"))``.

    Tuples encode as arrays.  The wire and the session digests
    (:func:`repro.service.session.graph_digest`,
    :func:`~repro.service.session.pauses_digest`) share this encoder.
    """
    return "".join(_iterencode(value, 0))


def encode_line(message: dict) -> bytes:
    """One message as a canonical JSON line (sorted keys, compact)."""
    return ("".join(_iterencode(message, 0)) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into a message dict.

    Raises:
        ProtocolError: not valid JSON, or not a JSON object.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        payload = _decode(line)
    except ValueError as exc:
        if line.startswith("\ufeff"):  # json.loads' diagnosis, kept
            exc = json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            )
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload
