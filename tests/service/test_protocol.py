"""Wire-protocol validation: every malformed shape is a bad-request."""

from __future__ import annotations

import json

import pytest

from repro.gc.registry import GcGeometry
from repro.service.protocol import (
    ERROR_KINDS,
    PROTOCOL_VERSION,
    SERVER_OPS,
    TENANT_OPS,
    ProtocolError,
    decode_line,
    encode_json,
    encode_line,
    error_response,
    geometry_from_payload,
    ok_response,
    validate_request,
)


def _req(op: str, **payload) -> dict:
    request = {"v": PROTOCOL_VERSION, "id": 1, "op": op, "tenant": "t0"}
    request.update(payload)
    return request


class TestValidateRequest:
    def test_accepts_every_tenant_op_minimal_shape(self):
        shapes = {
            "open": {},
            "alloc": {"uid": 0, "size": 2, "fields": 1},
            "write": {"src": 0, "slot": 0, "dst": None},
            "drop": {"uid": 0},
            "read": {"uid": 0},
            "checkpoint": {},
            "collect": {},
            "close": {},
        }
        assert set(shapes) == set(TENANT_OPS)
        for op, payload in shapes.items():
            validated = validate_request(_req(op, **payload))
            assert validated["op"] == op

    def test_accepts_server_ops_without_tenant(self):
        for op in SERVER_OPS:
            validated = validate_request(
                {"v": PROTOCOL_VERSION, "id": "x", "op": op}
            )
            assert validated["op"] == op

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"v": 0, "id": 1, "op": "ping"},
            {"v": PROTOCOL_VERSION, "id": 1, "op": "explode"},
            {"v": PROTOCOL_VERSION, "id": None, "op": "ping"},
            {"v": PROTOCOL_VERSION, "id": True, "op": "ping"},
            {"v": PROTOCOL_VERSION, "id": 1, "op": "open"},  # no tenant
            {"v": PROTOCOL_VERSION, "id": 1, "op": "open", "tenant": ""},
        ],
    )
    def test_rejects_structural_problems(self, payload):
        with pytest.raises(ProtocolError):
            validate_request(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            _req("open", kind="no-such-collector"),
            _req("open", backend="no-such-backend"),
            _req("open", backend=None),
            _req("open", geometry={"nursery_words": "big"}),
            _req("open", geometry={"not_a_field": 1}),
            _req("alloc", uid=-1, size=2),
            _req("alloc", uid=0, size=0),
            _req("alloc", uid=0, size=2, fields=3),
            _req("alloc", uid=0, size=2, fields=-1),
            _req("write", src=0, slot=-1, dst=None),
            _req("write", src=0, slot=0, dst=-2),
            _req("write", src=0, slot=0, dst=True),
            _req("drop", uid="zero"),
            _req("read"),
        ],
    )
    def test_rejects_op_payload_problems(self, payload):
        with pytest.raises(ProtocolError):
            validate_request(payload)

    def test_error_is_bad_request_kind(self):
        try:
            validate_request(_req("alloc", uid=0, size=0))
        except ProtocolError as exc:
            assert exc.kind == "bad-request"
        else:
            pytest.fail("expected ProtocolError")

    def test_only_the_flat_heap_opens(self):
        opened = validate_request(_req("open", backend="flat"))
        assert opened["backend"] == "flat"
        with pytest.raises(
            ProtocolError, match="unknown heap backend 'object'"
        ) as excinfo:
            validate_request(_req("open", backend="object"))
        assert excinfo.value.kind == "bad-request"


class TestGeometryFromPayload:
    def test_none_is_default_geometry(self):
        assert geometry_from_payload(None) == GcGeometry()

    def test_integer_overrides_apply(self):
        geometry = geometry_from_payload(
            {"nursery_words": 128, "semispace_words": 256}
        )
        assert geometry.nursery_words == 128
        assert geometry.semispace_words == 256

    def test_auto_expand_accepts_bool_only(self):
        assert geometry_from_payload({"auto_expand": False}).auto_expand is False
        assert geometry_from_payload({"auto_expand": True}).auto_expand is True
        with pytest.raises(ProtocolError):
            geometry_from_payload({"auto_expand": 1})
        with pytest.raises(ProtocolError):
            geometry_from_payload({"auto_expand": "no"})

    def test_load_factor_accepts_numbers(self):
        assert geometry_from_payload({"load_factor": 2}).load_factor == 2.0
        with pytest.raises(ProtocolError):
            geometry_from_payload({"load_factor": True})

    def test_unknown_field_rejected_not_ignored(self):
        with pytest.raises(ProtocolError) as excinfo:
            geometry_from_payload({"nursery_wordz": 64})
        assert "nursery_wordz" in str(excinfo.value)

    def test_bool_rejected_for_integer_field(self):
        with pytest.raises(ProtocolError):
            geometry_from_payload({"nursery_words": True})

    def test_roundtrips_scaled_tenant_geometry(self):
        from dataclasses import asdict

        from repro.service.loadgen import tenant_geometry

        geometry = tenant_geometry()
        assert geometry_from_payload(asdict(geometry)) == geometry


class TestWireCodec:
    def test_encode_decode_roundtrip(self):
        message = _req("alloc", uid=3, size=2, fields=1)
        assert decode_line(encode_line(message)) == message

    def test_encode_is_canonical_single_line(self):
        line = encode_line({"b": 1, "a": {"z": 1, "y": 2}})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert line == b'{"a":{"y":2,"z":1},"b":1}\n'

    @pytest.mark.parametrize(
        "line",
        [b"not json\n", b"[1,2,3]\n", b'"just a string"\n', b"\xff\xfe\n"],
    )
    def test_decode_rejects_non_object_lines(self, line):
        with pytest.raises(ProtocolError):
            decode_line(line)

    def test_ok_and_error_response_shapes(self):
        ok = ok_response(7, pong=True)
        assert ok == {"v": PROTOCOL_VERSION, "id": 7, "ok": True, "pong": True}
        err = error_response(7, "backpressure", "full", shard=1)
        assert err["ok"] is False
        assert err["error"] == {
            "kind": "backpressure",
            "detail": "full",
            "shard": 1,
        }

    def test_error_response_refuses_unknown_kind(self):
        with pytest.raises(ValueError):
            error_response(1, "not-a-kind", "nope")
        assert len(set(ERROR_KINDS)) == len(ERROR_KINDS)

    def test_responses_are_json_encodable(self):
        for message in (ok_response(1, x=[1, 2]), error_response(None, "internal", "boom")):
            json.loads(encode_line(message))


class TestCodecIsTheJsonModules:
    """The codec is built once at import; the bytes on the wire, and the
    words of a decode error, are still ``json.dumps``/``json.loads``'."""

    @staticmethod
    def _response_shapes() -> list[dict]:
        from dataclasses import asdict

        from repro.service.loadgen import build_plan
        from repro.service.server import HeapServer
        from repro.service.shard import ShardExecutor

        shapes: list[dict] = []
        # Every tenant op's answer under all seven kinds.
        executor = ShardExecutor(1, tenant_cap=8)
        for tenant_plan in build_plan(7, seed=5, ops_per_tenant=40).plans:
            shapes += executor.execute({0: tenant_plan.requests})[0]
        # The error shapes, extras included.
        tiny = GcGeometry(
            nursery_words=64, semispace_words=64, step_words=64,
            auto_expand=False,
        )
        script = [
            _req("checkpoint", tenant="nobody"),
            _req("open", tenant="caf\u00e9 \u79df\u6237", geometry=asdict(tiny)),
            _req("open", tenant="caf\u00e9 \u79df\u6237"),
            _req("read", tenant="caf\u00e9 \u79df\u6237", uid=9),
            _req("open", tenant="u", geometry={"semispace_words": 0}),
            *[
                _req("alloc", tenant="caf\u00e9 \u79df\u6237", uid=uid, size=8)
                for uid in range(40)
            ],
            *[_req("open", tenant=f"filler{index}") for index in range(9)],
        ]
        shapes += executor.execute({0: script})[0]
        shapes.append(error_response(None, "shard-failed", "lost", shard=1))
        shapes.append(error_response("x", "internal", "boom \"quoted\"\n\ttab"))
        # What the server parent answers in place.
        server = HeapServer(shards=1)
        server.executor = executor
        for line in (
            b"not json",
            encode_line({"v": 1, "id": 1.5, "op": "ping"}),
            encode_line({"v": 1, "id": "p", "op": "ping"}),
            encode_line({"v": 1, "id": "s", "op": "stats"}),
            encode_line({"v": 1, "id": "m", "op": "metrics"}),
            encode_line({"v": 1, "id": "m", "op": "metrics", "format": "prometheus"}),
        ):
            shapes.append(server._accept(line, None))
        return shapes

    def test_encode_line_is_json_dumps_sorted_and_compact(self):
        shapes = self._response_shapes()
        kinds = {
            shape["error"]["kind"] for shape in shapes if not shape["ok"]
        }
        assert kinds == set(ERROR_KINDS)
        for shape in shapes:
            expected = json.dumps(shape, sort_keys=True, separators=(",", ":"))
            assert encode_line(shape) == (expected + "\n").encode("utf-8")

    def test_digests_hash_json_dumps_of_the_same_lists(self):
        """``graph_digest``/``pauses_digest`` share the wire's encoder;
        the text they hash is still ``json.dumps`` of lists, so every
        checkpoint and pause digest is unchanged."""
        import hashlib

        from repro.gc.registry import COLLECTOR_KINDS
        from repro.service.loadgen import build_plan
        from repro.service.session import (
            TenantSession,
            graph_digest,
            pauses_digest,
        )

        def sha(value) -> str:
            text = json.dumps(value, separators=(",", ":"))
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        plan = build_plan(
            2 * len(COLLECTOR_KINDS), seed=2, ops_per_tenant=60
        )
        collections = 0
        for tenant_plan in plan.plans:
            opening = tenant_plan.requests[0]
            session = TenantSession(
                tenant_plan.tenant,
                kind=opening["kind"],
                backend=opening["backend"],
                geometry=geometry_from_payload(opening["geometry"]),
            )
            for request in tenant_plan.requests[1:-1]:
                session.apply(request)
                graph = session.context.checkpoint(0).graph
                assert graph_digest(graph) == sha(
                    [[obj_id, size, list(fields)] for obj_id, size, fields in graph]
                )
            pauses = session.context.collector.stats.pauses
            collections += len(pauses)
            assert pauses_digest(pauses) == sha(
                [[p.clock, p.kind, p.work, p.reclaimed, p.live] for p in pauses]
            )
        assert collections

    def test_encoder_without_the_c_accelerator_writes_the_same_bytes(self):
        """The encoder is built from ``json.encoder.c_make_encoder``; an
        interpreter without it falls back to ``JSONEncoder``'s own
        iterator and must put the same bytes on the wire."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import json, json.encoder\n"
            "json.encoder.c_make_encoder = None\n"
            "from repro.service.protocol import encode_json, encode_line\n"
            "shapes = [{'v': 1, 'id': 'caf\\u00e9', 'ok': True, 'x': [1.5,"
            " None, float('nan'), (2, 3)], 'a': {'z': 1, 'b': '\"\\n'}},"
            " [[3, 2, [None, 4]], [9, 1, []]]]\n"
            "for shape in shapes:\n"
            "    text = json.dumps(shape, sort_keys=True,"
            " separators=(',', ':'))\n"
            "    assert encode_json(shape) == text, shape\n"
            "    assert encode_line(shape) == (text + '\\n').encode()\n"
            "print('same')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout == "same\n", result.stderr

    @pytest.mark.parametrize(
        "value",
        [
            {"b": [1.5, float("inf"), None, True], "a": "\u79df\u6237\x00"},
            ((1, 2, (None, 3)), (4, 5, ())),
            [1e300, -0.0, 2**70, ""],
        ],
    )
    def test_encode_json_is_json_dumps(self, value):
        assert encode_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")
        )

    def test_unencodable_values_fail_as_json_dumps_does(self):
        for value in ({"x": object()}, {"x": {1, 2}}, {(1, 2): 3}):
            with pytest.raises(TypeError) as expected:
                json.dumps(value, sort_keys=True, separators=(",", ":"))
            with pytest.raises(TypeError) as raised:
                encode_line(value)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "{",
            '{"a":1} trailing',
            '{"a":1}{"b":2}',
            '{"a":NaN,}',
            "\ufeff{}",
            '\ufeff{"v":1,"id":1,"op":"ping"}',
            "nul\x00l",
        ],
    )
    def test_decode_errors_read_as_json_loads_would_put_them(self, line):
        with pytest.raises(ValueError) as expected:
            json.loads(line)
        with pytest.raises(ProtocolError) as raised:
            decode_line(line.encode("utf-8"))
        assert raised.value.detail == (
            f"request is not valid JSON: {expected.value}"
        )

    @pytest.mark.parametrize(
        "line",
        [
            b'{"v":1,"id":1,"op":"ping"}',
            b' \t{"a":[1,2.5e3,null,true],"b":{"c":"\\u00e9\xc3\xa9"}}\r\n',
            b'{"big":123456789012345678901234567890,"nan":NaN}',
        ],
    )
    def test_decode_line_is_json_loads(self, line):
        decoded = decode_line(line)
        assert repr(decoded) == repr(json.loads(line))
