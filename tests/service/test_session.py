"""TenantSession semantics: replay-equivalence, migration, metric drains."""

from __future__ import annotations

import pytest

from repro.gc.registry import COLLECTOR_KINDS
from repro.metrics.registry import MetricRegistry
from repro.resilience.snapshot import SnapshotError
from repro.service.isolation import (
    TenantCase,
    compare_fingerprints,
    replay_fingerprint,
    script_to_requests,
    service_fingerprint,
)
from repro.service.loadgen import tenant_geometry
from repro.service.protocol import ProtocolError
from repro.service.session import OpRejected, TenantSession
from repro.verify.replay import generate_script

GEOMETRY = tenant_geometry()


def _drive(session: TenantSession, requests: list[dict]) -> list[dict]:
    """Apply tenant ops directly (open/close handled out of band)."""
    responses = []
    for request in requests:
        if request["op"] == "open":
            continue
        if request["op"] == "close":
            responses.append({"ok": True, **session.close_payload()})
            continue
        responses.append({"ok": True, **session.apply(request)})
    return responses


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_session_history_equals_serial_replay(kind):
    """The core session property: ops through apply() produce the same
    checkpoints, stats, and pause log as repro.verify.replay."""
    case = TenantCase(
        tenant="solo",
        kind=kind,
        script=generate_script(140, seed=11),
        geometry=GEOMETRY,
    )
    requests = script_to_requests(
        case.script, case.tenant, kind=kind, geometry=GEOMETRY
    )
    session = TenantSession(case.tenant, kind=kind, geometry=GEOMETRY)
    responses = _drive(session, requests)
    detail = compare_fingerprints(
        replay_fingerprint(case),
        service_fingerprint(
            [r for r in requests if r["op"] not in ("open",)], responses
        ),
    )
    assert detail is None, detail


@pytest.mark.parametrize("backend", ["flat"])
def test_backend_choice_preserves_replay_equivalence(backend):
    case = TenantCase(
        tenant="b",
        kind="generational",
        script=generate_script(120, seed=5),
        geometry=GEOMETRY,
    )
    requests = script_to_requests(
        case.script, case.tenant, kind=case.kind, geometry=GEOMETRY
    )
    session = TenantSession(
        case.tenant, kind=case.kind, backend=backend, geometry=GEOMETRY
    )
    responses = _drive(session, requests)
    detail = compare_fingerprints(
        replay_fingerprint(case),
        service_fingerprint(
            [r for r in requests if r["op"] != "open"], responses
        ),
    )
    assert detail is None, detail


@pytest.mark.parametrize("kind", ["generational", "incremental", "concurrent"])
def test_capture_restore_mid_script_is_invisible(kind):
    """Freezing a session after op K and reviving it (the shard
    migration unit) must not change anything the tenant observes."""
    script = generate_script(120, seed=3)
    requests = script_to_requests(
        script, "mig", kind=kind, geometry=GEOMETRY
    )
    ops = [r for r in requests if r["op"] not in ("open", "close")]
    split = len(ops) // 2

    plain = TenantSession("mig", kind=kind, geometry=GEOMETRY)
    plain_responses = [plain.apply(request) for request in ops]

    migrated = TenantSession("mig", kind=kind, geometry=GEOMETRY)
    migrated_responses = [
        migrated.apply(request) for request in ops[:split]
    ]
    migrated = TenantSession.from_state(migrated.capture())
    migrated_responses += [
        migrated.apply(request) for request in ops[split:]
    ]

    assert migrated_responses == plain_responses
    assert migrated.close_payload() == plain.close_payload()


def test_drain_cadence_does_not_change_metrics():
    """Draining after every op, or once at the end, merges identically —
    the property that makes inline and pool metrics byte-equal."""
    script = generate_script(160, seed=9)
    ops = [
        r
        for r in script_to_requests(
            script, "m", kind="generational", geometry=GEOMETRY
        )
        if r["op"] not in ("open", "close")
    ]

    eager_session = TenantSession("m", kind="generational", geometry=GEOMETRY)
    eager = MetricRegistry("generational/flat")
    for request in ops:
        eager_session.apply(request)
        eager_session.drain_metrics(eager)

    lazy_session = TenantSession("m", kind="generational", geometry=GEOMETRY)
    lazy = MetricRegistry("generational/flat")
    for request in ops:
        lazy_session.apply(request)
    lazy_session.drain_metrics(lazy)

    assert eager.canonical_json() == lazy.canonical_json()
    # The drain saw real collections, not an empty registry.
    assert eager.get("collections") is not None


def test_drain_survives_capture_restore_without_double_counting():
    script = generate_script(160, seed=9)
    ops = [
        r
        for r in script_to_requests(
            script, "m", kind="mark-sweep", geometry=GEOMETRY
        )
        if r["op"] not in ("open", "close")
    ]
    split = len(ops) // 2

    reference_session = TenantSession("m", kind="mark-sweep", geometry=GEOMETRY)
    reference = MetricRegistry("mark-sweep/flat")
    for request in ops:
        reference_session.apply(request)
    reference_session.drain_metrics(reference)

    session = TenantSession("m", kind="mark-sweep", geometry=GEOMETRY)
    registry = MetricRegistry("mark-sweep/flat")
    for request in ops[:split]:
        session.apply(request)
    session.drain_metrics(registry)  # high-water marks advance...
    session = TenantSession.from_state(session.capture())  # ...and travel
    for request in ops[split:]:
        session.apply(request)
    session.drain_metrics(registry)

    assert registry.canonical_json() == reference.canonical_json()


def test_unknown_uid_is_scoped_error_and_session_survives():
    session = TenantSession("t", kind="mark-sweep", geometry=GEOMETRY)
    session.apply({"op": "alloc", "uid": 0, "size": 2, "fields": 1})
    with pytest.raises(ProtocolError) as excinfo:
        session.apply({"op": "read", "uid": 99})
    assert excinfo.value.kind == "unknown-uid"
    # Session still serves.
    payload = session.apply({"op": "read", "uid": 0})
    assert payload["size"] == 2


def test_duplicate_uid_rejected():
    session = TenantSession("t", kind="mark-sweep", geometry=GEOMETRY)
    session.apply({"op": "alloc", "uid": 0, "size": 1, "fields": 0})
    with pytest.raises(ProtocolError):
        session.apply({"op": "alloc", "uid": 0, "size": 1, "fields": 0})


def test_heap_exhausted_surfaces_occupancy_and_session_survives():
    from repro.gc.registry import GcGeometry

    geometry = GcGeometry(
        nursery_words=64, semispace_words=64, step_words=64,
        slice_budget=8, auto_expand=False,
    )
    session = TenantSession("t", kind="mark-sweep", geometry=geometry)
    uid = 0
    with pytest.raises(OpRejected) as excinfo:
        while True:
            session.apply({"op": "alloc", "uid": uid, "size": 8, "fields": 0})
            uid += 1
    rejection = excinfo.value
    assert rejection.kind == "heap-exhausted"
    assert rejection.extra["requested"] == 8
    assert isinstance(rejection.extra["occupancy"], dict)
    # The session keeps serving: drop everything, collect, allocate again.
    for dropped in range(uid):
        session.apply({"op": "drop", "uid": dropped})
    session.apply({"op": "collect"})
    payload = session.apply({"op": "alloc", "uid": uid, "size": 8, "fields": 0})
    assert payload["uid"] == uid


def test_session_blob_for_another_heap_is_refused():
    session = TenantSession("t", kind="mark-sweep", geometry=GEOMETRY)
    assert session.metrics_label == "mark-sweep/flat"
    state = session.capture()
    assert TenantSession.from_state(state).backend == "flat"
    with pytest.raises(SnapshotError, match="heap backend 'object'"):
        TenantSession.from_state({**state, "backend": "object"})
