"""Byte-level golden of what a tenant session answers.

The isolation oracle compares the service with serial replay; once
both run one interpreter of the mutator ops, a change to that
interpreter moves both sides together and the oracle cannot see it.
This golden can: it pins every :meth:`TenantSession.apply` response,
every ``close_payload``, every refused op's error kind and payload, the
drained metric registry and a mid-run capture blob (answers by
digest, refusals in full), for a seeded plan
over all seven collector kinds and three load profiles.

Into each tenant's stream the driver mixes probes that must fail or
must leave the session as it was: reads, writes and drops of uids
never allocated, reads and drops of dropped uids (``unknown-uid`` once a
collection has reclaimed the object, an ordinary answer before), writes
to an out-of-range slot (``bad-request``) and re-allocations of a taken
uid (``bad-request``).  Each tenant is captured and revived half-way.
A second set of tenants per kind allocates into a heap that may not
grow until the collector gives up (``heap-exhausted``), then drops
everything and carries on.

Regenerate with ``PYTHONPATH=src python -m tests.service.test_session_golden``
only when the session's answers are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry
from repro.metrics.registry import MetricRegistry
from repro.service.loadgen import build_plan
from repro.service.protocol import ProtocolError, geometry_from_payload
from repro.service.session import OpRejected, TenantSession

GOLDEN_PATH = Path(__file__).with_name("golden_session_responses.json")

#: 21 tenants: every (kind, profile) pair once.
PLAN_TENANTS = 3 * len(COLLECTOR_KINDS)
PLAN_SEED = 5
PLAN_OPS = 100
PROBE_RATE = 0.1
NEVER = 10**6  # a uid no plan allocates

EXHAUST_GEOMETRY = GcGeometry(
    nursery_words=64,
    semispace_words=64,
    step_words=64,
    slice_budget=8,
    auto_expand=False,
)


def _apply(session: TenantSession, request: dict) -> list:
    """One op's outcome in JSON form: ``["ok", response]`` or
    ``[error kind, detail, extra]``."""
    try:
        return ["ok", session.apply(request)]
    except ProtocolError as exc:
        return [exc.kind, str(exc), {}]
    except OpRejected as exc:
        return [exc.kind, exc.detail, exc.extra]


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _probe(rng: random.Random, fields: dict, rooted: set) -> dict:
    """A request that must fail, or must not change the heap."""
    dropped = sorted(set(fields) - rooted)
    live = sorted(rooted)
    choices = ["never-read", "never-write", "never-drop"]
    if dropped:
        choices += ["dropped-read", "dropped-drop"]
    if live:
        choices += ["slot-range", "duplicate", "never-dst"]
    choice = rng.choice(choices)
    if choice == "never-read":
        return {"op": "read", "uid": NEVER + rng.randrange(9)}
    if choice == "never-write":
        return {"op": "write", "src": NEVER, "slot": 0, "dst": None}
    if choice == "never-drop":
        return {"op": "drop", "uid": NEVER}
    if choice == "dropped-read":
        return {"op": "read", "uid": rng.choice(dropped)}
    if choice == "dropped-drop":
        return {"op": "drop", "uid": rng.choice(dropped)}
    uid = rng.choice(live)
    if choice == "slot-range":
        return {"op": "write", "src": uid, "slot": fields[uid] + rng.randrange(2),
                "dst": None}
    if choice == "duplicate":
        return {"op": "alloc", "uid": uid, "size": 1, "fields": 0}
    slot = 0 if fields[uid] else 5
    return {"op": "write", "src": uid, "slot": slot, "dst": NEVER}


def _plan_tenant(index: int, tenant_plan) -> dict:
    opening = tenant_plan.requests[0]
    session = TenantSession(
        tenant_plan.tenant,
        kind=opening["kind"],
        backend=opening["backend"],
        geometry=geometry_from_payload(opening["geometry"]),
    )
    rng = random.Random(index)
    fields: dict[int, int] = {}
    rooted: set[int] = set()
    body = tenant_plan.requests[1:-1]
    outcomes = []
    blob_sha = None
    for position, request in enumerate(body):
        if position == len(body) // 2:
            blob = session.capture()
            blob_sha = _sha(blob)
            session = TenantSession.from_state(blob)
        outcomes.append([None, *_apply(session, request)])
        if request["op"] == "alloc":
            fields[request["uid"]] = request["fields"]
            rooted.add(request["uid"])
        elif request["op"] == "drop":
            rooted.discard(request["uid"])
        if rng.random() < PROBE_RATE:
            probe = _probe(rng, fields, rooted)
            outcomes.append([probe, *_apply(session, probe)])
    registry = MetricRegistry(session.metrics_label)
    session.drain_metrics(registry)
    return {
        "kind": tenant_plan.kind,
        "profile": tenant_plan.profile,
        **_outcome_record(outcomes),
        "capture_sha256": blob_sha,
        "close": session.close_payload(),
        "metrics_sha256": _sha(registry.to_jsonable()),
    }


def _exhaust_tenant(kind: str) -> dict:
    session = TenantSession("x", kind=kind, geometry=EXHAUST_GEOMETRY)
    outcomes = []
    uid = 0
    while True:
        outcome = _apply(
            session, {"op": "alloc", "uid": uid, "size": 8, "fields": 1}
        )
        outcomes.append(outcome)
        if outcome[0] != "ok":
            break
        if uid:
            outcomes.append(_apply(
                session, {"op": "write", "src": uid, "slot": 0, "dst": uid - 1}
            ))
        uid += 1
        assert uid < 1000, f"{kind} never ran out of heap"
    for dropped in range(uid):
        outcomes.append(_apply(session, {"op": "drop", "uid": dropped}))
    outcomes.append(_apply(session, {"op": "collect"}))
    outcomes.append(_apply(session, {"op": "read", "uid": 0}))
    outcomes.append(_apply(
        session, {"op": "alloc", "uid": uid, "size": 8, "fields": 0}
    ))
    outcomes.append(_apply(session, {"op": "checkpoint"}))
    return {
        **_outcome_record([[None, *outcome] for outcome in outcomes]),
        "close": session.close_payload(),
    }


def _outcome_record(outcomes: list) -> dict:
    """Every answer by digest, every refusal in full with its position."""
    return {
        "responses": len(outcomes),
        "responses_sha256": _sha(outcomes),
        "errors": [
            [position, *outcome]
            for position, outcome in enumerate(outcomes)
            if outcome[1] != "ok"
        ],
    }


def capture() -> dict:
    plan = build_plan(PLAN_TENANTS, seed=PLAN_SEED, ops_per_tenant=PLAN_OPS)
    return {
        "plan": {
            tenant_plan.tenant: _plan_tenant(index, tenant_plan)
            for index, tenant_plan in enumerate(plan.plans)
        },
        "exhaust": {kind: _exhaust_tenant(kind) for kind in COLLECTOR_KINDS},
    }


def _canonical(value):
    """``value`` as it reads back from the golden's JSON."""
    return json.loads(json.dumps(value))


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {"plan": {}, "exhaust": {}}
)
CURRENT = {}


def _current() -> dict:
    if not CURRENT:
        CURRENT.update(_canonical(capture()))
    return CURRENT


@pytest.mark.parametrize("tenant", sorted(GOLDEN["plan"]))
def test_plan_tenant_answers_match_golden(tenant):
    assert _current()["plan"][tenant] == GOLDEN["plan"][tenant]


@pytest.mark.parametrize("kind", COLLECTOR_KINDS)
def test_exhausted_tenant_answers_match_golden(kind):
    assert _current()["exhaust"][kind] == GOLDEN["exhaust"][kind]


def test_golden_covers_every_error_path():
    """The probes reach each refusal the session can give."""
    seen = set()
    for entry in GOLDEN["plan"].values():
        for _, _, kind, detail, _ in entry["errors"]:
            seen.add((kind, "collected" in detail, "slot" in detail))
    assert ("unknown-uid", False, False) in seen
    assert ("unknown-uid", True, False) in seen
    assert ("bad-request", False, True) in seen
    assert ("bad-request", False, False) in seen
    assert {e["kind"] for e in GOLDEN["plan"].values()} == set(COLLECTOR_KINDS)
    for kind, entry in GOLDEN["exhaust"].items():
        assert any(e[2] == "heap-exhausted" for e in entry["errors"]), kind


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    )
