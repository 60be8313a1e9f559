"""Satellite 2: admission control and graceful exhaustion, per kind.

Backpressure and heap exhaustion are *responses*, not failures: the
occupancy rides in the error payload, no session dies, and committed
state survives worker loss mid-load.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry
from repro.service.loadgen import tenant_geometry
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.shard import ShardExecutor

#: A geometry with growth disabled everywhere it exists: every kind
#: hits a hard wall a few dozen words in, which is the point.
EXHAUSTIBLE = GcGeometry(
    nursery_words=64,
    semispace_words=64,
    step_words=64,
    slice_budget=8,
    auto_expand=False,
)


def _req(op: str, tenant: str, seq: int, **payload) -> dict:
    request = {
        "v": PROTOCOL_VERSION,
        "id": f"{tenant}#{seq}",
        "op": op,
        "tenant": tenant,
    }
    request.update(payload)
    return request


def _one(executor: ShardExecutor, request: dict) -> dict:
    shard = executor.shard_of(request["tenant"])
    return executor.execute({shard: [request]})[shard][0]


class TestAdmissionControl:
    @pytest.mark.parametrize("jobs", [0, 2])
    def test_cap_refuses_with_occupancy_then_frees_on_close(self, jobs):
        with ShardExecutor(1, jobs=jobs, tenant_cap=3) as executor:
            for index in range(3):
                response = _one(
                    executor, _req("open", f"t{index}", 0, kind="mark-sweep")
                )
                assert response["ok"] is True
            refused = _one(executor, _req("open", "t3", 0, kind="mark-sweep"))
            error = refused["error"]
            assert error["kind"] == "backpressure"
            assert error["open_tenants"] == 3
            assert error["tenant_cap"] == 3
            assert error["shard"] == 0
            # The refused tenant holds no slot; closing one admits it.
            assert _one(executor, _req("close", "t0", 1))["ok"] is True
            assert _one(executor, _req("open", "t3", 1, kind="mark-sweep"))[
                "ok"
            ] is True

    def test_cap_is_per_shard(self):
        executor = ShardExecutor(2, jobs=0, tenant_cap=1)
        opened = {0: [], 1: []}
        refused = []
        for index in range(8):
            tenant = f"t{index}"
            response = _one(executor, _req("open", tenant, 0))
            shard = executor.shard_of(tenant)
            if response["ok"]:
                opened[shard].append(tenant)
            else:
                refused.append(tenant)
        assert len(opened[0]) == 1 and len(opened[1]) == 1
        assert len(refused) == 6


class TestGracefulExhaustion:
    @pytest.mark.parametrize("kind", COLLECTOR_KINDS)
    def test_every_kind_exhausts_structurally_not_fatally(self, kind):
        """Pinned geometry + relentless allocation: the alloc fails
        with heap-exhausted and an occupancy snapshot, the session
        stays open, and ordinary ops keep working."""
        executor = ShardExecutor(1, jobs=0)
        assert _one(
            executor,
            _req("open", "t", 0, kind=kind, geometry=asdict(EXHAUSTIBLE)),
        )["ok"]
        uid = 0
        exhausted = None
        for _ in range(200):
            response = _one(
                executor, _req("alloc", "t", 1, uid=uid, size=8, fields=1)
            )
            if response["ok"]:
                uid += 1
                continue
            exhausted = response
            break
        assert exhausted is not None, f"{kind} never exhausted"
        error = exhausted["error"]
        assert error["kind"] == "heap-exhausted"
        # `requested` is the words the failing phase needed — the raw
        # alloc for most kinds, the promotion batch for generational.
        assert isinstance(error["requested"], int) and error["requested"] >= 8
        assert isinstance(error["occupancy"], dict) and error["occupancy"]
        assert uid > 0
        # The session survives: reads, drops, and collects all proceed.
        assert _one(executor, _req("read", "t", 2, uid=0))["ok"]
        for dropped in range(uid):
            assert _one(executor, _req("drop", "t", 3, uid=dropped))["ok"]
        collected = _one(executor, _req("collect", "t", 4))
        assert collected["ok"], collected
        allocated = _one(
            executor, _req("alloc", "t", 5, uid=uid, size=8, fields=0)
        )
        assert allocated["ok"], f"{kind} did not recover after drops"
        closed = _one(executor, _req("close", "t", 6))
        assert closed["ok"] and closed["collections"] >= 1

    def test_exhaustion_does_not_leak_across_tenants(self):
        """One tenant at the wall, its shard-mate on the happy path."""
        executor = ShardExecutor(1, jobs=0)
        _one(
            executor,
            _req("open", "greedy", 0, kind="stop-and-copy",
                 geometry=asdict(EXHAUSTIBLE)),
        )
        _one(
            executor,
            _req("open", "modest", 0, kind="stop-and-copy",
                 geometry=asdict(tenant_geometry())),
        )
        uid = 0
        while True:
            response = _one(
                executor,
                _req("alloc", "greedy", 1, uid=uid, size=8, fields=0),
            )
            if not response["ok"]:
                assert response["error"]["kind"] == "heap-exhausted"
                break
            uid += 1
        for seq in range(10):
            assert _one(
                executor,
                _req("alloc", "modest", seq + 1, uid=seq, size=4, fields=0),
            )["ok"]


class TestWorkerLossDrill:
    def test_no_committed_state_lost_across_worker_kill(self):
        """Build state, kill the worker (for real), keep loading: the
        post-kill history equals a run where no worker ever died."""

        def stream():
            ops = [_req("open", "t", 0, kind="generational",
                        geometry=asdict(tenant_geometry()))]
            seq = 1
            for uid in range(12):
                ops.append(
                    _req("alloc", "t", seq, uid=uid, size=3, fields=1)
                )
                seq += 1
                if uid % 4 == 3:
                    ops.append(_req("checkpoint", "t", seq))
                    seq += 1
            ops.append(_req("close", "t", seq))
            return ops

        def run(executor, requests):
            responses = []
            for request in requests:
                shard = executor.shard_of("t")
                responses.extend(
                    executor.execute({shard: [request]}).get(shard, [])
                )
            return responses

        with ShardExecutor(1, jobs=2) as clean:
            reference = run(clean, stream())

        requests = stream()
        drilled = []
        with ShardExecutor(1, jobs=2, chaos=True, retries=2) as executor:
            for index, request in enumerate(requests):
                shard = executor.shard_of("t")
                batch = [request]
                if index == 8:  # mid-load, state already committed
                    batch = [
                        {"op": "_chaos-exit", "attempts": 1, "tenant": "t"},
                        request,
                    ]
                drilled.extend(executor.execute({shard: batch}).get(shard, []))
        assert executor.respawns == [0]  # replayed within the batch
        assert drilled == reference
