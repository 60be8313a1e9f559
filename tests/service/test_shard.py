"""ShardExecutor: routing, mode byte-identity, fences, fault drills.

The pool-mode drills here are the real thing — `_chaos-exit` kills an
actual worker process with os._exit, SIGKILL an idle one — and the
drill asserts that the rebuilt worker, given the committed blobs and
the replayed suffix, recomputed identical answers.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from multiprocessing import connection
from pathlib import Path
from unittest import mock

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gc.registry import COLLECTOR_KINDS
from repro.metrics.registry import MetricRegistry, merge_registries
from repro.perf.parallel import PinnedWorker
from repro.service.loadgen import build_plan, tenant_geometry
from repro.service.protocol import PROTOCOL_VERSION, geometry_from_payload
from repro.service.session import TenantSession
from repro.service import shard as shard_module
from repro.service.shard import (
    COMMIT_EVERY_BATCHES,
    SHARD_MEMO_ENTRIES,
    ShardExecutor,
    ShardRuntime,
    shard_of,
)

GEOMETRY = asdict(tenant_geometry())


def _req(op: str, tenant: str, seq: int, **payload) -> dict:
    request = {
        "v": PROTOCOL_VERSION,
        "id": f"{tenant}#{seq}",
        "op": op,
        "tenant": tenant,
    }
    request.update(payload)
    return request


def _tenant_stream(tenant: str, kind: str = "mark-sweep") -> list[dict]:
    """open, a small linked working set, checkpoint, close."""
    ops = [
        _req("open", tenant, 0, kind=kind, geometry=GEOMETRY),
        _req("alloc", tenant, 1, uid=0, size=3, fields=2),
        _req("alloc", tenant, 2, uid=1, size=2, fields=1),
        _req("write", tenant, 3, src=0, slot=0, dst=1),
        _req("alloc", tenant, 4, uid=2, size=4, fields=0),
        _req("drop", tenant, 5, uid=2),
        _req("collect", tenant, 6),
        _req("checkpoint", tenant, 7),
        _req("read", tenant, 8, uid=0),
        _req("close", tenant, 9),
    ]
    return ops


def _run_streams(
    executor: ShardExecutor,
    streams: dict[str, list[dict]],
    after_round=None,
) -> dict[str, list[dict]]:
    """One request per tenant per round (the closed-loop shape);
    ``after_round(index)`` runs between rounds."""
    cursors = {tenant: 0 for tenant in streams}
    responses: dict[str, list[dict]] = {tenant: [] for tenant in streams}
    for index in itertools.count():
        batches: dict[int, list[dict]] = {}
        order: dict[int, list[str]] = {}
        for tenant in sorted(streams):
            cursor = cursors[tenant]
            if cursor >= len(streams[tenant]):
                continue
            shard = executor.shard_of(tenant)
            request = streams[tenant][cursor]
            batches.setdefault(shard, []).append(request)
            # Chaos pseudo-ops never produce a response slot.
            if not str(request.get("op", "")).startswith("_chaos"):
                order.setdefault(shard, []).append(tenant)
            cursors[tenant] += 1
        if not batches:
            return responses
        results = executor.execute(batches)
        for shard, tenants in order.items():
            for position, tenant in enumerate(tenants):
                responses[tenant].append(results[shard][position])
        if after_round is not None:
            after_round(index)


def _worker_pids(executor: ShardExecutor) -> set[int]:
    """The pids of the executor's pinned workers right now (none while
    none are forked)."""
    return {worker.pid for worker in executor._workers if worker.pid}


def _kill_worker(executor: ShardExecutor, shard: int) -> None:
    """SIGKILL the idle worker pinned to ``shard`` and wait until it is
    gone."""
    worker = executor._workers[shard % len(executor._workers)]
    os.kill(worker.pid, signal.SIGKILL)
    assert connection.wait([worker._process.sentinel], timeout=30)


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 3, 7):
            for index in range(50):
                tenant = f"t{index:05d}"
                owner = shard_of(tenant, shards)
                assert 0 <= owner < shards
                assert owner == shard_of(tenant, shards)

    def test_every_shard_gets_tenants(self):
        owners = {shard_of(f"t{i:05d}", 4) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_executor_requires_a_shard(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_executor_rejects_a_tenant_cap_below_one(self, cap):
        """A cap below one refuses every ``open``: a server that can
        hold no tenant is a configuration error, like zero shards."""
        with pytest.raises(ValueError, match="tenant cap"):
            ShardExecutor(2, tenant_cap=cap)

    def test_executor_rejects_negative_jobs(self):
        """``min(jobs, shards)`` lanes would be negative and the server
        would index past its lane list; refuse at construction."""
        with pytest.raises(ValueError, match="jobs"):
            ShardExecutor(2, jobs=-1)

    def test_routing_memo_is_bounded_and_is_the_sha256_rule(self):
        """Tenant names are client-chosen: ten times the memo's bound of
        distinct names leaves it at the bound, a name as long as a
        request line is never kept, and remembered or not every route
        is the content hash."""

        def rule(tenant: str, shards: int) -> int:
            digest = hashlib.sha256(tenant.encode("utf-8")).digest()
            return int.from_bytes(digest[:8], "big") % shards

        memo = shard_module._remembered_shard
        memo.cache_clear()
        names = [f"tenant-{index}" for index in range(10 * SHARD_MEMO_ENTRIES)]
        for name in names:
            assert shard_of(name, 5) == rule(name, 5)
        assert memo.cache_info().currsize == SHARD_MEMO_ENTRIES
        # Evicted, still remembered, and asked of another shard count.
        for name in (names[0], names[-1]):
            assert shard_of(name, 5) == rule(name, 5)
            assert shard_of(name, 3) == rule(name, 3)
        before = memo.cache_info()
        huge = "x" * (1 << 20)
        assert shard_of(huge, 5) == rule(huge, 5)
        assert memo.cache_info() == before

    def test_routes_do_not_depend_on_the_hash_seed(self):
        names = [f"t{index:05d}" for index in range(64)] + ["café", "租户"]
        script = (
            "import sys\n"
            "from repro.service.shard import shard_of\n"
            "print([shard_of(name, 7) for name in sys.argv[1:]])\n"
        )
        routes = set()
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            routes.add(
                subprocess.run(
                    [sys.executable, "-c", script, *names],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=60,
                ).stdout
            )
        assert routes == {f"{[shard_of(name, 7) for name in names]}\n"}


class TestModeEquivalence:
    def test_inline_and_pool_are_byte_identical(self):
        """Responses AND merged metric registries must match exactly
        across jobs=0 (in-process) and jobs=2 (worker pool)."""
        streams = {
            f"t{i}": _tenant_stream(
                f"t{i}", kind=["mark-sweep", "generational", "concurrent"][i % 3]
            )
            for i in range(6)
        }
        inline = ShardExecutor(2, jobs=0)
        inline_responses = _run_streams(inline, streams)
        with ShardExecutor(2, jobs=2) as pool:
            pool_responses = _run_streams(pool, streams)
        assert pool_responses == inline_responses
        inline_metrics = {
            r.label: r.canonical_json() for r in inline.merged_metrics()
        }
        pool_metrics = {
            r.label: r.canonical_json() for r in pool.merged_metrics()
        }
        assert pool_metrics == inline_metrics

    def test_single_shard_pool_batch_runs_out_of_process(self):
        """A one-shard batch must still cross the process boundary
        (resilient_map would otherwise degrade to in-process serial —
        losing crash isolation for tenant heaps)."""
        import os

        parent = os.getpid()
        # If this ran in-process, _chaos-exit would kill the test run.
        with ShardExecutor(1, jobs=2, chaos=True, retries=2) as executor:
            responses = executor.execute(
                {
                    0: [
                        _req("open", "t0", 0, kind="mark-sweep"),
                        {"op": "_chaos-exit", "attempts": 1},
                        _req("close", "t0", 1),
                    ]
                }
            )
        assert os.getpid() == parent
        assert [r["ok"] for r in responses[0]] == [True, True]


class TestErrorScoping:
    def test_unknown_tenant_and_tenant_exists(self):
        executor = ShardExecutor(1, jobs=0)
        shard = executor.shard_of("t0")
        (responses,) = executor.execute(
            {shard: [_req("checkpoint", "t0", 0)]}
        ).values()
        assert responses[0]["error"]["kind"] == "unknown-tenant"
        executor.execute({shard: [_req("open", "t0", 1, kind="mark-sweep")]})
        (responses,) = executor.execute(
            {shard: [_req("open", "t0", 2, kind="mark-sweep")]}
        ).values()
        assert responses[0]["error"]["kind"] == "tenant-exists"

    def test_open_without_a_backend_gets_the_flat_heap(self):
        executor = ShardExecutor(1, jobs=0)
        shard = executor.shard_of("t0")
        (responses,) = executor.execute(
            {shard: [_req("open", "t0", 0, kind="mark-sweep")]}
        ).values()
        assert responses[0]["backend"] == "flat"

    def test_internal_error_evicts_one_tenant_only(self, monkeypatch):
        """The blast-radius fence: an op that raises unexpectedly
        inside one session becomes a structured `internal` error, that
        tenant is evicted, and its neighbours never notice."""
        executor = ShardExecutor(1, jobs=0)
        shard = executor.shard_of("victim")
        assert shard == executor.shard_of("bystander")
        executor.execute(
            {
                shard: [
                    _req("open", "victim", 0, kind="mark-sweep"),
                    _req("open", "bystander", 0, kind="mark-sweep"),
                    _req("alloc", "bystander", 1, uid=0, size=2, fields=0),
                ]
            }
        )

        original = TenantSession.apply

        def exploding_apply(self, request):
            if self.tenant == "victim":
                raise RuntimeError("heap metadata corrupted")
            return original(self, request)

        monkeypatch.setattr(TenantSession, "apply", exploding_apply)
        (responses,) = executor.execute(
            {
                shard: [
                    _req("alloc", "victim", 1, uid=0, size=2, fields=0),
                    _req("read", "bystander", 2, uid=0),
                ]
            }
        ).values()
        assert responses[0]["error"]["kind"] == "internal"
        assert "evicted" in responses[0]["error"]["detail"]
        assert responses[1]["ok"] is True
        monkeypatch.setattr(TenantSession, "apply", original)
        # The victim is gone; the bystander still serves.
        (responses,) = executor.execute(
            {
                shard: [
                    _req("checkpoint", "victim", 2),
                    _req("checkpoint", "bystander", 3),
                ]
            }
        ).values()
        assert responses[0]["error"]["kind"] == "unknown-tenant"
        assert responses[1]["ok"] is True


#: Every (kind, geometry override) the kind's constructor refuses
#: although each value is of the type the protocol asks for.
UNBUILDABLE = [
    (kind, {field: value})
    for kinds, field, values in [
        (
            ("mark-sweep", "stop-and-copy", "incremental", "concurrent"),
            "semispace_words",
            (0, -5),
        ),
        (
            ("mark-sweep", "stop-and-copy", "incremental", "concurrent"),
            "load_factor",
            (0, 1, -5.0),
        ),
        (("generational", "hybrid"), "nursery_words", (0, -5)),
        (("generational",), "gen_oldest_load_factor", (0, 1.0)),
        (("non-predictive", "hybrid"), "step_words", (0, -5)),
        (("non-predictive", "hybrid"), "step_count", (0, 1, -5)),
        (("incremental",), "slice_budget", (0, -5)),
        (("concurrent",), "marker_workers", (-1,)),
    ]
    for kind in kinds
    for value in values
]


class TestUnbuildableGeometry:
    """An ``open`` whose geometry the collector's constructor rejects
    is the request's fault: ``bad-request`` with the constructor's
    message, and no trace of a session that never existed."""

    def _batch(self) -> list[dict]:
        batch = [_req("open", "neighbour", 0, kind="generational")]
        for index, (kind, geometry) in enumerate(UNBUILDABLE):
            batch.append(
                _req("open", f"u{index}", 0, kind=kind, geometry=geometry)
            )
        batch.append(_req("alloc", "neighbour", 1, uid=0, size=2, fields=0))
        # The name is free: the same tenant opens with a sane geometry.
        batch.append(_req("open", "u0", 1, kind=UNBUILDABLE[0][0]))
        return batch

    def test_every_cell_is_a_bad_request_and_counts_nothing_else(self):
        executor = ShardExecutor(1, jobs=0)
        (responses,) = executor.execute({0: self._batch()}).values()
        refused = responses[1 : 1 + len(UNBUILDABLE)]
        for (kind, geometry), response in zip(UNBUILDABLE, refused):
            assert response["ok"] is False, (kind, geometry)
            assert response["error"]["kind"] == "bad-request"
            assert "evicted" not in response["error"]["detail"]
            # The constructor's own words: a size or factor and its value.
            assert "got" in response["error"]["detail"], (kind, geometry)
        assert [r["ok"] for r in (responses[0], *responses[-2:])] == [True] * 3
        assert executor.open_tenants(0) == 2
        assert sorted(executor._runtimes[0].sessions) == ["neighbour", "u0"]
        (service,) = [
            r for r in executor.merged_metrics() if r.label == "service"
        ]
        assert {
            name: service.get(name).value
            for name in service.names()
            if not name.startswith("requests.")
        } == {
            "tenants_opened": 2,
            "responses_ok": 3,
            "errors.bad-request": len(UNBUILDABLE),
        }

    def test_inline_and_pool_agree_byte_for_byte(self):
        inline = ShardExecutor(1, jobs=0)
        with ShardExecutor(1, jobs=2) as pool:
            assert pool.execute({0: self._batch()}) == inline.execute(
                {0: self._batch()}
            )
        assert {r.label: r.canonical_json() for r in pool.merged_metrics()} == {
            r.label: r.canonical_json() for r in inline.merged_metrics()
        }
        assert sorted(pool.shard_state(0)) == ["neighbour", "u0"]


def _recording_sends(monkeypatch) -> list[tuple]:
    """Every message the parent sends a pinned worker, from now on."""
    sent: list[tuple] = []
    original = PinnedWorker.send

    def recording(self, message):
        sent.append(message)
        return original(self, message)

    monkeypatch.setattr(PinnedWorker, "send", recording)
    return sent


class TestPartialStateShipping:
    def test_untouched_tenants_are_not_shipped_but_still_counted(
        self, monkeypatch
    ):
        """A batch message is the shard's requests and an attempt
        counter, whatever the worker holds: its pickled size is the
        same beside three empty heaps and beside three grown ones, and
        the resident tenants still count against the cap."""
        shard = 0
        sent = _recording_sends(monkeypatch)
        with ShardExecutor(1, jobs=2, tenant_cap=3) as executor:
            executor.execute(
                {
                    shard: [
                        _req("open", "a", 0, kind="mark-sweep"),
                        _req("open", "b", 0, kind="mark-sweep"),
                        _req("open", "c", 0, kind="mark-sweep"),
                    ]
                }
            )
            assert executor.open_tenants(shard) == 3
            sizes = []
            for seq in (1, 2):
                knock = _req("open", "d", seq, kind="mark-sweep")
                del sent[:]
                (responses,) = executor.execute({shard: [knock]}).values()
                assert sent == [("batch", [(shard, [knock], 0)])]
                sizes.append(len(pickle.dumps(sent[0])))
                error = responses[0]["error"]
                assert error["kind"] == "backpressure"
                assert error["open_tenants"] == 3
                assert error["tenant_cap"] == 3
                # Grow every resident heap between the two knocks.
                for tenant in "abc":
                    executor.execute(
                        {
                            shard: [
                                _req("alloc", tenant, 10 + uid, uid=uid,
                                     size=8, fields=0)
                                for uid in range(300)
                            ]
                        }
                    )
            assert sizes[0] == sizes[1]
            assert sum(map(len, executor.shard_state(shard).values())) > 0
            # Closing frees the slot for the next open.
            executor.execute({shard: [_req("close", "a", 1)]})
            assert executor.open_tenants(shard) == 2
            (responses,) = executor.execute(
                {shard: [_req("open", "d", 3, kind="mark-sweep")]}
            ).values()
            assert responses[0]["ok"] is True
        # Nothing was lost, so no blob ever travelled to a worker.
        assert all(verb in ("batch", "commit") for verb, _ in sent)

    def test_churn_leaves_nothing_behind(self):
        """5,000 batches that each open, run and close (or evict) a
        tenant beside one long-lived neighbour: the parent's suffix
        never outgrows the commit cadence, and a gone tenant leaves no
        blob, suffix entry or session in the parent or the worker."""

        def batch(index: int) -> list[dict]:
            tenant = f"c{index}"
            ops = [
                _req("open", tenant, 0, kind="mark-sweep"),
                _req("alloc", tenant, 1, uid=0, size=2, fields=1),
                _req("alloc", "keeper", index, uid=index % 50, size=2,
                     fields=0),
            ]
            if index % 7:
                ops.append(_req("close", tenant, 2))
            else:
                # No validator lets a string slot through: the op
                # raises inside the session and evicts the tenant.
                ops.append(
                    _req("write", tenant, 2, src=0, slot="0", dst=None)
                )
            return ops

        runtime = ShardRuntime(0)
        opening = [_req("open", "keeper", 0, kind="generational")]
        runtime.apply_batch(opening)
        with ShardExecutor(1, jobs=1) as executor:
            executor.execute({0: opening})
            ledger = executor._ledgers[0]
            longest = 0
            for index in range(5000):
                ops = batch(index)
                (responses,) = executor.execute({0: ops}).values()
                assert responses == runtime.apply_batch(ops)
                longest = max(longest, len(ledger.suffix))
            assert longest == COMMIT_EVERY_BATCHES - 1
            assert executor.open_tenants(0) == 1
            # A commit point: the worker's tenants are the blobs' keys.
            assert list(executor.shard_state(0)) == ["keeper"]
            assert ledger.suffix == []
            assert list(ledger.blobs) == ["keeper"]
            (service,) = [
                r for r in executor.merged_metrics() if r.label == "service"
            ]
        assert service.get("tenants_evicted").value == 5000 // 7 + 1
        assert service.get("tenants_closed").value == 5000 - 5000 // 7 - 1
        # The same class the worker runs, looked at from inside.
        runtime.registries
        assert list(runtime.sessions) == ["keeper"]
        assert not runtime._cold and not runtime._undrained
        assert runtime._touched == {"keeper"}


#: Two tenants on each of two shards.
TWO_SHARD_TENANTS = ("t0", "t1", "t4", "t5")


def _open_streams() -> dict[str, list[dict]]:
    """Four tenants over both shards, left open so that their committed
    blobs can be compared at the end."""
    return {
        tenant: _tenant_stream(tenant, kind="generational")[:-1]
        for tenant in TWO_SHARD_TENANTS
    }


#: The two fault drills, each standing down on its first retry.
DRILLS = {
    "exit": {"op": "_chaos-exit", "attempts": 1, "tenant": "t0"},
    "spin": {"op": "_chaos-spin", "attempts": 1, "seconds": 30.0,
             "tenant": "t0"},
}


class TestFaultDrills:
    def _streams(self):
        return {
            f"t{i}": _tenant_stream(f"t{i}", kind="generational")
            for i in range(4)
        }

    def test_worker_exit_mid_load_loses_no_committed_state(self):
        """Kill a worker between batches: every committed checkpoint
        digest must match the chaos-free run exactly."""
        with ShardExecutor(2, jobs=2) as clean:
            reference = _run_streams(clean, self._streams())

        streams = self._streams()
        # Splice a worker-kill into the middle of one tenant's stream;
        # chaos ops produce no response and never reach a session.
        streams["t0"] = (
            streams["t0"][:5]
            + [{"op": "_chaos-exit", "attempts": 1, "tenant": "t0"}]
            + streams["t0"][5:]
        )
        with ShardExecutor(2, jobs=2, chaos=True, retries=2) as executor:
            drilled = _run_streams(executor, streams)
        assert drilled == reference

    @pytest.mark.parametrize("drill", DRILLS)
    def test_a_retried_drill_keeps_the_blobs_and_reforks_the_pool(self, drill):
        """The drill's retry replays the batch on a newly forked worker
        for the drilled shard, rebuilt from committed blobs plus the
        suffix, which every later batch reuses; the other shard's worker
        never notices.  Responses and committed blobs equal an inline
        run's byte for byte."""
        inline = ShardExecutor(2, jobs=0)
        reference = _run_streams(inline, _open_streams())
        streams = _open_streams()
        streams["t0"] = streams["t0"][:5] + [DRILLS[drill]] + streams["t0"][5:]
        pids: list[set[int]] = []
        with ShardExecutor(
            2, jobs=2, chaos=True, retries=2, timeout=2.0
        ) as executor:
            drilled = _run_streams(
                executor,
                streams,
                after_round=lambda _: pids.append(_worker_pids(executor)),
            )
            assert drilled == reference
            assert executor.respawns == [0, 0]
            for shard in range(2):
                assert executor.shard_state(shard) == inline.shard_state(shard)
        # Round 5 carried the drill: exactly one worker was replaced.
        assert len(pids[4]) == len(pids[5]) == 2
        assert len(pids[5] - pids[4]) == 1
        assert all(seen == pids[5] for seen in pids[5:])

    def test_drained_batch_fails_structurally_then_revives(self):
        """Exhaust the retry budget: the batch drains to shard-failed,
        committed state is intact, and the next batch serves again."""
        with ShardExecutor(1, jobs=2, chaos=True, retries=1) as executor:
            shard = 0
            executor.execute(
                {
                    shard: [
                        _req("open", "t0", 0, kind="mark-sweep"),
                        _req("alloc", "t0", 1, uid=0, size=3, fields=0),
                    ]
                }
            )
            before = executor.shard_state(shard)["t0"]
            (responses,) = executor.execute(
                {
                    shard: [
                        {"op": "_chaos-exit", "attempts": 99, "tenant": "t0"},
                        _req("alloc", "t0", 2, uid=1, size=2, fields=0),
                    ]
                }
            ).values()
            assert len(responses) == 1  # chaos pseudo-op gets no response
            assert responses[0]["error"]["kind"] == "shard-failed"
            assert executor.respawns[shard] == 1
            assert executor.shard_state(shard)["t0"] == before
            # Revival: the same request succeeds on the next batch.
            (responses,) = executor.execute(
                {shard: [_req("alloc", "t0", 3, uid=1, size=2, fields=0)]}
            ).values()
            assert responses[0]["ok"] is True
            assert responses[0]["uid"] == 1

    def test_wedged_batch_drains_and_leaves_no_worker(self, new_workers):
        """A batch that spins past the timeout drains like a crashed
        one: its worker is killed rather than left spinning, the
        committed blob never moved, and the next batch serves again."""
        with ShardExecutor(
            1, jobs=2, chaos=True, retries=0, timeout=0.3
        ) as executor:
            executor.execute(
                {
                    0: [
                        _req("open", "t0", 0, kind="mark-sweep"),
                        _req("alloc", "t0", 1, uid=0, size=3, fields=0),
                    ]
                }
            )
            before = executor.shard_state(0)["t0"]
            (responses,) = executor.execute(
                {
                    0: [
                        {
                            "op": "_chaos-spin",
                            "attempts": 99,
                            "seconds": 30.0,
                            "tenant": "t0",
                        },
                        _req("alloc", "t0", 2, uid=1, size=2, fields=0),
                    ]
                }
            ).values()
            assert responses[0]["error"]["kind"] == "shard-failed"
            assert executor.respawns == [1]
            assert executor.shard_state(0)["t0"] == before
            assert not new_workers()
            (responses,) = executor.execute(
                {0: [_req("alloc", "t0", 3, uid=1, size=2, fields=0)]}
            ).values()
            assert responses[0]["ok"] is True

    def test_stats_snapshot_shape(self):
        executor = ShardExecutor(3, jobs=0, tenant_cap=10)
        executor.execute(
            {executor.shard_of("t0"): [_req("open", "t0", 0)]}
        )
        stats = executor.stats()
        assert stats["shards"] == 3
        assert stats["tenant_cap"] == 10
        assert stats["batches"] == 1
        assert sum(stats["open_tenants"]) == 1
        assert stats["respawns"] == [0, 0, 0]


class TestWorkerLifetime:
    """A pool-mode executor forks its workers once and keeps them:
    only the retry ladder re-forks them, and only ``close`` ends them."""

    def test_fifty_batches_run_on_the_workers_of_the_first(self, new_workers):
        pids: list[set[int]] = []
        with ShardExecutor(2, jobs=3) as executor:
            for index in range(50):
                batches: dict[int, list[dict]] = {}
                for tenant in TWO_SHARD_TENANTS:
                    request = (
                        _req("alloc", tenant, index, uid=index, size=2,
                             fields=0)
                        if index
                        else _req("open", tenant, 0, kind="mark-sweep")
                    )
                    batches.setdefault(executor.shard_of(tenant), []).append(
                        request
                    )
                assert sorted(batches) == [0, 1]
                answered = executor.execute(batches)
                assert all(r["ok"] for rs in answered.values() for r in rs)
                pids.append(_worker_pids(executor))
            assert executor.respawns == [0, 0]
        assert len(pids[0]) == 2  # min(jobs, shards)
        assert all(seen == pids[0] for seen in pids)
        assert not new_workers()

    def test_an_idle_worker_killed_between_batches_costs_no_request(self):
        """The dead worker is noticed before the next batch is sent; a
        new one is rebuilt from the committed blobs plus the suffix, so
        responses and blobs equal an inline run's."""
        inline = ShardExecutor(2, jobs=0)
        reference = _run_streams(inline, _open_streams())

        with ShardExecutor(2, jobs=2) as executor:

            def kill_a_worker(index: int) -> None:
                if index == 4:
                    assert executor._ledgers[0].suffix
                    _kill_worker(executor, 0)

            killed = _run_streams(
                executor, _open_streams(), after_round=kill_a_worker
            )
            assert killed == reference
            assert executor.respawns == [0, 0]
            for shard in range(2):
                assert executor.shard_state(shard) == inline.shard_state(shard)


    def test_a_replay_that_answers_differently_drains_the_shard(
        self, monkeypatch
    ):
        """Replay is checked, not trusted: a rebuilt worker whose replay
        of the suffix answers one request differently drains the batch
        with ``shard-failed`` naming that request, and the shard serves
        again, byte-identical to inline, once the replay is honest."""
        opening = [
            _req("open", "t0", 0, kind="mark-sweep"),
            _req("alloc", "t0", 1, uid=0, size=3, fields=1),
        ]
        inline = ShardExecutor(1, jobs=0)
        with ShardExecutor(1, jobs=1) as executor:
            for ops in (opening, [_req("read", "t0", 2, uid=0)]):
                assert executor.execute({0: ops}) == inline.execute({0: ops})
            assert len(executor._ledgers[0].suffix) == 2
            original = TenantSession.apply

            def drifting(self, request):
                response = original(self, request)
                if request["op"] == "read":
                    response = {**response, "drift": True}
                return response

            # Only a worker forked from now on runs the drifting apply.
            monkeypatch.setattr(TenantSession, "apply", drifting)
            _kill_worker(executor, 0)
            later = [_req("checkpoint", "t0", 3)]
            (responses,) = executor.execute({0: later}).values()
            (failed,) = responses
            assert failed["error"]["kind"] == "shard-failed"
            assert "replay check" in failed["error"]["detail"]
            assert "'t0#2'" in failed["error"]["detail"]
            assert executor.respawns == [1]
            assert len(executor._ledgers[0].suffix) == 2

            monkeypatch.setattr(TenantSession, "apply", original)
            assert executor.execute({0: later}) == inline.execute({0: later})
            assert executor.shard_state(0) == inline.shard_state(0)
        assert _jsonable(executor.merged_metrics()) == _jsonable(
            inline.merged_metrics()
        )


#: A stale handle, three ways: read it, store from it, store it.
STALE_USES = {
    "read": {"op": "read", "uid": 0},
    "write-src": {"op": "write", "src": 0, "slot": 0, "dst": 1},
    "write-dst": {"op": "write", "src": 1, "slot": 0, "dst": 0},
}


def _stale_uid_streams() -> dict[str, list[dict]]:
    """Every kind × stale use: uid 0 is dropped and collected, then
    used; the session must answer and keep serving."""
    streams = {}
    for kind in COLLECTOR_KINDS:
        for use, payload in STALE_USES.items():
            tenant = f"{kind}/{use}"
            stale = _req(payload["op"], tenant, 5)
            stale.update(payload)
            streams[tenant] = [
                _req("open", tenant, 0, kind=kind, geometry=GEOMETRY),
                _req("alloc", tenant, 1, uid=0, size=2, fields=1),
                _req("alloc", tenant, 2, uid=1, size=2, fields=1),
                _req("drop", tenant, 3, uid=0),
                _req("collect", tenant, 4),
                stale,
                _req("read", tenant, 6, uid=1),
                _req("checkpoint", tenant, 7),
                _req("close", tenant, 8),
            ]
    return streams


class TestStaleUid:
    """A uid whose object a collection reclaimed is the client's stale
    handle, not corrupted tenant state: ``unknown-uid``, nothing
    evicted, the session keeps serving.

    Writing a pointer to a dropped object that is unreachable but not
    yet collected is a different, still open hazard (the hostile-input
    item of ROADMAP.md): the store succeeds and may resurrect it.
    """

    def test_every_kind_and_use_answers_unknown_uid_in_both_modes(self):
        streams = _stale_uid_streams()
        inline = ShardExecutor(2, jobs=0)
        inline_responses = _run_streams(inline, streams)
        with ShardExecutor(2, jobs=2) as pool:
            assert _run_streams(pool, streams) == inline_responses
        inline_metrics = {
            r.label: r.canonical_json() for r in inline.merged_metrics()
        }
        assert {
            r.label: r.canonical_json() for r in pool.merged_metrics()
        } == inline_metrics

        for tenant, responses in inline_responses.items():
            stale = responses[5]
            assert stale["ok"] is False, tenant
            assert stale["error"]["kind"] == "unknown-uid", tenant
            assert "collected" in stale["error"]["detail"], tenant
            assert all(
                r["ok"] for i, r in enumerate(responses) if i != 5
            ), tenant
            # The refused store wrote nothing into uid 1.
            assert responses[6]["fields"] == [None], tenant

        (service,) = [
            r for r in inline.merged_metrics() if r.label == "service"
        ]
        assert service.get("tenants_evicted") is None
        assert service.get("errors.unknown-uid").value == len(streams)
        assert service.get("tenants_closed").value == len(streams)


def _interleave(plan) -> list[dict]:
    """The plan's requests round-robin over its tenants (each tenant's
    own order kept), as a closed-loop client would send them."""
    cursors = [0] * len(plan.plans)
    stream: list[dict] = []
    while len(stream) < plan.request_count:
        for index, tenant_plan in enumerate(plan.plans):
            if cursors[index] < len(tenant_plan.requests):
                stream.append(tenant_plan.requests[cursors[index]])
                cursors[index] += 1
    return stream


def _jsonable(registries) -> dict[str, str]:
    return {r.label: r.canonical_json() for r in registries}


#: One loadgen plan for the drain-cadence property: every kind, two of
#: them twice (so two tenants share a registry), enough ops per tenant
#: for each kind to collect.
_CADENCE_PLAN = build_plan(
    len(COLLECTOR_KINDS) + 2, seed=3, ops_per_tenant=40
)
_CADENCE_STREAM = _interleave(_CADENCE_PLAN)


def _drained_once_at_close(plan) -> dict[str, str]:
    """Each tenant's ops through a bare session, drained once at the
    end: the registries every drain cadence must reproduce."""
    registries: dict[str, MetricRegistry] = {}
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
        label = session.metrics_label
        session.drain_metrics(
            registries.setdefault(label, MetricRegistry(label))
        )
    return _jsonable(registries.values())


class TestDrainCadence:
    """Sessions are drained when the registries are read or the
    sessions captured — not per batch — and no batching, read or
    migration point changes a byte of what the registries say."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_batching_reads_and_migration_drain_identically(self, data):
        stream = _CADENCE_STREAM
        cuts = sorted(
            data.draw(
                st.sets(
                    st.integers(1, len(stream) - 1), min_size=1, max_size=5
                ),
                label="cuts",
            )
        )
        bounds = [0, *cuts, len(stream)]
        batches = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        # Boundaries (after batch i) where metrics are read mid-run and
        # where the runtime's sessions are captured and revived.
        read_at = data.draw(st.integers(0, len(batches) - 1), label="read")
        migrate_at = data.draw(
            st.integers(0, len(batches) - 1), label="migrate"
        )

        inline = ShardExecutor(1, jobs=0)
        runtime = ShardRuntime(0)
        retired: list[MetricRegistry] = []
        with ShardExecutor(1, jobs=2) as pool:
            for index, batch in enumerate(batches):
                inline_responses = inline.execute({0: batch})
                assert pool.execute({0: batch}) == inline_responses
                assert runtime.apply_batch(batch) == inline_responses[0]
                if index == read_at:
                    inline.merged_metrics()  # the ``metrics`` op's read
                    runtime.registries
                if index == migrate_at:
                    state = runtime.export_state()
                    retired += runtime.registries.values()
                    runtime = ShardRuntime(0, state=state)
        retired += runtime.registries.values()
        by_label: dict[str, list[MetricRegistry]] = {}
        for registry in retired:
            by_label.setdefault(registry.label, []).append(registry)
        migrated = _jsonable(
            merge_registries(group, label)
            for label, group in by_label.items()
        )

        inline_metrics = _jsonable(inline.merged_metrics())
        assert _jsonable(pool.merged_metrics()) == inline_metrics
        assert migrated == inline_metrics
        tenants_only = {
            label: text
            for label, text in inline_metrics.items()
            if label != "service"
        }
        assert tenants_only == _drained_once_at_close(_CADENCE_PLAN)

    def test_eviction_drains_every_acknowledged_op_in_both_modes(self):
        """The fence drains an evicted session before dropping it, so
        its registry counts the ops of the evicting batch that came
        before the one that raised — in pool mode as inline."""
        victim, bystander = "victim", "bystander"

        def allocs(tenant, first, count):
            return [
                _req("alloc", tenant, first + k, uid=first + k, size=6,
                     fields=1)
                for k in range(count)
            ]

        batches = [
            [
                _req("open", victim, 0, kind="generational",
                     geometry=GEOMETRY),
                _req("open", bystander, 0, kind="mark-sweep",
                     geometry=GEOMETRY),
                *allocs(victim, 1, 8),
            ],
            [*allocs(victim, 9, 8), _req("collect", victim, 17),
             *allocs(bystander, 1, 3)],
            [*allocs(victim, 18, 4), _req("collect", victim, 22)],
            [
                *allocs(victim, 23, 2),
                _req("collect", victim, 25),
                # No validator lets a string slot through: it stands in
                # for any op that raises inside the session.
                _req("write", victim, 26, src=1, slot="0", dst=None),
                _req("checkpoint", bystander, 4),
            ],
            [_req("checkpoint", victim, 27), _req("close", bystander, 5)],
        ]
        inline = ShardExecutor(1, jobs=0)
        answers = []
        with ShardExecutor(1, jobs=2) as pool:
            for batch in batches:
                answers.append(inline.execute({0: batch})[0])
                assert pool.execute({0: batch})[0] == answers[-1]
        inline_metrics = _jsonable(inline.merged_metrics())
        assert _jsonable(pool.merged_metrics()) == inline_metrics

        evicting = answers[3]
        assert [r["ok"] for r in evicting] == [True, True, True, False, True]
        assert evicting[3]["error"]["kind"] == "internal"
        assert "evicted" in evicting[3]["error"]["detail"]
        assert answers[4][0]["error"]["kind"] == "unknown-tenant"

        # What the victim acknowledged, through a bare session, drained
        # once: the three collects of batches 2–4 included.
        session = TenantSession(
            victim, kind="generational", geometry=tenant_geometry()
        )
        for batch in batches[:4]:
            for request in batch:
                if request["tenant"] == victim and request["op"] not in (
                    "open", "write",
                ):
                    session.apply(request)
        reference = MetricRegistry(session.metrics_label)
        session.drain_metrics(reference)
        assert inline_metrics[session.metrics_label] == (
            reference.canonical_json()
        )
        assert reference.get("collections").value >= 3
        (service,) = [
            r for r in inline.merged_metrics() if r.label == "service"
        ]
        assert service.get("tenants_evicted").value == 1

    def test_inline_batches_drain_nothing_until_a_read(self, monkeypatch):
        calls: list[str] = []
        original = TenantSession.drain_metrics

        def counting(self, registry):
            calls.append(self.tenant)
            return original(self, registry)

        monkeypatch.setattr(TenantSession, "drain_metrics", counting)
        executor = ShardExecutor(1, jobs=0)
        executor.execute(
            {0: [_req("open", "t0", 0, kind="generational", geometry=GEOMETRY)]}
        )
        for seq in range(1, 13):
            executor.execute(
                {0: [_req("alloc", "t0", seq, uid=seq, size=5, fields=1)]}
            )
        assert calls == []
        executor.merged_metrics()
        assert calls == ["t0"]
        executor.merged_metrics()  # nothing ran since the last drain
        assert calls == ["t0"]


class TestKillAnywhere:
    """Kill a pool worker anywhere between commit points — idle with
    acknowledged batches not yet committed, or in the middle of a
    batch — and nothing a client or a reader can see changes: the
    rebuilt worker replays the suffix onto the committed blobs."""

    @pytest.mark.parametrize("path", ["execute", "lanes"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_responses_registries_and_blobs_equal_inline(self, path, data):
        """Through the synchronous :meth:`ShardExecutor.execute` and
        through the awaited lane entry point (every lane side by side,
        reads awaited too), with the same equalities."""
        stream = _CADENCE_STREAM
        cuts = sorted(
            data.draw(
                st.sets(
                    st.integers(1, len(stream) - 1), min_size=1, max_size=6
                ),
                label="cuts",
            )
        )
        bounds = [0, *cuts, len(stream)]
        batches = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        last = len(batches) - 1
        commit_every = data.draw(st.integers(2, 5), label="commit every")
        read_at = data.draw(st.integers(0, last), label="read")
        migrate_at = data.draw(st.integers(0, last), label="migrate")
        kill = data.draw(
            st.sampled_from(["sigkill", "_chaos-exit", "_chaos-spin"]),
            label="kill",
        )
        kill_at = data.draw(st.integers(0, last), label="kill at")
        victim = data.draw(st.integers(0, 1), label="shard")
        lanes = path == "lanes"

        async def execute(pool, routed):
            if lanes:
                return await _through_lanes(pool, routed)
            return pool.execute(routed)

        async def metrics(pool):
            if lanes:
                return await pool.lane_metrics()
            return pool.merged_metrics()

        inline = ShardExecutor(2, jobs=0)
        killed = False

        async def body(pool):
            nonlocal killed
            for index, batch in enumerate(batches):
                routed = _routed(pool, batch)
                expected = inline.execute(routed)
                if kill != "sigkill" and index == kill_at:
                    drill = {"op": kill, "attempts": 1, "seconds": 30.0}
                    shard = victim if victim in routed else 1 - victim
                    routed[shard] = [drill, *routed[shard]]
                assert await execute(pool, routed) == expected
                # The idle kill waits for a shard with an uncommitted
                # suffix, which at most one more batch brings.
                if kill == "sigkill" and index >= kill_at and not killed:
                    for shard in (victim, 1 - victim):
                        if pool._ledgers[shard].suffix:
                            _kill_worker(pool, shard)
                            killed = True
                            # Lanes: the loop may see the exit first.
                            await asyncio.sleep(0)
                            await asyncio.sleep(0)
                            break
                if index == read_at:
                    assert _jsonable(await metrics(pool)) == _jsonable(
                        inline.merged_metrics()
                    )
                if index == migrate_at:
                    for shard in range(2):
                        assert pool.shard_state(shard) == inline.shard_state(
                            shard
                        )
            assert pool.respawns == [0, 0]
            if lanes:
                pool.close()

        with mock.patch.object(
            shard_module, "COMMIT_EVERY_BATCHES", commit_every
        ), ShardExecutor(2, jobs=2, chaos=True, timeout=1.0) as pool:
            asyncio.run(body(pool))
        assert kill != "sigkill" or killed or kill_at == last
        assert _jsonable(pool.merged_metrics()) == _jsonable(
            inline.merged_metrics()
        )
        for shard in range(2):
            assert pool.shard_state(shard) == inline.shard_state(shard)


class TestLanes:
    """The awaited entry point: one lane per pinned worker, each
    awaiting its own worker on the event loop."""

    def test_a_wedged_lane_holds_up_no_other(self):
        """Shard 0's worker spins past the task timeout mid-batch while
        shard 1's tenants keep getting answers; shard 0's lane then
        times out, kills, rebuilds, checks the replay and retries, all
        on the loop, and ends where inline ends."""
        streams = _open_streams()
        wedged = [t for t in streams if shard_of(t, 2) == 0]
        serving = [t for t in streams if shard_of(t, 2) == 1]
        assert wedged and serving
        inline = ShardExecutor(2, jobs=0)
        timeout = 1.0

        def round_of(tenants, position):
            return [streams[t][position] for t in tenants]

        async def body(pool):
            threads = threading.active_count()
            for position in range(4):  # a suffix for the rebuild
                routed = _routed(pool, round_of(streams, position))
                assert await _through_lanes(pool, routed) == inline.execute(
                    routed
                )
            before = pool._workers[0].pid
            drill = {"op": "_chaos-spin", "attempts": 1, "seconds": 30.0}
            ops = round_of(wedged, 4)
            expected = inline.execute({0: ops})
            stall = asyncio.create_task(
                pool.execute_lane(0, {0: [drill, *ops]})
            )
            answered, slowest = 0, 0.0
            started = time.monotonic()
            while not stall.done():
                request = _req("alloc", serving[answered % len(serving)],
                               100 + answered, uid=100 + answered, size=2,
                               fields=0)
                sent = time.monotonic()
                (response,) = (await pool.execute_lane(1, {1: [request]}))[1]
                slowest = max(slowest, time.monotonic() - sent)
                assert response["ok"]
                expected_other = inline.execute({1: [request]})[1][0]
                assert response == expected_other
                answered += 1
            assert time.monotonic() - started >= timeout
            assert await stall == expected
            assert answered >= 10 and slowest < timeout / 2
            assert pool._workers[0].pid not in (None, before)
            assert pool.respawns == [0, 0]
            for position in range(5, len(streams[wedged[0]])):
                routed = _routed(pool, round_of(streams, position))
                assert await _through_lanes(pool, routed) == inline.execute(
                    routed
                )
            assert _jsonable(await pool.lane_metrics()) == _jsonable(
                inline.merged_metrics()
            )
            assert threading.active_count() == threads
            pool.close()

        with ShardExecutor(2, jobs=2, chaos=True, timeout=timeout) as pool:
            asyncio.run(body(pool))
        for shard in range(2):
            assert pool.shard_state(shard) == inline.shard_state(shard)

    def test_an_idle_exit_seen_by_the_loop_costs_no_attempt(self):
        """With no retry to spare, a worker killed while idle is reaped
        by the loop's watch on its sentinel, and the next batch rebuilds
        it instead of failing."""
        opening = [_req("open", "t0", 0, kind="mark-sweep"),
                   _req("alloc", "t0", 1, uid=0, size=3, fields=1)]
        later = [_req("read", "t0", 2, uid=0)]
        inline = ShardExecutor(1, jobs=0)

        async def body(pool):
            assert await pool.execute_lane(0, {0: opening}) == inline.execute(
                {0: opening}
            )
            _kill_worker(pool, 0)
            for _ in range(200):
                if pool._workers[0].pid is None:
                    break
                await asyncio.sleep(0.005)
            assert pool._workers[0].pid is None
            assert not pool._ledgers[0].resident
            assert await pool.execute_lane(0, {0: later}) == inline.execute(
                {0: later}
            )
            assert pool.respawns == [0]
            pool.close()

        with ShardExecutor(1, jobs=1, retries=0) as pool:
            asyncio.run(body(pool))
        assert pool.shard_state(0) == inline.shard_state(0)

    def test_a_worker_seen_to_exit_after_its_rebuild_holds_nothing(self):
        """The rebuilt worker replies and the loop then sees it exit
        before the lane resumes: the batch goes to no fresh fork that
        lacks the shard, it is retried on a new rebuild instead."""
        opening = [_req("open", "t0", 0, kind="mark-sweep"),
                   _req("alloc", "t0", 1, uid=0, size=3, fields=1)]
        later = [_req("read", "t0", 2, uid=0)]
        inline = ShardExecutor(1, jobs=0)
        first = inline.execute({0: opening})

        async def body(pool):
            assert await pool.execute_lane(0, {0: opening}) == first
            _kill_worker(pool, 0)
            worker = pool._workers[0]
            while worker.pid is not None:
                await asyncio.sleep(0.005)
            replied = worker.reply

            async def reply_then_exit(timeout=None):
                worker.reply = replied  # the rebuild's reply only
                value = await replied(timeout)
                os.kill(worker.pid, signal.SIGKILL)
                while worker.pid is not None:  # the sentinel callback
                    await asyncio.sleep(0.005)
                return value

            worker.reply = reply_then_exit
            assert await pool.execute_lane(0, {0: later}) == inline.execute(
                {0: later}
            )
            assert pool.respawns == [0]
            pool.close()

        with ShardExecutor(1, jobs=1, retries=1) as pool:
            asyncio.run(body(pool))
        assert pool.shard_state(0) == inline.shard_state(0)

    def test_the_synchronous_api_refuses_while_a_lane_is_in_flight(self):
        drill = {"op": "_chaos-spin", "attempts": 1, "seconds": 0.3}
        ops = [_req("open", "t0", 0, kind="mark-sweep")]
        inline = ShardExecutor(1, jobs=0)

        async def body(pool):
            lane = asyncio.create_task(pool.execute_lane(0, {0: [drill, *ops]}))
            await asyncio.sleep(0.05)
            with pytest.raises(RuntimeError, match="lane batch"):
                pool.execute({0: ops})
            assert await lane == inline.execute({0: ops})
            assert pool.respawns == [0]
            pool.close()

        with ShardExecutor(1, jobs=1, chaos=True) as pool:
            asyncio.run(body(pool))


async def _through_lanes(
    executor: ShardExecutor, routed: dict[int, list[dict]]
) -> dict[int, list[dict]]:
    """``routed`` through :meth:`ShardExecutor.execute_lane`, every
    lane side by side."""
    by_lane: dict[int, dict[int, list[dict]]] = {}
    for shard, ops in routed.items():
        by_lane.setdefault(executor.lane_of(shard), {})[shard] = ops
    answers = await asyncio.gather(
        *(executor.execute_lane(lane, part) for lane, part in by_lane.items())
    )
    return {shard: ops for part in answers for shard, ops in part.items()}


def test_reads_from_another_thread_wait_for_the_batch_in_flight():
    """The server executes pool batches in a helper thread and answers
    ``metrics`` on the event loop: a commit point taken from a second
    thread, over and over with a short switch interval and more
    workers than cores, must neither interleave with a batch on a
    worker's pipe nor lose one from the suffix."""
    stream = _CADENCE_STREAM
    batches = [stream[index : index + 23] for index in range(0, len(stream), 23)]
    inline = ShardExecutor(3, jobs=0)
    expected = [
        inline.execute(_routed(inline, batch)) for batch in batches
    ]
    stop = threading.Event()
    reads = []
    errors: list[BaseException] = []
    switch = sys.getswitchinterval()
    with ShardExecutor(3, jobs=3) as pool:

        def reader() -> None:
            try:
                while not stop.is_set():
                    pool.merged_metrics()
                    reads.append(pool.shard_state(len(reads) % 3))
                    reading.set()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                reading.set()

        reading = threading.Event()
        thread = threading.Thread(target=reader)
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            assert reading.wait(timeout=60)
            answers = [pool.execute(_routed(pool, batch)) for batch in batches]
        finally:
            stop.set()
            sys.setswitchinterval(switch)
            thread.join(timeout=60)
        assert not thread.is_alive() and not errors
        assert answers == expected
        for shard in range(3):
            assert pool.shard_state(shard) == inline.shard_state(shard)
    assert _jsonable(pool.merged_metrics()) == _jsonable(
        inline.merged_metrics()
    )


def _routed(executor: ShardExecutor, batch: list[dict]) -> dict[int, list]:
    routed: dict[int, list[dict]] = {}
    for request in batch:
        routed.setdefault(executor.shard_of(request["tenant"]), []).append(
            request
        )
    return routed


def _live_pids(pids: list[int]) -> list[int]:
    """The pids of ``pids`` that are still running (not zombies)."""
    alive = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if stat.rpartition(")")[2].split()[0] != "Z":
            alive.append(pid)
    return alive


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_an_executor_dropped_without_close_exits_cleanly():
    """A pool executor that is never closed — one dropped while the
    program runs, one still held when it exits — costs neither a hang
    at exit nor a leftover process."""
    script = (
        "from repro.service.shard import ShardExecutor\n"
        "tenants = ('t0', 't1', 't4', 't5')\n"
        "def run():\n"
        "    executor = ShardExecutor(2, jobs=2)\n"
        "    batches = {}\n"
        "    for tenant in tenants:\n"
        "        request = {'v': 1, 'id': tenant, 'op': 'open',\n"
        "                   'tenant': tenant, 'kind': 'mark-sweep'}\n"
        "        batches.setdefault(executor.shard_of(tenant), []).append(\n"
        "            request)\n"
        "    assert len(batches) == 2\n"
        "    executor.execute(batches)\n"
        "    executor.merged_metrics()\n"
        "    return executor, [worker.pid for worker in executor._workers]\n"
        "_, dropped = run()\n"
        "held, pids = run()\n"
        "print(*dropped, *pids, flush=True)\n"
    )
    started = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert run.returncode == 0, run.stderr
    assert time.monotonic() - started < 10
    pids = [int(pid) for pid in run.stdout.split()]
    assert len(set(pids)) == 4
    assert _live_pids(pids) == []
