"""ShardExecutor: routing, mode byte-identity, fences, fault drills.

The pool-mode drills here are the real thing — `_chaos-exit` kills an
actual worker process with os._exit and the drill asserts the respawn
path recomputed identical answers from committed state.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gc.registry import COLLECTOR_KINDS
from repro.metrics.registry import MetricRegistry, merge_registries
from repro.service.loadgen import build_plan, tenant_geometry
from repro.service.protocol import PROTOCOL_VERSION, geometry_from_payload
from repro.service.session import TenantSession
from repro.service import shard as shard_module
from repro.service.shard import (
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
    executor: ShardExecutor, streams: dict[str, list[dict]]
) -> dict[str, list[dict]]:
    """One request per tenant per round (the closed-loop shape)."""
    cursors = {tenant: 0 for tenant in streams}
    responses: dict[str, list[dict]] = {tenant: [] for tenant in streams}
    while True:
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
        pool = ShardExecutor(2, jobs=2)
        inline_responses = _run_streams(inline, streams)
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

        executor = ShardExecutor(1, jobs=2, chaos=True, retries=2)
        parent = os.getpid()
        # If this ran in-process, _chaos-exit would kill the test run.
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
        assert executor._runtimes[0].closed == []
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
        pool = ShardExecutor(1, jobs=2)
        assert pool.execute({0: self._batch()}) == inline.execute(
            {0: self._batch()}
        )
        assert {r.label: r.canonical_json() for r in pool.merged_metrics()} == {
            r.label: r.canonical_json() for r in inline.merged_metrics()
        }
        assert sorted(pool.shard_state(0)) == ["neighbour", "u0"]


class TestPartialStateShipping:
    def test_untouched_tenants_are_not_shipped_but_still_counted(self):
        executor = ShardExecutor(1, jobs=2, tenant_cap=3)
        shard = 0
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
        # A batch touching only "d" ships no blobs for a/b/c, yet the
        # worker must still see occupancy 3 and refuse admission.
        (responses,) = executor.execute(
            {shard: [_req("open", "d", 0, kind="mark-sweep")]}
        ).values()
        error = responses[0]["error"]
        assert error["kind"] == "backpressure"
        assert error["open_tenants"] == 3
        assert error["tenant_cap"] == 3
        # Closing frees the slot for the next open.
        executor.execute({shard: [_req("close", "a", 1)]})
        assert executor.open_tenants(shard) == 2
        (responses,) = executor.execute(
            {shard: [_req("open", "d", 1, kind="mark-sweep")]}
        ).values()
        assert responses[0]["ok"] is True


class TestFaultDrills:
    def _streams(self):
        return {
            f"t{i}": _tenant_stream(f"t{i}", kind="generational")
            for i in range(4)
        }

    def test_worker_exit_mid_load_loses_no_committed_state(self):
        """Kill a worker between batches: every committed checkpoint
        digest must match the chaos-free run exactly."""
        reference = _run_streams(ShardExecutor(2, jobs=2), self._streams())

        executor = ShardExecutor(2, jobs=2, chaos=True, retries=2)
        streams = self._streams()
        # Splice a worker-kill into the middle of one tenant's stream;
        # chaos ops produce no response and never reach a session.
        streams["t0"] = (
            streams["t0"][:5]
            + [{"op": "_chaos-exit", "attempts": 1, "tenant": "t0"}]
            + streams["t0"][5:]
        )
        drilled = _run_streams(executor, streams)
        assert drilled == reference

    def test_drained_batch_fails_structurally_then_revives(self):
        """Exhaust the retry budget: the batch drains to shard-failed,
        committed state is intact, and the next batch serves again."""
        executor = ShardExecutor(1, jobs=2, chaos=True, retries=1)
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
        executor = ShardExecutor(
            1, jobs=2, chaos=True, retries=0, timeout=0.3
        )
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
        pool = ShardExecutor(2, jobs=2)
        inline_responses = _run_streams(inline, streams)
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
        pool = ShardExecutor(1, jobs=2)
        runtime = ShardRuntime(0)
        retired: list[MetricRegistry] = []
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
        pool = ShardExecutor(1, jobs=2)
        answers = []
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
