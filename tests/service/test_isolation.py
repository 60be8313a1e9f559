"""Satellite 1: the tenant-isolation property suite.

Interleaved service traffic must be byte-identical, per tenant, to a
serial replay of that tenant's script on a standalone heap — across
collector kinds, shard counts, and execution modes.
And the oracle must actually have teeth: a deliberately broken
executor is injected to prove divergences are caught and ddmin-shrunk.
"""

from __future__ import annotations

import pytest

from repro.gc.registry import COLLECTOR_KINDS
from repro.service.isolation import (
    build_cases,
    compare_fingerprints,
    replay_fingerprint,
    run_isolation_suite,
    script_to_requests,
    service_fingerprint,
)
from repro.service.shard import ShardExecutor


def test_all_kinds_isolated_inline():
    """One tenant per collector kind, interleaved on two shards."""
    report = run_isolation_suite(
        tenants=len(COLLECTOR_KINDS),
        seed=0,
        ops_per_tenant=120,
        shards=2,
        jobs=0,
    )
    assert report.ok, report.summary()
    assert {case.kind for case in report.cases} == set(COLLECTOR_KINDS)


def test_all_kinds_isolated_through_worker_pool():
    """Same property with real worker processes and batch migration."""
    report = run_isolation_suite(
        tenants=len(COLLECTOR_KINDS),
        seed=1,
        ops_per_tenant=80,
        shards=2,
        jobs=2,
    )
    assert report.ok, report.summary()


def test_interleave_schedule_is_irrelevant():
    """Two adversarial schedules, same per-tenant histories."""
    for interleave_seed in (7, 8):
        report = run_isolation_suite(
            tenants=4,
            seed=3,
            ops_per_tenant=80,
            shards=2,
            jobs=0,
            kinds=("generational", "incremental"),
            interleave_seed=interleave_seed,
        )
        assert report.ok, report.summary()


class _WriteDroppingExecutor(ShardExecutor):
    """A deliberately broken executor: silently swallows the payload
    of every Nth cross-object write (the classic lost-update bug)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._writes = 0

    def execute(self, batches):
        doctored = {}
        for shard, ops in batches.items():
            doctored[shard] = []
            for request in ops:
                if request.get("op") == "write" and request.get("dst") is not None:
                    self._writes += 1
                    if self._writes % 3 == 0:
                        request = dict(request, dst=None)
                doctored[shard].append(request)
        return super().execute(doctored)


def test_oracle_catches_and_shrinks_a_real_isolation_bug():
    report = run_isolation_suite(
        tenants=3,
        seed=4,
        ops_per_tenant=120,
        shards=2,
        jobs=0,
        kinds=("mark-sweep",),
        shrink_attempts=200,
        executor_factory=lambda shards, jobs: _WriteDroppingExecutor(
            shards, jobs=jobs
        ),
    )
    assert not report.ok
    divergence = report.divergences[0]
    # ddmin produced a smaller script that still diverges.
    assert divergence.shrunk_ops is not None
    assert divergence.shrunk_ops < divergence.script_ops
    assert divergence.shrunk_script
    assert "DIVERGED" in report.summary()


def test_tampered_response_stream_is_a_readable_divergence():
    """Any error response in a tenant's history reads as a divergence
    with the error spelled out, never a bare digest mismatch."""
    (case,) = build_cases(1, seed=5, ops_per_tenant=60)
    requests = script_to_requests(
        case.script,
        case.tenant,
        kind=case.kind,
        geometry=case.geometry,
    )
    executor = ShardExecutor(1, jobs=0)
    shard = executor.shard_of(case.tenant)
    responses = []
    for request in requests:
        responses.extend(executor.execute({shard: [request]})[shard])
    clean = compare_fingerprints(
        replay_fingerprint(case), service_fingerprint(requests, responses)
    )
    assert clean is None, clean

    tampered = list(responses)
    tampered[3] = {
        "ok": False,
        "error": {"kind": "internal", "detail": "injected fault"},
    }
    detail = compare_fingerprints(
        replay_fingerprint(case), service_fingerprint(requests, tampered)
    )
    assert detail is not None
    assert "injected fault" in detail
