"""Satellite 3: the load generator is a pure function of its seed.

The request stream is pinned by a golden fingerprint; executing a plan
must never perturb it; and the deterministic scale-report rows must be
identical across runs and execution modes.
"""

from __future__ import annotations

import pytest

from repro.gc.registry import COLLECTOR_KINDS
from repro.service.loadgen import (
    PROFILES,
    build_plan,
    plan_fingerprint,
    run_load_inline,
    tenant_geometry,
)
from repro.service.report import build_scale_report, deterministic_rows
from repro.service.shard import ShardExecutor

#: The byte-exact traffic of `repro-gc load --tenants 5 --fingerprint`
#: (seed=0, profile=mixed, ops=300).  A generator change that silently
#: alters the wire traffic must fail here, loudly.
GOLDEN_FINGERPRINT = (
    "5b6f41e7accb522f3ed1f38b162704d6f3bbdddd539aa11bd78e8022b250a328"
)


class TestDeterminism:
    def test_golden_fingerprint_is_pinned(self):
        plan = build_plan(5, seed=0, profile="mixed", ops_per_tenant=300)
        assert plan_fingerprint(plan) == GOLDEN_FINGERPRINT

    def test_same_seed_same_stream_different_seed_different_stream(self):
        first = build_plan(6, seed=42, ops_per_tenant=80)
        second = build_plan(6, seed=42, ops_per_tenant=80)
        other = build_plan(6, seed=43, ops_per_tenant=80)
        assert plan_fingerprint(first) == plan_fingerprint(second)
        assert first.plans == second.plans
        assert plan_fingerprint(first) != plan_fingerprint(other)

    def test_execution_does_not_perturb_the_plan(self):
        """Plans are offline-pure: driving one through an executor and
        rebuilding from the same seed gives the same bytes."""
        plan = build_plan(4, seed=7, ops_per_tenant=60)
        before = plan_fingerprint(plan)
        run_load_inline(plan, ShardExecutor(2, jobs=0))
        assert plan_fingerprint(plan) == before
        assert plan_fingerprint(
            build_plan(4, seed=7, ops_per_tenant=60)
        ) == before

    def test_deterministic_rows_identical_across_runs_and_modes(self):
        plan = build_plan(6, seed=0, ops_per_tenant=60)

        def rows(jobs):
            with ShardExecutor(2, jobs=jobs) as executor:
                result = run_load_inline(plan, executor)
            report = build_scale_report(
                plan, result, executor.merged_metrics(), mode="test"
            )
            return deterministic_rows(report)

        inline_once = rows(0)
        inline_again = rows(0)
        pooled = rows(2)
        assert inline_once == inline_again
        assert pooled == inline_once


class TestPlanShape:
    def test_kinds_and_backends_cycle(self):
        plan = build_plan(len(COLLECTOR_KINDS) * 2, seed=0, ops_per_tenant=40)
        kinds = [p.kind for p in plan.plans]
        assert kinds == list(COLLECTOR_KINDS) * 2
        # Every plan names the one heap, as plans always have.
        assert {p.backend for p in plan.plans} == {"flat"}

    def test_mixed_profile_cycles_and_explicit_profile_sticks(self):
        mixed = build_plan(6, seed=0, ops_per_tenant=40)
        assert [p.profile for p in mixed.plans] == list(PROFILES) * 2
        decay = build_plan(3, seed=0, profile="decay", ops_per_tenant=40)
        assert all(p.profile == "decay" for p in decay.plans)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            build_plan(1, seed=0, profile="thermal")

    def test_every_stream_is_open_ops_close(self):
        plan = build_plan(6, seed=1, ops_per_tenant=50)
        for tenant_plan in plan.plans:
            ops = [r["op"] for r in tenant_plan.requests]
            assert ops[0] == "open"
            assert ops[-1] == "close"
            assert "close" not in ops[:-1]
            first = tenant_plan.requests[0]
            assert first["kind"] == tenant_plan.kind
            assert first["backend"] == tenant_plan.backend


class TestPlansStayOnTheHappyPath:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_profile_runs_error_free_on_every_kind(self, profile):
        """Ambient load must never trip exhaustion: each profile is
        budgeted under the tightest per-kind capacity at tenant scale."""
        plan = build_plan(
            len(COLLECTOR_KINDS),
            seed=0,
            profile=profile,
            ops_per_tenant=120,
            geometry=tenant_geometry(),
        )
        result = run_load_inline(plan, ShardExecutor(2, jobs=0))
        failures = {
            outcome.tenant: outcome.errors
            for outcome in result.outcomes
            if outcome.errors
        }
        assert not failures, failures
        assert all(outcome.close is not None for outcome in result.outcomes)

    def test_load_actually_exercises_collection(self):
        """The point of the 1/64 geometry: every kind collects."""
        plan = build_plan(
            len(COLLECTOR_KINDS), seed=0, ops_per_tenant=300
        )
        executor = ShardExecutor(2, jobs=0)
        run_load_inline(plan, executor)
        for registry in executor.merged_metrics():
            if registry.label == "service":
                continue
            collections = registry.get("collections")
            assert collections is not None and collections.value > 0, (
                f"{registry.label} never collected"
            )
