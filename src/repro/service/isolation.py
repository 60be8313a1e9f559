"""The tenant-isolation oracle: service runs equal serial replays.

The property: take N tenants with independent seeded mutator scripts,
interleave their ops arbitrarily through the sharded service, and every
tenant's observable history — each explicit checkpoint, the final live
graph, the cumulative :class:`~repro.gc.stats.GcStats` snapshot, and
the full pause log — must be byte-identical to replaying that tenant's
script alone through :func:`repro.verify.replay.replay` on a standalone
heap.  Nothing a tenant observes may depend on who else is on the
server, how the traffic was batched, how many worker processes ran the
shards, or whether a worker died and was respawned mid-run.

:func:`run_isolation_suite` drives the whole property: generate
per-tenant scripts (seeds derived via
:func:`repro.perf.parallel.derive_seed`, so any tenant's script can be
regenerated in isolation), interleave with a seeded scheduler, execute
through a :class:`~repro.service.shard.ShardExecutor`, and compare
against the per-tenant references.  On divergence it minimizes the
offending tenant's script with the ddmin shrinker
(:func:`repro.verify.shrink.shrink_script`), holding every other
tenant's traffic and the interleave schedule constant — the shrunk
script is the smallest mutator history that still tells the two worlds
apart.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.perf.parallel import derive_seed
from repro.service.loadgen import tenant_geometry
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.shard import ShardExecutor
from repro.service.session import graph_digest, pauses_digest
from repro.verify.replay import MutatorScript, generate_script, replay
from repro.verify.shrink import shrink_script

__all__ = [
    "Divergence",
    "IsolationReport",
    "TenantCase",
    "compare_fingerprints",
    "drive_interleaved",
    "replay_fingerprint",
    "run_isolation_suite",
    "script_to_requests",
    "service_fingerprint",
]


@dataclass(frozen=True)
class TenantCase:
    """One tenant's half of the experiment: who they are, what they run."""

    tenant: str
    kind: str
    script: MutatorScript
    geometry: GcGeometry


@dataclass
class Divergence:
    """One tenant whose service history disagreed with its replay."""

    tenant: str
    kind: str
    detail: str
    script_ops: int
    shrunk_ops: int | None = None
    shrunk_script: str | None = None


@dataclass
class IsolationReport:
    """The suite verdict: every case, every divergence."""

    tenants: int
    shards: int
    jobs: int
    seed: int
    interleave_seed: int
    ops_per_tenant: int
    cases: list[TenantCase] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "OK" if self.ok else "DIVERGED"
        lines = [
            f"isolation suite: {verdict} — {self.tenants} tenant(s), "
            f"{self.shards} shard(s), jobs={self.jobs}, "
            f"{self.ops_per_tenant} ops/tenant, seed={self.seed}, "
            f"interleave={self.interleave_seed}"
        ]
        for divergence in self.divergences:
            lines.append(
                f"  {divergence.tenant} ({divergence.kind}): "
                f"{divergence.detail} "
                f"[script {divergence.script_ops} ops"
                + (
                    f", shrunk to {divergence.shrunk_ops}"
                    if divergence.shrunk_ops is not None
                    else ""
                )
                + "]"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Script ↔ protocol translation
# ----------------------------------------------------------------------


def script_to_requests(
    script: MutatorScript,
    tenant: str,
    *,
    kind: str,
    geometry: GcGeometry | None = None,
) -> list[dict]:
    """A script as the service request stream that replays it.

    ``open`` first, ``close`` last, and in between a one-to-one op
    mapping (``store`` → ``write``, ``check`` → ``checkpoint``), so the
    tenant's service-side history is directly comparable to
    :func:`repro.verify.replay.replay` of the same script.
    """
    requests: list[dict] = []

    def emit(op: str, **payload) -> None:
        request = {
            "v": PROTOCOL_VERSION,
            "id": f"{tenant}#{len(requests)}",
            "op": op,
            "tenant": tenant,
        }
        request.update(payload)
        requests.append(request)

    open_payload: dict = {"kind": kind}
    if geometry is not None:
        open_payload["geometry"] = asdict(geometry)
    emit("open", **open_payload)
    for op in script.ops:
        op_kind = op[0]
        if op_kind == "alloc":
            emit("alloc", uid=op[1], size=op[2], fields=op[3])
        elif op_kind == "store":
            emit("write", src=op[1], slot=op[2], dst=op[3])
        elif op_kind == "drop":
            emit("drop", uid=op[1])
        elif op_kind == "collect":
            emit("collect")
        elif op_kind == "check":
            emit("checkpoint")
        else:
            raise ValueError(f"unknown script op kind {op_kind!r}")
    emit("close")
    return requests


# ----------------------------------------------------------------------
# Fingerprints (both worlds rendered into one comparable form)
# ----------------------------------------------------------------------


def _checkpoint_entry(payload: dict) -> list:
    return [
        int(payload["clock"]),
        int(payload["live_words"]),
        int(payload["objects"]),
        str(payload["digest"]),
    ]


def replay_fingerprint(case: TenantCase) -> dict:
    """The serial-replay reference history for one tenant case."""
    result = replay(case.script, collector_factory(case.kind, case.geometry))
    # The last checkpoint is replay's implicit final fingerprint; it
    # corresponds to the close response, not a checkpoint op.
    *checks, final = [
        [c.clock, c.live_words, len(c.graph), graph_digest(c.graph)]
        for c in result.checkpoints
    ]
    return {
        "checks": checks,
        "final": final,
        "stats": [[str(k), int(v)] for k, v in result.stats],
        "pauses": len(result.pauses),
        "pauses_digest": pauses_digest(result.pauses),
        "collections": result.collections,
        "words_allocated": result.words_allocated,
    }


def service_fingerprint(
    requests: list[dict], responses: list[dict]
) -> dict:
    """One tenant's observed service history, in reference form.

    Any error response is itself part of the history: the reference
    replay never fails, so an ``errors`` entry guarantees a divergence
    with a readable cause instead of a bare digest mismatch.
    """
    checks: list[list] = []
    final = None
    close: dict = {}
    errors: list[str] = []
    for request, response in zip(requests, responses):
        if not response.get("ok"):
            error = response.get("error", {})
            errors.append(
                f"{request['op']}#{request['id']}: "
                f"{error.get('kind')}: {error.get('detail')}"
            )
            continue
        if request["op"] == "checkpoint":
            checks.append(_checkpoint_entry(response))
        elif request["op"] == "close":
            close = response
            final = _checkpoint_entry(response["final"])
    return {
        "checks": checks,
        "final": final,
        "stats": [[str(k), int(v)] for k, v in close.get("stats", [])],
        "pauses": close.get("pauses"),
        "pauses_digest": close.get("pauses_digest"),
        "collections": close.get("collections"),
        "words_allocated": close.get("words_allocated"),
        "errors": errors,
    }


def compare_fingerprints(reference: dict, observed: dict) -> str | None:
    """First difference between the two histories, or None if identical."""
    if observed.get("errors"):
        return f"service errors: {'; '.join(observed['errors'][:3])}"
    if len(observed["checks"]) != len(reference["checks"]):
        return (
            f"checkpoint count: service {len(observed['checks'])} "
            f"vs replay {len(reference['checks'])}"
        )
    for index, (want, got) in enumerate(
        zip(reference["checks"], observed["checks"])
    ):
        if want != got:
            return (
                f"checkpoint {index}: service {got} vs replay {want}"
            )
    for key in (
        "final",
        "stats",
        "pauses",
        "pauses_digest",
        "collections",
        "words_allocated",
    ):
        if observed.get(key) != reference[key]:
            return (
                f"{key}: service {observed.get(key)!r} "
                f"vs replay {reference[key]!r}"
            )
    return None


# ----------------------------------------------------------------------
# Interleaved execution
# ----------------------------------------------------------------------


def drive_interleaved(
    streams: dict[str, list[dict]],
    executor: ShardExecutor,
    *,
    interleave_seed: int = 0,
    batch_ops: int = 32,
) -> dict[str, list[dict]]:
    """Run per-tenant request streams through the executor, shuffled.

    A seeded scheduler repeatedly picks a random tenant with traffic
    left and schedules its next request (per-tenant order is sacred;
    cross-tenant order is adversarial), then chunks the merged stream
    into multi-tenant batches of ``batch_ops`` and executes each —
    so one shard batch genuinely interleaves many tenants' ops.
    Returns the responses per tenant, in each tenant's request order.
    """
    rng = random.Random(interleave_seed)
    cursors = {tenant: 0 for tenant in streams}
    merged: list[tuple[str, dict]] = []
    active = sorted(streams)
    while active:
        tenant = rng.choice(active)
        merged.append((tenant, streams[tenant][cursors[tenant]]))
        cursors[tenant] += 1
        if cursors[tenant] >= len(streams[tenant]):
            active.remove(tenant)
    responses: dict[str, list[dict]] = {tenant: [] for tenant in streams}
    for start in range(0, len(merged), batch_ops):
        chunk = merged[start : start + batch_ops]
        batches: dict[int, list[dict]] = {}
        order: dict[int, list[str]] = {}
        for tenant, request in chunk:
            shard = executor.shard_of(tenant)
            batches.setdefault(shard, []).append(request)
            order.setdefault(shard, []).append(tenant)
        results = executor.execute(batches)
        for shard, tenants in order.items():
            shard_responses = results.get(shard, [])
            for position, tenant in enumerate(tenants):
                responses[tenant].append(
                    shard_responses[position]
                    if position < len(shard_responses)
                    else {
                        "ok": False,
                        "error": {
                            "kind": "shard-failed",
                            "detail": "missing response",
                        },
                    }
                )
    return responses


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


def build_cases(
    tenants: int,
    *,
    seed: int = 0,
    ops_per_tenant: int = 160,
    kinds: tuple[str, ...] = COLLECTOR_KINDS,
    geometry: GcGeometry | None = None,
) -> list[TenantCase]:
    """Seeded tenant cases cycling through kinds."""
    geometry = geometry if geometry is not None else tenant_geometry()
    cases = []
    for index in range(tenants):
        cases.append(
            TenantCase(
                tenant=f"iso{index:03d}",
                kind=kinds[index % len(kinds)],
                script=generate_script(
                    ops_per_tenant, derive_seed(seed, index)
                ),
                geometry=geometry,
            )
        )
    return cases


def run_isolation_suite(
    tenants: int = 8,
    *,
    seed: int = 0,
    ops_per_tenant: int = 160,
    shards: int = 2,
    jobs: int = 0,
    kinds: tuple[str, ...] = COLLECTOR_KINDS,
    interleave_seed: int | None = None,
    batch_ops: int = 32,
    shrink: bool = True,
    shrink_attempts: int = 120,
    executor_factory=None,
) -> IsolationReport:
    """Run the isolation property end to end (see module docstring).

    ``executor_factory`` (``(shards, jobs) -> ShardExecutor``) exists
    so the oracle can be pointed at a deliberately broken executor —
    the suite's own tests inject one to prove a real isolation bug is
    caught and shrunk, not silently absorbed.
    """
    if executor_factory is None:
        executor_factory = lambda shards, jobs: ShardExecutor(
            shards, jobs=jobs
        )
    interleave_seed = (
        derive_seed(seed, tenants) if interleave_seed is None else interleave_seed
    )
    cases = build_cases(
        tenants,
        seed=seed,
        ops_per_tenant=ops_per_tenant,
        kinds=kinds,
    )
    report = IsolationReport(
        tenants=tenants,
        shards=shards,
        jobs=jobs,
        seed=seed,
        interleave_seed=interleave_seed,
        ops_per_tenant=ops_per_tenant,
        cases=cases,
    )

    def run_once(
        current: list[TenantCase],
    ) -> dict[str, tuple[list[dict], list[dict]]]:
        streams = {
            case.tenant: script_to_requests(
                case.script,
                case.tenant,
                kind=case.kind,
                geometry=case.geometry,
            )
            for case in current
        }
        with executor_factory(shards, jobs) as executor:
            responses = drive_interleaved(
                streams,
                executor,
                interleave_seed=interleave_seed,
                batch_ops=batch_ops,
            )
        return {
            tenant: (streams[tenant], responses[tenant])
            for tenant in streams
        }

    observed = run_once(cases)
    for case in cases:
        reference = replay_fingerprint(case)
        requests, responses = observed[case.tenant]
        detail = compare_fingerprints(
            reference, service_fingerprint(requests, responses)
        )
        if detail is None:
            continue
        divergence = Divergence(
            tenant=case.tenant,
            kind=case.kind,
            detail=detail,
            script_ops=len(case.script.ops),
        )
        if shrink:
            divergence = _shrink_divergence(
                divergence, case, cases, run_once, shrink_attempts
            )
        report.divergences.append(divergence)
    return report


def _shrink_divergence(
    divergence: Divergence,
    case: TenantCase,
    cases: list[TenantCase],
    run_once,
    shrink_attempts: int,
) -> Divergence:
    """ddmin the diverging tenant's script, everything else held fixed."""
    others = [c for c in cases if c.tenant != case.tenant]

    def still_diverges(candidate: MutatorScript) -> bool:
        trial = TenantCase(
            tenant=case.tenant,
            kind=case.kind,
            script=candidate,
            geometry=case.geometry,
        )
        observed = run_once(others + [trial])
        requests, responses = observed[case.tenant]
        return (
            compare_fingerprints(
                replay_fingerprint(trial),
                service_fingerprint(requests, responses),
            )
            is not None
        )

    shrunk = shrink_script(
        case.script, still_diverges, max_attempts=shrink_attempts
    )
    divergence.shrunk_ops = len(shrunk.ops)
    divergence.shrunk_script = shrunk.to_text()
    return divergence


def register(subparsers) -> None:
    """``repro-gc isolation``."""
    from repro.cli import collector_kinds, non_negative_int, positive_int

    sub = subparsers.add_parser(
        "isolation",
        help=(
            "tenant-isolation suite: interleaved service runs must "
            "match per-tenant serial replays byte for byte"
        ),
    )
    sub.add_argument("--tenants", type=positive_int, default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ops", type=positive_int, default=160)
    sub.add_argument("--shards", type=positive_int, default=2)
    sub.add_argument("--jobs", type=non_negative_int, default=0)
    sub.add_argument("--kinds", type=collector_kinds)
    sub.add_argument("--interleave-seed", type=int)
    sub.add_argument(
        "--verbose",
        action="store_true",
        help="print shrunk divergence scripts",
    )
    sub.set_defaults(func=_cmd_isolation)


def _cmd_isolation(args) -> int:
    report = run_isolation_suite(
        args.tenants,
        seed=args.seed,
        ops_per_tenant=args.ops,
        shards=args.shards,
        jobs=args.jobs,
        kinds=args.kinds or COLLECTOR_KINDS,
        interleave_seed=args.interleave_seed,
    )
    print(report.summary())
    if not report.ok and args.verbose:
        for divergence in report.divergences:
            if divergence.shrunk_script:
                print(f"--- shrunk script for {divergence.tenant} ---")
                print(divergence.shrunk_script)
    return 0 if report.ok else 1
