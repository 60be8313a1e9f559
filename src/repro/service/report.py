"""The scale report: what the service delivered, per collector kind.

A scale report is the committed artifact of a load run
(``artifacts/scale_report.json``): one row per ``(collector kind,
heap backend)`` cohort with tenant counts, request outcomes, GC work
counters, and the mutator-visible pause distribution (p50/p95/p99/max,
in heap words) drawn from the merged per-shard metric registries.

Two classes of field, deliberately separated:

* **Deterministic fields** are pure functions of the load plan seed:
  request counts, error counts, collections, pause percentiles.  The
  CI gate regenerates them and compares against the committed report —
  a collector change that moves the p99 mutator-visible pause shows up
  as a diff here.
* **Wall-clock fields** (``elapsed_s``, ``throughput_rps``) describe
  the machine that ran the load.  They are reported for humans and
  excluded from :func:`deterministic_rows` and the gate.

"Mutator-visible" is defined once, by :func:`mutator_visible_histogram`,
which the pause SLO (:mod:`repro.perf.slo`) uses too: for the concurrent
collector it is the handoff + reconcile histograms merged (off-thread
marking is invisible to the mutator by construction); for every other
kind it is the full ``pause_words`` histogram.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.metrics.registry import Histogram, MetricRegistry

__all__ = [
    "SCALE_REPORT_VERSION",
    "build_scale_report",
    "check_pause_regression",
    "deterministic_rows",
    "mutator_visible_histogram",
    "render_scale_report",
    "validate_scale_report",
]

SCALE_REPORT_VERSION = 1

#: Every field a row must carry, with its required type.
_ROW_FIELDS: dict[str, type | tuple[type, ...]] = {
    "kind": str,
    "backend": str,
    "profile": str,
    "tenants": int,
    "requests": int,
    "ok": int,
    "errors": dict,
    "checkpoints": int,
    "collections": int,
    "words_allocated": int,
    "pauses": int,
    "p50_pause_words": int,
    "p95_pause_words": int,
    "p99_pause_words": int,
    "max_pause_words": int,
    "elapsed_s": (int, float),
    "throughput_rps": (int, float),
}

#: Row fields that depend on the machine, not the seed.
_WALL_CLOCK_FIELDS = ("elapsed_s", "throughput_rps")


def mutator_visible_histogram(
    registry: MetricRegistry, kind: str
) -> Histogram:
    """The pauses the mutator actually observes (see module docstring)."""
    visible = Histogram("pause_words.mutator_visible")
    if kind == "concurrent":
        for name in ("pause_words.handoff", "pause_words.reconcile"):
            metric = registry.get(name)
            if isinstance(metric, Histogram):
                visible.merge(metric)
    else:
        metric = registry.get("pause_words")
        if isinstance(metric, Histogram):
            visible.merge(metric)
    return visible


def _counter_value(registry: MetricRegistry | None, name: str) -> int:
    if registry is None:
        return 0
    metric = registry.get(name)
    value = getattr(metric, "value", 0)
    return int(value)


def _as_registries(
    metrics: Iterable[MetricRegistry] | Mapping[str, Any] | None,
) -> dict[str, MetricRegistry]:
    """Accept live registries or their JSON form (the wire shape)."""
    if metrics is None:
        return {}
    if isinstance(metrics, Mapping):
        return {
            label: MetricRegistry.from_jsonable(payload)
            for label, payload in metrics.items()
        }
    return {registry.label: registry for registry in metrics}


def build_scale_report(
    plan,
    result,
    metrics: Iterable[MetricRegistry] | Mapping[str, Any] | None = None,
    *,
    mode: str = "server",
    generated: str | None = None,
) -> dict:
    """One load run rendered as the committed report document.

    Args:
        plan: the :class:`~repro.service.loadgen.LoadPlan` that ran.
        result: the :class:`~repro.service.loadgen.LoadResult` observed.
        metrics: merged registries, live or JSON (defaults to
            ``result.metrics``, the shape ``run_load`` fetched).
        mode: free-form provenance tag (``server``/``inline``/CI name).
        generated: optional ISO timestamp; omitted (None) in gated
            runs so committed and regenerated documents are comparable.
    """
    registries = _as_registries(
        metrics if metrics is not None else result.metrics
    )
    cohorts: dict[tuple[str, str], dict] = {}
    profiles: dict[tuple[str, str], set[str]] = {}
    for outcome in result.outcomes:
        key = (outcome.kind, outcome.backend)
        row = cohorts.get(key)
        if row is None:
            row = cohorts[key] = {
                "kind": outcome.kind,
                "backend": outcome.backend,
                "tenants": 0,
                "requests": 0,
                "ok": 0,
                "errors": {},
                "checkpoints": 0,
            }
            profiles[key] = set()
        profiles[key].add(outcome.profile)
        row["tenants"] += 1
        row["ok"] += outcome.ok
        row["requests"] += outcome.ok + sum(outcome.errors.values())
        row["checkpoints"] += len(outcome.checkpoints)
        for error_kind, count in outcome.errors.items():
            row["errors"][error_kind] = (
                row["errors"].get(error_kind, 0) + count
            )

    rows = []
    elapsed = max(result.elapsed, 1e-9)
    for key in sorted(cohorts):
        row = cohorts[key]
        label = f"{key[0]}/{key[1]}"
        registry = registries.get(label)
        visible = (
            mutator_visible_histogram(registry, key[0])
            if registry is not None
            else Histogram("empty")
        )
        row["profile"] = "+".join(sorted(profiles[key]))
        row["collections"] = _counter_value(registry, "collections")
        row["words_allocated"] = _counter_value(
            registry, "words_allocated"
        )
        row["pauses"] = visible.count
        row["p50_pause_words"] = visible.quantile(0.50)
        row["p95_pause_words"] = visible.quantile(0.95)
        row["p99_pause_words"] = visible.quantile(0.99)
        row["max_pause_words"] = visible.max
        # Wall-clock attribution: cohorts share the run, so each gets
        # the run's elapsed time and its own request rate within it.
        row["elapsed_s"] = round(result.elapsed, 6)
        row["throughput_rps"] = round(row["requests"] / elapsed, 3)
        rows.append(row)

    report = {
        "version": SCALE_REPORT_VERSION,
        "mode": mode,
        "config": {
            "seed": plan.seed,
            "profile": plan.profile,
            "tenants": len(plan.plans),
            "ops_per_tenant": plan.ops_per_tenant,
            "geometry": plan.geometry,
        },
        "totals": {
            "requests": result.requests_sent,
            "errors": result.error_total,
            "elapsed_s": round(result.elapsed, 6),
            "throughput_rps": round(result.requests_sent / elapsed, 3),
        },
        "rows": rows,
    }
    if generated is not None:
        report["generated"] = generated
    if result.server_stats is not None:
        report["service"] = result.server_stats
    return report


def validate_scale_report(report: object) -> list[str]:
    """Schema problems in a report document; empty means valid."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return [f"report must be an object, got {type(report).__name__}"]
    if report.get("version") != SCALE_REPORT_VERSION:
        problems.append(
            f"version must be {SCALE_REPORT_VERSION}, "
            f"got {report.get('version')!r}"
        )
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    seen: set[tuple[str, str]] = set()
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"row {index} must be an object")
            continue
        for name, types in _ROW_FIELDS.items():
            value = row.get(name)
            if not isinstance(value, types) or isinstance(value, bool):
                problems.append(
                    f"row {index} field {name!r}: expected "
                    f"{types}, got {value!r}"
                )
        key = (row.get("kind"), row.get("backend"))
        if key in seen:
            problems.append(f"row {index}: duplicate cohort {key}")
        seen.add(key)
        if isinstance(row.get("p99_pause_words"), int) and isinstance(
            row.get("max_pause_words"), int
        ):
            if row["p99_pause_words"] > row["max_pause_words"]:
                problems.append(
                    f"row {index}: p99 {row['p99_pause_words']} exceeds "
                    f"max {row['max_pause_words']}"
                )
    return problems


def deterministic_rows(report: dict) -> list[dict]:
    """The rows with machine-dependent fields removed, sorted."""
    rows = []
    for row in report.get("rows", []):
        rows.append(
            {
                name: value
                for name, value in sorted(row.items())
                if name not in _WALL_CLOCK_FIELDS
            }
        )
    rows.sort(key=lambda row: (row.get("kind", ""), row.get("backend", "")))
    return rows


def check_pause_regression(
    current: dict,
    committed: dict,
    *,
    tolerance: float = 1.25,
) -> list[str]:
    """p99 regressions of ``current`` against the ``committed`` report.

    A cohort regresses when its p99 mutator-visible pause exceeds the
    committed p99 by more than ``tolerance``× (with a 16-word absolute
    floor so tiny-pause cohorts are not gated on bucket noise).
    Cohorts present on only one side are reported too — a silently
    vanished collector kind must not pass the gate.
    """
    problems: list[str] = []
    current_rows = {
        (row["kind"], row["backend"]): row
        for row in current.get("rows", [])
    }
    committed_rows = {
        (row["kind"], row["backend"]): row
        for row in committed.get("rows", [])
    }
    for key in sorted(set(committed_rows) - set(current_rows)):
        problems.append(f"cohort {key[0]}/{key[1]} missing from current run")
    for key in sorted(set(current_rows) - set(committed_rows)):
        problems.append(
            f"cohort {key[0]}/{key[1]} has no committed baseline"
        )
    for key in sorted(set(current_rows) & set(committed_rows)):
        observed = current_rows[key]["p99_pause_words"]
        baseline = committed_rows[key]["p99_pause_words"]
        allowed = max(baseline * tolerance, baseline + 16)
        if observed > allowed:
            problems.append(
                f"cohort {key[0]}/{key[1]}: p99 mutator-visible pause "
                f"{observed}w exceeds committed {baseline}w "
                f"(tolerance {tolerance}x)"
            )
    return problems


def render_scale_report(report: dict) -> str:
    """A fixed-width human rendering of the report rows."""
    header = (
        f"{'kind':<15} {'backend':<8} {'tenants':>7} {'requests':>9} "
        f"{'errors':>6} {'colls':>7} {'pauses':>7} {'p50':>6} "
        f"{'p95':>6} {'p99':>6} {'max':>6} {'req/s':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in report.get("rows", []):
        errors = sum(row.get("errors", {}).values())
        lines.append(
            f"{row['kind']:<15} {row['backend']:<8} "
            f"{row['tenants']:>7} {row['requests']:>9} {errors:>6} "
            f"{row['collections']:>7} {row['pauses']:>7} "
            f"{row['p50_pause_words']:>6} {row['p95_pause_words']:>6} "
            f"{row['p99_pause_words']:>6} {row['max_pause_words']:>6} "
            f"{row['throughput_rps']:>9.1f}"
        )
    totals = report.get("totals", {})
    lines.append(
        f"total: {totals.get('requests', 0)} requests, "
        f"{totals.get('errors', 0)} errors, "
        f"{totals.get('elapsed_s', 0.0):.2f}s, "
        f"{totals.get('throughput_rps', 0.0):.1f} req/s"
    )
    return "\n".join(lines)
