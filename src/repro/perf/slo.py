"""The incremental collector's pause SLO and its persistent record.

Slicing the mark phase is only worth its barrier and bookkeeping cost
if it actually bounds pauses, so this module turns "incremental pauses
are short" into a measured, CI-enforced service-level objective:

    **p99 incremental pause ≤ 1/50 of the mark-sweep full-collection
    pause**, in words of collector work, on the same workload and the
    same heap geometry.

Two workloads are measured, chosen to stress the two pause regimes:

* **decay** — the experiments' canonical radioactive-decay workload
  (half-life 2000 words).  Its equilibrium live graph is large and
  churning, so mark-sweep's full collections mark thousands of words
  while the incremental collector spreads the same marking over
  budget-bounded slices.
* **gcbench** — the classic tree-building benchmark on the stacked
  VM, whose deep temporary trees produce the suite's largest live
  spikes (and therefore the worst-case full-collection pauses).

For fairness the incremental side is judged on its *combined* pause
histogram — mark slices **and** cycle-close drains — so a collector
that defers all marking to the closing collection cannot pass.  The
mark-sweep side is judged on its full-collection pauses.  Both are
p99s from the :mod:`repro.metrics` plane's ``pause_words`` histograms
(bucket-resolution, clamped to the observed max).

Schema 2 adds a second objective for the concurrent collector:

    **p99 mutator-visible concurrent pause ≤ incremental combined
    p99**, same workload, same geometry.

"Mutator-visible" is the snapshot handoff plus the SATB
reconciliation — the only points where the mutator actually stops —
merged from the ``pause_words.handoff`` and ``pause_words.reconcile``
histograms.  Marking itself happens off-thread against the snapshot
and is deliberately excluded: it is exactly the work the design moves
out of the mutator's critical path.  Because both pauses are priced at
their *residual* parent-side scan work (zero when no SATB entry or new
root escaped the snapshot), this gate measures whether concurrency
actually removed the mark phase from the pause profile.

Results persist to ``SLO_pause.json`` at the repo root; the
``pause-slo`` CI job re-measures in quick mode and fails on any
violation.  Pauses are denominated in words of collector work, not
wall-clock seconds, so the gate is deterministic and immune to CI
scheduler noise.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.metrics.instrument import instrument_collector
from repro.metrics.registry import MetricRegistry
from repro.mutator.base import LifetimeDrivenMutator
from repro.mutator.decay_mutator import DecaySchedule

__all__ = [
    "SLO_FACTOR",
    "SLO_FILENAME",
    "SLO_GEOMETRY",
    "run_pause_slo",
]

SLO_FILENAME = "SLO_pause.json"
#: v2 added the concurrent collector's mutator-visible pause rows and
#: folded its verdict into each workload's ``pass``.
SCHEMA_VERSION = 2

#: The objective: incremental p99 pause * factor <= full-GC p99 pause.
SLO_FACTOR = 50

#: Decay half-life of the SLO workload (the canonical regime).
SLO_HALF_LIFE = 2_000.0
#: Decay allocation volume: enough for ~20 mark-sweep collections at
#: this geometry, so the p99 is taken over a real pause population.
SLO_ALLOC_WORDS = 60_000
QUICK_ALLOC_WORDS = 20_000
#: gcbench scale (see :mod:`repro.programs.registry`): scale 1 builds
#: trees to depth 10 — big enough for several full collections.
SLO_GCBENCH_SCALE = 1

#: SLO measurement geometry.  The semispace is sized so both workloads
#: trigger many collections (heap = 2 * semispace = 4096 words against
#: a ~2900-word decay equilibrium), and the slice budget is 32 words —
#: small enough that a budget-bounded slice is two orders of magnitude
#: below a full mark of the equilibrium graph.
SLO_GEOMETRY = GcGeometry(
    nursery_words=512,
    semispace_words=2_048,
    step_words=256,
    step_count=8,
    slice_budget=32,
)


def _decay_registry(kind: str, *, alloc_words: int, seed: int) -> MetricRegistry:
    """One instrumented decay-workload run of ``kind``."""
    heap = FlatHeap()
    roots = RootSet()
    collector = collector_factory(kind, SLO_GEOMETRY)(heap, roots)
    instrument = instrument_collector(collector)
    mutator = LifetimeDrivenMutator(
        collector, roots, DecaySchedule(SLO_HALF_LIFE, seed=seed)
    )
    mutator.run(alloc_words)
    mutator.release_all()
    return instrument.registry


def _gcbench_registry(kind: str, *, scale: int) -> MetricRegistry:
    """One instrumented gcbench run of ``kind`` on the stacked VM."""
    from repro.programs.registry import get_benchmark
    from repro.runtime.machine import Machine

    machine = Machine(collector_factory(kind, SLO_GEOMETRY))
    instrument = instrument_collector(machine.collector)
    get_benchmark("gcbench").run(machine, scale)
    return instrument.registry


def _pause_columns(registry: MetricRegistry) -> dict[str, Any]:
    """The pause histograms of one run, flattened for the report."""
    combined = registry.histogram("pause_words")
    return {
        "pauses": combined.count,
        "slice_pauses": registry.histogram("pause_words.slice").count,
        "full_pauses": registry.histogram("pause_words.full").count,
        "p99_pause_words": combined.quantile(0.99),
        "max_pause_words": combined.max,
    }


def _judge_concurrent(
    concurrent: MetricRegistry, incremental_p99: int
) -> dict[str, Any]:
    """The concurrent verdict: mutator-visible p99 vs incremental p99.

    A run with no handoffs never paused concurrently, so it is not
    *measured* and must not pass silently.
    """
    # The service's scale report and this gate share one definition;
    # importing it lazily keeps the server off the gate's import path.
    from repro.service.report import mutator_visible_histogram

    visible = mutator_visible_histogram(concurrent, "concurrent")
    mv_p99 = visible.quantile(0.99) if visible.count else 0
    measured = visible.count > 0 and incremental_p99 > 0
    return {
        "pauses": visible.count,
        "handoff_pauses": concurrent.histogram("pause_words.handoff").count,
        "reconcile_pauses": concurrent.histogram(
            "pause_words.reconcile"
        ).count,
        "p99_mutator_visible_pause_words": mv_p99,
        "max_mutator_visible_pause_words": visible.max,
        "incremental_p99_pause_words": incremental_p99,
        "measured": measured,
        "pass": measured and mv_p99 <= incremental_p99,
    }


def _judge(
    incremental: MetricRegistry,
    reference: MetricRegistry,
    concurrent: MetricRegistry,
) -> dict[str, Any]:
    """One workload's verdict: combined incremental p99 vs full p99,
    plus the concurrent collector's mutator-visible p99 vs incremental.

    The workload only counts as *measured* when both sides produced
    pauses — a silent no-collection run must not pass the gate.
    """
    inc = _pause_columns(incremental)
    ref = _pause_columns(reference)
    inc_p99 = inc["p99_pause_words"]
    full_p99 = reference.histogram("pause_words.full").quantile(0.99)
    measured = inc["pauses"] > 0 and full_p99 > 0
    conc = _judge_concurrent(concurrent, inc_p99)
    return {
        "incremental": inc,
        "mark-sweep": ref,
        "concurrent": conc,
        "full_p99_pause_words": full_p99,
        "ratio": (full_p99 / inc_p99) if inc_p99 > 0 else None,
        "measured": measured,
        "pass": (
            measured and inc_p99 * SLO_FACTOR <= full_p99 and conc["pass"]
        ),
    }


def run_pause_slo(*, quick: bool = False, seed: int = 0) -> dict[str, Any]:
    """Measure both workloads under both collectors; return the report."""
    alloc_words = QUICK_ALLOC_WORDS if quick else SLO_ALLOC_WORDS
    workloads = {
        "decay": _judge(
            _decay_registry("incremental", alloc_words=alloc_words, seed=seed),
            _decay_registry("mark-sweep", alloc_words=alloc_words, seed=seed),
            _decay_registry("concurrent", alloc_words=alloc_words, seed=seed),
        ),
        "gcbench": _judge(
            _gcbench_registry("incremental", scale=SLO_GCBENCH_SCALE),
            _gcbench_registry("mark-sweep", scale=SLO_GCBENCH_SCALE),
            _gcbench_registry("concurrent", scale=SLO_GCBENCH_SCALE),
        ),
    }
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "slo_factor": SLO_FACTOR,
        "slice_budget": SLO_GEOMETRY.slice_budget,
        "semispace_words": SLO_GEOMETRY.semispace_words,
        "workloads": workloads,
        "pass": all(w["pass"] for w in workloads.values()),
    }


def register(subparsers) -> None:
    """``repro-gc slo``."""
    sub = subparsers.add_parser(
        "slo",
        help=(
            "pause SLO gate: require the incremental collector's p99 "
            "pause to be at most 1/50 of mark-sweep's full-collection "
            "p99 on the decay and gcbench workloads, and write the "
            "measured report to SLO_pause.json"
        ),
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--quick",
        action="store_true",
        help="~3x smaller decay workload (CI smoke mode)",
    )
    sub.add_argument(
        "--output", help="report path (default: ./SLO_pause.json)"
    )
    sub.add_argument(
        "--no-write",
        action="store_true",
        help="measure and judge without touching the report file",
    )
    sub.set_defaults(func=_cmd_slo)


def _cmd_slo(args) -> int:
    from repro.resilience.atomic import atomic_write_json

    mode = "quick" if args.quick else "full"
    print(
        f"pause SLO ({mode}): incremental p99 pause * {SLO_FACTOR} <= "
        f"mark-sweep full-collection p99, in words of work"
    )
    report = run_pause_slo(quick=args.quick, seed=args.seed)
    for name, verdict in report["workloads"].items():
        inc = verdict["incremental"]
        ratio = verdict["ratio"]
        mark = "PASS" if verdict["pass"] else "FAIL"
        print(
            f"[{mark}] {name:<8} incremental p99 "
            f"{inc['p99_pause_words']:>6} words over {inc['pauses']} "
            f"pauses vs full-GC p99 {verdict['full_p99_pause_words']:>6} "
            f"words (ratio 1/{ratio:.0f})"
            if ratio is not None
            else f"[{mark}] {name:<8} unmeasured — no pauses recorded"
        )
        conc = verdict.get("concurrent")
        if conc is not None:
            cmark = "PASS" if conc["pass"] else "FAIL"
            print(
                f"[{cmark}] {name:<8} concurrent mutator-visible p99 "
                f"{conc['p99_mutator_visible_pause_words']:>6} words over "
                f"{conc['pauses']} pauses vs incremental p99 "
                f"{conc['incremental_p99_pause_words']:>6} words"
                if conc["measured"]
                else f"[{cmark}] {name:<8} concurrent unmeasured — "
                f"no handoff pauses recorded"
            )
    if not args.no_write:
        path = Path(args.output) if args.output else Path.cwd() / SLO_FILENAME
        atomic_write_json(path, report)
        print(f"written to {path.name}")
    return 0 if report["pass"] else 1
