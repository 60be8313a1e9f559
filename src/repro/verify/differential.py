"""The equivalence engine: one script, many variants, equal observables.

All seven collectors implement the same abstract service — keep exactly
the reachable objects alive — while disagreeing wildly about *when*
and *where* objects move.  Every oracle in this repository is one
instance of the same experiment: replay one deterministic mutator
script (:mod:`repro.verify.replay`) under several *variants* of the
system and require chosen *observables* of chosen pairs to be equal.

* A :class:`Variant` is one way to run the script: a collector kind at
  a :class:`~repro.gc.registry.GcGeometry`, optionally restarted from a
  snapshot every Nth allocation, optionally built by an injected
  factory (how tests plant broken collectors).
* A :class:`Relation` says a candidate variant must match a reference
  variant on some of :data:`OBSERVABLES`, and reports the first one
  that does not.
* :func:`run_equivalence` does every replay, turns a crash into a
  ``crash`` divergence (a correct collector replays any valid script
  without raising), closes every collector, and evaluates the
  relations in order.

The four suites (:data:`SUITES`, by CLI name) are tables of variants
and relations over that engine.  Because the simulated heap assigns
object ids sequentially, replays of one script share object ids, so
graphs and survivor sets compare by identity and the earliest
diverging checkpoint localizes a bug.  Failures shrink with
:func:`repro.verify.shrink.shrink_script` ("this report is not ok").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
from repro.verify.replay import (
    CollectorFactory,
    MutatorScript,
    ReplayContext,
    ReplayCrash,
    ReplayResult,
)

__all__ = [
    "DEFAULT_BUDGETS",
    "DEFAULT_COLLECTORS",
    "OBSERVABLES",
    "SUITES",
    "VERIFY_GEOMETRY",
    "DifferentialReport",
    "Divergence",
    "Relation",
    "Suite",
    "Variant",
    "budget_label",
    "budget_suite",
    "collector_suite",
    "concurrent_suite",
    "resume_label",
    "resume_suite",
    "run_differential",
    "run_equivalence",
]

#: Canonical collector names, in comparison order (first = reference).
#: The registry keeps mark-sweep first precisely so differential
#: comparisons use it as the reference implementation.
DEFAULT_COLLECTORS: tuple[str, ...] = COLLECTOR_KINDS

#: Small heap geometry sized for verification scripts: big enough that
#: a script honouring the generator's default live budget never
#: exhausts any collector, small enough that every collector collects
#: naturally (nursery fills, promotions, step renumberings) many times
#: over a few hundred ops.
VERIFY_GEOMETRY = GcGeometry(
    nursery_words=64,
    semispace_words=96,
    step_words=24,
    step_count=8,
)

#: Slice budgets the budget suite sweeps: pathological (1 word per
#: slice), small prime (maximally misaligned with object sizes), the
#: default, and unbounded (degenerate stop-the-world, the sanity
#: anchor).
DEFAULT_BUDGETS: tuple[int | None, ...] = (1, 7, 64, None)


# ----------------------------------------------------------------------
# The data model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    """One way to replay the script.

    Attributes:
        label: the key of this replay in the report.
        kind: collector kind name (see the registry).
        geometry: heap geometry the collector is built at.
        resume_interval: checkpoint/restore the whole context after
            every Nth allocation (None = run uninterrupted).
        factory: builds the collector instead of the registry's stock
            factory for ``kind``/``geometry``.
    """

    label: str
    kind: str
    geometry: GcGeometry = VERIFY_GEOMETRY
    resume_interval: int | None = None
    factory: CollectorFactory | None = None


@dataclass(frozen=True)
class Relation:
    """``candidate`` must match ``reference`` on ``observables``.

    The first observable that differs is reported, under ``kind`` if
    given and under the observable's own divergence kind otherwise.
    """

    candidate: str
    reference: str
    observables: tuple[str, ...] = ("checkpoints",)
    kind: str | None = None


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two replays.

    Attributes:
        kind: "crash", an observable's own kind ("checkpoint-count",
            "live-graph", "allocation-volume", "gc-stats", "pause-log",
            "survivor-set"), or the name its relation gave it.
        collector: the diverging variant's label.
        reference: the reference variant's label.
        checkpoint_index: index of the earliest diverging checkpoint
            (None when the divergence is not at a checkpoint).
        op_index: script position associated with the divergence.
        detail: human-readable description.
    """

    kind: str
    collector: str
    reference: str
    checkpoint_index: int | None
    op_index: int | None
    detail: str

    def summary(self) -> str:
        where = ""
        if self.op_index is not None:
            where = f" at op {self.op_index}"
        return f"[{self.kind}] {self.collector}{where}: {self.detail}"


@dataclass(frozen=True)
class DifferentialReport:
    """The outcome of one equivalence run."""

    script: MutatorScript
    results: Mapping[str, ReplayResult | None]
    divergences: tuple[Divergence, ...]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            names = ", ".join(self.results)
            noun = "collector" if len(self.results) == 1 else "collectors"
            verb = "replays clean" if len(self.results) == 1 else "agree"
            return (
                f"{len(self.results)} {noun} {verb} over "
                f"{len(self.script.ops)} ops ({names})"
            )
        lines = "\n".join(
            f"  - {divergence.summary()}" for divergence in self.divergences
        )
        return f"{len(self.divergences)} divergence(s):\n{lines}"


# ----------------------------------------------------------------------
# One comparator per observable
# ----------------------------------------------------------------------


class _Difference(NamedTuple):
    """What a comparator found; the engine adds who it was between."""

    kind: str
    detail: str
    checkpoint_index: int | None = None
    op_index: int | None = None


def _compare_checkpoints(
    base: ReplayResult, candidate: ReplayResult
) -> _Difference | None:
    """Same number of checkpoints, the same live graph and clock at
    each, and the same total allocation volume; the earliest
    disagreement wins."""
    name, reference = candidate.collector, base.collector
    if len(base.checkpoints) != len(candidate.checkpoints):
        return _Difference(
            "checkpoint-count",
            f"{name} took {len(candidate.checkpoints)} checkpoints, "
            f"{reference} took {len(base.checkpoints)}",
        )
    for index, (expected, actual) in enumerate(
        zip(base.checkpoints, candidate.checkpoints)
    ):
        if expected.graph != actual.graph:
            return _Difference(
                "live-graph",
                _graph_difference(expected, actual, reference, name),
                index,
                actual.op_index,
            )
        if expected.clock != actual.clock:
            return _Difference(
                "allocation-volume",
                f"clock {actual.clock} != {reference}'s "
                f"{expected.clock} at checkpoint {index}",
                index,
                actual.op_index,
            )
    if base.words_allocated != candidate.words_allocated:
        return _Difference(
            "allocation-volume",
            f"allocated {candidate.words_allocated} words, "
            f"{reference} allocated {base.words_allocated}",
        )
    return None


def _graph_difference(expected, actual, reference: str, kind: str) -> str:
    """Describe the first differing object between two fingerprints."""
    expected_by_id = {entry[0]: entry for entry in expected.graph}
    actual_by_id = {entry[0]: entry for entry in actual.graph}
    only_expected = sorted(set(expected_by_id) - set(actual_by_id))
    only_actual = sorted(set(actual_by_id) - set(expected_by_id))
    parts = [
        f"live graphs differ ({len(expected.graph)} vs "
        f"{len(actual.graph)} objects)"
    ]
    if only_expected:
        parts.append(f"{reference} alone reaches ids {only_expected[:5]}")
    if only_actual:
        parts.append(f"{kind} alone reaches ids {only_actual[:5]}")
    if not only_expected and not only_actual:
        for obj_id in sorted(expected_by_id):
            if expected_by_id[obj_id] != actual_by_id[obj_id]:
                parts.append(
                    f"object {obj_id} differs: "
                    f"{expected_by_id[obj_id]} vs {actual_by_id[obj_id]}"
                )
                break
    return "; ".join(parts)


def _compare_stats(
    base: ReplayResult, candidate: ReplayResult
) -> _Difference | None:
    """Every GcStats counter must match; a counter only one side has
    is a difference like any other."""
    if base.stats == candidate.stats:
        return None
    expected, actual = dict(base.stats), dict(candidate.stats)
    diffs = [
        f"{key}: {actual.get(key)} != {expected.get(key)}"
        for key in sorted(expected.keys() | actual.keys())
        if actual.get(key) != expected.get(key)
    ]
    return _Difference("gc-stats", "; ".join(diffs))


def _compare_log(
    kind: str,
    attribute: str,
    unit: str,
    base: ReplayResult,
    candidate: ReplayResult,
) -> _Difference | None:
    """Two logs must be identical, entry for entry, in order."""
    expected = getattr(base, attribute)
    actual = getattr(candidate, attribute)
    if expected == actual:
        return None
    index = next(
        (i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
        min(len(expected), len(actual)),
    )
    return _Difference(
        kind,
        f"{attribute} differ at {unit} {index} "
        f"({len(actual)} vs {len(expected)} {attribute})",
    )


def _compare_survivors(
    base: ReplayResult, candidate: ReplayResult
) -> _Difference | None:
    """The final resident sets must match — stronger than graph
    equality: it also proves no floating garbage is left behind."""
    if base.survivors == candidate.survivors:
        return None
    name, reference = candidate.collector, base.collector
    extra = sorted(set(candidate.survivors) - set(base.survivors))
    missing = sorted(set(base.survivors) - set(candidate.survivors))
    parts = [
        f"{len(candidate.survivors)} resident objects vs "
        f"{reference}'s {len(base.survivors)}"
    ]
    if extra:
        parts.append(f"{name} alone retains ids {extra[:5]}")
    if missing:
        parts.append(f"{name} is missing ids {missing[:5]}")
    return _Difference("survivor-set", "; ".join(parts))


_COMPARATORS: Mapping[
    str, Callable[[ReplayResult, ReplayResult], _Difference | None]
] = {
    "checkpoints": _compare_checkpoints,
    "stats": _compare_stats,
    "pauses": partial(_compare_log, "pause-log", "pauses", "collection"),
    "survivors": _compare_survivors,
}

#: What a :class:`Relation` can require two replays to agree on.
OBSERVABLES: tuple[str, ...] = tuple(_COMPARATORS)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def _quiesce(script: MutatorScript) -> MutatorScript:
    """The script plus two cycle-closing collections.

    The first closes any SATB cycle the script left open (sweeping to
    that cycle's snapshot, so floating garbage may survive it); the
    second runs from the quiescent heap and is therefore *precise*.
    The replay's implicit final checkpoint — and the survivor set —
    then observe exactly the reachable objects under every collector.
    """
    return replace(
        script,
        ops=script.ops + (("collect",), ("collect",)),
        note=(script.note + "; " if script.note else "") + "quiesced",
    )


def _replay_variant(
    variant: Variant, script: MutatorScript, checked: bool
) -> ReplayResult:
    factory = variant.factory or collector_factory(
        variant.kind, variant.geometry
    )
    resume = None
    if variant.resume_interval is not None:
        resume = (variant.resume_interval, variant.kind, variant.geometry)
    context = ReplayContext(factory, checked=checked)
    try:
        return context.run(script, name=variant.label, resume=resume)
    finally:
        context.close()


def run_equivalence(
    script: MutatorScript,
    variants: Sequence[Variant],
    relations: Sequence[Relation],
    *,
    quiesce: bool = False,
    checked: bool = True,
) -> DifferentialReport:
    """Replay ``script`` under every variant and evaluate the relations.

    Args:
        script: a valid mutator script.
        variants: what to replay, in report order.
        relations: what must agree, in reporting order.  A relation
            with a crashed side is skipped — the crash is already a
            divergence.
        quiesce: append the two cycle-closing collections first (pass
            the raw script; the report carries the quiesced one).
        checked: audit heap invariants after every collection (and
            every incremental slice, and on both sides of every
            restore); audit failures surface as crashes.
    """
    if not variants:
        raise ValueError("need at least one variant to replay")
    if quiesce:
        script = _quiesce(script)
    # A crash is reported against the variant's first reference.
    references: dict[str, str] = {}
    for relation in relations:
        references.setdefault(relation.candidate, relation.reference)

    results: dict[str, ReplayResult | None] = {}
    divergences: list[Divergence] = []

    def diverged(candidate: str, reference: str, found: _Difference) -> None:
        divergences.append(
            Divergence(
                kind=found.kind,
                collector=candidate,
                reference=reference,
                checkpoint_index=found.checkpoint_index,
                op_index=found.op_index,
                detail=found.detail,
            )
        )

    for variant in variants:
        label = variant.label
        try:
            results[label] = _replay_variant(variant, script, checked)
        except ReplayCrash as crash:
            results[label] = None
            diverged(
                label,
                references.get(label, label),
                _Difference("crash", str(crash), None, crash.op_index),
            )

    for relation in relations:
        base = results[relation.reference]
        candidate = results[relation.candidate]
        if base is None or candidate is None:
            continue
        for observable in relation.observables:
            found = _COMPARATORS[observable](base, candidate)
            if found is not None:
                if relation.kind is not None:
                    found = found._replace(kind=relation.kind)
                diverged(relation.candidate, relation.reference, found)
                break

    return DifferentialReport(script, results, tuple(divergences))


# ----------------------------------------------------------------------
# The suites: preset tables over the engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """A preset: the arguments of :func:`run_equivalence` as data."""

    variants: tuple[Variant, ...]
    relations: tuple[Relation, ...]
    quiesce: bool = False

    def run(
        self, script: MutatorScript, *, checked: bool = True
    ) -> DifferentialReport:
        return run_equivalence(
            script,
            self.variants,
            self.relations,
            quiesce=self.quiesce,
            checked=checked,
        )


def budget_label(budget: int | None) -> str:
    """The label of one slice budget's incremental replay."""
    return f"incremental@b={'inf' if budget is None else budget}"


def resume_label(kind: str) -> str:
    """The label of one kind's resumed replay."""
    return f"{kind}+resume"


def collector_suite(
    kinds: Sequence[str] = DEFAULT_COLLECTORS,
    *,
    geometry: GcGeometry = VERIFY_GEOMETRY,
    factories: Mapping[str, CollectorFactory] | None = None,
) -> Suite:
    """Every collector against ``kinds[0]``: whatever the policy, the
    same checkpoints — count, live graph and clock at each, allocation
    volume.  ``factories`` maps a kind name to a replacement factory.
    """
    factories = factories or {}
    return Suite(
        variants=tuple(
            Variant(kind, kind, geometry, factory=factories.get(kind))
            for kind in kinds
        ),
        relations=tuple(Relation(kind, kinds[0]) for kind in kinds[1:]),
    )


def budget_suite(
    budgets: Sequence[int | None] = DEFAULT_BUDGETS,
    *,
    geometry: GcGeometry = VERIFY_GEOMETRY,
) -> Suite:
    """Mark-sweep and the incremental collector at every slice budget
    (*budget-invariance*): checkpoints and survivors as mark-sweep's,
    stats (``budget-stats``) and checkpoints as the first budget's.
    Only the pause log may differ — slicing exists to change it.
    """
    if not budgets:
        raise ValueError("need at least one slice budget")
    labels = [budget_label(budget) for budget in budgets]
    return Suite(
        variants=(
            Variant("mark-sweep", "mark-sweep", geometry),
            *(
                Variant(
                    label,
                    "incremental",
                    replace(geometry, slice_budget=budget),
                )
                for label, budget in zip(labels, budgets)
            ),
        ),
        relations=(
            *(Relation(label, "mark-sweep") for label in labels),
            *(
                relation
                for label in labels[1:]
                for relation in (
                    Relation(label, labels[0], ("stats",), "budget-stats"),
                    Relation(label, labels[0]),
                )
            ),
            *(
                Relation(label, "mark-sweep", ("survivors",))
                for label in labels
            ),
        ),
        quiesce=True,
    )


def concurrent_suite(
    *,
    geometry: GcGeometry = VERIFY_GEOMETRY,
    pool_workers: int = 1,
) -> Suite:
    """Mark-sweep, incremental(∞), and the concurrent collector with
    the marker inline and in a worker process: checkpoints and
    survivors as mark-sweep's, stats as incremental(∞)'s
    (``concurrent-stats``), and the pool run as the inline one in
    everything *including the pause log* (``marker-mode`` — where the
    marker ran is not an observable).  ``pool_workers=0`` skips the
    pool replay (inline-only, for constrained hosts).
    """
    incremental = budget_label(None)
    inline, pool = "concurrent@inline", "concurrent@pool"
    variants = [
        Variant("mark-sweep", "mark-sweep", geometry),
        Variant(
            incremental, "incremental", replace(geometry, slice_budget=None)
        ),
        Variant(inline, "concurrent", replace(geometry, marker_workers=0)),
        Variant(
            pool, "concurrent", replace(geometry, marker_workers=pool_workers)
        ),
    ]
    others = (incremental, inline, pool)
    relations = [
        *(Relation(label, "mark-sweep") for label in others),
        Relation(inline, incremental, ("stats",), "concurrent-stats"),
        Relation(pool, incremental, ("stats",), "concurrent-stats"),
        Relation(pool, inline, ("stats", "pauses"), "marker-mode"),
        Relation(pool, inline),
        *(Relation(label, "mark-sweep", ("survivors",)) for label in others),
    ]
    if pool_workers < 1:
        variants.pop()
        relations = [r for r in relations if r.candidate != pool]
    return Suite(tuple(variants), tuple(relations), quiesce=True)


def resume_suite(
    kinds: Sequence[str] = DEFAULT_COLLECTORS,
    *,
    geometry: GcGeometry = VERIFY_GEOMETRY,
    resume_interval: int = 1,
) -> Suite:
    """Every collector uninterrupted and as ``"<kind>+resume"``,
    restarted from its serialized snapshot after every
    ``resume_interval``-th allocation (*resume equivalence*): equal
    checkpoints, stats, pauses and survivors, each under its own
    ``resume-*`` kind.  Concurrent marking is forced inline so both
    replays schedule identically.
    """
    if resume_interval < 1:
        raise ValueError(
            f"resume interval must be positive, got {resume_interval!r}"
        )
    geometry = replace(geometry, marker_workers=0)
    return Suite(
        variants=tuple(
            variant
            for kind in kinds
            for variant in (
                Variant(kind, kind, geometry),
                Variant(resume_label(kind), kind, geometry, resume_interval),
            )
        ),
        relations=tuple(
            Relation(resume_label(kind), kind, (observable,), name)
            for kind in kinds
            for observable, name in (
                ("checkpoints", "resume-checkpoint"),
                ("stats", "resume-stats"),
                ("pauses", "resume-pauses"),
                ("survivors", "resume-survivor"),
            )
        ),
        quiesce=True,
    )


#: The suites by the name ``repro-gc verify`` and CI know them by.
SUITES: Mapping[str, Callable[..., Suite]] = {
    "collectors": collector_suite,
    "budgets": budget_suite,
    "concurrent": concurrent_suite,
    "resume": resume_suite,
}


def run_differential(
    script: MutatorScript,
    kinds: Sequence[str] = DEFAULT_COLLECTORS,
    *,
    geometry: GcGeometry = VERIFY_GEOMETRY,
    factories: Mapping[str, CollectorFactory] | None = None,
    checked: bool = True,
) -> DifferentialReport:
    """The cross-collector oracle: :func:`collector_suite`, run."""
    return collector_suite(kinds, geometry=geometry, factories=factories).run(
        script, checked=checked
    )


def register(subparsers) -> None:
    """``repro-gc verify``: one suite per run, picked by its mode flag."""
    from repro.cli import positive_int, slice_budget

    sub = subparsers.add_parser(
        "verify",
        help=(
            "differential GC check: replay one random mutator script "
            "under every collector and compare live graphs"
        ),
    )
    sub.add_argument(
        "--ops", type=positive_int, default=2000, help="script length in ops"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--collectors",
        nargs="+",
        choices=COLLECTOR_KINDS,
        default=list(COLLECTOR_KINDS),
        help="collectors to compare (first is the reference)",
    )
    sub.add_argument(
        "--max-live",
        type=int,
        default=40,
        help="live-storage budget the generated script stays under",
    )
    sub.add_argument(
        "--no-shrink",
        action="store_true",
        help="on failure, skip minimizing the counterexample",
    )
    sub.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the per-collection heap-invariant audit",
    )
    # The suites are alternatives: at most one mode flag per run.
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument(
        "--budgets",
        nargs="*",
        type=slice_budget,
        metavar="BUDGET",
        help=(
            "interruption-equivalence suite: replay the script under "
            "mark-sweep and under the incremental collector at each "
            "slice budget ('inf' = unbounded; default 1 7 64 inf), "
            "and require identical graphs, stats, and survivor sets at "
            "every budget"
        ),
    )
    mode.add_argument(
        "--concurrent",
        action="store_true",
        help=(
            "concurrent-equivalence suite: replay the script under "
            "mark-sweep, the unbounded incremental collector, and the "
            "concurrent collector with both inline and worker-process "
            "markers, and require identical graphs, stats, pause logs, "
            "and survivor sets"
        ),
    )
    mode.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume-equivalence suite: replay the script under every "
            "collector, checkpoint/restoring the entire context through "
            "its serialized snapshot at every allocation safepoint, and "
            "require checkpoints, stats, pauses, and survivors "
            "byte-identical to an uninterrupted run"
        ),
    )
    sub.add_argument(
        "--resume-interval",
        type=int,
        default=1,
        help=(
            "--resume only: checkpoint/restore after every Nth "
            "allocation safepoint (default 1 = every allocation)"
        ),
    )
    sub.set_defaults(func=_cmd_verify)


def _cmd_verify(args) -> int:
    import sys

    from repro.verify.replay import generate_script
    from repro.verify.shrink import shrink_script

    # The mode flags pick the suite and what it is built from.
    kinds = tuple(args.collectors)
    try:
        script = generate_script(
            args.ops, args.seed, max_live_words=args.max_live
        )
        if args.budgets is not None:
            name = "budgets"
            options = {"budgets": tuple(args.budgets)} if args.budgets else {}
        elif args.concurrent:
            name, options = "concurrent", {}
        elif args.resume:
            name = "resume"
            options = {"kinds": kinds, "resume_interval": args.resume_interval}
        else:
            name, options = "collectors", {"kinds": kinds}
        suite = SUITES[name](**options)
    except ValueError as exc:
        print(f"repro-gc verify: error: {exc}", file=sys.stderr)
        return 2
    checked = not args.unchecked
    # The budget, concurrent and resume suites keep the heading they
    # printed when they ran once per heap backend.
    heading = "" if name == "collectors" else "backend flat: "
    report = suite.run(script, checked=checked)
    if report.ok:
        print(f"[PASS] {heading}{report.summary()}")
        if name == "collectors":
            # The collector suite also lists every replay.
            for label, result in report.results.items():
                print(
                    f"       {label:<14} "
                    f"collections={result.collections:<4} "
                    f"checkpoints={len(result.checkpoints)}"
                )
        return 0
    print(f"[FAIL] {heading}{report.summary()}")
    if not args.no_shrink:
        where = f" ({heading[:-2]})" if heading else ""
        print()
        print(f"shrinking the counterexample{where} ...")

        def fails(candidate) -> bool:
            return not suite.run(candidate, checked=checked).ok

        small = shrink_script(script, fails)
        print(f"minimal failing script ({len(small.ops)} ops):")
        print(small.to_text())
        print()
        print(suite.run(small, checked=checked).summary())
    return 1
