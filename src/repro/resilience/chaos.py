"""The chaos harness: inject faults, score the safety net.

A chaos run answers one question about the verification subsystem
itself: *if a collector silently corrupted its state, would we notice?*
For every ``(fault kind, collector)`` pair it

1. replays a deterministic mutator script cleanly under the collector
   (checked mode on) to record reference checkpoints,
2. replays the same script again, injecting the fault at a seeded
   mutator-step boundary mid-script, and
3. watches three independent detection channels:

   * **audit** — :func:`repro.verify.audit.audit_collector` run
     immediately after injection (and again at script end), with the
     harness's own shadow root set as the ``expected_roots`` witness;
   * **crash** — any exception out of the collector, heap, or the
     per-collection checked-mode hook while the replay continues;
   * **divergence** — a post-injection checkpoint fingerprint that
     differs from the clean reference replay.

Corruption-class faults (:data:`repro.resilience.faults
.CORRUPTION_FAULTS`) must trip at least one channel; the benign
control (``dup-remset``) must trip none.  :func:`run_chaos_matrix`
aggregates the outcomes into a :class:`DetectionMatrix`, which the
``repro-gc chaos`` command renders and exports; the matrix is *not ok*
— and the command fails — if any injected corruption goes undetected,
the benign control fires a false positive, or no cell injected at all.

Everything is seeded: the script, each injection site, and each
injector's choices derive from ``(seed, fault kind, collector kind)``,
so a failing cell replays exactly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.events import EventStream

from repro.gc.registry import GcGeometry, collector_factory
from repro.heap.flat import FlatHeap
from repro.heap.roots import RootSet
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjection,
    fault_applies,
    fault_expectation,
    inject_fault,
)
from repro.verify.audit import audit_collector
from repro.verify.differential import DEFAULT_COLLECTORS, VERIFY_GEOMETRY
from repro.verify.replay import (
    MutatorScript,
    ReplayContext,
    ReplayError,
    ReplayResult,
    generate_script,
    replay,
)

__all__ = [
    "ChaosError",
    "ChaosOutcome",
    "DetectionMatrix",
    "SNAPSHOT_FAULTS",
    "run_chaos",
    "run_chaos_matrix",
    "run_snapshot_chaos",
]

#: Script length for a full chaos run / for ``--quick``.
DEFAULT_OP_COUNT = 400
QUICK_OP_COUNT = 160

#: The snapshot-corrupt fault family: ways a checkpoint file rots at
#: rest (or is torn in flight) that ``restore()`` must catch — every
#: cell's expectation is "corruption", and the only acceptable status
#: is ``detected`` via the ``restore`` channel (a
#: :class:`~repro.resilience.snapshot.SnapshotError` before any state
#: reaches a heap).
SNAPSHOT_FAULTS = (
    "bit-flip",
    "truncate",
    "stale-version",
    "checksum-mismatch",
)


class ChaosError(RuntimeError):
    """The harness itself misbehaved (clean replay crashed/diverged)."""


@dataclass(frozen=True)
class ChaosOutcome:
    """One cell of the detection matrix.

    Attributes:
        fault: the fault kind.
        collector: the collector kind name.
        expectation: ``"corruption"`` or ``"benign"``.
        status: ``"detected"`` (corruption caught), ``"missed"``
            (corruption escaped every channel), ``"benign"`` (control
            fault correctly ignored), ``"false-positive"`` (control
            fault tripped a channel), or ``"n/a"`` (fault inapplicable
            to this collector, or no injection target ever
            materialised).
        channel: which channel fired (``"audit"``, ``"crash"``,
            ``"divergence"``) or ``None``.
        op_index: mutator-step boundary where injection happened
            (``None`` when nothing was injected).
        detail: what was injected and/or what the channel reported.
    """

    fault: str
    collector: str
    expectation: str
    status: str
    channel: str | None
    op_index: int | None
    detail: str

    @property
    def injected(self) -> bool:
        return self.op_index is not None

    @property
    def ok(self) -> bool:
        return self.status in ("detected", "benign", "n/a")

    def to_json(self) -> dict:
        return {
            "fault": self.fault,
            "collector": self.collector,
            "expectation": self.expectation,
            "status": self.status,
            "channel": self.channel,
            "op_index": self.op_index,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class DetectionMatrix:
    """Fault kind x collector detection outcomes for one chaos run."""

    seed: int
    op_count: int
    collectors: tuple[str, ...]
    kinds: tuple[str, ...]
    outcomes: tuple[ChaosOutcome, ...]

    @property
    def ok(self) -> bool:
        """Every cell passed, and one at least was not ``n/a``."""
        return self.injected and all(outcome.ok for outcome in self.outcomes)

    @property
    def injected(self) -> bool:
        return any(outcome.status != "n/a" for outcome in self.outcomes)

    def outcome(self, fault: str, collector: str) -> ChaosOutcome:
        for outcome in self.outcomes:
            if outcome.fault == fault and outcome.collector == collector:
                return outcome
        raise KeyError(f"no outcome for ({fault!r}, {collector!r})")

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    def failures(self) -> tuple[ChaosOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "op_count": self.op_count,
            "collectors": list(self.collectors),
            "kinds": list(self.kinds),
            "ok": self.ok,
            "counts": self.counts(),
            "outcomes": [outcome.to_json() for outcome in self.outcomes],
        }

    def render(self) -> str:
        """An aligned fault-kind x collector table plus a summary line."""

        def cell(outcome: ChaosOutcome) -> str:
            if outcome.status == "detected":
                return f"det:{outcome.channel}"
            if outcome.status == "false-positive":
                return f"FALSE+:{outcome.channel}"
            if outcome.status == "missed":
                return "MISSED"
            return outcome.status

        header = ["fault \\ collector", *self.collectors]
        rows = [header]
        for fault in self.kinds:
            row = [fault]
            for collector in self.collectors:
                row.append(cell(self.outcome(fault, collector)))
            rows.append(row)
        widths = [
            max(len(row[col]) for row in rows)
            for col in range(len(header))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(
                    text.ljust(width) for text, width in zip(row, widths)
                ).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        tally = ", ".join(
            f"{status}={count}" for status, count in sorted(self.counts().items())
        )
        verdict = "OK" if self.ok else "FAIL"
        lines.append("")
        lines.append(
            f"{verdict}: seed={self.seed} ops={self.op_count} {tally}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Snapshot corruption
# ----------------------------------------------------------------------


def _corrupt_snapshot(
    wire: str, fault: str, rng: random.Random
) -> tuple[str, str]:
    """Apply one snapshot fault to a serialized document.

    ``wire`` must be the compact (no-whitespace) serialization so that
    every byte is semantic — a bit flip then either breaks the JSON or
    changes the payload, never lands on cosmetic whitespace.  Returns
    the corrupted text and a human-readable description.
    """
    if fault == "bit-flip":
        # Flip one bit strictly inside the payload's serialized span,
        # so the corruption models the stored heap state rotting, not
        # the envelope.
        start = wire.index('"payload"')
        index = rng.randrange(start, len(wire) - 1)
        bit = rng.randrange(7)
        flipped = chr(ord(wire[index]) ^ (1 << bit))
        return (
            wire[:index] + flipped + wire[index + 1:],
            f"flipped bit {bit} of byte {index} "
            f"({wire[index]!r} -> {flipped!r})",
        )
    if fault == "truncate":
        cut = rng.randrange(1, len(wire))
        return (
            wire[:cut],
            f"truncated to {cut} of {len(wire)} bytes (torn write)",
        )
    if fault == "stale-version":
        import json as _json

        document = _json.loads(wire)
        document["version"] = 0
        return (
            _json.dumps(document, sort_keys=True, separators=(",", ":")),
            "rewrote version header to the retired version 0",
        )
    if fault == "checksum-mismatch":
        import json as _json

        document = _json.loads(wire)
        checksum = document["checksum"]
        first = "1" if checksum[0] == "0" else "0"
        document["checksum"] = first + checksum[1:]
        return (
            _json.dumps(document, sort_keys=True, separators=(",", ":")),
            f"rewrote checksum {checksum[:12]}... to "
            f"{document['checksum'][:12]}...",
        )
    raise ValueError(f"unknown snapshot fault {fault!r}")


def _probe_snapshot(text: str) -> tuple[str, str | None, str]:
    """Write a (corrupted) snapshot to disk and try the cold-restore
    path; returns ``(status, channel, detail)``."""
    import os
    import tempfile

    from repro.resilience.snapshot import (
        SnapshotError,
        load_snapshot,
        restore,
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            restore(load_snapshot(path))
        except SnapshotError as exc:
            # Scrub the throwaway temp path so cells are byte-identical
            # across runs of the same seed.
            detail = str(exc).replace(path, "snapshot.json")
            return "detected", "restore", detail
    return "missed", None, "corrupted snapshot restored without complaint"


def run_snapshot_chaos(
    *,
    seed: int = 0,
    op_count: int = DEFAULT_OP_COUNT,
    collectors: Sequence[str] = DEFAULT_COLLECTORS,
    kinds: Sequence[str] = SNAPSHOT_FAULTS,
    geometry: GcGeometry | None = None,
    quick: bool = False,
    events: "EventStream | None" = None,
) -> DetectionMatrix:
    """The snapshot-corrupt sweep: fault kind x collector.

    For every collector, replay the seeded script, take one
    checkpoint of the final live context, then hand each fault kind a
    fresh copy of the serialized document to corrupt (seeded, like
    every other chaos cell).  The corrupted file must fail the cold
    restore path (:func:`~repro.resilience.snapshot.load_snapshot`
    then :func:`~repro.resilience.snapshot.restore`) with a
    :class:`~repro.resilience.snapshot.SnapshotError` — 100% detection
    is the bar, so the only passing status is ``detected``.
    """
    import json as _json

    from repro.resilience.snapshot import checkpoint as take_snapshot

    if quick:
        op_count = min(op_count, QUICK_OP_COUNT)
    if geometry is None:
        geometry = replace(VERIFY_GEOMETRY, slice_budget=1)
    script = generate_script(op_count, seed)

    outcomes: list[ChaosOutcome] = []
    for collector_kind in collectors:
        context = ReplayContext(
            collector_factory(collector_kind, geometry), checked=True
        )
        try:
            context.run(script)
        except Exception as exc:
            raise ChaosError(
                f"clean replay failed under {collector_kind}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        document = take_snapshot(context.collector, collector_kind, geometry)
        wire = _json.dumps(document, sort_keys=True, separators=(",", ":"))

        for fault in kinds:
            rng = _cell_rng(seed, fault, collector_kind)
            corrupted, injected_detail = _corrupt_snapshot(wire, fault, rng)
            if events is not None:
                events.emit(
                    "fault-injected",
                    fault=fault,
                    collector=collector_kind,
                    expectation="corruption",
                    op_index=None,
                    detail=injected_detail,
                )
            status, channel, probe_detail = _probe_snapshot(corrupted)
            if events is not None and channel is not None:
                events.emit(
                    "fault-detected",
                    fault=fault,
                    collector=collector_kind,
                    expectation="corruption",
                    status=status,
                    channel=channel,
                    op_index=None,
                    detail=probe_detail,
                )
            outcomes.append(
                ChaosOutcome(
                    fault=fault,
                    collector=collector_kind,
                    expectation="corruption",
                    status=status,
                    channel=channel,
                    op_index=None,
                    detail=f"{injected_detail}; {probe_detail}",
                )
            )
    return DetectionMatrix(
        seed=seed,
        op_count=op_count,
        collectors=tuple(collectors),
        kinds=tuple(kinds),
        outcomes=tuple(outcomes),
    )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def run_chaos_matrix(
    *,
    seed: int = 0,
    op_count: int = DEFAULT_OP_COUNT,
    collectors: Sequence[str] = DEFAULT_COLLECTORS,
    kinds: Sequence[str] = FAULT_KINDS,
    geometry: GcGeometry | None = None,
    quick: bool = False,
    events: "EventStream | None" = None,
    safepoint: bool = False,
) -> DetectionMatrix:
    """Run the full fault-kind x collector chaos sweep.

    Args:
        seed: seeds the script and every per-cell injection choice.
        op_count: mutator script length (``quick`` overrides it down).
        collectors: collector kind names to target.
        kinds: fault kinds to inject.
        geometry: heap geometry (defaults to the verify geometry).
        quick: cap the script at :data:`QUICK_OP_COUNT` ops — the CI
            smoke configuration.
        events: optional :class:`repro.metrics.events.EventStream`; every
            injection emits a ``fault-injected`` record and every
            fired detection channel a ``fault-detected`` record, so
            the safety net's verdicts land in the same NDJSON
            telemetry as the collectors' own spans.
        safepoint: delay every injection until the targeted collector
            is *mid-wavefront* — an incremental mark cycle open with
            gray entries outstanding, or a concurrent cycle whose
            marker still holds the snapshot — so faults land between
            slices (or mid-handoff), the windows the tri-color and
            concurrent-wavefront audits exist to defend.  Collectors
            with no such window never inject (``n/a``).
    """
    if quick:
        op_count = min(op_count, QUICK_OP_COUNT)
    if geometry is None:
        # A 1-word slice budget keeps the incremental collector's gray
        # wavefront alive across many op boundaries, so wavefront
        # faults (and safepoint mode as a whole) have a window to
        # inject into.  Budget-invariance guarantees this changes no
        # checkpoint fingerprint for any collector.
        geometry = replace(VERIFY_GEOMETRY, slice_budget=1)
    script = generate_script(op_count, seed)

    outcomes: list[ChaosOutcome] = []
    for collector_kind in collectors:
        factory = collector_factory(collector_kind, geometry)
        reference = _clean_reference(script, factory, collector_kind)
        for fault in kinds:
            outcomes.append(
                _run_cell(
                    script,
                    factory,
                    collector_kind,
                    fault,
                    seed,
                    reference,
                    events=events,
                    safepoint=safepoint,
                )
            )
    return DetectionMatrix(
        seed=seed,
        op_count=op_count,
        collectors=tuple(collectors),
        kinds=tuple(kinds),
        outcomes=tuple(outcomes),
    )


def run_chaos(
    *,
    collectors: Sequence[str] | None = None,
    safepoint: bool = False,
    **options,
) -> DetectionMatrix:
    """The matrix ``repro-gc chaos`` reports; ``options`` (``seed``,
    ``op_count``, ``quick``, ``events``) go to every sweep it runs.

    By default it targets every collector, and the snapshot-corrupt
    sweep rides along.  ``safepoint`` keeps to mid-wavefront state
    corruption, by default of the two collectors that have a live mark
    wavefront: incremental, and concurrent (its marker's snapshot).
    """
    if collectors is None:
        collectors = (
            ("incremental", "concurrent") if safepoint else DEFAULT_COLLECTORS
        )
    matrix = run_chaos_matrix(
        collectors=collectors, safepoint=safepoint, **options
    )
    if safepoint:
        return matrix
    snapshots = run_snapshot_chaos(collectors=collectors, **options)
    return replace(
        matrix,
        kinds=matrix.kinds + snapshots.kinds,
        outcomes=matrix.outcomes + snapshots.outcomes,
    )


def _clean_reference(
    script: MutatorScript, factory, collector_kind: str
) -> ReplayResult:
    try:
        return replay(script, factory, checked=True, name=collector_kind)
    except Exception as exc:
        raise ChaosError(
            f"clean reference replay failed under {collector_kind}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _cell_rng(seed: int, fault: str, collector_kind: str) -> random.Random:
    blob = f"chaos:{seed}:{fault}:{collector_kind}".encode()
    return random.Random(
        int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    )


def _run_cell(
    script: MutatorScript,
    factory,
    collector_kind: str,
    fault: str,
    seed: int,
    reference: ReplayResult,
    events: "EventStream | None" = None,
    safepoint: bool = False,
) -> ChaosOutcome:
    expectation = fault_expectation(fault)

    def outcome(
        status: str,
        *,
        channel: str | None = None,
        op_index: int | None = None,
        detail: str = "",
    ) -> ChaosOutcome:
        if events is not None and channel is not None:
            events.emit(
                "fault-detected",
                fault=fault,
                collector=collector_kind,
                expectation=expectation,
                status=status,
                channel=channel,
                op_index=op_index,
                detail=detail,
            )
        return ChaosOutcome(
            fault=fault,
            collector=collector_kind,
            expectation=expectation,
            status=status,
            channel=channel,
            op_index=op_index,
            detail=detail,
        )

    # Applicability is a property of the collector family; probe a
    # fresh instance rather than special-casing kind names here.
    probe = factory(FlatHeap(), RootSet())
    if not fault_applies(fault, probe):
        return outcome(
            "n/a", detail=f"{fault} does not apply to {collector_kind}"
        )

    rng = _cell_rng(seed, fault, collector_kind)
    ops = script.ops
    inject_at = rng.randrange(len(ops) // 4, max(len(ops) // 4 + 1, (3 * len(ops)) // 4))

    context = ReplayContext(factory, checked=True)
    collector = context.collector
    uid_to_id = context.uid_to_id
    rooted_uids: set[int] = set()
    track_root = {"alloc": rooted_uids.add, "drop": rooted_uids.discard}
    injection: FaultInjection | None = None
    injected_at: int | None = None
    check_cursor = 0

    def witness() -> set[int]:
        # What the *mutator* believes is rooted — independent of the
        # collector's root set, so a silently skipped root still shows.
        return {uid_to_id[uid] for uid in rooted_uids}

    def audit_now(where: str) -> ChaosOutcome | None:
        report = audit_collector(collector, expected_roots=witness())
        if report.ok:
            return None
        detected = expectation == "corruption"
        return outcome(
            "detected" if detected else "false-positive",
            channel="audit",
            op_index=injected_at,
            detail=f"{injection.detail}; {where}: {report.violations[0]}",
        )

    def compare_checkpoint(cursor: int) -> ChaosOutcome | None:
        expected = reference.checkpoints[cursor]
        if context.checkpoint(expected.op_index) == expected:
            return None
        if injection is None:
            raise ChaosError(
                f"pre-injection checkpoint {cursor} diverged from the "
                f"clean replay under {collector_kind} — the harness "
                f"is nondeterministic"
            )
        detected = expectation == "corruption"
        return outcome(
            "detected" if detected else "false-positive",
            channel="divergence",
            op_index=injected_at,
            detail=(
                f"{injection.detail}; checkpoint {cursor} differs from "
                f"the clean replay"
            ),
        )

    def at_injection_window() -> bool:
        if not safepoint:
            return True
        # Mid-wavefront only: a mark cycle is open and there is
        # outstanding mark obligation — gray entries the next slices
        # still owe (incremental), or a marker holding the snapshot
        # whose result reconciliation has yet to trust (concurrent).
        return bool(
            getattr(collector, "cycle_open", False)
            and (
                getattr(collector, "gray_stack", None)
                or getattr(collector, "marker_inflight", False)
            )
        )

    for op_index, op in enumerate(ops):
        if injection is None and op_index >= inject_at and at_injection_window():
            injection = inject_fault(fault, collector, rng)
            if injection is not None:
                injected_at = op_index
                if events is not None:
                    events.emit(
                        "fault-injected",
                        fault=fault,
                        collector=collector_kind,
                        expectation=expectation,
                        op_index=op_index,
                        detail=injection.detail,
                    )
                verdict = audit_now("post-injection audit")
                if verdict is not None:
                    return verdict
        op_kind = op[0]
        try:
            if op_kind == "check":
                verdict = compare_checkpoint(check_cursor)
                check_cursor += 1
                if verdict is not None:
                    return verdict
            else:
                context.apply(op)
                if op_kind in track_root:
                    track_root[op_kind](op[1])
        except (ChaosError, ReplayError):
            raise
        except Exception as exc:
            if injection is None:
                raise ChaosError(
                    f"clean prefix of the chaos replay crashed at op "
                    f"{op_index} under {collector_kind}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            detected = expectation == "corruption"
            return outcome(
                "detected" if detected else "false-positive",
                channel="crash",
                op_index=injected_at,
                detail=(
                    f"{injection.detail}; op {op_index} {op!r} raised "
                    f"{type(exc).__name__}: {exc}"
                ),
            )

    # The implicit final checkpoint, then a closing audit.
    try:
        verdict = compare_checkpoint(check_cursor)
    except ChaosError:
        raise
    except Exception as exc:
        if injection is None:
            raise ChaosError(
                f"final fingerprint crashed under {collector_kind}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        detected = expectation == "corruption"
        return outcome(
            "detected" if detected else "false-positive",
            channel="crash",
            op_index=injected_at,
            detail=(
                f"{injection.detail}; final fingerprint raised "
                f"{type(exc).__name__}: {exc}"
            ),
        )
    if verdict is not None:
        return verdict

    if injection is None:
        return outcome(
            "n/a",
            detail=(
                f"no injection target for {fault} materialised from op "
                f"{inject_at} onward"
            ),
        )

    verdict = audit_now("end-of-script audit")
    if verdict is not None:
        return verdict

    if expectation == "benign":
        return outcome(
            "benign",
            op_index=injected_at,
            detail=f"{injection.detail}; no channel fired, as expected",
        )
    return outcome(
        "missed",
        op_index=injected_at,
        detail=f"{injection.detail}; escaped every detection channel",
    )


def register(subparsers) -> None:
    """``repro-gc chaos``."""
    from repro.cli import positive_int

    sub = subparsers.add_parser(
        "chaos",
        help=(
            "fault-injection harness: corrupt live collector state "
            "mid-replay and require the verify layer to notice"
        ),
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--ops", type=positive_int, default=400, help="mutator script length"
    )
    sub.add_argument(
        "--quick", action="store_true", help="short script (CI smoke mode)"
    )
    sub.add_argument(
        "--collectors",
        nargs="+",
        choices=DEFAULT_COLLECTORS,
        help=(
            "collectors to target (default: all, or incremental and "
            "concurrent with --safepoint)"
        ),
    )
    sub.add_argument(
        "--safepoint",
        action="store_true",
        help=(
            "defer each injection to the first mutator safepoint where "
            "a mark wavefront is live (incremental gray stack non-"
            "empty, or a concurrent marker holding its snapshot), "
            "corrupting the collector mid-cycle"
        ),
    )
    sub.add_argument(
        "--output", help="also write the detection matrix as JSON to this path"
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the matrix as JSON instead of the rendered table",
    )
    sub.add_argument(
        "--events",
        help=(
            "write fault-injected/fault-detected telemetry as NDJSON "
            "to this path"
        ),
    )
    sub.set_defaults(func=_cmd_chaos)


def _cmd_chaos(args) -> int:
    import json
    import sys

    from repro.metrics.events import EventStream
    from repro.resilience.atomic import atomic_write_json

    events = EventStream() if args.events else None
    matrix = run_chaos(
        seed=args.seed,
        op_count=args.ops,
        collectors=args.collectors,
        quick=args.quick,
        events=events,
        safepoint=args.safepoint,
    )
    if events is not None:
        events.write(args.events)
        print(f"{len(events)} telemetry events written to {args.events}")
    if args.json:
        print(json.dumps(matrix.to_json(), indent=2))
    else:
        print(matrix.render())
    if args.output:
        path = atomic_write_json(args.output, matrix.to_json())
        print(f"detection matrix written to {path}")
    if not matrix.ok:
        print()
        for outcome in matrix.failures():
            print(
                f"[FAIL] {outcome.fault} x {outcome.collector}: "
                f"{outcome.status} — {outcome.detail}",
                file=sys.stderr,
            )
        if not matrix.injected:
            print("[FAIL] no cell injected a fault", file=sys.stderr)
        return 1
    return 0
