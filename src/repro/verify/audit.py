"""The heap-invariant auditor: "checked mode" for collectors.

:func:`audit_collector` inspects a collector and its heap after (or
between) collections and checks the structural invariants that every
correct collector in this reproduction must maintain:

* **heap integrity** — space membership is consistent and no reference
  slot dangles (delegates to
  :meth:`repro.heap.flat.FlatHeap.check_integrity`);
* **root resolution / reachability closure** — every root id resolves
  to a live object, and the transitive closure from the roots can be
  traced without hitting a freed object (a collector that reclaims a
  live object fails here);
* **space registration** — every space the collector claims to manage
  (:meth:`~repro.gc.collector.Collector.managed_spaces`) is registered
  with the heap;
* **stats conservation** — every word allocated through the collector
  is either still resident in a managed space or accounted as
  reclaimed: ``words_allocated == resident + words_reclaimed``;
* **remembered-set completeness** — per collector family, every
  pointer that a partial collection would need to treat as a root has
  a slot-precise remembered-set entry (§8.4's situations 3, 5 and 6).
  :func:`remset_family` enumerates them from the heap and the
  collector's published structure only — never through the collector's
  own barrier or seeding code, which is what is being checked — and the
  fault injectors (:mod:`repro.resilience.faults`) pick their targets
  from the same enumeration;
* **step structure** — the step renumbering bookkeeping of the
  non-predictive and hybrid collectors is self-consistent and, in the
  non-predictive collector's stop-and-copy mode, objects allocated
  since the last collection sit in non-increasing step order
  (allocation fills the steps from the top down);
* **tri-color wavefront** — for the incremental collector the audit
  accepts *in-cycle* snapshots (where garbage is legitimately still
  resident) and instead proves that an immediate drain-and-sweep
  would be safe: every gray object is on the wavefront, the predicted
  survivor set covers all root-reachable objects, and that set is
  closed under in-space references;
* **root-witness coverage** (optional) — when the caller supplies an
  independent ``expected_roots`` witness (ids the *mutator* believes
  are rooted), every witnessed id must be present in the collector's
  root set and resolve to a live object.  The chaos harness
  (:mod:`repro.resilience.chaos`) uses this to expose silently
  *skipped* roots, which are invisible to every check that reuses the
  collector's own root set.

The auditor is wired into collectors through the optional
``post_collection_hook``: :func:`enable_checked_mode` installs
:func:`assert_heap_invariants` so that every completed collection is
audited, which is how the differential oracle and the fuzz tests run.
Production runs leave the hook unset and pay nothing.

Conservation assumes the managed spaces exchange objects only through
the collector itself.  A full promotion to the static area
(:meth:`repro.runtime.machine.Machine.full_collect_to_static`) moves
words out from under the collector; disable checked mode around such
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.gc.collector import Collector
from repro.gc.concurrent import ConcurrentCollector
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.incremental import GRAY, WHITE, IncrementalCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.steps import StepCollector
from repro.heap.flat import FlatSpace, HeapError
from repro.heap.remset import RememberedSet

__all__ = [
    "AuditError",
    "AuditReport",
    "assert_heap_invariants",
    "audit_collector",
    "disable_checked_mode",
    "enable_checked_mode",
    "remset_family",
]


class AuditError(AssertionError):
    """A collector violated a heap invariant in checked mode."""

    def __init__(self, report: "AuditReport") -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one audit pass.

    Attributes:
        collector: the audited collector's ``name``.
        checks: names of the checks that ran (skipped checks absent).
        violations: human-readable descriptions of every violation.
    """

    collector: str
    checks: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.collector}: {len(self.checks)} checks passed"
            )
        lines = "\n".join(f"  - {line}" for line in self.violations)
        return (
            f"{self.collector}: {len(self.violations)} invariant "
            f"violation(s):\n{lines}"
        )


def audit_collector(
    collector: Collector,
    *,
    expected_roots: "object | None" = None,
) -> AuditReport:
    """Run every applicable invariant check; never raises.

    Args:
        collector: the collector to audit.
        expected_roots: optional iterable of object ids that an
            *independent* witness (typically the mutator that drove the
            collector) believes are rooted.  When given, the audit adds
            a ``root-witness`` check failing for any witnessed id that
            the collector's root set no longer resolves — the only way
            to detect a silently skipped root, since every other check
            trusts the collector's own root set.
    """
    checks: list[str] = []
    violations: list[str] = []

    _check_heap_integrity(collector, checks, violations)
    _check_reachability(collector, checks, violations)
    _check_managed_spaces(collector, checks, violations)
    if expected_roots is not None:
        checks.append("root-witness")
        _check_root_witness(collector, expected_roots, violations)

    if isinstance(collector, StepCollector):
        hybrid = isinstance(collector, HybridCollector)
        checks.append(f"{'hybrid' if hybrid else 'np'}-step-structure")
        _check_step_structure(collector, violations)
    sources, obligations = remset_family(collector)
    if sources:
        checks.append("remset-completeness")
        violations.extend(
            needed.complaint()
            for needed in obligations
            if needed.entry not in needed.remset
        )
    if isinstance(collector, IncrementalCollector):
        if collector.cycle_open:
            _check_wavefront(collector, checks, violations)
        else:
            checks.append("tri-color-quiescent")
            if collector.gray_stack:
                violations.append(
                    f"tri-color: closed cycle left {len(collector.gray_stack)} "
                    f"entries on the gray stack"
                )
            if (
                isinstance(collector, ConcurrentCollector)
                and collector._payload is not None
            ):
                violations.append(
                    "concurrent: closed cycle left a marker snapshot "
                    "pending (leaked handoff)"
                )

    return AuditReport(
        collector=collector.name,
        checks=tuple(checks),
        violations=tuple(violations),
    )


def assert_heap_invariants(collector: Collector) -> None:
    """Audit the collector and raise :class:`AuditError` on violation.

    This is the function :func:`enable_checked_mode` installs as the
    post-collection hook.
    """
    report = audit_collector(collector)
    if not report.ok:
        raise AuditError(report)


def enable_checked_mode(collector: Collector) -> None:
    """Audit after every completed collection (testing/debugging).

    Also arms the heap's per-store dangling-id probe
    (:attr:`repro.heap.flat.FlatHeap.checked`), so bad stores fail
    at the store site instead of at the next audit.
    """
    collector.post_collection_hook = assert_heap_invariants
    collector.heap.checked = True


def disable_checked_mode(collector: Collector) -> None:
    collector.post_collection_hook = None
    collector.heap.checked = False


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------


def _check_heap_integrity(
    collector: Collector, checks: list[str], violations: list[str]
) -> None:
    checks.append("heap-integrity")
    try:
        collector.heap.check_integrity()
    except HeapError as exc:
        violations.append(f"heap integrity: {exc}")


def _check_reachability(
    collector: Collector, checks: list[str], violations: list[str]
) -> None:
    heap = collector.heap
    checks.append("root-resolution")
    dangling = heap.dangling_ids(collector.roots.ids())
    if dangling:
        violations.append(
            f"roots point at freed objects: {sorted(set(dangling))}"
        )
        return
    checks.append("reachability-closure")
    try:
        heap.reachable_from(collector.roots.ids())
    except HeapError as exc:
        violations.append(f"reachability closure: {exc}")


def _check_managed_spaces(
    collector: Collector, checks: list[str], violations: list[str]
) -> None:
    managed = collector.managed_spaces()
    if managed is None:
        return
    heap = collector.heap
    checks.append("space-registration")
    registered = set(heap.spaces())
    for space in managed:
        if space not in registered:
            violations.append(
                f"managed space {space.name!r} is not registered with "
                f"the heap"
            )
    checks.append("stats-conservation")
    stats = collector.stats
    resident = sum(space.used for space in managed)
    balance = resident + stats.words_reclaimed
    if balance != stats.words_allocated:
        violations.append(
            f"stats conservation: allocated {stats.words_allocated} "
            f"words but resident ({resident}) + reclaimed "
            f"({stats.words_reclaimed}) = {balance}"
        )


def _check_root_witness(
    collector: Collector, expected_roots, violations: list[str]
) -> None:
    """Every witnessed root id must still be rooted and resolvable."""
    rooted = set(collector.roots.ids())
    heap = collector.heap
    missing = sorted(
        {
            int(obj_id)
            for obj_id in expected_roots
            if obj_id not in rooted
        }
    )
    if missing:
        violations.append(
            f"root witness: expected root ids {missing} are absent "
            f"from the collector's root set"
        )
        return
    dead = sorted(
        {
            int(obj_id)
            for obj_id in expected_roots
            if not heap.contains_id(obj_id)
        }
    )
    if dead:
        violations.append(
            f"root witness: expected root ids {dead} no longer "
            f"resolve to live objects"
        )


class RemsetObligation(NamedTuple):
    """One slot a partial collection depends on finding remembered:
    ``entry`` of an object in ``source`` holds ``ref``, in ``target``."""

    remset: RememberedSet
    entry: tuple[int, int]
    source: str
    target: str
    ref: int
    #: How the violation text names the source and the missing entry.
    qualifier: str = ""
    wanted: str = "an entry"

    @property
    def why(self) -> str:
        """What the fault injectors report of a dropped entry."""
        return f"{self.source} -> {self.target}"

    def complaint(self) -> str:
        """The violation when ``entry`` is missing from ``remset``."""
        obj_id, slot = self.entry
        return (
            f"remset incomplete: {self.qualifier}{self.source} object "
            f"{obj_id} slot {slot} points at {self.target} object "
            f"{self.ref} without {self.wanted}"
        )


def _live_refs(heap, space: FlatSpace) -> Iterator[tuple[int, int, int]]:
    """``(obj_id, slot, ref)`` for every slot of ``space`` that holds
    the id of a live object."""
    for obj_id in space.object_ids():
        for slot, ref in heap.ref_slots(obj_id):
            if heap.contains_id(ref):
                yield obj_id, slot, ref


def _generational_obligations(
    collector: GenerationalCollector,
) -> Iterator[RemsetObligation]:
    """Every old-to-young pointer must have a remembered slot."""
    heap = collector.heap
    for src_gen, space in enumerate(collector.spaces):
        if src_gen == 0:
            continue  # nursery sources are always traced
        for obj_id, slot, ref in _live_refs(heap, space):
            dst_gen = collector.generation_index(ref)
            if dst_gen is not None and dst_gen < src_gen:
                yield RemsetObligation(
                    collector.remsets[src_gen],
                    (obj_id, slot),
                    f"gen-{src_gen}",
                    f"gen-{dst_gen}",
                    ref,
                )


def _step_obligations(
    collector: StepCollector, hybrid: bool
) -> Iterator[RemsetObligation]:
    """Every protected-to-collectable pointer must be remembered
    (situations 5 and 6); in front of a nursery, every dynamic-to-
    nursery pointer too (situation 3, in ``remset_young``)."""
    heap = collector.heap
    j = collector.j
    # Each kind's violation text words the crossing its own way.
    wording = ("protected ", "a remset_steps entry") if hybrid else ()
    # Situation 3 makes every step a source; 5 and 6 only the protected.
    for index, space in enumerate(collector.steps[: None if hybrid else j]):
        src = f"step-{index + 1}"
        for obj_id, slot, ref in _live_refs(heap, space):
            entry = (obj_id, slot)
            if hybrid and collector.in_nursery(ref):
                yield RemsetObligation(
                    collector.remset_young, entry, src, "nursery", ref,
                    wanted="a remset_young entry",
                )
                continue
            dst = collector.step_number(ref)
            if dst is not None and index < j < dst:
                yield RemsetObligation(
                    collector.remset_steps, entry,
                    src if hybrid else "protected", f"step-{dst}", ref,
                    *wording,
                )


def remset_family(
    collector: Collector,
) -> tuple[list, Iterator[RemsetObligation]]:
    """The collector family's remembered-set contract, as ``(sources,
    obligations)``: each remembered set it keeps with the spaces whose
    slots may legitimately appear in it, and every slot its partial
    collections depend on.  The completeness check reports obligations
    *missing* from their remset; the fault injectors drop ones that are
    *present* and add conservative entries from the source spaces.
    """
    if isinstance(collector, GenerationalCollector):
        sources = [  # gen 0 has no inbound set
            (remset, [space])
            for remset, space in zip(collector.remsets[1:], collector.spaces[1:])
        ]
        return sources, _generational_obligations(collector)
    if isinstance(collector, StepCollector):
        protected = collector.steps[: collector.j]
        sources = [(collector.remset_steps, protected)]
        hybrid = isinstance(collector, HybridCollector)
        if hybrid:
            sources.append((collector.remset_young, collector.steps))
        elif not collector.use_remset:
            return [], iter(())  # scan mode keeps no remembered set
        return sources, _step_obligations(collector, hybrid)
    return [], iter(())


def _check_step_structure(
    collector: StepCollector, violations: list[str]
) -> None:
    try:
        collector.check_step_invariants()
    except AssertionError as exc:
        violations.append(f"step structure: {exc or 'assertion failed'}")
        return
    if not (
        isinstance(collector, NonPredictiveCollector)
        and collector.algorithm == "stop-and-copy"
    ):
        return
    # Stop-and-copy allocation fills the steps from the top down, so
    # objects allocated since the last pause must sit in non-increasing
    # step order as the allocation clock advances.
    pauses = collector.stats.pauses
    threshold = pauses[-1].clock if pauses else 0
    fresh: list[tuple[int, int]] = []
    birth_of = collector.heap.birth_of
    for index, space in enumerate(collector.steps):
        for obj_id in space.object_ids():
            if birth_of(obj_id) >= threshold:
                fresh.append((birth_of(obj_id), index))
    fresh.sort()
    for (birth_a, step_a), (birth_b, step_b) in zip(fresh, fresh[1:]):
        if step_b > step_a:
            violations.append(
                f"allocation order: object born at clock {birth_b} sits "
                f"in step {step_b + 1} above the step {step_a + 1} of an "
                f"older object born at clock {birth_a}"
            )
            return


def _check_wavefront(
    collector: IncrementalCollector,
    checks: list[str],
    violations: list[str],
) -> None:
    """The SATB tri-color invariants of an *in-cycle* heap snapshot.

    Mid-cycle the heap legitimately holds garbage (SATB sweeps only to
    the cycle's snapshot), so the audit cannot demand resident ==
    reachable.  What it can demand is that closing the cycle *right
    now* would be safe.  Concretely:

    * every gray-stack entry resolves to a live in-space object that
      is not white (black entries are tolerated: conservative
      duplicates get skipped by the scan);
    * every gray-*colored* object is on the stack — a gray object the
      wavefront has forgotten would be swept while reachable, which is
      exactly the corruption the chaos harness's drop-remset fault
      models;
    * the predicted survivor set — non-white objects, objects born
      since the epoch, plus everything the remaining wavefront would
      mark through *current* fields — covers every root-reachable
      in-space object and is closed under in-space references, i.e.
      an immediate close would free no reachable object and dangle no
      surviving slot.

    What "the remaining wavefront" is, the collector reports.  The
    concurrent collector's parent heap is (legitimately) all-white
    mid-cycle — the wavefront lives in the worker's snapshot — so the
    prediction adds the marker's set (``pending_marked_ids``, which
    reconciliation treats as black) and the closure from the current
    roots (``close_rescans_roots``); a marker result corrupted
    mid-handoff surfaces as a would-be-swept reachable object or a
    would-dangle survivor slot.  The incremental collector reports
    neither: every mark is on the color arena.
    """
    if collector.close_rescans_roots:
        label, close = "concurrent", "reconciliation"
    else:
        label, close = "tri-color", "cycle close"
    checks.append(f"{label}-wavefront")
    heap = collector.heap
    space = collector.space
    epoch = collector.epoch_clock
    stack_set = set(collector.gray_stack)

    for oid in stack_set:
        if heap.space_if_live(oid) is not space:
            violations.append(
                f"tri-color: gray-stack id {oid} does not resolve to a "
                f"live object in the collector's space"
            )
        elif heap.color_of(oid) == WHITE:
            violations.append(
                f"tri-color: gray-stack id {oid} is colored white"
            )
    if violations:
        return

    resident = list(space.object_ids())
    for oid in resident:
        if heap.color_of(oid) == GRAY and oid not in stack_set:
            violations.append(
                f"tri-color: object {oid} is colored gray but absent "
                f"from the gray stack (lost wavefront entry)"
            )
    if violations:
        return

    pending = collector.pending_marked_ids()
    # Predicted survivors of an immediate close.
    survivors = {
        oid
        for oid in resident
        if heap.color_of(oid) != WHITE or heap.birth_of(oid) >= epoch
    }
    survivors |= pending
    frontier = [oid for oid in stack_set if oid not in pending]
    if collector.close_rescans_roots:
        for rid in collector.roots.ids():
            if (
                rid not in survivors
                and heap.space_if_live(rid) is space
                and heap.birth_of(rid) < epoch
            ):
                survivors.add(rid)
                frontier.append(rid)
    while frontier:
        oid = frontier.pop()
        for _slot, ref in heap.ref_slots(oid):
            if (
                ref not in survivors
                and heap.space_if_live(ref) is space
                and heap.birth_of(ref) < epoch
            ):
                survivors.add(ref)
                frontier.append(ref)

    for oid in heap.reachable_from(collector.roots.ids()):
        if heap.space_if_live(oid) is space and oid not in survivors:
            violations.append(
                f"{label}: root-reachable object {oid} would be swept "
                f"by an immediate {close}"
            )
            return
    for oid in survivors:
        for slot, ref in heap.ref_slots(oid):
            if heap.space_if_live(ref) is space and ref not in survivors:
                violations.append(
                    f"{label}: surviving object {oid} slot {slot} "
                    f"would dangle — its target {ref} would be swept"
                )
                return
