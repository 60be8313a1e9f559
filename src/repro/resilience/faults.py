"""The fault taxonomy: seeded perturbations of live collector state.

Each fault kind models one way a collector implementation (or the
runtime around it) can silently go wrong, chosen so that together they
exercise every family of check in :mod:`repro.verify.audit` plus the
differential oracle:

========================  =============================================
kind                      models / should be caught by
========================  =============================================
``dangling-slot``         a stale interior pointer left behind by a
                          buggy copy phase — heap-integrity
``drop-remset``           a missed write barrier: a live
                          cross-boundary pointer loses its remembered
                          slot — remset-completeness; against the
                          incremental collector, a gray wavefront
                          entry is forgotten mid-mark —
                          tri-color-wavefront; against the concurrent
                          collector, a marker-marked id vanishes from
                          the snapshot result mid-handoff —
                          concurrent-wavefront
``dup-remset``           a *conservative* spurious remembered slot —
                          **benign by design**: remsets may
                          over-approximate, so nothing must fire
``stale-forward``         a forwarding/move that updated the object
                          but not the space bookkeeping (the space
                          an object's state word claims desyncs) —
                          heap-integrity
``root-skip``             a root enumeration that silently skips an
                          entry — invisible to every check that reuses
                          the collector's own root set; caught only by
                          the ``expected_roots`` witness audit (or,
                          later, by differential divergence)
``mis-renumber``          a step renumbering that moved the spaces but
                          not the index bookkeeping — step-structure
========================  =============================================

Injection is deterministic: every choice is drawn from the
:class:`random.Random` handed in by the chaos harness, which seeds it
from ``(seed, fault kind, collector kind)``.  An injector returns
``None`` when the collector's current state offers no target for the
fault (for example ``drop-remset`` before any cross-boundary pointer
exists); the harness then retries at the next mutator-step boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.gc.collector import Collector
from repro.gc.concurrent import ConcurrentCollector
from repro.gc.incremental import IncrementalCollector
from repro.gc.steps import StepCollector
from repro.heap.flat import _DETACHED, _TOKEN_MASK
from repro.verify.audit import remset_family

__all__ = [
    "CORRUPTION_FAULTS",
    "FAULT_KINDS",
    "FaultInjection",
    "FaultPlan",
    "fault_applies",
    "fault_expectation",
    "inject_fault",
]

#: Every fault kind, in canonical matrix order.
FAULT_KINDS: tuple[str, ...] = (
    "dangling-slot",
    "drop-remset",
    "dup-remset",
    "stale-forward",
    "root-skip",
    "mis-renumber",
)

#: The corruption-class kinds: undetected injection = harness failure.
CORRUPTION_FAULTS: frozenset[str] = frozenset(
    {
        "dangling-slot",
        "drop-remset",
        "stale-forward",
        "root-skip",
        "mis-renumber",
    }
)


def fault_expectation(kind: str) -> str:
    """``"corruption"`` (must be detected) or ``"benign"`` (must not)."""
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    return "corruption" if kind in CORRUPTION_FAULTS else "benign"


def fault_applies(kind: str, collector: Collector) -> bool:
    """Whether ``kind`` can ever target this collector family."""
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    if kind in ("drop-remset", "dup-remset"):
        # The incremental collector's gray stack plays the remembered
        # set's role: losing an entry loses part of the mark obligation.
        if isinstance(collector, IncrementalCollector):
            return True
        remsets, _ = remset_family(collector)
        return bool(remsets)
    if kind == "mis-renumber":
        return isinstance(collector, StepCollector)
    return True


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled perturbation of a chaos replay.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        op_index: first mutator-step boundary at which injection is
            attempted; if the collector state offers no target there,
            the harness retries at every later boundary.
        seed: seeds the injector's deterministic choices.
    """

    kind: str
    op_index: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.op_index < 0:
            raise ValueError(
                f"op index must be non-negative, got {self.op_index!r}"
            )

    @property
    def expectation(self) -> str:
        return fault_expectation(self.kind)


@dataclass(frozen=True)
class FaultInjection:
    """What an injector actually did (for the detection matrix)."""

    kind: str
    detail: str


def inject_fault(
    kind: str, collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Perturb live collector state; ``None`` if no target exists now."""
    injector = _INJECTORS[kind]
    return injector(collector, rng)


# ----------------------------------------------------------------------
# Injectors (one per kind)
# ----------------------------------------------------------------------


def _inject_dangling_slot(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Point a live reference slot at an id that was never allocated."""
    heap = collector.heap
    candidates = [oid for oid in heap.object_ids() if heap.slot_count_of(oid)]
    if not candidates:
        return None
    obj_id = _pick(rng, candidates)
    slot = rng.randrange(heap.slot_count_of(obj_id))
    bogus = 1_000_000_000 + rng.randrange(1_000)
    # Straight into the slot arena, behind the heap's back: no checked-
    # mode probe, no barrier.
    heap._slots[heap._slot_base[obj_id] + slot] = bogus
    return FaultInjection(
        kind="dangling-slot",
        detail=(
            f"slot {slot} of object {obj_id} now holds dangling "
            f"id {bogus}"
        ),
    )


def _inject_stale_forward(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Desync the space an object claims from the space that holds it.

    Models a forwarding step that updated the object header but not the
    space bookkeeping (or vice versa): the object still sits in space
    A's table while claiming to live in space B.
    """
    heap = collector.heap
    spaces = list(heap.spaces())
    candidates = [oid for oid in heap.object_ids() if heap.space_if_live(oid)]
    if not candidates:
        return None
    obj_id = _pick(rng, candidates)
    right = heap.space_if_live(obj_id)
    others = [space for space in spaces if space is not right]
    # Single-space collectors still have a stale-forward analogue: a
    # move that cleared the claim without leaving the table.
    wrong = _pick(rng, others, key=lambda s: s.name) if others else None
    # Rewrite only the token of the object's state word: its position
    # stays, and no space table or occupancy is touched.
    state = heap._state
    state[obj_id] = (
        _DETACHED if wrong is None
        else state[obj_id] & ~_TOKEN_MASK | wrong._token
    )
    claim = wrong.name if wrong is not None else None
    return FaultInjection(
        kind="stale-forward",
        detail=(
            f"object {obj_id} claims space {claim!r} while "
            f"still resident in {right.name!r}"
        ),
    )


def _inject_root_skip(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Silently drop one global root the mutator still believes in."""
    roots = collector.roots
    names = [
        name
        for name in roots.global_names()
        if roots.get_global_id(name) is not None
    ]
    if not names:
        return None
    name = _pick(rng, sorted(names))
    obj_id = roots.get_global_id(name)
    roots.remove_global(name)
    return FaultInjection(
        kind="root-skip",
        detail=(
            f"global root {name!r} (object {obj_id}) silently skipped"
        ),
    )


def _inject_mis_renumber(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Swap two steps without rebuilding the renumbering bookkeeping."""
    if not isinstance(collector, StepCollector):
        return None
    steps = collector.steps
    if len(steps) < 2:
        return None
    a = rng.randrange(len(steps))
    b = rng.randrange(len(steps) - 1)
    if b >= a:
        b += 1
    steps[a], steps[b] = steps[b], steps[a]
    # _step_index_of (and the protected/collectable partition) now lies.
    return FaultInjection(
        kind="mis-renumber",
        detail=(
            f"steps {a + 1} and {b + 1} swapped without renumbering "
            f"the step index"
        ),
    )


def _inject_drop_remset(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Remove a remembered slot that still covers a live pointer.

    Only entries a partial collection actually *needs* — the
    obligations the auditor's completeness check enumerates, filtered
    to the ones currently *present* — are candidates; removing an
    already-stale entry would be a legal prune, not a fault.
    """
    if isinstance(collector, ConcurrentCollector):
        # The concurrent analogue: corrupt the marker's result while it
        # holds the snapshot, so one snapshot-reachable id vanishes
        # from the set reconciliation will trust as already-black.
        # Victims are chosen so reconciliation *cannot* re-find them —
        # not a current root, not SATB-shaded, and every referrer
        # itself marker-marked (reconcile treats those as black and
        # never traverses them) — so the drop is a real corruption,
        # not a legal shrink of an over-approximation.
        if not collector.marker_inflight:
            return None
        result = collector._drain_pending()
        if "error" in result:
            return None
        pending = set(result["ids"])
        heap = collector.heap
        root_ids = set(collector.roots.ids())
        satb = set(collector.gray_stack)
        referrers: dict[int, list[int]] = {}
        for obj_id in heap.object_ids():
            for _, ref in heap.ref_slots(obj_id):
                referrers.setdefault(ref, []).append(obj_id)
        reachable = heap.reachable_from(sorted(root_ids))
        candidates = [
            oid
            for oid in pending & reachable
            if oid not in root_ids
            and oid not in satb
            and all(src in pending for src in referrers.get(oid, ()))
        ]
        if not candidates:
            return None
        victim = _pick(rng, sorted(candidates))
        result["ids"].remove(victim)
        return FaultInjection(
            kind="drop-remset",
            detail=(
                f"marker-marked id {victim} dropped from the snapshot "
                f"result mid-handoff (referrers all marker-black)"
            ),
        )
    if isinstance(collector, IncrementalCollector):
        # The incremental analogue: forget one gray wavefront entry.
        # The object keeps its gray color (the corruption is a *lost
        # stack entry*, not a recolor), so its subtree silently falls
        # out of the remaining mark obligation — exactly what the
        # auditor's tri-color-wavefront check must notice.
        if not (collector.cycle_open and collector.gray_stack):
            return None
        victim = _pick(rng, sorted(set(collector.gray_stack)))
        collector.gray_stack.remove(victim)
        return FaultInjection(
            kind="drop-remset",
            detail=(
                f"gray-stack entry {victim} dropped mid-wavefront "
                f"(object stays colored gray)"
            ),
        )
    _, obligations = remset_family(collector)
    required = [
        (needed.remset, needed.entry, needed.why)
        for needed in obligations
        if needed.entry in needed.remset
    ]
    if not required:
        return None
    remset, entry, why = _pick(rng, required, key=lambda r: (r[0].name, r[1]))
    remset._barrier_entries.discard(entry)
    remset._promotion_entries.discard(entry)
    return FaultInjection(
        kind="drop-remset",
        detail=(
            f"entry {entry} dropped from {remset.name} ({why})"
        ),
    )


def _inject_dup_remset(
    collector: Collector, rng: random.Random
) -> FaultInjection | None:
    """Add a redundant/conservative remembered slot (benign control).

    Re-records an existing entry when one exists, otherwise records a
    stale-store-style entry — an arbitrary slot of an object in the
    remset's legitimate source region, exactly what the write barrier
    leaves behind when an interesting store is later overwritten.
    Remembered sets are allowed to over-approximate (§8.4), so a
    correct collector must neither crash nor diverge.
    """
    if isinstance(collector, ConcurrentCollector):
        # Benign control: duplicate one id in the marker's result.
        # Reconciliation folds the result into a set, so a
        # conservative duplicate must cost nothing and trip nothing.
        if not collector.marker_inflight:
            return None
        result = collector._drain_pending()
        if "error" in result or not result["ids"]:
            return None
        entry = _pick(rng, sorted(set(result["ids"])))
        result["ids"].append(entry)
        return FaultInjection(
            kind="dup-remset",
            detail=(
                f"marker-marked id {entry} duplicated in the snapshot "
                f"result (conservative)"
            ),
        )
    if isinstance(collector, IncrementalCollector):
        # Benign control: re-push an entry already on the gray stack.
        # The scan skips pops whose color is no longer gray, so a
        # duplicate must cost nothing and trip nothing.
        if not (collector.cycle_open and collector.gray_stack):
            return None
        entry = _pick(rng, sorted(set(collector.gray_stack)))
        collector.gray_stack.append(entry)
        return FaultInjection(
            kind="dup-remset",
            detail=f"gray-stack entry {entry} re-pushed (duplicate)",
        )
    sources, _ = remset_family(collector)
    if not sources:
        return None
    populated = [remset for remset, _ in sources if len(remset)]
    if populated:
        remset = _pick(rng, populated, key=lambda r: r.name)
        entry = _pick(rng, sorted(remset.entries()))
        remset.record_barrier(*entry)
        return FaultInjection(
            kind="dup-remset",
            detail=f"entry {entry} re-recorded in {remset.name}",
        )
    # Only slots of objects residing in a remset's legitimate *source*
    # region qualify: a correct collector must tolerate such entries,
    # because the barrier records them eagerly and the pointed-at store
    # may be overwritten before the next partial collection prunes.
    slot_count_of = collector.heap.slot_count_of
    candidates = [
        (remset, obj_id, slot)
        for remset, spaces in sources
        for space in spaces
        for obj_id in space.object_ids()
        for slot in range(slot_count_of(obj_id))
    ]
    if not candidates:
        return None
    remset, obj_id, slot = _pick(
        rng, candidates, key=lambda c: (c[0].name, c[1], c[2])
    )
    remset.record_barrier(obj_id, slot)
    return FaultInjection(
        kind="dup-remset",
        detail=(
            f"stale-store-style entry ({obj_id}, {slot}) recorded in "
            f"{remset.name}"
        ),
    )


_INJECTORS = {
    "dangling-slot": _inject_dangling_slot,
    "drop-remset": _inject_drop_remset,
    "dup-remset": _inject_dup_remset,
    "stale-forward": _inject_stale_forward,
    "root-skip": _inject_root_skip,
    "mis-renumber": _inject_mis_renumber,
}


def _pick(rng: random.Random, items, key=None):
    """Deterministically choose one item, order-independent via ``key``."""
    pool = sorted(items, key=key) if key is not None else list(items)
    return pool[rng.randrange(len(pool))]
