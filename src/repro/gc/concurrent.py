"""Concurrent marking: the incremental wavefront, off the mutator.

The incremental collector bounded pauses by slicing the mark loop, but
every slice still runs on the mutator's critical path.  This collector
moves the whole mark phase into a worker process.  The cycle itself is
:class:`~repro.gc.incremental.IncrementalCollector`'s; what is here is
the marker's lifecycle and the hooks that cycle calls around a mark:

* **Cycle open (handoff)**: begin a mark epoch exactly like the
  incremental collector, snapshot the roots plus the reachability-
  relevant state of the collected space (:meth:`export_mark_snapshot`
  ships the space's *id span* of the heap's packed ``array('q')``
  arenas as ``array('q')`` slices, one memcpy per arena, so the
  hand-off costs what the space holds, not every id ever issued), and
  hand it to :func:`_mark_snapshot_task`.  Nothing else is captured: a
  cycle that has not swept has freed nothing, so there is nothing to
  roll back to.  With ``marker_workers == 0`` the task runs inline at
  the handoff — the deterministic reference mode every oracle uses —
  and the snapshot is dropped there; with workers it is
  submitted to the collector's own
  :class:`~repro.perf.parallel.WorkerPool`, which lives as long as the
  collector does (workers are forked at the first pool-mode cycle and
  reused by every later one; :meth:`ConcurrentCollector.close` or a
  watchdog abort kills them).  What the cycle keeps is the marker's
  worker, as the handle of the task in flight; reconciliation hands it
  to the pool's retry ladder (the collector's own timeout, attempt-salted
  retries via ``derive_seed(seed, cycle, attempt)``, worker-crash
  recovery); what a given-up marker *means* is decided here: the
  watchdog discards the cycle and ``_finish_mark`` re-opens one over
  the current heap, marked inline.  A marker discarded before it is
  reconciled (a restore, a static promotion) is killed with its
  worker, so its reply can never answer a later cycle.
* **While the marker runs** the mutator proceeds untouched: allocation
  is allocate-black via the birth clock (nothing born after the epoch
  is ever scanned), and the SATB deletion barrier grays overwritten
  pre-epoch referents onto ``gray_stack`` exactly as the incremental
  collector does.  Allocation safepoints merely poll the marker's worker
  (overlap telemetry only — polls are observably free).
* **Reconciliation (cycle close)**: drain the marker's reachable set
  ``R``, then re-mark from the SATB log and the current roots until
  quiescent, treating every id in ``R`` as already black.  Because
  mutator reachability between mutations only shrinks relative to the
  snapshot, every SATB entry and every pre-epoch root is already in
  ``R`` on a clean run — the reconcile scan does zero words of work —
  and the survivor set ``R ∪ non-white ∪ born-in-epoch`` is exactly
  what the incremental collector computes for the same script.  Every
  ``GcStats`` counter is therefore identical to incremental's at any
  slice budget (the ``concurrent`` suite of
  :mod:`repro.verify.differential` is the oracle); only the pause
  *log* differs: the mutator sees a ``handoff`` and a ``reconcile``
  pause instead of mark slices, with the mark work itself priced
  off-thread.

Pause accounting stays in words (the repo-wide currency): the handoff
is 0 words of mark work (arena memcpy is not mark work, and the
export is O(span bytes) precisely so it stays off the words ledger),
and the reconcile pause carries only the words the reconcile scan
itself marked — 0 on clean runs, which is the mutator-visible win the
SLO report gates.
"""

from __future__ import annotations

from repro.gc.incremental import BLACK, GRAY, WHITE, IncrementalCollector
from repro.heap.flat import (
    _DEAD,
    _DETACHED,
    _FC_MASK,
    _FC_SHIFT,
    _SIZE_MASK,
    _TOKEN_MASK,
    FlatHeap,
    HeapError,
)
from repro.heap.roots import RootSet

__all__ = ["ConcurrentCollector", "WedgedMarkerError"]

#: Placeholder payload of a cycle whose marker result is already in
#: hand: an inline marker has run at the handoff, or a snapshot
#: restored a collector whose marker was in flight (its *result* is
#: rehydrated from the snapshot).  The payload then only needs to make
#: ``marker_inflight`` true — it is never traced again, so the heap
#: snapshot it replaces is freed at once instead of living through the
#: cycle beside the growing heap.
_SPENT_PAYLOAD = ("spent-marker",)


class WedgedMarkerError(RuntimeError):
    """The marker retry ladder exhausted without producing a result.

    Raised by ``_drain_pending``; ``_finish_mark`` catches it, discards
    the cycle, and degrades to inline marking.  Escaping to other callers
    (``export_state``, ``pending_marked_ids``) means the wedged cycle
    cannot be serialized or audited mid-flight, which is the honest
    answer.
    """


def _trace_snapshot(snapshot: dict, roots: list[int]) -> tuple[set[int], int]:
    """Mark a heap snapshot: the ``trace_region`` kernel over the
    shipped id span (arena index = ``oid - lo``), with non-resident
    roots skipped silently (the cycle-open contract) and dangling
    *references* raised.  A reference under the span is a boundary if
    the snapshot lists it as live, else it dangles."""
    hdr = snapshot["hdr"]
    state = snapshot["state"]
    sbase = snapshot["slot_base"]
    refs = snapshot["refs"]
    token = snapshot["token"]
    lo = snapshot["lo"]
    slot_lo = snapshot["slot_lo"]
    below = frozenset(snapshot["below"])
    n = len(state)
    marked: set[int] = set()
    mark = marked.add
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    words = 0
    for oid in roots:
        if oid not in marked and 0 <= oid - lo < n:
            packed = state[oid - lo]
            if (
                packed != _DEAD
                and packed != _DETACHED
                and packed & _TOKEN_MASK == token
            ):
                mark(oid)
                push(oid)
    while stack:
        index = pop() - lo
        header = hdr[index]
        words += header & _SIZE_MASK
        count = (header >> _FC_SHIFT) & _FC_MASK
        if count:
            base = sbase[index] - slot_lo
            for ref in refs[base:base + count]:
                if ref >= 0 and ref not in marked:
                    if ref < lo:
                        if ref not in below:
                            raise HeapError(f"dangling object id {ref}")
                        continue
                    if ref - lo >= n:
                        raise HeapError(f"dangling object id {ref}")
                    packed = state[ref - lo]
                    if packed == _DEAD:
                        raise HeapError(f"dangling object id {ref}")
                    if (
                        packed != _DETACHED
                        and packed & _TOKEN_MASK == token
                    ):
                        mark(ref)
                        push(ref)
    return marked, words


def _mark_snapshot_task(payload: tuple, attempt: int = 0) -> dict:
    """Worker entry point: trace one heap snapshot to a reachable set.

    ``payload`` is ``(snapshot, base_seed, cycle_index)``.  The root
    order is shuffled by ``derive_seed(base_seed, cycle_index,
    attempt)`` — the attempt salt keeps retried tasks distinct (the
    ``resilient_map`` discipline) while the result stays order-free
    (a set and a word total), so retries are byte-identical.
    Errors travel back as data: a dangling reference inside the
    snapshot is deterministic, so the parent raises it at
    reconciliation instead of burning retries on it.
    """
    import random

    from repro.perf.parallel import derive_seed

    snapshot, base_seed, cycle_index = payload
    roots = list(snapshot["roots"])
    random.Random(derive_seed(base_seed, cycle_index, attempt)).shuffle(roots)
    try:
        marked, words = _trace_snapshot(snapshot, roots)
    except HeapError as exc:
        return {"error": str(exc)}
    return {"ids": sorted(marked), "words": words}


class ConcurrentCollector(IncrementalCollector):
    """Tri-color mark/sweep with the mark phase in a worker process.

    Args:
        heap / roots / heap_words: as the incremental collector.
        marker_workers: ``0`` runs the marker inline at the handoff
            (the deterministic reference mode); ``>= 1`` submits it to
            a persistent process pool so marking overlaps the mutator.
        marker_seed: base seed for the marker's traversal-order salt.
        marker_timeout: seconds to wait at reconciliation before
            declaring the worker hung (default: ``None``, no limit).
        marker_retries: resubmissions after a timeout/crash before the
            inline fallback runs (default: 1).
        trigger_fraction / auto_expand / load_factor / max_heap_words:
            the incremental collector's policy, unchanged.
    """

    name = "concurrent"
    state_fields = IncrementalCollector.state_fields + (
        "marker_workers",
        "marker_seed",
        "marker_cycles",
        "overlapped_cycles",
        "marker_words_total",
        "overlapped_words",
        "watchdog_aborts",
        "marker_result",
    )

    close_pause_kind = "reconcile"
    #: Safepoints only poll, so a live SATB log bounds no bump window.
    marks_at_safepoints = False
    #: Reconciliation scans the current roots beside the SATB log.
    close_rescans_roots = True

    def __init__(
        self,
        heap: FlatHeap,
        roots: RootSet,
        heap_words: int,
        *,
        marker_workers: int = 0,
        marker_seed: int = 0,
        marker_timeout: float | None = None,
        marker_retries: int = 1,
        trigger_fraction: float = 0.5,
        auto_expand: bool = True,
        load_factor: float = 2.0,
        max_heap_words: int | None = None,
    ) -> None:
        super().__init__(
            heap,
            roots,
            heap_words,
            slice_budget=None,
            trigger_fraction=trigger_fraction,
            auto_expand=auto_expand,
            load_factor=load_factor,
            max_heap_words=max_heap_words,
        )
        if marker_workers < 0:
            raise ValueError(
                f"marker workers must be >= 0, got {marker_workers!r}"
            )
        self.marker_workers = marker_workers
        self.marker_seed = marker_seed
        self._marker_timeout = marker_timeout
        self._marker_retries = marker_retries
        self._pool = None
        #: Payload of the in-flight marker task (None when quiescent).
        self._payload: tuple | None = None
        #: The marker's worker while its task is in flight (pool mode).
        self._task = None
        #: Cached marker result dict once drained (or when inline).
        self._result: dict | None = None
        self._done_early = False
        #: Overlap telemetry (pool mode; wall-clock, so deliberately
        #: *not* part of GcStats, pauses, or events).
        self.marker_cycles = 0
        self.overlapped_cycles = 0
        self.marker_words_total = 0
        self.overlapped_words = 0
        #: Wedged cycles aborted by the watchdog supervisor.
        self.watchdog_aborts = 0

    # ------------------------------------------------------------------
    # Marker lifecycle
    # ------------------------------------------------------------------

    @property
    def marker_inflight(self) -> bool:
        """True while a marker holds a snapshot for the open cycle."""
        return self.cycle_open and self._payload is not None

    def _marker_pool(self):
        if self._pool is None:
            from repro.perf.parallel import WorkerPool

            self._pool = WorkerPool(self.marker_workers)
        return self._pool

    def _submit_marker(self, snapshot: dict) -> None:
        payload = (snapshot, self.marker_seed, self.cycles_opened)
        self._payload = payload
        self._result = None
        self._done_early = False
        if self.marker_workers == 0:
            self._result = _mark_snapshot_task(payload)
            self._task = None
            # Nothing resubmits an inline marker's snapshot.
            self._payload = _SPENT_PAYLOAD
        else:
            self._task = self._marker_pool().submit(
                _mark_snapshot_task, payload, 0
            )

    def _drain_pending(self) -> dict:
        """The marker's result dict, waiting/retrying as needed.

        Timeouts and worker crashes climb the pool's ladder: kill the
        poisoned worker, resubmit with the attempt salt bumped, give
        up after ``marker_retries`` resubmissions.  A given-up marker
        raises :class:`WedgedMarkerError`, now and at every later drain
        of the cycle, rather than re-marking a snapshot the wedged
        worker may have been poisoned against.
        """
        if self._result is not None:
            return self._result
        from repro.perf.parallel import TaskFailure

        task, self._task = self._task, None
        if task is None:
            raise WedgedMarkerError("the cycle's marker was given up")
        if task.ready():
            self._done_early = True
        (result,) = self._marker_pool().map(
            _mark_snapshot_task,
            [self._payload],
            timeout=self._marker_timeout,
            retries=self._marker_retries,
            submitted=[task],
        )
        if isinstance(result, TaskFailure):
            raise WedgedMarkerError(
                f"marker wedged after {result.attempts} attempts "
                f"({result.kind}: {result.error})"
            )
        self._result = result
        return result

    def _await_marker(self) -> tuple[set[int], int]:
        result = self._drain_pending()
        if "error" in result:
            raise HeapError(
                f"concurrent marker failed: {result['error']}"
            )
        words = result["words"]
        self.marker_cycles += 1
        self.marker_words_total += words
        if self._done_early:
            self.overlapped_cycles += 1
            self.overlapped_words += words
        return set(result["ids"]), words

    def pending_marked_ids(self) -> frozenset[int]:
        """The in-flight marker's reachable set (for the auditor and
        the chaos injectors); blocks in pool mode, empty on error."""
        if not self.marker_inflight:
            return frozenset()
        result = self._drain_pending()
        if "error" in result:
            return frozenset()
        return frozenset(result["ids"])

    def marker_overlap(self) -> float:
        """Fraction of mark work whose worker finished while the
        mutator was still running (0.0 in inline mode)."""
        if not self.marker_words_total:
            return 0.0
        return self.overlapped_words / self.marker_words_total

    def _discard_pending(self) -> None:
        """Forget the marker; one still in flight is killed with its
        worker, whose reply would otherwise answer the next cycle."""
        task = self._task
        self._task = None
        self._payload = None
        self._result = None
        self._done_early = False
        if task is not None:
            task.kill()

    def close(self) -> None:
        """Kill the marker workers (idempotent)."""
        self._discard_pending()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # ------------------------------------------------------------------
    # Watchdog supervisor
    # ------------------------------------------------------------------

    def _watchdog_abort(self, reason: str) -> None:
        """Discard the wedged cycle: kill the workers, drop the pending
        mark set and the SATB log, and degrade to inline marking
        permanently.

        Lossless by construction: a cycle that ends without sweeping
        has freed nothing, so every object — including everything the
        mutator allocated since the cycle opened — is still there for
        the fresh inline cycle ``_finish_mark`` opens next.
        """
        self.close()
        self.cycle_open = False
        self.gray_stack.clear()
        self.marker_workers = 0
        self.watchdog_aborts += 1
        if self.metrics is not None:
            self.metrics.event(
                "watchdog-abort",
                clock=self.heap.clock,
                reason=reason,
                aborts=self.watchdog_aborts,
            )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _export_structure(self) -> dict:
        """The incremental structure plus the marker's result.

        An in-flight marker is *materialized*: the checkpoint
        synchronizes with the worker (waiting/retrying via the normal
        ladder) and stores its result, so a restored process never
        depends on a worker that died with the original.
        """
        structure = super()._export_structure()
        structure["marker_result"] = (
            dict(self._drain_pending()) if self.marker_inflight else None
        )
        return structure

    def _import_structure(self, state: dict) -> None:
        super()._import_structure(state)
        self._discard_pending()
        result = state["marker_result"]
        if result is not None:
            # Rehydrate the marker as already-drained: reconciliation
            # then proceeds exactly as it would have in the original
            # process.
            self._payload = _SPENT_PAYLOAD
            if "ids" in result:
                result = {
                    "ids": [int(oid) for oid in result["ids"]],
                    "words": result["words"],
                }
            self._result = result

    # ------------------------------------------------------------------
    # Where this collector's cycle differs from the incremental one
    # ------------------------------------------------------------------

    def _begin_mark(self) -> None:
        """Snapshot, hand off to the marker, and record the handoff."""
        heap = self.heap
        root_ids = self._root_ids()
        snapshot = heap.export_mark_snapshot(self.space, root_ids)
        self._submit_marker(snapshot)
        if self.metrics is not None:
            self.metrics.event(
                "handoff",
                clock=heap.clock,
                roots=len(root_ids),
                snapshot_words=self.space.used,
                epoch=self.epoch_clock,
            )
        self._end_pause("handoff", 0, 0, self.space.used, count=None)

    def _mark_slice(self) -> None:
        """Allocation safepoints only poll the marker (overlap
        telemetry); they do no mark work and record no pause."""
        task = self._task
        if task is not None and not self._done_early and task.ready():
            self._done_early = True

    def _reconcile_scan(self, marked_ids: set[int]) -> int:
        """Re-mark from the SATB log and the current roots, treating
        the marker's set as black; returns the words scanned (0 on a
        clean run — every SATB entry and pre-epoch root is already in
        the marker's set, by the shrinking-reachability argument)."""
        heap = self.heap
        space = self.space
        epoch = self.epoch_clock
        gray = self.gray_stack
        for rid in self.roots.ids():
            if (
                rid not in marked_ids
                and heap.space_if_live(rid) is space
                and heap.birth_of(rid) < epoch
                and heap.color_of(rid) == WHITE
            ):
                heap.set_color(rid, GRAY)
                gray.append(rid)
        work = 0
        while gray:
            oid = gray.pop()
            if oid in marked_ids or heap.color_of(oid) != GRAY:
                continue
            heap.set_color(oid, BLACK)
            for _slot, ref in heap.ref_slots(oid):
                ref_space = heap.space_if_live(ref)
                if ref_space is None:
                    if not heap.contains_id(ref):
                        raise HeapError(f"dangling object id {ref}")
                    continue
                if (
                    ref_space is space
                    and ref not in marked_ids
                    and heap.birth_of(ref) < epoch
                    and heap.color_of(ref) == WHITE
                ):
                    heap.set_color(ref, GRAY)
                    gray.append(ref)
            work += heap.size_of(oid)
        return work

    def _finish_mark(self) -> tuple[int, set[int]]:
        """Reconcile the marker's set with the SATB log: only the
        reconcile scan is pause work, the marker's words were priced
        off-thread."""
        try:
            marked_ids, marker_words = self._await_marker()
        except WedgedMarkerError as exc:
            self._watchdog_abort(str(exc))
            # The collector marks inline from here on: a fresh cycle
            # over the heap as it is now.
            self._open_cycle("full")
            marked_ids, marker_words = self._await_marker()
        self.stats.words_marked += marker_words
        work = self._reconcile_scan(marked_ids)
        self.stats.words_marked += work
        return work, marked_ids

    def _cycle_closed(self, work: int, reclaimed: int, live: int) -> None:
        if self.metrics is not None:
            self.metrics.event(
                "reconcile",
                clock=self.heap.clock,
                marker_words=self._result["words"],
                satb_scan_words=work,
                reclaimed=reclaimed,
                live=live,
            )
        self._discard_pending()

    def on_static_promotion(self) -> None:
        super().on_static_promotion()
        self._discard_pending()

    def _describe_marking(self) -> str:
        if self.marker_workers == 0:
            return "inline marker"
        return f"{self.marker_workers}-worker marker pool"
