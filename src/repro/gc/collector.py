"""The collector interface all garbage collectors implement.

A collector owns part of the simulated heap's geometry (its spaces),
provides allocation, decides when to collect, and implements the write
barrier's remember-store hook.  The mutator-facing surface is
deliberately small:

* :meth:`Collector.allocate_id` — allocate, collecting first if
  needed, and return the new object's id;
* :meth:`Collector.collect` — an explicit full collection;
* :meth:`Collector.remember_store_id` — called by the write barrier
  on every store, with object ids.

Collectors never inspect object contents beyond reference slots, and
never inspect object ages — the non-predictive collector's defining
property (Section 4: "Neither does it keep track of the ages of
objects") is enforced structurally by this interface: ``birth`` is used
only by the measurement layer in :mod:`repro.trace`.

:class:`Collector` is also the skeleton every collector shares, so the
paper's comparison rests on one copy of its bookkeeping: the collection
tail (:meth:`Collector._end_pause`), §5's sizing rule with the
single-space kinds' checks and expand-or-fail rung, and the snapshot's
plain scalar fields (:attr:`Collector.state_fields`).
"""

from __future__ import annotations

import abc
from types import SimpleNamespace
from typing import Callable, Iterable

from repro.gc.stats import GcStats
from repro.heap.flat import FlatHeap, FlatSpace
from repro.heap.roots import RootSet
from repro.metrics.instrument import active_session

__all__ = ["Collector", "HeapExhausted", "PostCollectionHook"]

#: Signature of the optional post-collection hook (checked mode).
PostCollectionHook = Callable[["Collector"], None]


#: The types of a plain snapshot field's value.
_PLAIN = (type(None), bool, int, float, str)

#: ``bump_space`` before the first reservation: empty and zero-sized,
#: so the fast-path test needs no ``None`` case.  Only ``used`` is read
#: while ``bump_limit`` is 0, and nothing is ever allocated here.
_UNRESERVED = SimpleNamespace(name="unreserved", capacity=0, used=0)


class HeapExhausted(Exception):
    """Collection freed too little memory to satisfy an allocation.

    Raised only after the collector has exhausted its degradation
    policy (emergency full collection, then any bounded expansion it
    allows), so catching it is a *final* verdict, not a retryable one.
    The exception carries a per-space occupancy snapshot
    (:meth:`repro.heap.flat.FlatHeap.occupancy`) captured at
    raise time, so experiment logs show exactly which space wedged and
    how full every other one was.
    """

    def __init__(
        self,
        collector: "Collector",
        requested: int,
        *,
        phase: str = "allocate",
    ) -> None:
        snapshot = collector.heap.occupancy()
        spaces = ", ".join(
            f"{entry['name']}={entry['used']}/{entry['capacity']}"
            for entry in snapshot["spaces"]
        )
        super().__init__(
            f"{collector.name} cannot satisfy a request of "
            f"{requested} words even after collecting "
            f"(phase {phase}; occupancy: {spaces})"
        )
        self.collector = collector
        self.requested = requested
        self.phase = phase
        #: Per-space occupancy diagnostics, JSON-able.
        self.snapshot = snapshot


class Collector(abc.ABC):
    """Base class for all collectors.

    Subclasses create their spaces in ``__init__`` and implement
    allocation and collection.  ``stats`` accumulates work accounting
    for the collector's whole lifetime.
    """

    #: Short machine-readable name ("mark-sweep", "non-predictive", ...).
    name: str = "abstract"
    #: The keys of :meth:`export_state`, in order.  A key whose
    #: attribute holds a plain scalar (``None``, a bool, a number, a
    #: string) is a plain field, which the base exports and imports;
    #: every other key is the collector's structure.
    state_fields: tuple[str, ...] = ()

    def __init__(self, heap: FlatHeap, roots: RootSet) -> None:
        self.heap = heap
        self.roots = roots
        self.stats = GcStats()
        #: Optional checked-mode hook, invoked after every completed
        #: collection (see :mod:`repro.verify.audit`).  ``None`` keeps
        #: collections hook-free, which is the production default.
        self.post_collection_hook: PostCollectionHook | None = None
        #: Optional metrics recorder (:mod:`repro.metrics`).  ``None``
        #: — the default — disables the whole instrumentation plane;
        #: every site that consults it is a per-collection cold path,
        #: so disabled runs pay nothing on allocation.  A collector
        #: constructed inside an active metrics session self-attaches.
        session = active_session()
        self.metrics = session.attach(self) if session is not None else None
        #: The allocation fast-path fact, published after every
        #: reservation: while ``bump_space.used + n <= bump_limit``,
        #: ``_reserve(n)`` would return ``bump_space`` and do nothing
        #: else, so a caller may allocate there without entering the
        #: collector.  Zero after anything that moves a capacity or the
        #: allocation space outside ``_reserve`` (a collection, a static
        #: promotion, a restore): the next allocation is then a miss.
        self.bump_space: FlatSpace = _UNRESERVED
        self.bump_limit = 0

    # ------------------------------------------------------------------
    # Mutator interface
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _reserve(self, size: int) -> FlatSpace:
        """Return a space with room for ``size`` words, collecting,
        expanding, or degrading first as the collector's policy allows.

        This is each collector's allocation policy in one place;
        :meth:`allocate_id` and :meth:`reserve_window` both route
        through it, by way of :meth:`_reserve_bump`.

        Raises:
            HeapExhausted: if no collection can free enough space.
        """

    def _reserve_bump(self, size: int) -> FlatSpace:
        """:meth:`_reserve`, then publish ``(bump_space, bump_limit)``
        for the space it chose — after ``_reserve`` returns, so a
        collection it ran (which zeroes the limit) leaves no stale pair.

        The limit is the occupancy up to which ``_reserve`` is a pure
        fit test: here the space's capacity (an unbounded space
        publishes 0 and stays on :meth:`allocate_id`).  A collector
        whose ``_reserve`` does more than that below capacity extends
        this.
        """
        space = self._reserve(size)
        self.bump_space = space
        self.bump_limit = space.capacity or 0
        return space

    def allocate_id(
        self, size: int, field_count: int = 0, kind: str = "data"
    ) -> int:
        """Allocate an object, collecting first if necessary, and return
        its id.

        For :class:`~repro.runtime.machine.Machine` it is the miss
        handler: the constructors allocate straight into ``bump_space``
        while the published limit allows and come here when it does not.

        Raises:
            HeapExhausted: if no collection can free enough space.
        """
        space = self._reserve_bump(size)
        obj_id = self.heap.allocate_id(size, field_count, space, kind)
        stats = self.stats
        stats.words_allocated += size
        stats.objects_allocated += 1
        return obj_id

    def reserve_window(self, max_objects: int, size: int = 1) -> tuple[int, int]:
        """Allocate a bump window: up to ``max_objects`` field-less
        ``data`` objects of ``size`` words each, in one reservation.

        Returns the half-open id range.  The window covers at most the
        free room of the reserved space, so for uniform object sizes a
        windowed run triggers exactly the same collections at exactly
        the same clocks as ``max_objects`` individual ``allocate_id``
        calls — only intermediate clock *readings* differ, and nothing
        reads the clock mid-window.  The heap materializes the window
        at C speed (:meth:`~repro.heap.flat.FlatHeap.bulk_allocate`).
        """
        if max_objects <= 0:
            raise ValueError(
                f"window must cover >= 1 object, got {max_objects!r}"
            )
        space = self._reserve_bump(size)
        count = space.free // size
        if count > max_objects:
            count = max_objects
        first, end = self.heap.bulk_allocate(count, size, space)
        stats = self.stats
        stats.words_allocated += count * size
        stats.objects_allocated += count
        return first, end

    @abc.abstractmethod
    def collect(self) -> None:
        """Perform a full collection of everything this collector manages."""

    def remember_store_id(
        self, src_id: int, slot: int, target_id: int | None
    ) -> None:
        """Write-barrier hook; default is to remember nothing.

        Called for every mutator store, before the heap write
        (``target_id`` is None when the new value is not a pointer —
        the snapshot-at-the-beginning barrier needs to see those
        deletions too).  Non-generational stop-the-world collectors
        need no remembered sets, so the default is a no-op.
        """

    def on_static_promotion(self) -> None:
        """Reset collector state after a full static promotion (§8.4).

        "A full collection empties the remembered set and promotes
        all live storage to the static area."  The machine moves the
        objects; collectors with remembered sets or step state
        extend this to empty them.
        """
        self.bump_limit = 0

    def managed_spaces(self) -> frozenset[FlatSpace] | None:
        """The spaces this collector allocates into and collects.

        The heap auditor (:mod:`repro.verify.audit`) uses this to scope
        its space-membership and stats-conservation checks.  ``None``
        means the collector cannot enumerate its spaces (or shares the
        heap with other allocators), which disables those checks.
        """
        return None

    def close(self) -> None:
        """Release what the collector holds outside the heap
        (idempotent).  Nothing here; the concurrent collector's marker
        workers are the one override."""

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Collector-private mutable state as a JSON-serializable dict.

        Everything the constructor does not rebuild identically must be
        here: capacities that grew, remembered sets, step order, open
        mark-cycle state.  Heap contents, roots, and ``stats`` are
        serialized separately by :mod:`repro.resilience.snapshot`.
        """
        structure = self._export_structure()
        return {
            key: structure[key] if key in structure else getattr(self, key)
            for key in self.state_fields
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output onto a freshly
        constructed collector of the same kind and geometry.

        Runs *before* the heap contents are imported: it may only
        touch content-independent structure (space capacities and
        ordering, remembered sets, cycle flags), never resident
        objects.  Structure first: ``j``'s setter reads the steps.
        """
        self.bump_limit = 0
        self._import_structure(state)
        for key in self.state_fields:
            if hasattr(self, key) and isinstance(getattr(self, key), _PLAIN):
                setattr(self, key, state[key])

    def _export_structure(self) -> dict:
        """The snapshot's structured keys (a capacity, a remembered
        set, the gray stack) and their values."""
        return {}

    def _import_structure(self, state: dict) -> None:
        """Restore the keys :meth:`_export_structure` exports."""

    # ------------------------------------------------------------------
    # Heap sizing: the inverse load factor L of Section 5
    # ------------------------------------------------------------------
    #
    # A non-generational collector that keeps its heap at L times the
    # live storage pays a mark/cons ratio of 1/(L - 1).  Every collector
    # that sizes a space by that rule calls it with its own space,
    # factor and cap, at the rule's two moments: the end of a collection
    # (`_keep_load_factor` over what it left live) and an allocation
    # that still does not fit after one (`_expand_or_fail`: the same
    # rule over occupancy plus the request).

    def _set_capacity(self, space: FlatSpace, words: int) -> None:
        """Move ``space``'s capacity to ``words`` and say so."""
        if self.metrics is not None:
            self.metrics.event(
                "heap-expansion",
                space=space.name,
                old_capacity=space.capacity or 0,
                new_capacity=words,
            )
        space.capacity = words

    def _keep_load_factor(
        self, space: FlatSpace, words: int, factor: float, cap: int | None
    ) -> None:
        """Keep ``space`` at least ``int(words * factor)`` words, never
        past ``cap`` (a request that then still cannot fit is the
        caller's :class:`HeapExhausted`); never shrinks."""
        minimum = int(words * factor)
        if cap is not None:
            minimum = min(minimum, cap)
        if (space.capacity or 0) < minimum:
            self._set_capacity(space, minimum)

    @staticmethod
    def _check_load_factor(load_factor: float) -> None:
        if load_factor <= 1.0:
            raise ValueError(f"load factor must exceed 1, got {load_factor!r}")

    # The single-space kinds size their one space by the rule under
    # ``auto_expand``, ``load_factor`` and a cap of their own.

    def _init_sizing(
        self,
        words: int,
        auto_expand: bool,
        load_factor: float,
        cap: int | None,
        unit: str = "heap",
    ) -> None:
        """Check a single-space kind's geometry and keep its rule."""
        if words <= 0:
            raise ValueError(f"{unit} size must be positive, got {words!r}")
        self._check_load_factor(load_factor)
        if cap is not None and cap < words:
            raise ValueError(
                f"expansion cap {cap} is below the initial {unit} size "
                f"{words}"
            )
        self.auto_expand = auto_expand
        self.load_factor = load_factor

    def _keep_sized(self, space: FlatSpace, live: int, cap: int | None) -> None:
        """The rule at the end of a collection, over what it left live."""
        if self.auto_expand:
            self._keep_load_factor(space, live, self.load_factor, cap)

    def _expand_or_fail(
        self, space: FlatSpace, size: int, cap: int | None
    ) -> None:
        """``_reserve``'s last rung, after its collections: grow by the
        rule over occupancy plus the request, else raise."""
        if space.fits(size):
            return
        if self.auto_expand:
            self._keep_load_factor(
                space, space.used + size, self.load_factor, cap
            )
        if not space.fits(size):
            raise HeapExhausted(self, size)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _start_collection(self, kind: str, **detail: object) -> None:
        """Announce a collection of ``kind`` (the metrics plane's
        ``collection-start`` event)."""
        if self.metrics is not None:
            self.metrics.event(
                "collection-start", kind=kind, clock=self.heap.clock, **detail
            )

    def _end_pause(
        self,
        kind: str,
        work: int,
        reclaimed: int,
        live: int,
        *,
        count: str | None = "major",
    ) -> None:
        """The collection tail, called last, after every other update:
        count a ``"major"`` or ``"minor"`` collection (``count=None``: a
        mark slice or a hand-off, no collection), record the pause, then
        observe metrics before the checked-mode hook, so telemetry
        records the collection even when an audit rejects the heap."""
        stats = self.stats
        if count is not None:
            stats.words_reclaimed += reclaimed
            stats.collections += 1
            if count == "major":
                stats.major_collections += 1
            else:
                stats.minor_collections += 1
        stats.record_pause(
            clock=self.heap.clock,
            kind=kind,
            work=work,
            reclaimed=reclaimed,
            live=live,
        )
        self.bump_limit = 0
        if self.metrics is not None:
            self.metrics.observe_collection(self)
        if self.post_collection_hook is not None:
            self.post_collection_hook(self)

    def _trace_region(
        self,
        region: set[FlatSpace],
        seed_ids: Iterable[int],
        *,
        count_work: bool = True,
    ) -> set[int]:
        """Mark the objects of ``region`` reachable from ``seed_ids``.

        Objects outside the region terminate the trace: they are
        treated as boundary roots and their fields are *not* scanned
        (any interesting pointers they hold must have been provided via
        ``seed_ids``, e.g. from a remembered set).  This is exactly the
        partial-collection tracing discipline of Section 8.

        Returns the ids of marked region objects.  When ``count_work``
        is true, each marked object's size is added to
        ``stats.words_marked``.
        """
        marked, words_marked = self.heap.trace_region(region, seed_ids)
        if count_work:
            self.stats.words_marked += words_marked
        return marked

    def _root_ids(self) -> list[int]:
        """Snapshot the machine root ids, accounting the tracing cost."""
        ids = list(self.roots.ids())
        self.stats.roots_traced += len(ids)
        return ids

    def describe(self) -> str:
        """One-line human-readable description for logs and the CLI."""
        return f"{self.name} collector"
