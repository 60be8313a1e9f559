"""Work accounting shared by all collectors.

The paper's primary cost metric is the *mark/cons ratio*: "the number
of objects that have been marked (or copied, or whatever) divided by
the number of objects that have been allocated" (Section 3).  We track
it in words.  Secondary costs the paper discusses — sweeping, tracing
the root set and remembered set, write-barrier traffic — are tracked
separately so experiments can report them (Section 6 lists them as
costs the analysis omits).

All quantities are in words of simulated work; there is no wall-clock
anywhere in the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["GcStats", "PauseRecord"]


@dataclass(frozen=True)
class PauseRecord:
    """One collection event.

    Attributes:
        clock: heap allocation clock (words) when the collection ran.
        kind: collector-specific label ("full", "minor", "promote",
            "non-predictive", ...).
        work: words of tracing/copying work done by this collection.
        reclaimed: words of garbage reclaimed.
        live: words found live in the collected region.
    """

    clock: int
    kind: str
    work: int
    reclaimed: int
    live: int


@dataclass
class GcStats:
    """Cumulative work counters for one collector instance."""

    #: Words allocated through the collector.
    words_allocated: int = 0
    #: Allocation events.
    objects_allocated: int = 0
    #: Words of live objects marked in place (mark/sweep-style).
    words_marked: int = 0
    #: Words of live objects copied/moved (copying-style).
    words_copied: int = 0
    #: Words examined by sweeping (mark/sweep only).
    words_swept: int = 0
    #: Words of garbage reclaimed across all collections.
    words_reclaimed: int = 0
    #: Root-set and remembered-set entries traced.
    roots_traced: int = 0
    #: Remembered-set entries created (all sets combined).
    remset_entries_created: int = 0
    #: Remembered-set entries pruned as stale during tracing (§8.4).
    remset_entries_pruned: int = 0
    #: Words promoted between generations.
    words_promoted: int = 0
    #: Collection counts.
    collections: int = 0
    minor_collections: int = 0
    major_collections: int = 0
    #: Per-collection records, oldest first.
    pauses: list[PauseRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------

    @property
    def words_traced(self) -> int:
        """Marked plus copied: the numerator of the mark/cons ratio."""
        return self.words_marked + self.words_copied

    @property
    def mark_cons(self) -> float:
        """The paper's mark/cons ratio (0 when nothing allocated yet)."""
        if self.words_allocated == 0:
            return 0.0
        return self.words_traced / self.words_allocated

    @property
    def gc_work(self) -> int:
        """Total collector work: tracing, sweeping, and root scanning.

        This is the simulator's stand-in for "gc time" in Table 3;
        dividing by allocation gives a machine-independent analogue of
        the paper's (gc time)/(mutator time) column.
        """
        return self.words_traced + self.words_swept + self.roots_traced

    def gc_mutator_ratio(self, mutator_work: int | None = None) -> float:
        """GC work divided by mutator work.

        The mutator work defaults to words allocated, the simulator's
        proxy for mutator time (the paper's benchmarks are
        allocation-bound, which is why it selected them).
        """
        denominator = (
            self.words_allocated if mutator_work is None else mutator_work
        )
        if denominator <= 0:
            return 0.0
        return self.gc_work / denominator

    def steady_mark_cons(self) -> float:
        """The mark/cons ratio over the second half of the collections.

        The work of those collections over the words allocated since
        the collection before them: the start-up transient, while the
        heap first fills, is left out.  Raises on fewer than two
        collections, which leave no steady state to measure.
        """
        half = len(self.pauses) // 2
        if half < 1:
            raise RuntimeError(
                "too few collections for a steady-state measurement "
                f"({len(self.pauses)})"
            )
        work = sum(pause.work for pause in self.pauses[half:])
        allocated = self.pauses[-1].clock - self.pauses[half - 1].clock
        return work / allocated

    @property
    def max_pause_work(self) -> int:
        """Largest single-collection work (a pause-time analogue)."""
        if not self.pauses:
            return 0
        return max(record.work for record in self.pauses)

    def record_pause(
        self, clock: int, kind: str, work: int, reclaimed: int, live: int
    ) -> None:
        self.pauses.append(
            PauseRecord(
                clock=clock, kind=kind, work=work, reclaimed=reclaimed, live=live
            )
        )

    def snapshot(self) -> dict[str, int]:
        """All cumulative integer counters, as a plain dict.

        The metrics plane diffs consecutive snapshots to attribute
        work to individual collections; the key set is stable so the
        diff is always total.
        """
        return {name: getattr(self, name) for name in _COUNTERS}

    def export_state(self) -> dict:
        """Every counter plus the full pause log, JSON-serializable."""
        state: dict = self.snapshot()
        state["pauses"] = [
            [pause.clock, pause.kind, pause.work, pause.reclaimed, pause.live]
            for pause in self.pauses
        ]
        return state

    def import_state(self, state: dict) -> None:
        """Replace every counter and the pause log with a snapshot's."""
        for key in self.snapshot():
            setattr(self, key, state[key])
        self.pauses = [
            PauseRecord(
                clock=clock, kind=kind, work=work, reclaimed=reclaimed, live=live
            )
            for clock, kind, work, reclaimed, live in state["pauses"]
        ]

    def summary(self) -> dict[str, float]:
        """A flat dict of headline numbers, for tables and CLI output."""
        return {
            "words_allocated": self.words_allocated,
            "objects_allocated": self.objects_allocated,
            "words_marked": self.words_marked,
            "words_copied": self.words_copied,
            "words_swept": self.words_swept,
            "words_reclaimed": self.words_reclaimed,
            "roots_traced": self.roots_traced,
            "collections": self.collections,
            "minor_collections": self.minor_collections,
            "major_collections": self.major_collections,
            "mark_cons": self.mark_cons,
            "gc_mutator_ratio": self.gc_mutator_ratio(),
            "max_pause_work": self.max_pause_work,
        }


#: Every cumulative counter of :class:`GcStats`, in field order.
_COUNTERS = tuple(
    spec.name for spec in fields(GcStats) if spec.name != "pauses"
)
