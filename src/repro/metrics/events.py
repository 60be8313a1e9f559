"""The structured GC event stream: seekable NDJSON telemetry.

Every record is one JSON object on one line — newline-delimited JSON
(NDJSON) — so consumers can seek, tail, and stream-parse without
loading the file.  The schema is versioned: every record carries
``"v": EVENT_SCHEMA_VERSION`` plus a monotonically increasing ``seq``
and the event kind under ``"event"``.  Event kinds emitted by the
instrumentation plane:

* ``collection-start`` / ``collection-end`` — spans around every
  collection, with the work decomposition on the end record;
* ``slice`` — one bounded mark increment of the incremental
  collector, with its budget, actual work, and gray backlog;
* ``handoff`` / ``reconcile`` — the concurrent collector's snapshot
  handoff to its off-thread marker and the SATB reconciliation that
  closes the cycle (root count, snapshot words, marker vs reconcile
  mark work);
* ``promotion`` — survivors moved to an older generation or step;
* ``renumbering`` — a non-predictive step renumbering (§4);
* ``heap-expansion`` — a space's capacity grew;
* ``space-created`` — a heap space was added;
* ``fault-injected`` / ``fault-detected`` — the chaos harness's
  injection and detection records (see :mod:`repro.resilience.chaos`);
* ``checkpoint`` / ``restore`` — crash-consistent snapshot capture and
  resume points (see :mod:`repro.resilience.snapshot`);
* ``watchdog-abort`` — the concurrent collector's supervisor killed a
  wedged marker, discarded its mark cycle (nothing had been swept, so
  no object or allocation is lost), and degraded to inline marking.

Files are written via the shared atomic helpers, so a telemetry file
is always a complete, parseable stream — never a torn write.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventStream",
    "parse_ndjson",
]

#: Bump when a breaking change lands in the record layout; additive
#: payload fields do not require a bump.  v2 added the ``slice``
#: record kind (incremental mark increments) and the kind
#: ``"incremental"`` on ``collection-start`` for safepoint-opened
#: cycles, both of which v1 consumers would misgroup.  v3 added the
#: ``handoff``/``reconcile`` span kinds and the ``"concurrent"``
#: ``collection-start`` kind for the concurrent collector's
#: off-thread mark cycles.  v4 added the ``checkpoint``/``restore``
#: span kinds for crash-consistent snapshots and the
#: ``watchdog-abort`` kind for the supervised abort of a wedged
#: concurrent mark cycle.
EVENT_SCHEMA_VERSION = 4


class EventStream:
    """An in-memory, append-only buffer of telemetry records.

    Recording is cold-path only (collections, faults, geometry
    changes), so buffering in memory and writing once at the end keeps
    the mutator's hot allocation path untouched.
    """

    __slots__ = ("_events", "_seq")

    def __init__(self) -> None:
        self._events: list[dict[str, Any]] = []
        self._seq = 0

    def emit(self, event: str, /, **payload: Any) -> dict[str, Any]:
        """Append one record; returns it (mostly for tests)."""
        record: dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "event": event,
        }
        record.update(payload)
        self._events.append(record)
        self._seq += 1
        return record

    def events(self, event: str | None = None) -> list[dict[str, Any]]:
        """All records, or just those of one kind, oldest first."""
        if event is None:
            return list(self._events)
        return [e for e in self._events if e["event"] == event]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._events)

    def to_ndjson(self) -> str:
        """One sorted-key JSON object per line (deterministic bytes)."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self._events
        )

    def write(self, path: Path | str) -> None:
        """Atomically persist the stream (write-fsync-rename)."""
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(Path(path), self.to_ndjson())


def parse_ndjson(text: str) -> list[dict[str, Any]]:
    """Parse NDJSON back into records, skipping blank lines."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
