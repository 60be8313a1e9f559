"""Crash-consistent checkpoint/restore of a live heap and collector.

A *snapshot* freezes everything a process would need to resume a
tenant heap after dying: the heap contents, the root set, the
collector's private state — grown capacities, remembered sets, step
order, an open SATB mark cycle, even a concurrent marker's in-flight
result — and the cumulative :class:`~repro.gc.stats.GcStats` ledger.
The unit of correctness is *resume equivalence*: restoring a snapshot
taken at any allocation safepoint and replaying the rest of the script
must be byte-identical to never having stopped (the ``resume`` suite
of :mod:`repro.verify.differential` proves this for all seven
collectors).

On disk a snapshot is one JSON document:

``{"format": "repro-heap-snapshot", "version": 1,
   "checksum": sha256(canonical payload JSON), "payload": {...}}``

The payload carries the heap's name (``"backend": "flat"``, the only
one; :func:`verify_snapshot` rejects any other), the collector
descriptor (``kind`` + :class:`~repro.gc.registry.GcGeometry` fields,
enough for :func:`restore` to rebuild a fresh context), and the four
state sections.  The checksum is computed over the canonical serialization
(sorted keys, compact separators) of the payload alone, so the
envelope fields can be inspected or rewritten without invalidating
it — and any corruption of the payload is detected *before* a single
byte reaches a heap.  Writes go through the atomic
write-fsync-rename-fsync helpers, so a crash mid-save leaves the
previous snapshot intact.

Restore ordering matters and is fixed here: the collector's private
state is imported *first* (it only touches content-independent
structure — capacities, step order, remset entries, cycle flags — and
must run before heap import so renamed/reordered spaces are matched by
name), then the heap contents, then roots, then stats.

:func:`capture_state`/:func:`restore_state` are the raw in-memory
halves (no envelope, no checksum) that :func:`checkpoint` and the
restore functions wrap.  Nothing on a collector's hot path calls them:
the concurrent collector's watchdog recovers a wedged cycle by
discarding it (an unswept cycle has freed nothing), not by restoring
a capture.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.heap.flat import FlatHeap
from repro.resilience.atomic import atomic_write_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gc.collector import Collector
    from repro.gc.registry import GcGeometry

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "capture_state",
    "checkpoint",
    "load_snapshot",
    "restore",
    "restore_state",
    "save_snapshot",
    "verify_snapshot",
]

#: Envelope format tag; anything else is rejected unread.
SNAPSHOT_FORMAT = "repro-heap-snapshot"
#: Current snapshot version.  Bump on any payload layout change; old
#: versions are rejected with a :class:`SnapshotError` (no migration —
#: snapshots are recovery points, not archives).
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot failed validation or could not be restored."""


def _payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical payload serialization.

    Canonical = sorted keys, compact separators: any JSON value that
    survives a parse round-trip (everything the exporters emit)
    re-serializes to the same bytes, so the checksum computed at
    :func:`checkpoint` time matches the one recomputed after a load.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# In-memory state capture (no envelope)
# ----------------------------------------------------------------------


def capture_state(collector: "Collector") -> dict:
    """The four raw state sections for ``collector``'s live context.

    Synchronizes with an in-flight concurrent marker (its result is
    materialized into the collector state), so the capture is a
    self-contained resume point.
    """
    return {
        "backend": collector.heap.backend_name,
        "collector_state": collector.export_state(),
        "heap": collector.heap.export_state(),
        "roots": collector.roots.export_state(),
        "stats": collector.stats.export_state(),
    }


def restore_state(collector: "Collector", state: dict) -> None:
    """Overwrite ``collector``'s live context with a captured state.

    The collector must be of the kind and geometry the state was
    captured from (its spaces are matched by name).  Collector state
    first, then heap contents, then roots, then stats — see the module
    docstring for why this order is load-bearing.
    """
    collector.import_state(state["collector_state"])
    collector.heap.import_state(state["heap"])
    collector.roots.import_state(state["roots"])
    collector.stats.import_state(state["stats"])


# ----------------------------------------------------------------------
# Checkpoint / restore (enveloped, checksummed)
# ----------------------------------------------------------------------


def checkpoint(
    collector: "Collector", kind: str, geometry: "GcGeometry"
) -> dict:
    """A complete, checksummed snapshot document for ``collector``.

    ``kind`` and ``geometry`` must describe how the collector was
    built (:func:`repro.gc.registry.make_collector`); :func:`restore`
    replays that construction before importing the state.
    """
    payload = capture_state(collector)
    payload["collector"] = {"kind": kind, "geometry": asdict(geometry)}
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "checksum": _payload_checksum(payload),
        "payload": payload,
    }
    if collector.metrics is not None:
        collector.metrics.event(
            "checkpoint",
            clock=collector.heap.clock,
            kind=kind,
            backend=payload["backend"],
        )
    return document


def verify_snapshot(document: object) -> dict:
    """Validate a snapshot document; returns its payload.

    Raises:
        SnapshotError: wrong structure, format tag, version, a
            checksum mismatch, or a heap backend this build does not
            have.
    """
    if not isinstance(document, dict):
        raise SnapshotError(
            f"snapshot document must be a JSON object, got "
            f"{type(document).__name__}"
        )
    if document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"not a heap snapshot (format {document.get('format')!r})"
        )
    if document.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {document.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload missing or malformed")
    checksum = _payload_checksum(payload)
    if checksum != document.get("checksum"):
        raise SnapshotError(
            f"snapshot checksum mismatch: payload hashes to "
            f"{checksum[:12]}..., envelope claims "
            f"{str(document.get('checksum'))[:12]}..."
        )
    if payload.get("backend") != FlatHeap.backend_name:
        raise SnapshotError(
            f"snapshot of heap backend {payload.get('backend')!r} "
            f"(known: {FlatHeap.backend_name})"
        )
    return payload


def restore(document: dict):
    """Rebuild a fresh ``(heap, roots, collector)`` context from a
    snapshot document.

    Validates the envelope, constructs the heap and the collector
    exactly as the registry originally did, and imports the four
    state sections.  Any structural inconsistency the importers
    detect (a payload that passed the checksum but lies about itself
    can only come from a buggy writer) surfaces as
    :class:`SnapshotError` too.
    """
    payload = verify_snapshot(document)
    from repro.gc.registry import GcGeometry, make_collector
    from repro.heap.roots import RootSet

    descriptor = payload.get("collector")
    if not isinstance(descriptor, dict):
        raise SnapshotError("snapshot carries no collector descriptor")
    try:
        geometry = GcGeometry(**descriptor["geometry"])
        heap = FlatHeap()
        roots = RootSet()
        collector = make_collector(descriptor["kind"], heap, roots, geometry)
        restore_state(collector, payload)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"snapshot restore failed: {exc}") from exc
    if collector.metrics is not None:
        collector.metrics.event(
            "restore",
            clock=heap.clock,
            kind=descriptor["kind"],
            backend=payload["backend"],
        )
    return heap, roots, collector


# ----------------------------------------------------------------------
# Disk IO
# ----------------------------------------------------------------------


def save_snapshot(path: Path | str, document: dict) -> Path:
    """Write a snapshot document via the atomic helpers.

    The write-fsync-rename-fsync sequence guarantees a reader (or a
    restarted process) sees either the previous complete snapshot or
    this one, never a torn hybrid.
    """
    return atomic_write_json(path, document)


def load_snapshot(path: Path | str) -> dict:
    """Read and validate a snapshot file; returns the document.

    Raises:
        SnapshotError: unreadable file, invalid JSON, or any envelope/
            checksum failure — one exception type for "do not trust
            this file", whatever went wrong first.
    """
    try:
        with Path(path).open(encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    verify_snapshot(document)
    return document


def register(subparsers) -> None:
    """``repro-gc snapshot save|load|verify``."""
    from repro.cli import positive_int, seed
    from repro.gc.registry import COLLECTOR_KINDS

    sub = subparsers.add_parser(
        "snapshot",
        help=(
            "crash-consistent heap snapshots: save a checksummed "
            "checkpoint of a live collector, verify a snapshot file's "
            "integrity, or restore one into a fresh context"
        ),
    )
    snapshot_sub = sub.add_subparsers(dest="snapshot_command", required=True)
    save = snapshot_sub.add_parser(
        "save",
        help=(
            "replay a seeded mutator script under a collector and "
            "checkpoint the resulting live context to a file"
        ),
    )
    save.add_argument("path", help="snapshot file to write")
    save.add_argument(
        "--collector", choices=COLLECTOR_KINDS, default="generational"
    )
    save.add_argument(
        "--ops", type=positive_int, default=600, help="mutator script length"
    )
    save.add_argument("--seed", type=seed, default=0)
    save.set_defaults(func=_cmd_save)
    load = snapshot_sub.add_parser(
        "load",
        help=(
            "validate a snapshot file (format, version, checksum) and "
            "restore it into a fresh heap/roots/collector context"
        ),
    )
    load.add_argument("path", help="snapshot file to read")
    load.set_defaults(func=_cmd_load)
    ver = snapshot_sub.add_parser(
        "verify",
        help=(
            "validate a snapshot file's envelope and checksum without "
            "restoring it"
        ),
    )
    ver.add_argument("path", help="snapshot file to read")
    ver.set_defaults(func=_cmd_load)


def _cmd_save(args) -> int:
    from repro.gc.registry import collector_factory
    from repro.verify.differential import VERIFY_GEOMETRY
    from repro.verify.replay import ReplayContext, generate_script

    context = ReplayContext(collector_factory(args.collector, VERIFY_GEOMETRY))
    context.run(generate_script(args.ops, args.seed))
    collector = context.collector
    document = checkpoint(collector, args.collector, VERIFY_GEOMETRY)
    path = save_snapshot(args.path, document)
    print(
        f"snapshot of {args.collector} on backend "
        f"{document['payload']['backend']} (clock {collector.heap.clock}, "
        f"{collector.heap.object_count} live objects) "
        f"written to {path}"
    )
    return 0


def _cmd_load(args) -> int:
    """``snapshot load`` restores the file; ``snapshot verify`` only
    validates it."""
    import sys

    path = Path(args.path)
    try:
        document = load_snapshot(path)
        payload = document["payload"]
        if args.snapshot_command == "load":
            heap, _roots, collector = restore(document)
    except SnapshotError as exc:
        print(f"[FAIL] {path}: {exc}", file=sys.stderr)
        return 1
    if args.snapshot_command == "load":
        print(
            f"restored {collector.name} on backend {heap.backend_name}: "
            f"clock {heap.clock}, {heap.object_count} live "
            f"objects, {collector.stats.collections} collections on record"
        )
        return 0
    descriptor = payload.get("collector")
    kind = descriptor.get("kind") if isinstance(descriptor, dict) else None
    print(
        f"[PASS] {path}: valid version-{document['version']} "
        f"snapshot of {kind} on backend "
        f"{payload.get('backend')} "
        f"(checksum {document['checksum'][:12]}...)"
    )
    return 0
