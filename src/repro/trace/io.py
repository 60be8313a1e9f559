"""Persistence for lifetime traces.

Recording a lifetime trace is the expensive half of the Section 7
measurements (it runs the program under frequent whole-heap sampling);
analyzing one is cheap.  Saving traces lets the survival tables and
storage profiles be recomputed offline — different bracket widths,
different thresholds — without rerunning the program.

Format: JSON lines.  The first line is a header with the clock bounds
and a format version; each following line is one object record
``[obj_id, size, birth, death, kind]`` with ``null`` for survivors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.trace.events import LifetimeTrace, ObjectRecord

__all__ = ["TraceFormatError", "load_trace", "save_trace"]

_FORMAT = "repro-lifetime-trace"
_VERSION = 1


class TraceFormatError(ValueError):
    """The file is not a valid lifetime-trace dump."""


def save_trace(trace: LifetimeTrace, path: str | Path) -> None:
    """Write a trace as JSON lines (atomically: no torn trace files)."""
    import io

    from repro.resilience.atomic import atomic_write_text

    buffer = io.StringIO()
    _write(trace, buffer)
    atomic_write_text(Path(path), buffer.getvalue())


def _write(trace: LifetimeTrace, handle: IO[str]) -> None:
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "start_clock": trace.start_clock,
        "end_clock": trace.end_clock,
        "records": len(trace.records),
    }
    handle.write(json.dumps(header) + "\n")
    for record in trace.records:
        handle.write(
            json.dumps(
                [
                    record.obj_id,
                    record.size,
                    record.birth,
                    record.death,
                    record.kind,
                ]
            )
            + "\n"
        )


def load_trace(path: str | Path) -> LifetimeTrace:
    """Read a trace written by :func:`save_trace`."""
    with open(path, encoding="utf-8") as handle:
        return _read(handle)


def _read(handle: IO[str]) -> LifetimeTrace:
    header_line = handle.readline()
    if not header_line:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"bad header: {error}") from error
    if (
        not isinstance(header, dict)
        or header.get("format") != _FORMAT
    ):
        raise TraceFormatError("not a lifetime-trace file")
    if header.get("version") != _VERSION:
        raise TraceFormatError(
            f"unsupported trace version {header.get('version')!r}"
        )
    clocks = (header.get("start_clock"), header.get("end_clock"))
    if not all(type(clock) is int for clock in clocks):
        raise TraceFormatError(f"bad header clocks {clocks}")
    records = []
    for line_number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            obj_id, size, birth, death, kind = json.loads(line)
        except (ValueError, TypeError) as error:
            raise TraceFormatError(
                f"bad record on line {line_number}: {error}"
            ) from error
        if not (
            type(obj_id) is type(size) is type(birth) is int
            and (death is None or type(death) is int)
            and type(kind) is str
        ):
            raise TraceFormatError(f"bad record on line {line_number}")
        records.append(
            ObjectRecord(
                obj_id=obj_id, size=size, birth=birth, death=death, kind=kind
            )
        )
    declared = header.get("records")
    if declared is not None and declared != len(records):
        raise TraceFormatError(
            f"header declares {declared} records, found {len(records)}"
        )
    return LifetimeTrace(
        records=records, start_clock=clocks[0], end_clock=clocks[1]
    )
