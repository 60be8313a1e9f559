"""Crash-safe file writes: write-temp, fsync, rename.

Every artifact this repository persists — ``SLO_pause.json``, the
``.repro_cache/`` entries, exported experiment text/JSON — goes
through :func:`atomic_write_text` (or its JSON wrapper), so a worker
killed mid-write can never leave a truncated file behind.  The recipe is the standard one:

1. write the full content to a temporary file *in the same directory*
   (``os.replace`` is only atomic within a filesystem);
2. flush and ``fsync`` the descriptor so the bytes are durable before
   the rename makes them visible;
3. ``os.replace`` the temp file over the destination — atomic on
   POSIX and Windows alike;
4. ``fsync`` the containing directory, so the rename itself — the new
   directory entry — survives a power loss, not just the file bytes.
   Without this step a crash shortly after the rename can roll the
   directory back to the old name on some filesystems, silently
   undoing a "durable" write.

Readers therefore observe either the old complete content or the new
complete content, never a prefix.  The temp file carries a per-process
suffix so concurrent writers (parallel sweep workers updating cache
entries) cannot collide on the scratch name; the last rename wins,
which is correct for content-addressed and append-only-log artifacts
alike.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_json", "atomic_write_text"]


def atomic_write_text(
    path: Path | str, text: str, *, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path``'s content with ``text``.

    Creates parent directories as needed.  Returns the destination
    path.  On any failure the temp file is removed and the original
    destination (if it existed) is left untouched.
    """
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    scratch = destination.with_name(
        f"{destination.name}.{os.getpid()}.tmp"
    )
    try:
        with scratch.open("w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, destination)
        _fsync_directory(destination.parent)
    except BaseException:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise
    return destination


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entries so a completed rename is durable.

    ``O_DIRECTORY`` is POSIX-only; on platforms without it (Windows)
    directory entries cannot be fsynced and the rename's atomicity is
    all we get, which matches the pre-existing behaviour there.
    """
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(
    path: Path | str,
    value: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
) -> Path:
    """Atomically write ``value`` as JSON (trailing newline included)."""
    return atomic_write_text(
        path,
        json.dumps(value, indent=indent, sort_keys=sort_keys) + "\n",
    )
