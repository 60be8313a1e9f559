"""On-disk artifact cache keyed by the source tree's digest.

Every experiment is a pure function of (its name, the ``repro``
package's source), so an artifact produced once is valid until the
source changes.  The cache stores one JSON file per entry under
``.repro_cache/`` and bakes a key of

    sha256(name, source digest)

into both the filename and the entry body.  Any edit to any ``.py``
file under ``src/repro/`` changes the digest, which changes every key,
which makes every old entry unreachable — invalidation is automatic
and conservative (there is no per-module dependency tracking; touching
a docstring invalidates everything).

The cache is also a sweep's resume point: ``repro-gc all`` stores each
experiment the moment it settles, so a sweep killed at any instant
loses only the experiments in flight, and rerunning it serves the rest.
Each entry carries a SHA-256 checksum of its canonical value; an entry
whose value no longer matches it (bit rot, a hand edit) is a miss with
a :class:`RuntimeWarning`, so a damaged entry costs one rerun and is
never served.  Stale files from earlier digests are left on disk; they
are small and harmless.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Any

__all__ = ["ArtifactCache", "CACHE_DIR_NAME", "source_digest"]

#: Directory created next to wherever ``repro-gc all`` runs.
CACHE_DIR_NAME = ".repro_cache"


def source_digest(package_root: Path | None = None) -> str:
    """sha256 over every ``.py`` file of the ``repro`` package.

    Files are folded in sorted relative-path order with NUL separators,
    so renames, additions, deletions and edits all change the digest.
    """
    root = (
        package_root
        if package_root is not None
        else Path(__file__).resolve().parents[1]
    )
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _checksum(value: Any) -> str:
    """SHA-256 of the value's canonical (sorted, compact) JSON."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class ArtifactCache:
    """A content-addressed store of experiment artifacts.

    Args:
        directory: where entry files live; created lazily on first
            :meth:`put`.
        digest: the source digest to key under; computed from the
            installed package when omitted (tests inject fixed digests
            to exercise invalidation without editing files).
    """

    def __init__(
        self, directory: Path | str, *, digest: str | None = None
    ) -> None:
        self.directory = Path(directory)
        self.digest = digest if digest is not None else source_digest()

    @classmethod
    def default(cls) -> "ArtifactCache":
        """The CLI's cache: ``.repro_cache/`` under the current directory."""
        return cls(Path.cwd() / CACHE_DIR_NAME)

    def key(self, name: str) -> str:
        blob = json.dumps(
            {"name": name, "source": self.digest}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def entry_path(self, name: str) -> Path:
        return self.directory / f"{name}-{self.key(name)[:16]}.json"

    def get(self, name: str) -> Any | None:
        """The cached value, or None on a miss, a stale digest or a
        damaged entry (the last with a :class:`RuntimeWarning`)."""
        path = self.entry_path(name)
        try:
            with path.open(encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != self.key(name):
            return None  # truncated-key filename collision
        value = entry.get("value")
        if _checksum(value) != entry.get("checksum"):
            warnings.warn(
                f"artifact cache: skipping corrupt entry for {name!r} "
                f"(checksum validation failed); it will be re-run",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return value

    def put(self, name: str, value: Any) -> Path:
        """Store a JSON-able value; atomic write-fsync-rename."""
        from repro.resilience.atomic import atomic_write_text

        entry = {
            "name": name,
            "key": self.key(name),
            "source": self.digest,
            "checksum": _checksum(value),
            "value": value,
        }
        return atomic_write_text(
            self.entry_path(name), json.dumps(entry, sort_keys=True)
        )
