"""The artifact cache: keying, invalidation, corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.perf.cache import ArtifactCache, source_digest


def test_miss_then_hit(tmp_path) -> None:
    cache = ArtifactCache(tmp_path, digest="d1")
    assert cache.get("table1") is None
    cache.put("table1", {"rows": [1, 2, 3]})
    assert cache.get("table1") == {"rows": [1, 2, 3]}


def test_source_digest_change_invalidates(tmp_path) -> None:
    old = ArtifactCache(tmp_path, digest="before-edit")
    old.put("table1", "stale artifact")
    new = ArtifactCache(tmp_path, digest="after-edit")
    assert new.get("table1") is None
    # The old entry is unreachable, not corrupted: the old digest
    # still finds it.
    assert old.get("table1") == "stale artifact"


def test_corrupt_entry_is_a_miss(tmp_path) -> None:
    cache = ArtifactCache(tmp_path, digest="d1")
    path = cache.put("table1", "good")
    path.write_text("{ not json", encoding="utf-8")
    assert cache.get("table1") is None


def test_entry_with_foreign_key_is_a_miss(tmp_path) -> None:
    # A truncated-filename collision must not serve a wrong value: the
    # full key inside the entry is checked on read.
    cache = ArtifactCache(tmp_path, digest="d1")
    path = cache.entry_path("table1")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"key": "somebody-else", "value": "wrong"}),
        encoding="utf-8",
    )
    assert cache.get("table1") is None


def test_bit_rotted_value_is_a_miss_and_warns(tmp_path) -> None:
    # A value that still parses, under the right key, but no longer
    # matches the checksum stored with it is never served.
    cache = ArtifactCache(tmp_path, digest="d1")
    path = cache.put("table1", {"text": "Table 1", "payload": [1, 2, 3]})
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["value"]["payload"][1] = 7
    path.write_text(json.dumps(entry), encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="'table1'.*checksum"):
        assert cache.get("table1") is None


def test_entry_without_checksum_is_a_miss(tmp_path) -> None:
    cache = ArtifactCache(tmp_path, digest="d1")
    path = cache.put("table1", "good")
    entry = json.loads(path.read_text(encoding="utf-8"))
    del entry["checksum"]
    path.write_text(json.dumps(entry), encoding="utf-8")
    with pytest.warns(RuntimeWarning):
        assert cache.get("table1") is None


def test_source_digest_tracks_file_content(tmp_path) -> None:
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text("x = 1\n", encoding="utf-8")
    before = source_digest(root)
    assert before == source_digest(root)
    (root / "mod.py").write_text("x = 2\n", encoding="utf-8")
    assert source_digest(root) != before
    # Adding a file changes it too.
    (root / "new.py").write_text("", encoding="utf-8")
    edited = source_digest(root)
    assert edited != before
    (root / "new.py").unlink()


def test_real_source_digest_is_stable() -> None:
    assert source_digest() == source_digest()
