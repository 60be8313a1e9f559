"""Tests for the crash-consistent heap snapshot subsystem."""

import json
import os

import pytest

from repro.gc.registry import COLLECTOR_KINDS
from repro.resilience.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    _payload_checksum,
    capture_state,
    checkpoint,
    load_snapshot,
    restore,
    restore_state,
    save_snapshot,
    verify_snapshot,
)
from repro.verify.differential import VERIFY_GEOMETRY
from repro.verify.replay import generate_script, replay

from repro.gc.registry import collector_factory


def _live_collector(kind="generational", *, ops=80, seed=5):
    """A collector mid-life: a replayed script left real survivors."""
    base = collector_factory(kind, VERIFY_GEOMETRY)
    captured = []

    def factory(heap, roots):
        collector = base(heap, roots)
        captured.append(collector)
        return collector

    script = generate_script(ops, seed)
    replay(script, factory, checked=True)
    return captured[0]


def _survivors(heap):
    return list(heap.object_ids())


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["flat"])
    @pytest.mark.parametrize("kind", COLLECTOR_KINDS)
    def test_wire_roundtrip_is_lossless(self, kind, backend):
        collector = _live_collector(kind)
        document = checkpoint(collector, kind, VERIFY_GEOMETRY)
        wire = json.dumps(document, sort_keys=True)
        heap, roots, restored = restore(json.loads(wire))
        assert heap.backend_name == backend
        assert restored.name == collector.name
        assert _survivors(heap) == _survivors(collector.heap)
        assert heap.clock == collector.heap.clock
        assert restored.stats.export_state() == collector.stats.export_state()
        # The restored context re-checkpoints to the very same bytes.
        again = checkpoint(restored, kind, VERIFY_GEOMETRY)
        assert again["checksum"] == document["checksum"]

    def test_restored_collector_keeps_allocating(self):
        collector = _live_collector()
        document = checkpoint(collector, "generational", VERIFY_GEOMETRY)
        heap, roots, restored = restore(document)
        before = len(_survivors(heap))
        obj = restored.allocate_id(2)
        roots.set_global("fresh", obj)
        restored.collect()
        assert heap.contains_id(obj)
        assert len(_survivors(heap)) <= before + 1

    def test_capture_restore_state_rolls_back_mutation(self):
        collector = _live_collector("mark-sweep")
        state = capture_state(collector)
        clock = collector.heap.clock
        survivors = _survivors(collector.heap)
        collector.roots.set_global("late", collector.allocate_id(3))
        collector.collect()
        assert collector.heap.clock != clock
        restore_state(collector, state)
        assert collector.heap.clock == clock
        assert _survivors(collector.heap) == survivors


class TestEnvelopeValidation:
    def _document(self):
        collector = _live_collector()
        return checkpoint(collector, "generational", VERIFY_GEOMETRY)

    def test_accepts_pristine_document(self):
        payload = verify_snapshot(self._document())
        assert payload["collector"]["kind"] == "generational"

    def test_rejects_non_mapping(self):
        with pytest.raises(SnapshotError):
            verify_snapshot(["not", "a", "snapshot"])

    def test_rejects_wrong_format(self):
        document = self._document()
        document["format"] = "some-other-artifact"
        with pytest.raises(SnapshotError, match="format"):
            verify_snapshot(document)

    def test_rejects_wrong_version(self):
        document = self._document()
        document["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            verify_snapshot(document)

    def test_rejects_tampered_payload(self):
        document = self._document()
        document["payload"]["heap"]["clock"] += 1
        with pytest.raises(SnapshotError, match="checksum"):
            verify_snapshot(document)

    def test_rejects_missing_checksum(self):
        document = self._document()
        del document["checksum"]
        with pytest.raises(SnapshotError):
            verify_snapshot(document)

    def test_rejects_retired_backend_before_any_import(self):
        # A well-formed, correctly checksummed document for a heap this
        # build does not have fails validation, for every entry point.
        document = self._document()
        document["payload"]["backend"] = "object"
        document["checksum"] = _payload_checksum(document["payload"])
        with pytest.raises(SnapshotError, match="heap backend 'object'"):
            verify_snapshot(document)
        with pytest.raises(SnapshotError, match="heap backend 'object'"):
            restore(document)

    def test_format_constants_are_wired_through(self):
        document = self._document()
        assert document["format"] == SNAPSHOT_FORMAT
        assert document["version"] == SNAPSHOT_VERSION


class TestDiskRoundTrip:
    def test_save_then_load(self, tmp_path):
        collector = _live_collector("stop-and-copy")
        document = checkpoint(collector, "stop-and-copy", VERIFY_GEOMETRY)
        path = tmp_path / "heap.snapshot.json"
        save_snapshot(path, document)
        loaded = load_snapshot(path)
        assert loaded["checksum"] == document["checksum"]
        heap, roots, restored = restore(loaded)
        assert _survivors(heap) == _survivors(collector.heap)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "absent.json")

    def test_load_truncated_file_raises(self, tmp_path):
        collector = _live_collector()
        document = checkpoint(collector, "generational", VERIFY_GEOMETRY)
        path = tmp_path / "heap.snapshot.json"
        save_snapshot(path, document)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_kill_mid_save_keeps_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A crash during save must never clobber the last good
        snapshot: the atomic-write recipe renames a fully fsynced temp
        file or nothing at all."""
        collector = _live_collector("mark-sweep", seed=3)
        first = checkpoint(collector, "mark-sweep", VERIFY_GEOMETRY)
        path = tmp_path / "heap.snapshot.json"
        save_snapshot(path, first)

        collector.roots.set_global("late", collector.allocate_id(3))
        second = checkpoint(collector, "mark-sweep", VERIFY_GEOMETRY)
        assert second["checksum"] != first["checksum"]

        real_replace = os.replace

        def dying_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_snapshot(path, second)
        monkeypatch.setattr(os, "replace", real_replace)

        survivor = load_snapshot(path)
        assert survivor["checksum"] == first["checksum"]
        heap, _, _ = restore(survivor)
        assert heap.backend_name == "flat"
        # No scratch litter either.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
