"""Tests for the snapshot file format, atomic writes, and manifest."""

import json
import os

import pytest

from repro.graph import bundle_to_json
from repro.store import (
    SCHEMA_VERSION,
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotManifest,
    SnapshotReadError,
    SnapshotStore,
    atomic_write_bytes,
    atomic_write_text,
    payload_digest,
)


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]

    def test_text_helper(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "héllo")
        assert path.read_text(encoding="utf-8") == "héllo"


class TestSaveAndLoad:
    def test_roundtrip(self, tmp_path, small_prospector):
        store = SnapshotStore(tmp_path / "graph.psnap")
        manifest = store.save(
            small_prospector.registry,
            small_prospector.mined_jungloids,
            graph=small_prospector.graph,
        )
        loaded = store.load()
        assert loaded.registry.stats() == small_prospector.registry.stats()
        assert len(loaded.mined) == len(small_prospector.mined_jungloids)
        assert loaded.manifest == manifest
        assert loaded.migrated_from is None

    def test_manifest_counts_match_reality(self, tmp_path, small_prospector):
        store = SnapshotStore(tmp_path / "graph.psnap")
        manifest = store.save(
            small_prospector.registry,
            small_prospector.mined_jungloids,
            graph=small_prospector.graph,
        )
        assert manifest.type_count == len(small_prospector.registry)
        assert manifest.mined_count == len(small_prospector.mined_jungloids)
        assert manifest.node_count == len(small_prospector.graph.nodes)
        assert manifest.payload_bytes > 0
        assert len(manifest.payload_sha256) == 64

    def test_header_is_one_json_line(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        SnapshotStore(path).save(
            small_prospector.registry, small_prospector.mined_jungloids
        )
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["format"] == "prospector-snapshot"
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["manifest"]["payload_sha256"] == payload_digest(payload)

    def test_save_rotates_previous_generation(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        first = store.path.read_bytes()
        store.save(small_registry)
        assert store.previous_path.exists()
        assert store.previous_path.read_bytes() == first
        assert store.load(which="previous").registry.stats() == small_registry.stats()

    def test_save_without_rotate_keeps_previous(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        store.save(small_registry)  # rotates: .prev now exists
        prev_bytes = store.previous_path.read_bytes()
        store.save(small_registry, rotate=False)
        assert store.previous_path.read_bytes() == prev_bytes

    def test_missing_file_is_read_error(self, tmp_path):
        with pytest.raises(SnapshotReadError):
            SnapshotStore(tmp_path / "nope.psnap").load()

    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "empty.psnap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotCorruptError):
            SnapshotStore(path).load()

    def test_garbage_file_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.psnap"
        path.write_bytes(b"\x00\x01\x02 not a snapshot at all")
        with pytest.raises(SnapshotCorruptError):
            SnapshotStore(path).load()


class TestSchemaVersions:
    def test_legacy_bare_bundle_migrates(self, tmp_path, small_registry):
        path = tmp_path / "legacy.json"
        path.write_text(bundle_to_json(small_registry, []), encoding="utf-8")
        loaded = SnapshotStore(path).load()
        assert loaded.migrated_from == 1
        assert loaded.manifest is None
        assert loaded.registry.stats() == small_registry.stats()

    def test_pretty_legacy_bundle_migrates(self, tmp_path, small_registry):
        path = tmp_path / "legacy.json"
        path.write_text(bundle_to_json(small_registry, [], indent=2), encoding="utf-8")
        assert SnapshotStore(path).load().migrated_from == 1

    def test_future_schema_rejected(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        raw = store.path.read_bytes()
        head, _, payload = raw.partition(b"\n")
        header = json.loads(head)
        header["schema_version"] = SCHEMA_VERSION + 1
        store.path.write_bytes(
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotFormatError, match="newer than supported"):
            store.load()

    def test_manifest_missing_key_is_format_error(self):
        with pytest.raises(SnapshotFormatError, match="payload_sha256"):
            SnapshotManifest.from_dict({"payload_bytes": 3})

    def test_v2_header_migrates_with_analysis_none(self, tmp_path, small_registry):
        # A pre-analysis (v2) snapshot: same payload, no "analysis" key.
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        raw = store.path.read_bytes()
        head, _, payload = raw.partition(b"\n")
        header = json.loads(head)
        header["schema_version"] = 2
        header.pop("analysis", None)
        store.path.write_bytes(
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        )
        loaded = store.load()
        assert loaded.migrated_from == 2
        assert loaded.analysis is None

    def test_v3_analysis_round_trips(self, tmp_path, small_prospector):
        store = SnapshotStore(tmp_path / "graph.psnap")
        analysis = small_prospector.verdicts.to_dict()
        assert analysis["pairs"]  # the small corpus witnesses casts
        store.save(
            small_prospector.registry,
            small_prospector.mined_jungloids,
            graph=small_prospector.graph,
            analysis=analysis,
        )
        loaded = store.load()
        assert loaded.migrated_from is None
        assert loaded.analysis == analysis

    def test_analysis_key_does_not_change_payload_digest(
        self, tmp_path, small_prospector
    ):
        plain = SnapshotStore(tmp_path / "plain.psnap")
        carried = SnapshotStore(tmp_path / "carried.psnap")
        a = plain.save(small_prospector.registry, small_prospector.mined_jungloids)
        b = carried.save(
            small_prospector.registry,
            small_prospector.mined_jungloids,
            analysis=small_prospector.verdicts.to_dict(),
        )
        assert a.payload_sha256 == b.payload_sha256

    def test_malformed_analysis_is_passed_through(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        raw = store.path.read_bytes()
        head, _, payload = raw.partition(b"\n")
        header = json.loads(head)
        header["analysis"] = "not-a-dict"
        store.path.write_bytes(
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        )
        # Undecoded: the Prospector's decode records it as a fault.
        assert store.load().analysis == "not-a-dict"


class TestInjectableReader:
    def test_custom_reader_is_used(self, tmp_path, small_registry):
        path = tmp_path / "graph.psnap"
        SnapshotStore(path).save(small_registry)
        reads = []

        def spy(p):
            reads.append(os.fspath(p))
            return path.read_bytes()

        SnapshotStore(path, read_bytes=spy).load()
        assert reads == [os.fspath(path)]
