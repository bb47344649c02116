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
    analysis_digest,
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


def rewrite_header(store, edit):
    """Apply ``edit`` to the parsed header and write it back, payload as is."""
    head, _, payload = store.path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    store.path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


class TestAnalysisDigest:
    @pytest.fixture()
    def store(self, tmp_path, small_prospector):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(
            small_prospector.registry,
            small_prospector.mined_jungloids,
            analysis=small_prospector.verdicts.to_dict(),
        )
        return store

    def test_manifest_digests_the_section(self, store, small_prospector):
        loaded = store.load()
        analysis = small_prospector.verdicts.to_dict()
        assert SCHEMA_VERSION == 5
        assert loaded.manifest.analysis_sha256 == analysis_digest(analysis)
        assert loaded.analysis == analysis and loaded.analysis_fault is None

    def test_no_section_no_digest(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        assert store.save(small_registry).analysis_sha256 is None
        loaded = store.load()
        assert loaded.analysis is None and loaded.analysis_fault is None

    def test_digest_ignores_key_order_and_whitespace(self, store):
        # rewrite_header also re-serializes with spaces after separators.
        def reorder(header):
            header["analysis"]["pairs"] = [
                dict(reversed(list(pair.items()))) for pair in header["analysis"]["pairs"]
            ]

        rewrite_header(store, reorder)
        assert store.load().analysis_fault is None

    def test_edited_verdict_is_a_fault(self, store):
        def edit(header):
            assert header["analysis"]["pairs"][0]["verdict"] == "justified"
            header["analysis"]["pairs"][0]["verdict"] = "inviable"

        rewrite_header(store, edit)
        loaded = store.load()
        assert loaded.analysis["pairs"][0]["verdict"] == "inviable"  # as read
        assert "SHA-256 mismatch" in loaded.analysis_fault

    def test_missing_digest_is_a_fault(self, store):
        rewrite_header(store, lambda header: header["manifest"].pop("analysis_sha256"))
        assert "no analysis_sha256" in store.load().analysis_fault

    def test_dropped_section_is_a_fault(self, store):
        rewrite_header(store, lambda header: header.pop("analysis"))
        loaded = store.load()
        assert loaded.analysis is None
        assert "lacks" in loaded.analysis_fault

    def test_v3_section_loads_unchecked(self, store):
        def downgrade(header):
            header["schema_version"] = 3
            header["manifest"].pop("analysis_sha256")
            header["analysis"]["pairs"][0]["verdict"] = "inviable"

        rewrite_header(store, downgrade)
        loaded = store.load()
        assert loaded.migrated_from == 3
        assert loaded.analysis_fault is None
        assert loaded.analysis["pairs"][0]["verdict"] == "inviable"

    def test_malformed_digest_is_a_format_error(self, store):
        def corrupt(header):
            header["manifest"]["analysis_sha256"] = 7

        rewrite_header(store, corrupt)
        with pytest.raises(SnapshotFormatError, match="analysis_sha256"):
            store.load()


class TestStagesDigest:
    def test_manifest_records_the_stage_digest(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        assert store.save(small_registry).stages_sha256 is None
        digest = "c" * 64
        assert store.save(small_registry, stages_sha256=digest).stages_sha256 == digest
        assert store.load().manifest.stages_sha256 == digest

    def test_v4_header_loads_as_a_migration(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry, stages_sha256="c" * 64)

        def downgrade(header):
            header["schema_version"] = 4
            header["manifest"].pop("stages_sha256")

        rewrite_header(store, downgrade)
        loaded = store.load()
        assert loaded.migrated_from == 4
        assert loaded.manifest.stages_sha256 is None

    def test_malformed_stage_digest_is_a_format_error(self, tmp_path, small_registry):
        store = SnapshotStore(tmp_path / "graph.psnap")
        store.save(small_registry)
        rewrite_header(store, lambda header: header["manifest"].update(stages_sha256=[1]))
        with pytest.raises(SnapshotFormatError, match="stages_sha256"):
            store.load()


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
